"""The benchmark's traced mode (bench/spans.py) times droplab by rebinding
module-level names.  These tests keep every binding it names resolvable, so
a refactor of src/ cannot silently drop a layer from `bench/run.py --trace 1`.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from droplab import (DiscreteSampler, DropoutConfig, TrainConfig, make_rng,
                     sample_documents)
from droplab import experiments
from droplab.presets import equal_length_models

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import spans  # noqa: E402


@pytest.mark.parametrize("layer, module, name",
                         [t[:3] for t in spans.TARGETS])
def test_target_resolves_to_a_callable(layer, module, name):
    assert callable(spans._Binding(module, name).get())


def test_install_wraps_and_uninstall_restores():
    bindings = [spans._Binding(module, name)
                for _, module, name, _ in spans.TARGETS]
    originals = [b.get() for b in bindings]
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert all(b.get() is not o for b, o in zip(bindings, originals))
        train = sample_documents(DiscreteSampler(equal_length_models()[0]),
                                 100, make_rng(1, "trace"))
        cfg = TrainConfig(epochs=3, dropout=DropoutConfig(delta=0.5,
                                                          mc_replicates=1))
        experiments.fit_classifier(train, cfg)
        experiments.run_bias_check(equal_length_models()[0], (0.5,), 3)
    finally:
        recorder.uninstall()
    assert all(b.get() is o for b, o in zip(bindings, originals))
    seen = {s.name for s in recorder.spans}
    assert {"classifiers.train_dropout", "classifiers.recalibrate",
            "experiments.bias_check", "topics.enumerate",
            "topics.posterior"} <= seen
    assert np.isfinite([s.end - s.start for s in recorder.spans]).all()
