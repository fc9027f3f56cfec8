"""Traced runs: time droplab's layers from outside the library.

A Recorder rebinds the names through which droplab modules (and the
benchmark's own workload bodies) call each layer, so every call records a
span: layer name, start, end, parent span and thread.  Spans stay in memory
until the sample ends.  Nothing under src/ changes.

Layer times are inclusive and summed over calls and threads: a prediction
made inside evaluate_error counts toward both classifiers.evaluate_s and
classifiers.predict_s, and two grid threads can together log more layer time
than the body's wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

from droplab.verify import VERIFY_SUITES


def _docs(args, out) -> dict:
    return {"docs": len(out), "count_bytes": out.counts.nbytes}


def _thinned_cells(args, out) -> dict:
    # one binomial draw per count cell: mc replicates per epoch, plus the
    # pilot draw that sizes the step when no step size is given
    data, cfg = args[0], args[1]
    n, d = data.counts.shape
    draws = cfg.epochs * cfg.dropout.mc_replicates + (cfg.step_size is None)
    return {"cells": draws * n * d}


def _rows(args, out) -> dict:
    return {"rows": len(args[1])}


def _enumerated(args, out) -> dict:
    return {"cells": len(out)}


# (layer, module, name as that module binds it, work counter).  Rebinding the
# caller's name times exactly the calls that caller makes.
TARGETS = (
    ("experiments.grid", "droplab.experiments", "run_learning_curves", None),
    ("topics.sample", "droplab.experiments", "sample_documents", _docs),
    ("topics.sample", "droplab.diagnostics", "sample_documents", _docs),
    ("classifiers.train_dropout", "droplab.experiments",
     "train_logistic_dropout", _thinned_cells),
    ("classifiers.train_plain", "droplab.experiments", "train_logistic", None),
    ("classifiers.train_nb", "droplab.experiments", "train_naive_bayes", None),
    ("classifiers.recalibrate", "droplab.experiments",
     "recalibrate_intercept", None),
    ("classifiers.evaluate", "droplab.experiments", "evaluate_error", _rows),
    ("classifiers.predict", "droplab.classifiers", "LinearClassifier.predict",
     None),
    ("dropout.thin", "droplab.experiments", "thin_counts", None),
    ("experiments.altitude_sweep", "droplab.verify", "run_altitude_sweep",
     None),
    ("experiments.bias_check", "droplab.verify", "run_bias_check", None),
    ("experiments.bias_check", "droplab.experiments", "run_bias_check", None),
    ("bounds.berry_esseen", "droplab.verify", "berry_esseen_check", None),
    ("bounds.margin", "droplab.verify", "margin_condition", None),
    ("bounds.margin", "droplab.bounds", "margin_condition", None),
    ("stats.kolmogorov", "droplab.bounds", "kolmogorov_distance", None),
    ("diagnostics.excess_risk", "droplab.verify",
     "excess_risk_decomposition", None),
    ("topics.bayes_error", "droplab.topics", "bayes_error", None),
    ("topics.enumerate", "droplab.topics", "enumerate_counts", _enumerated),
    ("topics.enumerate", "droplab.experiments", "enumerate_counts",
     _enumerated),
    ("topics.posterior", "droplab.experiments", "bayes_posterior", None),
    ("topics.posterior", "droplab.dropout", "bayes_posterior", None),
) + tuple(
    # run_verification dispatches through this table
    (f"verify.{s.replace('-', '_')}", "droplab.verify", f"_SUITE_RUNNERS[{s}]",
     None) for s in VERIFY_SUITES)

# the span that encloses a whole curves body; not a layer of its own
ENTRY_LAYERS = {"experiments.grid"}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: dict = field(default_factory=dict)


class _Binding:
    """One rebindable name: a module or class attribute, or a dict entry."""

    def __init__(self, module: str, name: str):
        owner = importlib.import_module(module)
        if name.endswith("]"):
            attr, key = name[:-1].split("[")
            self.owner, self.key, self.item = getattr(owner, attr), key, True
        else:
            *path, self.key = name.split(".")
            for part in path:
                owner = getattr(owner, part)
            self.owner, self.item = owner, False

    def get(self):
        return self.owner[self.key] if self.item else getattr(self.owner,
                                                              self.key)

    def set(self, value):
        if self.item:
            self.owner[self.key] = value
        else:
            setattr(self.owner, self.key, value)


class Recorder:
    """Collects spans from every target while installed.

    With `fault` set to a layer name, that layer's wrappers raise ValueError
    instead of calling through, so the self-test can show that a failing
    layer reaches the failure count.
    """

    def __init__(self, fault: str | None = None):
        self.spans: list[Span] = []
        self.fault = fault
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[_Binding, object]] = []

    def _wrap(self, layer, fn, work):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if layer == self.fault:
                raise ValueError(f"injected fault in {layer}")
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(next(self._ids), layer, 0.0, 0.0,
                        stack[-1] if stack else None, threading.get_ident())
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)   # list.append is atomic under the GIL
            if work is not None:
                span.work = work(args, out)
            return out
        return timed

    def install(self):
        for layer, module, name, work in TARGETS:
            binding = _Binding(module, name)
            original = binding.get()
            binding.set(self._wrap(layer, original, work))
            self._restore.append((binding, original))

    def uninstall(self):
        while self._restore:
            binding, original = self._restore.pop()
            binding.set(original)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


TIMED_LAYERS = sorted({t[0] for t in TARGETS} - ENTRY_LAYERS)


def layer_metrics(spans: list[Span], body_s: float) -> dict:
    """Per-layer metrics of one traced body."""
    by_id = {s.id: s for s in spans}
    busy = defaultdict(float)
    work = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        busy[s.name] += s.end - s.start
        calls[s.name] += 1
        for key, value in s.work.items():
            work[f"{s.name}.{key}"] += value
    # the test set is sampled by the grid itself, the training sets in cells
    test_sample_s = sum(s.end - s.start for s in spans
                        if s.name == "topics.sample" and s.parent is not None
                        and by_id[s.parent].name in ENTRY_LAYERS)
    cells = work["classifiers.train_dropout.cells"]
    out = {f"{layer}_s": busy[layer] for layer in TIMED_LAYERS}
    out.update({
        "experiments.grid_s": busy["experiments.grid"],
        "topics.test_sample_s": test_sample_s,
        "topics.docs_sampled": work["topics.sample.docs"],
        "topics.count_mb": work["topics.sample.count_bytes"] / 1e6,
        "topics.enum_cells": work["topics.enumerate.cells"],
        "topics.posterior_calls": calls["topics.posterior"],
        "dropout.cells_thinned": cells,
        "classifiers.train_dropout_ns_per_cell":
            busy["classifiers.train_dropout"] / cells * 1e9 if cells else 0.0,
        "classifiers.eval_rows": work["classifiers.evaluate.rows"],
        "trace.uncovered_s": body_s - _covered(
            (s.start, s.end) for s in spans if s.name not in ENTRY_LAYERS),
    })
    return out
