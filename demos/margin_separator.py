"""When topics occupy well-separated directions of word space, a single
linear rule can give every topic center a unit margin, and its thinned
per-topic error decays like 1/sqrt(document length).

This script builds models whose topics live on disjoint word blocks,
checks the smallest-singular-value condition at increasing document
lengths, constructs the minimum-norm separator, and measures its thinned
per-topic error by Monte Carlo.
"""

import numpy as np

from droplab import (LinearClassifier, excess_risk_decomposition, make_rng,
                     margin_condition)
from droplab.presets import orthogonal_topic_model


def main():
    delta = 0.5
    mc = 500_000
    print(f"{'length':>8} {'sigma_min':>10} {'threshold':>10} {'holds':>6} "
          f"{'margin err':>11} {'worst topic err':>16} {'1/sqrt(len)':>12}")
    for k, length in enumerate((100.0, 400.0, 1600.0)):
        model = orthogonal_topic_model(length)
        rep = margin_condition(model, delta)
        clf = LinearClassifier(weights=rep.separator)
        decomp = excess_risk_decomposition(
            model, clf, delta, mc, make_rng(0, "demo-margin", k))
        worst = max(td.suboptimal_rate_thinned for td in decomp.per_topic)
        print(f"{length:>8.0f} {rep.min_singular_value:>10.4f} "
              f"{rep.threshold:>10.4f} {str(rep.holds):>6} "
              f"{rep.max_margin_error:>11.2e} {worst:>16.2e} "
              f"{1.0 / np.sqrt(length):>12.4f}")
    print("\nThe separation condition is easier to satisfy for longer")
    print("documents, and the constructed separator's thinned error is far")
    print("below the 1/sqrt(length) target at every length.")


if __name__ == "__main__":
    main()
