"""Learning curves on the synthetic benchmark: thinning rate as a
bias-variance dial.

Trains at several sample sizes and thinning rates (rate 1 is naive Bayes)
and prints the mean test error per cell.  This is a reduced grid that runs
in a few minutes; use `droplab curves` for the full default grid.
"""

from droplab import (CurveSpec, TrainConfig,
                     build_synthetic_model, run_learning_curves)


def main():
    spec = CurveSpec(
        sampler=build_synthetic_model(),
        n_grid=(100, 300, 1000),
        delta_grid=(0.0, 0.5, 0.95, 1.0),
        trials=3,
        test_size=20_000,
        train_cfg=TrainConfig(epochs=300),
        master_seed=0,
        sampler_name="synthetic-sec6",
    )
    result = run_learning_curves(spec, threads=4)
    deltas = spec.delta_grid
    print(f"mean test error over {spec.trials} trials "
          f"(test size {spec.test_size:,})\n")
    print(" " * 8 + "".join(f"delta={d:<8g}" for d in deltas))
    for n in spec.n_grid:
        row = "".join(f"{result.cell_mean(n, d):<14.4f}" for d in deltas)
        print(f"n={n:<6d}{row}")
    print("\nColumns interpolate between plain logistic regression and the")
    print("naive Bayes endpoint; heavier thinning trades fit for stability.")


if __name__ == "__main__":
    main()
