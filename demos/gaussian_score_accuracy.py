"""How Gaussian is a linear score of Poisson counts?

The Kolmogorov distance between the score's empirical CDF and its Gaussian
fit is controlled by 4 * sqrt(max_j w_j^2 / score variance): long documents
with spread-out weights give nearly Gaussian scores.  This script measures
the distance for scores of increasing balance, and also checks the classical
two-sided Gaussian tail inequalities used when converting error rates.
"""

from droplab import berry_esseen_check, gaussian_tail_check, make_rng
from droplab.presets import berry_esseen_suite


def main():
    n = 200_000
    print(f"Empirical CDF vs Gaussian fit ({n:,} samples per score)\n")
    print(f"{'config':>8} {'concentration':>14} {'measured':>10} "
          f"{'bound':>8} {'ok':>4}")
    for k, (w, lam) in enumerate(berry_esseen_suite()):
        rng = make_rng(0, "demo-be", k)
        rep = berry_esseen_check(w, lam, n, rng)
        print(f"{k:>8} {rep.be_stat:>14.2e} {rep.sup_distance:>10.4f} "
              f"{rep.bound:>8.4f} {str(rep.passed):>4}")

    print("\nGaussian tail inequalities t/(t^2+1) < sqrt(2 pi) e^(t^2/2) "
          "Phi(-t) < 1/t:\n")
    entries = gaussian_tail_check([0.1, 0.5, 1.0, 2.0, 4.0, 8.0])
    print(f"{'t':>6} {'lower':>12} {'middle':>12} {'upper':>12}")
    for e in entries:
        print(f"{e.t:>6.1f} {e.lower:>12.6f} {e.middle:>12.6f} "
              f"{e.upper:>12.6f}")
    print(f"\nstrict at every point: {all(e.strict for e in entries)}")


if __name__ == "__main__":
    main()
