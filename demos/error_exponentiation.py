"""Training on thinned documents is practice at altitude: a rule that keeps
its thinned-measure error at eps performs like eps^(1/(1-delta)) on raw
documents.

For fixed linear scores over Poisson counts this script measures both error
rates by Monte Carlo, compares them with their Gaussian predictions, and
evaluates the explicit conversion bound.  The empirical exponent
log(eps) / log(eps_thinned) is reported against its target 1/(1-delta).
A rate with no error among the sampled documents is shown as below 1/mc,
its resolution limit, and its exponent as n/a.
"""

import math

from droplab import run_altitude_sweep
from droplab.presets import default_sweep_configs


def rate(eps: float, mc: int) -> str:
    """A Monte Carlo rate, or its resolution limit when no error was seen."""
    return f"<{1 / mc:.3e}" if eps == 0.0 else f"{eps:.3e}"


def main():
    mc = 2_000_000
    results = run_altitude_sweep(default_sweep_configs(), mc, master_seed=0)
    hdr = (f"{'intensity':>16} {'delta':>6} {'eps':>10} {'eps~':>10} "
           f"{'gauss eps':>10} {'bound':>10} {'exp':>6} {'target':>7}")
    print(f"Monte Carlo with {mc:,} documents per configuration\n\n{hdr}")
    for r in results:
        lam = "({:g}, {:g})".format(*r.config.intensity)
        bound = "vacuous" if r.bound.vacuous else f"{r.bound.value:.4f}"
        exp = "n/a" if math.isnan(r.exponent) else f"{r.exponent:.3f}"
        print(f"{lam:>16} {r.config.delta:>6.2f} {rate(r.eps, mc):>10} "
              f"{rate(r.eps_thinned, mc):>10} {r.gaussian_eps:>10.3e} "
              f"{bound:>10} {exp:>6} {r.exponent_target:>7.3f}")
    print("\nAt delta 0.5 the raw-measure error is far below the thinned-")
    print("measure error; at delta 0 the two coincide.  Wherever the bound")
    print("is non-vacuous the measured error stays under it.  Where both")
    print("rates are measured at delta 0.5 the exponent sits below its")
    print("target.  At the largest z-ratio the raw error rate is near")
    print(f"1/mc: {mc:,} documents show it as a handful of errors or none,")
    print("and none leaves eps known only to lie below 1/mc and the")
    print("exponent unmeasured; it needs the score's exact law.")


if __name__ == "__main__":
    main()
