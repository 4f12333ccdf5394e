"""Reference figures: per-member Darcy solve time at n = 64, 128 and 256.

    python3 ekibench/solve_scaling.py

Run from the root of a checkout.  Times ``DarcyProblem.assemble`` and
``DarcyProblem.solve`` (assembly plus sparse LU) on lognormal coefficients
drawn as a darcy-exp member would be, one BLAS thread, median of several
repetitions.  Fits a power law in the number of unknowns to the solve times
and extrapolates to the paper grid n = 600: the cost of one outer iteration
with J = 200 members, and of the paper's default experiment (10
initializations, 30 outer iterations, so 31 ensemble forward evaluations
each).
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ekinv.forward import DarcyProblem  # noqa: E402
from ekinv.grid import build_domain, dirichlet_spectrum, white_noise  # noqa: E402
from ekinv.param_maps import exp_map  # noqa: E402
from ekinv.priors import MaternSpec, apply_sqrt_cov  # noqa: E402

SIZES = {64: 15, 128: 9, 256: 5}   # n -> repetitions
PAPER_N, PAPER_J, PAPER_ITERS, PAPER_INITS = 600, 200, 30, 10


def median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    rng = np.random.default_rng(0)
    rows = []
    for n, reps in SIZES.items():
        domain = build_domain(2, [6.0, 6.0], [n, n])
        kappa = exp_map(apply_sqrt_cov(MaternSpec(alpha=2.0, tau=10.0),
                                       dirichlet_spectrum(domain), white_noise(domain, rng)))
        problem = DarcyProblem(domain)
        problem.solve(kappa)  # warm-up
        assemble = median_time(lambda: problem.assemble(kappa), reps)
        solve = median_time(lambda: problem.solve(kappa), reps)
        rows.append((n, n * n, assemble, solve))
        print(f"n={n:4d} unknowns={n * n:7d} assemble {1e3 * assemble:9.2f} ms "
              f"solve (with assembly) {1e3 * solve:9.2f} ms")
    slope, intercept = np.polyfit(np.log([r[1] for r in rows]),
                                  np.log([r[3] for r in rows]), 1)
    solve_600 = float(np.exp(intercept + slope * np.log(PAPER_N**2)))
    per_iter = PAPER_J * solve_600
    experiment = PAPER_INITS * (PAPER_ITERS + 1) * per_iter
    print(f"fit: solve time ~ unknowns^{slope:.3f}")
    print(f"n={PAPER_N} extrapolated solve {solve_600:.2f} s per member; "
          f"J={PAPER_J}: {per_iter / 60:.1f} min per outer iteration; "
          f"default experiment {experiment / 86400:.2f} days")


if __name__ == "__main__":
    main()
