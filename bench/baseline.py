"""Reference figures at the baseline sizes, for the README.

    python3 bench/baseline.py

Run from the root of a checkout.  Prints the median of REPEATS timings of
each layer call: per+ K=255 and Dirichlet K=256 assembly against their
eigensolves, beta^+ at n=95 and 191, alpha_n at step caps 8, 12 and 16,
and criterion 1 over n <= 40.  BLAS is pinned to one thread and warmed up
first, as in the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3


def timed(fn):
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), result


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import hillwalk as hw

    pot11, par11 = hw.two_term(1, 2, 1, 1)
    pot13, par13 = hw.two_term(1, 1, 1, 3)
    hw.eigenvalues(hw.assemble(pot11, "per+", 32))
    for bc, K in (("per+", 255), ("dirichlet", 256)):
        t_asm, op = timed(lambda: hw.assemble(pot11, bc, K))
        t_eig, _ = timed(lambda: hw.eigenvalues(op))
        print(f"assemble {bc} K={K} (dim {op.dim}): {t_asm:.3f} s; eigenvalues {t_eig:.3f} s")
    for n in (95, 191):
        t, _ = timed(lambda: hw.beta_plus(pot13, par13, n, shell_cap=3))
        print(f"beta_plus (R,S)=(1,3) n={n} cap 3: {t:.3f} s")
    for cap in (8, 12, 16):
        t, _ = timed(lambda: hw.alpha_n(pot13, 11, step_cap=cap))
        print(f"alpha_n (R,S)=(1,3) n=11 step cap {cap}: {t:.3f} s")
    t, _ = timed(lambda: hw.criterion1_verdict(pot11, par11, hw.IndexSet("R-multiples", 1, 40)))
    print(f"criterion1_verdict a=1 b=2 (R,S)=(1,1) n<=40: {t:.3f} s")


if __name__ == "__main__":
    main()
