"""The yardstick: a fixed job that measures the machine's speed in a round.

    python perfbench/yardstick.py

It imports the libraries the program is built on, not the program, and
runs a fixed mix of the work its jobs do: numpy ufuncs on arrays of 257
points, a sparse tridiagonal factorisation with solves, and a pure-Python
loop.  It never changes with the program, so the ratio of a job's wall
time to the yardstick's, measured next to each other, moves when the
program does and not when the shared machine speeds up or slows down.
"""

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
import yaml  # noqa: F401  imported, like the program's run-file reader

N = 257


def main():
    x = np.linspace(-5.0, 5.0, N)
    rho = 1.0 + 0.3 * np.exp(-x * x)
    m = np.zeros(N)
    for _ in range(6000):
        u = m / rho
        p = rho * rho
        flux = m * u + p
        rho = rho - 1e-4 * np.gradient(m)
        m = m - 1e-4 * np.gradient(flux) + 1e-5 * np.sqrt(np.abs(u) + 1.0)
    lap = scipy.sparse.diags([np.ones(N - 1), -2.0 * np.ones(N), np.ones(N - 1)], [-1, 0, 1])
    for k in range(160):
        lu = scipy.sparse.linalg.splu((scipy.sparse.identity(N) - 0.01 * (k + 1) * lap).tocsc())
        for _ in range(20):
            rho = lu.solve(rho)
    total = 0
    for i in range(1_600_000):
        total += i % 7
    if not (np.isfinite(rho).all() and np.isfinite(m).all() and total == 4_799_994):
        raise SystemExit("yardstick: wrong result")


if __name__ == "__main__":
    main()
