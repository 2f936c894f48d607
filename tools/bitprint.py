"""Bit fingerprint of the package's numerical results, one sha256 per
backend and loop thread count.

    OPENBLAS_NUM_THREADS=1 python3 tools/bitprint.py

For each backend (the compiled kernel, then the numpy fallback) and each
loop thread count (1, then 2) it prints one line ``<backend> threads=<t>
<sha256>``.  The hash covers, at m in ``GRIDS`` on the paper's
coefficients and a seeded random field, the DR, PR and CN ``evolve`` runs
of ``STEPS`` steps at every k in ``STEP_SIZES``; ``apply_l`` plain and
with sigma = -0.25 and 0.25; and ``solve_resolvent_a/b`` and
``cayley_a/b`` at every kappa in ``KAPPAS``.  Two trees of the package
compute the same bits when they print the same lines on one machine, so a
change that claims identical results runs this on both and compares.

No hash is stored with the package: CN's CG takes numpy's dot products,
whose rounding depends on the BLAS numpy uses and on its thread count, so
the CN part of each hash is particular to the machine's numpy build.
Compare two trees on one machine with the same BLAS settings.  The
fallback lines do not depend on the loop thread count; they are printed
for both so that the four lines line up with the kernel's.  It imports
the package from the ``src`` directory next to ``tools``.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from adisplit import _kernel, operators  # noqa: E402
from adisplit.experiments import PAPER_LAMBDA, PAPER_MU  # noqa: E402
from adisplit.grid import Field, Grid  # noqa: E402
from adisplit.steppers import SchemeKind, evolve  # noqa: E402

GRIDS = (2, 3, 17, 18, 64, 91, 257, 513)
STEP_SIZES = (2.0 ** -6, 2.0 ** -10)
STEPS = 3
SIGMAS = (None, -0.25, 0.25)
KAPPAS = (1e-3, 1.0, 1e3)


def results(m: int):
    """Every result the hash covers at grid m, in a fixed order."""
    op = operators.assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(m))
    n = op.grid.n
    u = Field(op.grid, np.random.default_rng(m).standard_normal((n, n)))
    for k in STEP_SIZES:
        for scheme in SchemeKind:
            yield evolve(op, scheme, k, STEPS, u)
    for sigma in SIGMAS:
        yield op.apply_l(u, sigma)
    for kappa in KAPPAS:
        for f in (op.solve_resolvent_a, op.solve_resolvent_b,
                  op.cayley_a, op.cayley_b):
            yield f(kappa, u)


def fingerprint() -> str:
    digest = hashlib.sha256()
    for m in GRIDS:
        for field in results(m):
            digest.update(np.ascontiguousarray(field.values).tobytes())
    return digest.hexdigest()


def main() -> None:
    load = _kernel.load
    if load() is None:
        sys.exit("the compiled kernel could not be built: see the warning above")
    cpus = operators._cpus
    try:
        for backend, loader in (("kernel", load), ("fallback", lambda: None)):
            _kernel.load = loader
            for threads in (1, 2):
                operators._cpus = lambda threads=threads: threads
                print(f"{backend} threads={threads} {fingerprint()}", flush=True)
    finally:
        _kernel.load, operators._cpus = load, cpus


if __name__ == "__main__":
    main()
