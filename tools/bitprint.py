"""Bit fingerprint of the package's numerical results, one sha256 per
loop thread count.

    OPENBLAS_NUM_THREADS=1 python3 tools/bitprint.py [SRC]

For each loop thread count (1, then 2) it prints one line
``kernel threads=<t> <sha256>``.  ``GRIDS`` puts n = m - 1 lines on each
side of the kernel's edges: whole and partial 16-line tiles (n = 16,
17), 64- and 128-column blocks with a partial one after them (n = 65,
129), and the two-thread split from m = 256 on, whose 255 columns split
127 + 128, the first half ending in a partial block.  The hash covers,
at every m in ``GRIDS`` on the paper's coefficients and a seeded random
field, the DR, PR and CN ``evolve`` runs of ``STEPS`` steps at every k
in ``STEP_SIZES``, and after them a second CN run on the same operator
at the same k from another seeded field, as the ``cn_m256`` workload
runs CN, and one
standalone ``cn_step(op, k, u)`` at the first k, which makes its own run
instead of ``evolve``'s; ``apply_l`` plain and with sigma = -0.25 and
0.25; ``solve_resolvent_a/b`` and ``cayley_a/b`` at every kappa in
``KAPPAS``; and the multipliers e of
both axes' factors at those kappas, in [line][position] order whatever
the layout the kernel stores them in; and ``solve_lh`` with the
eigenvalues theta of its Kronecker factorization.  It also covers the experiments' building blocks
(``experiment_results``): ``interpolate`` of ETA0 and a sine mode,
``prepare_initial_data``, ``prolong_to`` onto a finer, a nested coarser
and a non-nested grid, and the errors of a small ``run_convergence``
table whose last row is finer than its reference.  Two
trees of the package compute the same bits when they print the same lines
on one machine, so a change that claims identical results runs this on
both and compares.  When this tool itself changes, run the new tool
against both trees: ``SRC`` names the ``src`` directory to import the
package from.

No hash is stored with the package: CN's CG takes numpy's dot products,
whose rounding depends on the BLAS numpy uses and on its thread count, so
the CN part of each hash is particular to the machine's numpy build.
Compare two trees on one machine with the same BLAS settings.  Without
``SRC`` it imports the package from the ``src`` directory next to
``tools``.  A tree whose kernel cannot be built raises
KernelUnavailableError; an older tree whose ``_kernel.load()`` returns
None there, and would run a numpy fallback instead, makes the tool exit.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1
                else str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from adisplit import _kernel, experiments, linsolve, operators  # noqa: E402
from adisplit.experiments import ETA0, PAPER_LAMBDA, PAPER_MU  # noqa: E402
from adisplit.grid import Field, Grid, interpolate, prolong_to  # noqa: E402
from adisplit.steppers import SchemeKind, cn_step, evolve  # noqa: E402

GRIDS = (2, 3, 17, 18, 64, 66, 91, 130, 256, 257, 513)
STEP_SIZES = (2.0 ** -6, 2.0 ** -10)
STEPS = 3
SIGMAS = (None, -0.25, 0.25)
KAPPAS = (1e-3, 1.0, 1e3)


def results(m: int):
    """Every result the hash covers at grid m, as arrays, in a fixed order."""
    op = operators.assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(m))
    n = op.grid.n
    u, v = (Field(op.grid, np.random.default_rng(seed).standard_normal((n, n)))
            for seed in (m, (m, 1)))
    for k in STEP_SIZES:
        for scheme in SchemeKind:
            yield evolve(op, scheme, k, STEPS, u).values
        yield evolve(op, SchemeKind.CRANK_NICOLSON, k, STEPS, v).values
    yield cn_step(op, STEP_SIZES[0], u).values
    for sigma in SIGMAS:
        yield op.apply_l(u, sigma).values
    for kappa in KAPPAS:
        for f in (op.solve_resolvent_a, op.solve_resolvent_b,
                  op.cayley_a, op.cayley_b):
            yield f(kappa, u).values
        for axis in ("a", "b"):
            yield multipliers(op._factors(axis, kappa).e, n)
    yield linsolve.solve_lh(op, u).values
    fac = linsolve.kronecker_direct_prepare(op)
    yield from (fac.theta_lam, fac.theta_mu)


def multipliers(e: np.ndarray, n: int) -> np.ndarray:
    """A factor's e as [line][position] for the n lines of the grid: the
    kernel stores blocks [block][position][line], one block of all lines
    on the strided axis, the contiguous axis padded to whole tiles."""
    blocks = e.reshape(-1, n, e.shape[-1])
    return blocks.transpose(0, 2, 1).reshape(-1, n)[:n]


def sine_mode(x, y):
    return np.sin(np.pi * x) * np.sin(2.0 * np.pi * y)


def experiment_results():
    """The experiments' results the hash covers, as arrays, in a fixed
    order: at m=64 the interpolants, the paper's initial data and its
    prolongations onto m=128, the nested m=32 and the non-nested m=45; then
    a PR table's errors against an m=64 reference, rows m=16, 32 and 128."""
    grid = Grid(64)
    yield interpolate(ETA0, grid).values
    yield interpolate(sine_mode, grid).values
    op = operators.assemble_split_operator(PAPER_LAMBDA, PAPER_MU, grid)
    eta = experiments.prepare_initial_data(op)
    yield eta.values
    for m in (128, 32, 45):
        yield prolong_to(eta, Grid(m)).values
    config = experiments.ExperimentConfig(
        scheme=SchemeKind.PEACEMAN_RACHFORD,
        rows=[(1.0 / 16, 16), (1.0 / 32, 32), (1.0 / 128, 128)],
        reference=experiments.ReferenceSpec(m=64, k=1.0 / 256))
    yield np.array(experiments.run_convergence(config).errors())


def fingerprint() -> str:
    digest = hashlib.sha256()
    for m in GRIDS:
        for values in results(m):
            digest.update(np.ascontiguousarray(values).tobytes())
    for values in experiment_results():
        digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


def main() -> None:
    if _kernel.load() is None:
        sys.exit("the compiled kernel could not be built: see the warning above")
    cpus = operators._cpus
    try:
        for threads in (1, 2):
            operators._cpus = lambda threads=threads: threads
            print(f"kernel threads={threads} {fingerprint()}", flush=True)
    finally:
        operators._cpus = cpus


if __name__ == "__main__":
    main()
