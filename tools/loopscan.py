"""Exhaustive scan of the compiled Cayley loop against the test oracle.

    python3 tools/loopscan.py [SRC]

At every m from 2 to ``LAST_M``, on the paper's coefficients and a seeded
random field, it runs ``cayley_loop`` for PR (``average=False``) and DR
(``average=True``) runs of ``STEPS`` steps at every kappa in ``KAPPAS``,
on one and on two loop threads, with ``_LOOP_WORK`` at its default (one
kernel call per run) and at one step per kernel call.  Each result must
equal ``tests/oracle.py``'s ``cayley_calls``, which forms every
transform 2 R - I by numpy, bit for bit.  That holds every tile, block
and thread-split edge of the kernel to the oracle, not only the grids
the test suite parametrizes; run it after any change to ``_tridiag.c``.

It exits 1 on the first mismatch, naming m, scheme, threads, chunking
and kappa, and also where the loop ran on fewer threads than asked.
Otherwise it prints the number of cases and the time taken, and exits 0.
The oracle needs SciPy.  ``SRC`` names the ``src`` directory to import
the package from; without it the package comes from the ``src``
directory next to ``tools``.
"""

import logging
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [sys.argv[1] if len(sys.argv) > 1 else str(ROOT / "src"),
                str(ROOT / "tests")]

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from adisplit import operators  # noqa: E402
from adisplit.grid import Field  # noqa: E402

LAST_M = 300
STEPS = 3
KAPPAS = (1.0 / 64, 10.0)


class LastMessage(logging.Handler):
    """Keeps the message of the last record it handles: ``cayley_loop``'s
    DEBUG line, which names the threads the loop ran on."""

    message = ""

    def emit(self, record: logging.LogRecord) -> None:
        self.message = record.getMessage()


def scan() -> int:
    """The number of cases run; exits 1 at the first one that fails."""
    last = LastMessage()
    operators.logger.addHandler(last)
    operators.logger.setLevel(logging.DEBUG)
    operators._cpus = lambda: 2
    default_work, cases = operators._LOOP_WORK, 0
    for m in range(2, LAST_M + 1):
        op = oracle.paper_operator(m)
        u = oracle.random_field(op.grid, m)
        for kappa in KAPPAS:
            for average, scheme in ((False, "PR"), (True, "DR")):
                want = oracle.cayley_calls(op, kappa, STEPS, u, average).values
                for threads in (1, 2):
                    operators._LOOP_THREADS_FROM_M = 2 if threads == 2 else sys.maxsize
                    for chunking, work in (("one call per run", default_work),
                                           ("one step per call",
                                            op.grid.interior_count)):
                        operators._LOOP_WORK = work
                        start = Field(op.grid, u.values.copy())
                        got = op.cayley_loop(kappa, STEPS, start, average=average)
                        cases += 1
                        ran = last.message.endswith(f"threads={threads}")
                        if ran and np.array_equal(got.values, want):
                            continue
                        why = ("differs from the oracle" if ran else
                               f"ran on other threads: {last.message}")
                        sys.exit(f"MISMATCH m={m} {scheme} threads={threads} "
                                 f"{chunking} kappa={kappa!r}: {why}")
    return cases


def main() -> None:
    start = time.perf_counter()
    cases = scan()
    print(f"{cases} cases, m = 2..{LAST_M}, equal bit for bit in "
          f"{time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
