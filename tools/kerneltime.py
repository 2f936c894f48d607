"""Times of the compiled kernel's entries, as the package calls them.

    OPENBLAS_NUM_THREADS=1 python3 tools/kerneltime.py [SRC]

At each m in ``GRIDS``, on the paper's coefficients and a seeded random
field, it times ``cayley_loop`` for PR (``average=False``) and DR
(``average=True``) on one and on two threads, ``solve_resolvent_a`` and
``solve_resolvent_b`` (the kernel's ``adisplit_solve_contiguous`` and
``adisplit_solve_strided``) and ``apply_l``, all with ``out=``, at
kappa = ``KAPPA``.  A sample of a loop case is one kernel call of
``_LOOP_WORK`` unknowns x steps, as ``cayley_loop`` makes them, from the
same start each time; a sample of another case is ``CALL_WORK`` unknowns'
worth of calls.  The samples are interleaved: each of ``REPS``
repetitions takes one sample of every case in turn, after one untimed
round, so the host's drift spreads over all cases alike.

It prints the machine facts, then per case the min, median and IQR
(interquartile range) of the samples in ns per unknown, per unknown-step
for the loop.  It judges nothing: to compare two trees, run it on each,
alternately, on one machine.  ``SRC`` names the ``src`` directory to
import the package from; without it the package comes from the ``src``
directory next to ``tools``.  Give the two trees' ``SRC`` paths of one
length: the path's length moves where numpy's arrays land in the heap,
and on a 2-core Xeon, with paths of 14 and 24 characters, one tree's
``apply_l``, whose machine code was the same in both, read 6-18% slower
at every m.
"""

import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1
                else str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from adisplit import _kernel, operators  # noqa: E402
from adisplit.experiments import PAPER_LAMBDA, PAPER_MU  # noqa: E402
from adisplit.grid import Field, Grid  # noqa: E402

GRIDS = (16, 64, 91, 256, 512, 1024)
REPS = 11
CALL_WORK = 2 ** 20
KAPPA = 1.0 / 512


def force_threads(threads: int) -> None:
    """Make ``cayley_loop`` run on ``threads`` (1 or 2) threads on any grid."""
    operators._LOOP_THREADS_FROM_M = 2 if threads == 2 else sys.maxsize
    operators._cpus = lambda: threads


def loop_case(op, u0: Field, average: bool, threads: int):
    """A sample of one kernel call of ``cayley_loop``, in s per unknown-step."""
    n = op.grid.n
    steps = max(1, operators._LOOP_WORK // (n * n))
    u, out = Field(op.grid, np.empty((n, n))), np.empty((n, n))

    def sample() -> float:
        np.copyto(u.values, u0.values)
        force_threads(threads)
        start = time.perf_counter()
        op.cayley_loop(KAPPA, steps, u, out=out, average=average)
        return (time.perf_counter() - start) / (steps * n * n)
    return sample


def call_case(call, n: int):
    """A sample of ``CALL_WORK`` unknowns' worth of ``call()``, in s per
    unknown."""
    calls = max(1, CALL_WORK // (n * n))

    def sample() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            call()
        return (time.perf_counter() - start) / (calls * n * n)
    return sample


def cases():
    """(entry, m, threads, sample) for every case, in a fixed order."""
    for m in GRIDS:
        op = operators.assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(m))
        n = op.grid.n
        u0 = Field(op.grid, np.random.default_rng(m).standard_normal((n, n)))
        out = np.empty((n, n))
        for average, name in ((False, "cayley_loop PR"), (True, "cayley_loop DR")):
            for threads in (1, 2):
                yield name, m, threads, loop_case(op, u0, average, threads)
        # the defaults bind this m's arrays; the names move on with m
        for name in ("solve_resolvent_a", "solve_resolvent_b"):
            yield name, m, 1, call_case(
                lambda f=getattr(op, name), u0=u0, out=out: f(KAPPA, u0, out=out), n)
        yield "apply_l", m, 1, call_case(
            lambda f=op.apply_l, u0=u0, out=out: f(u0, out=out), n)


def machine_facts(lib) -> list[str]:
    model = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        model = next((line.split(":", 1)[1].strip()
                      for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), model)
    affinity = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else None)
    cc = subprocess.run(["cc", "--version"], capture_output=True, text=True)
    return [f"cpu: {model}, nproc {os.cpu_count()}, affinity {affinity}",
            f"python {platform.python_version()}, numpy {np.__version__}, "
            f"{cc.stdout.splitlines()[0] if cc.stdout else 'cc unknown'}",
            f"kernel: {Path(lib._name).name}",
            f"REPS {REPS}, CALL_WORK {CALL_WORK}, "
            f"_LOOP_WORK {operators._LOOP_WORK}, KAPPA {KAPPA}"]


def main() -> None:
    lib = _kernel.load()
    cpus, from_m = operators._cpus, operators._LOOP_THREADS_FROM_M
    try:
        table = list(cases())
        # the untimed round makes every factor and stencil array before the
        # first loop call, so the loop's scratch, whose size may differ
        # between trees, does not move them in the heap
        for *_, sample in sorted(table, key=lambda case: "loop" in case[0]):
            sample()
        times = [[sample() for *_, sample in table] for _ in range(REPS)]
    finally:
        operators._cpus, operators._LOOP_THREADS_FROM_M = cpus, from_m
    for line in machine_facts(lib):
        print(f"# {line}")
    print(f"{'entry':<18} {'m':>5} {'threads':>7} {'min':>7} {'median':>7} "
          f"{'iqr':>7}  (ns per unknown)")
    ns = np.array(times) * 1e9
    for (name, m, threads, _), column in zip(table, ns.T):
        q1, median, q3 = np.percentile(column, [25, 50, 75])
        print(f"{name:<18} {m:>5} {threads:>7} {column.min():7.3f} "
              f"{median:7.3f} {q3 - q1:7.3f}")


if __name__ == "__main__":
    main()
