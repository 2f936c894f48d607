"""Benchmark of the adisplit reproduction: one workload per run.

    python3 perfbench/run.py --workload pr_m1024 --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.  One
caller in one process runs the workload's operation in a closed loop (each
operation starts when the previous one has ended) for ``--seconds``, after
``SETUPS`` timed set-ups and one untimed warm-up operation, which fills the
program's caches and finishes its lazy set-up.  Every operation's outputs
(the warm-up's too) are checked against
``fingerprints.json``; an operation fails if it raises, yields a non-finite
value or misses its fingerprint.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones:

- ``setup_s``: import time of numpy/scipy/adisplit plus the median of the
  set-ups (operator assembly and initial data);
- ``wall_s``: median time of one operation;
- ``dof_steps_per_s``: interior unknowns x time steps per second of time
  stepping, median over operations;
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` the first half of the time runs untraced, the second
half under the span recorder, and the metrics are the per-layer ones
(``spans.PER_LAYER``), including ``trace.overhead_frac``, the traced
median operation time over the untraced one, minus 1.

BLAS runs on ``BLAS_THREADS`` thread(s) and ``THREADS`` (the row pool of
``run_convergence``) keeps the program's default: on a machine of two
shared cores, BLAS threads that spin beside the row pool measure the other
tenants more than the program.  ``--threads N`` sets ``THREADS`` and the BLAS
thread variables to N before numpy loads.  Lines before the last one report
machine facts and a readable summary.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# BENCHMARK.json lists paper_tables and cn_m256; the others run when asked
# for.  On a host of two shared cores the speed drifts by a third within
# minutes, most of all for memory-bound work such as pr_m1024's 8 MB fields,
# so the benchmark spends its time on long runs of the two workloads whose
# data fit in cache; between them they time every layer.
WORKLOAD_NAMES = ("pr_m1024", "paper_tables", "cn_m256", "verify")
THREAD_VARS = ("THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
UNITS = {"setup_s": "s", "wall_s": "s", "dof_steps_per_s": "1/s", "peak_rss_mb": "MB"}
SETUPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="set THREADS and BLAS threads "
                        f"(default: THREADS unset, {BLAS_THREADS} BLAS thread)")
    args = p.parse_args(argv)
    if args.seconds <= 0 or (args.threads is not None and args.threads < 1):
        p.error("--seconds and --threads must be positive")
    return args


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }


class Loop:
    """Closed loop of operations with their timings and failures."""

    def __init__(self):
        self.times = []
        self.rates = []
        self.failed = 0

    def run(self, work, state, seconds, check):
        """Operations until ``seconds`` have passed; at least one."""
        deadline = time.perf_counter() + seconds
        while not self.times or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            try:
                outcome = work.run(state)
                self.times.append(time.perf_counter() - t0)
                bad = check(state, outcome.outputs)
                self.rates.append(outcome.dof_steps / outcome.step_s)
            except Exception:
                self.times.append(time.perf_counter() - t0)
                bad = [traceback.format_exc()]
            if bad:
                self.failed += 1
                print(f"operation {len(self.times)} failed:", *bad, sep="\n  ",
                      file=sys.stderr)
        return self


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        if args.threads is not None:
            os.environ[var] = str(args.threads)
        elif var != "THREADS":
            os.environ[var] = str(BLAS_THREADS)
    try:
        import fingerprint
        import spans
        import workloads
    except ImportError as exc:
        print(f"error: cannot load the benchmark or the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    work = workloads.WORKLOADS[args.workload]
    fp = fingerprint.load()

    def check(state, outputs):
        return fingerprint.check(work.name, state, outputs, fp)

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workdir = Path(tmp)
        setup_times = []
        for _ in range(1 if args.trace else SETUPS):
            state = None
            t0 = time.perf_counter()
            state = work.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)

        seconds = args.seconds / 2 if args.trace else args.seconds
        warm_up = Loop().run(work, state, 0.0, check)
        plain = Loop().run(work, state, seconds, check)
        loops = [warm_up, plain]
        if args.trace:
            state = None
            rec = spans.SpanRecorder()
            with rec.installed():
                state = work.setup(args.seed, workdir)
                rec.phase = "operation"
                traced = Loop().run(work, state, seconds, check)
            loops.append(traced)
            metrics = spans.layer_metrics(rec, len(traced.times))
            metrics["trace.overhead_frac"] = (
                statistics.median(traced.times) / statistics.median(plain.times) - 1.0)
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
        else:
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "wall_s": statistics.median(plain.times),
                "dof_steps_per_s": statistics.median(plain.rates) if plain.rates else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = UNITS

    attempted = sum(len(lp.times) for lp in loops)
    failed = sum(lp.failed for lp in loops)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "import_s": import_s, "setup_times_s": setup_times,
                      "operation_times_s": [lp.times for lp in loops],
                      "machine": machine_facts()}))
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':48s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
