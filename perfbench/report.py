"""Run workloads over several seeds and print one table.

    python3 perfbench/report.py --seeds 10
    python3 perfbench/report.py --trace 1 --seeds 1 --threads 1 --workloads verify

The workloads default to those of ``BENCHMARK.json``.

Each run is a separate ``run.py`` process (so ``peak_rss_mb`` is that
workload's own), started only after the previous one has exited.  For
every metric the table gives the median, the quartiles and the spread
(q3 - q1) / median over the seeds; ``failed_frac`` is failed over
attempted operations.  ``--json PATH`` also writes every run's result and
its machine facts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import ROOT, WORKLOAD_NAMES  # noqa: E402


def one_run(workload, seed, seconds, trace, threads) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return {"seed": seed, "info": json.loads(lines[0]), "result": json.loads(lines[-1])}


def quartile_spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES,
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--json", default=None)
    args = p.parse_args(argv)

    runs, summary = {}, {}
    print(f"{'workload':13s} {'metric':46s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} unit")
    for workload in args.workloads:
        runs[workload] = [
            one_run(workload, seed, args.seconds, args.trace, args.threads)
            for seed in range(args.first_seed, args.first_seed + args.seeds)]
        results = [r["result"] for r in runs[workload]]
        summary[workload] = rows = {}
        for name, entry in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            q1, med, q3, spread = quartile_spread(values)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "unit": entry["unit"], "runs": len(values)}
            print(f"{workload:13s} {name:46s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {entry['unit']}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        rows["failed_frac"] = {"value": failed / attempted, "unit": "ratio",
                               "failed": failed, "attempted": attempted}
        print(f"{workload:13s} {'failed_frac':46s} {failed / attempted:12.6g} "
              f"{'':12s} {'':12s} {'':7s} ratio ({failed} of {attempted} operations, "
              f"{len(results)} runs)", flush=True)
    if args.json:
        first = next(iter(runs.values()))[0]["info"]
        with open(args.json, "w") as f:
            json.dump({"settings": vars(args), "machine": first["machine"],
                       "summary": summary, "runs": runs}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
