"""Numeric fingerprints of the workload outputs, and the check against them.

The trajectory workloads start from the paper's initial data plus a seeded
combination of smooth modes.  Every scheme is a linear map S, so for
u0 = sum_i c_i b_i (b_0 the paper data with c_0 = 1, b_i the modes) the
output norm is ||S u0||_h^2 = c^T G c with the Gram matrix
G_ij = (S b_i, S b_j)_h.  The stored Gram matrices therefore predict the
outputs for any seed.  The other two workloads have fixed inputs and store
their outputs directly.

Tolerances accept roundoff-level reordering (a different tridiagonal
kernel agrees to about 3e-15 per solve) and reject real defects such as a
scheme with A and B swapped or a trajectory one step too long; the tests
in this directory show both.

Regenerate with ``python3 perfbench/fingerprint.py`` (about a minute); do
so only when a change is meant to alter the numbers.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import numpy as np

import workloads as wl
from workloads import CN, PR, experiments, grid, steppers

PATH = Path(__file__).resolve().parent / "fingerprints.json"

NORM_RTOL = 1e-9          # final norms of fields of size O(1)
CN_ATOL = 1e-12           # CG stops at residual 1e-12; seen: 5e-15
ERROR_ATOL = 1e-11        # table errors are differences of O(1) fields
ERROR_RTOL = 1e-8

# the stability-norm estimate comes from an unconverged power iteration;
# it is recorded but not gated
UNGATED_CHECKS = {"stability norm bound"}

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def load() -> dict:
    with open(PATH) as f:
        return json.load(f)


def _gram(fields) -> list:
    return [[grid.discrete_inner_product(a, b) for b in fields] for a in fields]


def _predicted_norm(gram, coeffs) -> float:
    c = np.concatenate([[1.0], coeffs])
    return math.sqrt(max(float(c @ np.asarray(gram) @ c), 0.0))


def _close(value, expected, rtol, atol=0.0) -> bool:
    return abs(value - expected) <= rtol * abs(expected) + atol


def _last_place(token: str) -> float:
    """One unit in the last printed digit of a number token."""
    mantissa, _, exp = token.lower().partition("e")
    decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
    return 10.0 ** (int(exp or 0) - decimals)


def _mismatch(label, value, expected) -> str:
    return f"{label}: got {value!r}, fingerprint {expected!r}"


def check(name: str, state, outputs: dict, fp: dict) -> list:
    """Messages for every output that misses the fingerprint (empty: pass)."""
    bad = []
    for key, value in outputs.items():
        flat = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in flat):
            bad.append(f"{key}: non-finite value {value!r}")
    if bad:
        return bad
    entry = fp[name]
    if name == "pr_m1024":
        want = _predicted_norm(entry["gram_pr"], state["coeffs"])
        if not _close(outputs["norm"], want, NORM_RTOL):
            bad.append(_mismatch("final norm", outputs["norm"], want))
        if outputs["reread_max_diff"] != 0.0:  # 17 significant digits round-trip
            bad.append(_mismatch("re-read field max difference",
                                 outputs["reread_max_diff"], 0.0))
    elif name == "cn_m256":
        for key, gram, atol in (("cn_norm", "gram_cn", CN_ATOL),
                                ("pr_norm", "gram_pr", 0.0),
                                ("distance", "gram_diff", CN_ATOL)):
            want = _predicted_norm(entry[gram], state["coeffs"])
            if not _close(outputs[key], want, NORM_RTOL, atol):
                bad.append(_mismatch(key, outputs[key], want))
    elif name == "paper_tables":
        if not _close(outputs["reference_norm"], entry["reference_norm"], NORM_RTOL):
            bad.append(_mismatch("reference norm", outputs["reference_norm"],
                                 entry["reference_norm"]))
        for key in ("pr_errors", "dr_errors"):
            got, want = outputs[key], entry[key]
            if len(got) != len(want) or not all(
                    _close(g, w, ERROR_RTOL, ERROR_ATOL) for g, w in zip(got, want)):
                bad.append(_mismatch(key, got, want))
    elif name == "verify":
        got = outputs["checks"]
        want = entry["checks"]
        if [c[0] for c in got] != [c["name"] for c in want]:
            return [_mismatch("check names", [c[0] for c in got],
                              [c["name"] for c in want])]
        for (cname, passed, detail), ref in zip(got, want):
            if cname in UNGATED_CHECKS:
                continue
            tokens = _NUMBER.findall(ref["detail"])
            values = [float(t) for t in _NUMBER.findall(detail)]
            if passed != ref["passed"] or len(values) != len(tokens) or not all(
                    abs(v - float(t)) <= 1.000001 * _last_place(t)
                    for v, t in zip(values, tokens)):
                bad.append(_mismatch(cname, f"{passed} {detail}",
                                     f"{ref['passed']} {ref['detail']}"))
    else:
        raise KeyError(f"no fingerprint for workload {name!r}")
    return bad


def _final_fields(op, scheme, k, steps, basis, handle=None) -> list:
    return [steppers.evolve(op, scheme, k, steps, b, handle) for b in basis]


def _basis(op) -> list:
    eta = experiments.prepare_initial_data(op)
    return [eta] + [wl.mode_field(op.grid, p, q) for p, q in wl.PERTURBATION_MODES]


def generate() -> dict:
    fp = {"modes": [list(pq) for pq in wl.PERTURBATION_MODES],
          "mode_scale": wl.PERTURBATION_SCALE}

    w = wl.WORKLOADS["pr_m1024"]
    op = wl.paper_operator(w.m)
    finals = _final_fields(op, PR, w.k, w.steps, _basis(op))
    fp["pr_m1024"] = {"m": w.m, "k": w.k, "steps": w.steps,
                      "gram_pr": _gram(finals)}
    del op, finals

    w = wl.WORKLOADS["cn_m256"]
    op = wl.paper_operator(w.m)
    basis = _basis(op)
    cn = _final_fields(op, CN, w.k, w.steps, basis, wl.linsolve.LinearSolverHandle())
    pr = _final_fields(op, PR, w.k, w.steps, basis)
    fp["cn_m256"] = {"m": w.m, "k": w.k, "steps": w.steps,
                     "gram_cn": _gram(cn), "gram_pr": _gram(pr),
                     "gram_diff": _gram([a - b for a, b in zip(cn, pr)])}

    w = wl.WORKLOADS["paper_tables"]
    out = w.run(w.setup(0, None)).outputs
    fp["paper_tables"] = {"reference_m": w.reference.m, "reference_k": w.reference.k,
                          **out}

    w = wl.WORKLOADS["verify"]
    out = w.run(w.setup(0, None)).outputs
    fp["verify"] = {"checks": [
        {"name": n, "passed": p, "detail": d, "gated": n not in UNGATED_CHECKS}
        for n, p, d in out["checks"]]}
    return fp


if __name__ == "__main__":
    data = generate()
    with open(PATH, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")
    print(f"wrote {PATH}", file=sys.stderr)
