"""The four benchmark workloads, driven through the public adisplit API.

Each workload has a set-up (operator assembly and initial data, as the CLI
does before its first step) and one operation, which is what a user waits
for: a trajectory with field I/O, both paper tables, the CN/PR pair, or
one verify suite.  Operations return their numeric outputs; the
fingerprint module checks them.  Library calls go through module
attributes (``steppers.evolve``, not a copied name) so the span recorder
sees them.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "adisplit" / "__init__.py").is_file():
    raise ImportError(f"adisplit sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from adisplit import experiments, grid, linsolve, operators, steppers  # noqa: E402

PR = steppers.SchemeKind.PEACEMAN_RACHFORD
DR = steppers.SchemeKind.DOUGLAS_RACHFORD
CN = steppers.SchemeKind.CRANK_NICOLSON

# Smooth perturbation of the initial field: sin(p pi x) sin(q pi y) modes
# with seeded amplitudes.  The schemes are linear, so the fingerprint can
# predict the perturbed outputs for any seed from per-mode trajectories.
PERTURBATION_MODES = ((1, 1), (2, 1), (1, 3), (3, 2))
PERTURBATION_SCALE = 0.1


def seeded_inputs(eta: grid.Field, seed: int, count: int) -> list:
    """``count`` perturbed initial fields with their mode coefficients."""
    rng = np.random.default_rng(seed)
    coeffs = PERTURBATION_SCALE * rng.standard_normal((count, len(PERTURBATION_MODES)))
    return [(c, perturbed(eta, c)) for c in coeffs]


def mode_field(g: grid.Grid, p: int, q: int) -> grid.Field:
    return grid.interpolate(
        lambda x, y: np.sin(p * np.pi * x) * np.sin(q * np.pi * y), g
    )


def perturbed(eta: grid.Field, coeffs: np.ndarray) -> grid.Field:
    vals = eta.values.copy()
    for c, (p, q) in zip(coeffs, PERTURBATION_MODES):
        vals += c * mode_field(eta.grid, p, q).values
    return grid.Field(eta.grid, vals)


def paper_operator(m: int) -> operators.SplitDiffusionOperator:
    return operators.assemble_split_operator(
        experiments.PAPER_LAMBDA, experiments.PAPER_MU, grid.Grid(m)
    )


@dataclass
class Outcome:
    outputs: dict      # numeric results, checked against the fingerprint
    dof_steps: int     # interior unknowns x time steps done by the operation
    step_s: float      # seconds spent time stepping


class PrM1024:
    """`run --scheme pr --m 1024 --k 1/8192 --out F`, then `--initial file F`."""

    name = "pr_m1024"
    m = 1024
    k = 2.0 ** -13
    steps = 16

    def setup(self, seed: int, workdir: Path):
        op = paper_operator(self.m)
        eta = experiments.prepare_initial_data(op)
        (coeffs, u0), = seeded_inputs(eta, seed, 1)
        return {"op": op, "u0": u0, "coeffs": coeffs,
                "path": workdir / "pr_m1024_final.txt"}

    def run(self, state) -> Outcome:
        t0 = time.perf_counter()
        u = steppers.evolve(state["op"], PR, self.k, self.steps, state["u0"])
        step_s = time.perf_counter() - t0
        grid.write_field(state["path"], u)
        back = grid.read_field(state["path"])
        return Outcome(
            {"norm": grid.discrete_norm(u),
             "reread_max_diff": float(np.max(np.abs(back.values - u.values)))},
            self.steps * (self.m - 1) ** 2,
            step_s,
        )


class PaperTables:
    """`convergence --paper-rows` for PR and DR against an m=256 PR reference.

    The reference is computed once per operation and shared by both tables.
    """

    name = "paper_tables"
    reference = experiments.ReferenceSpec(m=256, k=2.0 ** -10)
    t_end = experiments.DEFAULT_T_END

    def setup(self, seed: int, workdir: Path):
        return {
            scheme: experiments.ExperimentConfig(
                scheme=scheme, rows=list(rows), reference=self.reference)
            for scheme, rows in ((PR, experiments.PR_ROWS),
                                 (DR, experiments.DR_ROWS))
        }

    def dof_steps(self) -> int:
        runs = [(self.reference.k, self.reference.m)]
        runs += experiments.PR_ROWS + experiments.DR_ROWS
        return sum(experiments.steps_for(self.t_end, k) * (m - 1) ** 2
                   for k, m in runs)

    def run(self, state) -> Outcome:
        t0 = time.perf_counter()
        ref = experiments.compute_reference(self.reference, self.t_end, "paper")
        pr = experiments.run_convergence(state[PR], reference_data=ref)
        dr = experiments.run_convergence(state[DR], reference_data=ref)
        return Outcome(
            {"reference_norm": grid.discrete_norm(ref[0]),
             "pr_errors": pr.errors(), "dr_errors": dr.errors()},
            self.dof_steps(),
            time.perf_counter() - t0,
        )


class CnM256:
    """`run --scheme cn` and `run --scheme pr` on the same grid and step.

    CG iteration counts differ by up to 8% between initial fields, so the
    operations cycle through several seeded fields; a run's median then
    varies less from seed to seed than one field's time would.
    """

    name = "cn_m256"
    m = 256
    k = 2.0 ** -10
    steps = 4
    fields_per_seed = 8

    def setup(self, seed: int, workdir: Path):
        op = paper_operator(self.m)
        eta = experiments.prepare_initial_data(op)
        return {"op": op, "inputs": seeded_inputs(eta, seed, self.fields_per_seed),
                "count": 0, "handle": linsolve.LinearSolverHandle()}

    def run(self, state) -> Outcome:
        state["coeffs"], u0 = state["inputs"][state["count"] % len(state["inputs"])]
        state["count"] += 1
        op = state["op"]
        t0 = time.perf_counter()
        u_cn = steppers.evolve(op, CN, self.k, self.steps, u0, state["handle"])
        u_pr = steppers.evolve(op, PR, self.k, self.steps, u0)
        distance = grid.discrete_norm(u_cn - u_pr)
        return Outcome(
            {"cn_norm": grid.discrete_norm(u_cn),
             "pr_norm": grid.discrete_norm(u_pr),
             "distance": distance},
            2 * self.steps * (self.m - 1) ** 2,
            time.perf_counter() - t0,
        )


class Verify:
    """`verify` with its default grids; it assembles fresh operators."""

    name = "verify"
    # trajectories of the conjugated n-step check: m in (8, 16, 32), two
    # schemes, two step sizes, n in (1, 8, 64)
    dof_steps_per_suite = sum(4 * 73 * (m - 1) ** 2 for m in (8, 16, 32))

    def setup(self, seed: int, workdir: Path):
        return {}

    def run(self, state) -> Outcome:
        t0 = time.perf_counter()
        report = experiments.verify_assumptions()
        return Outcome(
            {"checks": [(c.name, c.passed, c.detail) for c in report.checks]},
            self.dof_steps_per_suite,
            time.perf_counter() - t0,
        )


WORKLOADS = {w.name: w for w in (PrM1024(), PaperTables(), CnM256(), Verify())}
