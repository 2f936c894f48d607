"""Convergence experiments and assumption verification for the diffusion model.

Reproduces the flagship study: smooth initial data built by four inverse
applications of the discrete operator, a fine-grid reference solution, and
error tables at t = 0.5 with observed convergence orders for both splitting
schemes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linsolve, steppers
from .grid import (
    Field,
    Grid,
    discrete_norm,
    exact_l2_norm,
    interpolate,
    l2_distance_to_function,
    max_norm,
    prolong_to,
)
from .operators import (
    SplitDiffusionOperator,
    assemble_split_operator,
    stability_bound,
    stability_certificate,
)
from .steppers import SchemeKind

DEFAULT_T_END = 0.5

# Longest run steps_for accepts: 256 times the paper's finest reference,
# 4096 steps of k = 2^-13 to t = 0.5.
MAX_STEPS = 2 ** 20


def PAPER_LAMBDA(x):
    return x * np.sin(np.pi * x) + 0.1


def PAPER_MU(y):
    return np.cos(2.0 * np.pi * y) + 1.1


def CONSTANT_ONE(x):
    return 1.0


def ETA0(x, y):
    return np.sin(3.0 * np.pi * x) * np.cos(2.0 * np.pi * y)


# Largest nodal max of ETA0's interpolant that counts as roundoff: ETA0
# itself has unit max.
NEGLIGIBLE_INITIAL_PEAK = 1e-12


# Figure-of-merit row sets: (k, m) pairs with m = 1/h
PR_ROWS = [(1.0 / 16, 16), (1.0 / 32, 32), (1.0 / 64, 64),
           (1.0 / 128, 128), (1.0 / 256, 256), (1.0 / 512, 512)]
DR_ROWS = [(1.0 / 128, 16), (1.0 / 256, 23), (1.0 / 512, 32),
           (1.0 / 1024, 45), (1.0 / 2048, 64), (1.0 / 4096, 91)]

PR_REFERENCE_ERRORS = [9.1e-4, 2.9e-4, 7.5e-5, 1.9e-5, 4.6e-6, 1.1e-6]
DR_REFERENCE_ERRORS = [5.3e-4, 3.0e-4, 1.5e-4, 7.8e-5, 3.9e-5, 1.9e-5]


def coefficient_pair(name: str):
    if name == "paper":
        return PAPER_LAMBDA, PAPER_MU
    if name == "constant":
        return CONSTANT_ONE, CONSTANT_ONE
    raise ValueError(f"unknown coefficient selector {name!r}")


def steps_for(t_end: float, k: float) -> int:
    """Number of steps for final time t_end > 0; k must be positive and
    finite and divide t_end exactly, and the count must not exceed
    MAX_STEPS."""
    steppers._check_step(k)
    if t_end <= 0.0:
        raise ValueError(f"final time must be positive, got {t_end}")
    steps = t_end / k
    if not math.isfinite(steps):
        raise ValueError(f"final time {t_end} over step size {k} is not a finite "
                         "number of steps")
    n = round(steps)
    if n > MAX_STEPS:
        raise ValueError(f"final time {t_end} over step size {k} needs {steps:.3g} "
                         f"steps, more than the limit of {MAX_STEPS}")
    if n < 1 or abs(n * k - t_end) > 1e-12 * t_end:
        raise ValueError(f"step size {k} does not divide final time {t_end}")
    return n


@dataclass(frozen=True)
class ReferenceSpec:
    m: int
    k: float
    scheme: SchemeKind = SchemeKind.PEACEMAN_RACHFORD


@dataclass
class ExperimentConfig:
    scheme: SchemeKind
    rows: list  # of (k, m) pairs
    reference: ReferenceSpec
    t_end: float = DEFAULT_T_END
    coeff: str = "paper"

    def __post_init__(self):
        ref = self.reference
        initial_interpolant(Grid(ref.m))
        steps_for(self.t_end, ref.k)
        for k, m in self.rows:
            Grid(m)
            steps_for(self.t_end, k)
            if (self.scheme, k, m) == (ref.scheme, ref.k, ref.m):
                raise ValueError(
                    f"row k={k:.10g}, m={m} repeats the {ref.scheme.value} "
                    "reference run, so its error is exactly 0 and gives no order"
                )
        if len(self.rows) < 2:
            raise ValueError(
                "a convergence study needs at least two rows to estimate "
                f"an order, got {len(self.rows)}"
            )


@dataclass
class RowResult:
    k: float
    h: float
    m: int
    error: float
    order: float | None = None
    wall_time: float = 0.0


@dataclass
class ConvergenceReport:
    scheme: SchemeKind
    reference: ReferenceSpec
    t_end: float
    coeff: str
    rows: list = dc_field(default_factory=list)
    reference_wall_time: float = 0.0

    def errors(self) -> list:
        return [r.error for r in self.rows]

    def render(self) -> str:
        lines = [
            f"scheme={self.scheme.value} t_end={self.t_end} coeff={self.coeff} "
            f"reference: scheme={self.reference.scheme.value} "
            f"m={self.reference.m} k={self.reference.k:.10g} "
            f"({self.reference_wall_time:.1f}s)",
            f"{'k':>14} {'h':>14} {'error':>14} {'order':>8} {'time':>8}",
        ]
        for r in self.rows:
            order = f"{r.order:8.3f}" if r.order is not None else " " * 8
            lines.append(
                f"{r.k:14.8g} {r.h:14.8g} {r.error:14.6e} {order} "
                f"{r.wall_time:7.1f}s"
            )
        return "\n".join(lines)

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("k,h,error,order\n")
            for r in self.rows:
                order = f"{r.order:.17g}" if r.order is not None else ""
                f.write(f"{r.k:.17g},{r.h:.17g},{r.error:.17g},{order}\n")


def observed_order(errors) -> list:
    """Pairwise orders log2(e_i / e_{i+1}) for a step-halving sequence."""
    errors = list(errors)
    if len(errors) < 2:
        raise ValueError("need at least two errors to estimate an order")
    if any(e <= 0.0 for e in errors):
        raise ValueError("errors must be positive")
    return [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]


def initial_interpolant(grid: Grid) -> Field:
    """ETA0's nodal interpolant, the start of the paper's initial data.

    ETA0 has unit max, so an interpolant whose nodal max is at most
    NEGLIGIBLE_INITIAL_PEAK holds only roundoff (at m = 3 every interior
    node lies where ETA0 vanishes); normalizing it would amplify that
    roundoff, so it raises ValueError instead.
    """
    u = interpolate(ETA0, grid)
    peak = max_norm(u)
    if peak <= NEGLIGIBLE_INITIAL_PEAK:
        raise ValueError(
            f"the initial data's interpolant on m={grid.m} is negligible "
            f"(max {peak:.3g}); its nodes do not resolve sin(3 pi x) cos(2 pi y)"
        )
    return u


def prepare_initial_data(op: SplitDiffusionOperator) -> Field:
    """Smooth initial data: four direct solves with L applied to the nodal
    interpolant of ETA0, normalized by the nodal max (exact L-infinity norm
    for piecewise-bilinear functions).

    A Kronecker factorization the solves make is dropped before the
    normalization; one the operator caches is used and kept.  Raises
    ValueError where ETA0's interpolant is negligible.
    """
    kept = op._kron_factorization
    u = initial_interpolant(op.grid)
    for _ in range(4):
        u = linsolve.solve_lh(op, u)
    op._kron_factorization = kept
    np.divide(u.values, max_norm(u), out=u.values)
    return u


def measure_error(u_coarse: Field, u_ref: Field) -> float:
    """Discrete norm on the reference grid of the prolonged difference."""
    diff = prolong_to(u_coarse, u_ref.grid) - u_ref
    return discrete_norm(diff)


def compute_reference(ref: ReferenceSpec, t_end: float, coeff: str):
    """Reference trajectory; returns (final field, reference initial data)."""
    lam, mu = coefficient_pair(coeff)
    op = assemble_split_operator(lam, mu, Grid(ref.m))
    eta = prepare_initial_data(op)
    n = steps_for(t_end, ref.k)
    return steppers.evolve(op, ref.scheme, ref.k, n, eta), eta


def run_convergence(config: ExperimentConfig, reference_data=None) -> ConvergenceReport:
    """Reference run plus one trajectory per row.

    Initial data is built once on the reference grid and restricted to each
    row's grid by nodal interpolation.  Building fresh smoothed data per
    grid instead shifts the coarse-row errors by up to 40% relative to the
    published table, so the restriction is the canonical choice here.

    ``reference_data`` is a ``(u_ref, eta_ref)`` pair as ``compute_reference``
    returns it; both fields must lie on the grid of ``config.reference.m``,
    or ValueError is raised.  Each row's operator and initial field are
    freed before its error is measured, so that the measurement's buffers
    do not add to the operator's resolvent factors at the peak.
    """
    lam, mu = coefficient_pair(config.coeff)
    report = ConvergenceReport(
        scheme=config.scheme,
        reference=config.reference,
        t_end=config.t_end,
        coeff=config.coeff,
    )
    t0 = time.perf_counter()
    if reference_data is None:
        reference_data = compute_reference(config.reference, config.t_end, config.coeff)
    u_ref, eta_ref = reference_data
    if not u_ref.grid == eta_ref.grid == Grid(config.reference.m):
        raise ValueError(
            f"reference data on grids m={u_ref.grid.m} (solution) and "
            f"m={eta_ref.grid.m} (initial data) do not match the reference "
            f"grid m={config.reference.m}"
        )
    report.reference_wall_time = time.perf_counter() - t0

    results = []
    for k, m in config.rows:
        t0 = time.perf_counter()
        grid = Grid(m)
        u = steppers.evolve(assemble_split_operator(lam, mu, grid), config.scheme,
                            k, steps_for(config.t_end, k), prolong_to(eta_ref, grid))
        err = measure_error(u, u_ref)
        del u
        results.append(RowResult(k=k, h=grid.h, m=m, error=err,
                                 wall_time=time.perf_counter() - t0))

    orders = observed_order([r.error for r in results])
    for r, p in zip(results, orders):
        r.order = p
    report.rows = results
    return report


# ---------------------------------------------------------------------------
# assumption verification
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class VerificationReport:
    checks: list = dc_field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(Check(name, passed, detail))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: {c.detail}")
        lines.append("overall: " + ("PASS" if self.all_passed else "FAIL"))
        return "\n".join(lines)


def _random_field(grid: Grid, rng) -> Field:
    return Field(grid, rng.standard_normal((grid.n, grid.n)))


def verify_assumptions(m_list=None, coeff: str = "paper") -> VerificationReport:
    """Numerically check the structural properties the convergence theory
    rests on: dissipativity, resolvent/Cayley nonexpansivity, conjugated
    multi-step nonexpansivity, norm equivalence, interpolation order,
    uniform boundedness of the inverse, and the stability-norm bound."""
    if m_list is None:
        m_list = [8, 16, 32, 64, 128]
    m_list = sorted(set(m_list))
    lam, mu = coefficient_pair(coeff)
    rng = np.random.default_rng(2023)
    report = VerificationReport()
    ops = {m: assemble_split_operator(lam, mu, Grid(m)) for m in m_list}

    # dissipativity: (Au, u)_h <= 0 up to roundoff
    worst = 0.0
    for m in m_list:
        op = ops[m]
        for _ in range(25):
            u = _random_field(op.grid, rng)
            nrm2 = discrete_norm(u) ** 2
            for applied in (op.apply_a(u), op.apply_b(u)):
                q = float(np.sum(applied.values * u.values)) * op.grid.h ** 2
                worst = max(worst, q / nrm2)
    report.add("dissipativity", worst <= 1e-12,
               f"max (Eu,u)_h/||u||_h^2 = {worst:.3e} (tol 1e-12)")

    # resolvent and Cayley nonexpansivity
    worst_res, worst_cay = 0.0, 0.0
    for m in m_list:
        op = ops[m]
        for kappa in (1e-3, 1.0, 1e3):
            for _ in range(5):
                u = _random_field(op.grid, rng)
                nrm = discrete_norm(u)
                for solve, cayley in (
                    (op.solve_resolvent_a, op.cayley_a),
                    (op.solve_resolvent_b, op.cayley_b),
                ):
                    worst_res = max(worst_res,
                                    discrete_norm(solve(kappa, u)) / nrm)
                    worst_cay = max(worst_cay,
                                    discrete_norm(cayley(kappa, u)) / nrm)
    report.add("resolvent nonexpansivity", worst_res <= 1.0 + 1e-12,
               f"max ratio {worst_res:.15f} (tol 1+1e-12)")
    report.add("cayley nonexpansivity", worst_cay <= 1.0 + 1e-12,
               f"max ratio {worst_cay:.15f} (tol 1+1e-12)")

    # conjugated n-step nonexpansivity of both splitting schemes
    worst_conj = 0.0
    for m in m_list[:3]:
        op = ops[m]
        for scheme, kappa_of_k in (
            (SchemeKind.DOUGLAS_RACHFORD, lambda k: k),
            (SchemeKind.PEACEMAN_RACHFORD, lambda k: 0.5 * k),
        ):
            for k in (0.01, 0.3):
                kappa = kappa_of_k(k)
                for n in (1, 8, 64):
                    u = _random_field(op.grid, rng)
                    v = op.solve_resolvent_b(kappa, u)
                    w = steppers.evolve(op, scheme, k, n, v)
                    back = w - kappa * op.apply_b(w)
                    worst_conj = max(
                        worst_conj, discrete_norm(back) / discrete_norm(u)
                    )
    report.add("conjugated n-step nonexpansivity", worst_conj <= 1.0 + 1e-10,
               f"max ratio {worst_conj:.15f} over n <= 64 (tol 1+1e-10)")

    # norm equivalence between ||.||_h and the exact L2 norm; the drift
    # statistic uses the per-grid mean ratio, which concentrates with m
    # (the per-grid sample max is dimension-dependent by construction)
    mean_by_m = []
    lo, hi = np.inf, 0.0
    for m in m_list:
        grid = Grid(m)
        ratios = []
        for _ in range(100):
            u = _random_field(grid, rng)
            ratios.append(discrete_norm(u) / exact_l2_norm(u))
        mean_by_m.append(float(np.mean(ratios)))
        lo = min(lo, min(ratios))
        hi = max(hi, max(ratios))
    drift = (max(mean_by_m) - min(mean_by_m)) / min(mean_by_m)
    ok = 0.3 <= lo and hi <= 3.2 and drift < 0.05
    report.add("norm equivalence", ok,
               f"ratios in [{lo:.3f}, {hi:.3f}] (required within [0.3, 3.2]), "
               f"mean-ratio drift {100 * drift:.2f}% (< 5%)")

    # interpolation L2 error order for a smooth function
    def g(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    errs = []
    for m in (8, 16, 32, 64):
        u = interpolate(g, Grid(m))
        errs.append(l2_distance_to_function(u, g))
    orders = observed_order(errs)
    ok = all(abs(p - 2.0) <= 0.1 for p in orders)
    report.add("interpolation L2 order", ok,
               "orders " + ", ".join(f"{p:.3f}" for p in orders)
               + " (required 2.0 +- 0.1)")

    # uniform boundedness of the inverse: no growth trend across m
    norms = []
    for m in m_list:
        op = ops[m]
        best = 0.0
        for _ in range(10):
            f = _random_field(op.grid, rng)
            v = linsolve.solve_lh(op, f)
            best = max(best, discrete_norm(v) / discrete_norm(f))
        norms.append(best)
    coarse_max = max(norms[: min(2, len(norms))])
    ok = max(norms) <= 1.10 * coarse_max
    report.add("uniform inverse bound", ok,
               "||L^-1|| samples " + ", ".join(f"{v:.3f}" for v in norms)
               + f" (max within 10% of coarse max {coarse_max:.3f})")

    # stability norm: its closed-form certificate against the
    # coefficient-extrema bound
    worst_gap = -np.inf
    details = []
    for m in m_list:
        op = ops[m]
        cert = stability_certificate(op)
        worst_gap = max(worst_gap, cert - stability_bound(op))
        details.append(f"m={m}: {cert:.4f}")
    bound = stability_bound(ops[m_list[0]])
    report.add("stability norm bound", worst_gap <= 1e-6,
               "; ".join(details) + f" vs bound {bound:.4f}")

    return report
