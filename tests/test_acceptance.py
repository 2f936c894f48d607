"""Acceptance suite: end-to-end reproduction of the published error tables
plus the structural and solver contracts, one printed PASS/FAIL line per
criterion.  The shared fine-grid reference run dominates the wall time
(the m=1024 PR run, 16-21 s of a run of 31-38 s on two shared cores);
it is computed once per session."""

import numpy as np
import pytest

from adisplit import experiments, linsolve, steppers
from adisplit.experiments import (
    DR_REFERENCE_ERRORS,
    DR_ROWS,
    PR_REFERENCE_ERRORS,
    PR_ROWS,
    ExperimentConfig,
    ReferenceSpec,
    compute_reference,
    observed_order,
    prepare_initial_data,
    run_convergence,
    verify_assumptions,
)
from adisplit.grid import Grid, discrete_norm, prolong_to
from adisplit.operators import assemble_split_operator
from adisplit.steppers import SchemeKind, cn_step, dr_step, pr_step

import oracle
from oracle import random_field

T_END = 0.5
REFERENCE = ReferenceSpec(m=1024, k=2.0 ** -13)


@pytest.fixture
def announce(capsys):
    # bypass capture so the per-criterion verdict always reaches the log
    def _announce(num, ok, detail):
        with capsys.disabled():
            print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
        return ok

    return _announce


def paper_operator(m):
    lam, mu = experiments.coefficient_pair("paper")
    return assemble_split_operator(lam, mu, Grid(m))


@pytest.fixture(scope="module")
def reference_data():
    return compute_reference(REFERENCE, T_END, "paper")


@pytest.fixture(scope="module")
def pr_report(reference_data):
    config = ExperimentConfig(
        scheme=SchemeKind.PEACEMAN_RACHFORD, rows=PR_ROWS, reference=REFERENCE
    )
    return run_convergence(config, reference_data=reference_data)


@pytest.fixture(scope="module")
def dr_report(reference_data):
    config = ExperimentConfig(
        scheme=SchemeKind.DOUGLAS_RACHFORD, rows=DR_ROWS, reference=REFERENCE
    )
    return run_convergence(config, reference_data=reference_data)


def table_deviation(errors, published):
    return max(abs(e / p - 1.0) for e, p in zip(errors, published))


def test_criterion_1_pr_table(pr_report, announce):
    errors = pr_report.errors()
    dev = table_deviation(errors, PR_REFERENCE_ERRORS)
    detail = (
        "PR errors " + ", ".join(f"{e:.3e}" for e in errors)
        + f"; max deviation from published {100 * dev:.1f}% (tol 25%)"
    )
    assert announce(1, dev <= 0.25, detail)


def test_criterion_2_pr_orders(pr_report, announce):
    orders = observed_order(pr_report.errors())
    mean_tail = float(np.mean(orders[-3:]))
    ok = all(1.55 <= p <= 2.30 for p in orders) and 1.90 <= mean_tail <= 2.15
    detail = (
        "PR orders " + ", ".join(f"{p:.3f}" for p in orders)
        + f"; mean of last three {mean_tail:.3f} "
        + "(pairwise in [1.55, 2.30], tail mean in [1.90, 2.15])"
    )
    assert announce(2, ok, detail)


def test_criterion_3_dr_table(dr_report, announce):
    errors = dr_report.errors()
    dev = table_deviation(errors, DR_REFERENCE_ERRORS)
    orders = observed_order(errors)
    ok = dev <= 0.25 and all(0.75 <= p <= 1.15 for p in orders)
    detail = (
        "DR errors " + ", ".join(f"{e:.3e}" for e in errors)
        + f"; max deviation {100 * dev:.1f}% (tol 25%); orders "
        + ", ".join(f"{p:.3f}" for p in orders)
        + " (required in [0.75, 1.15])"
    )
    assert announce(3, ok, detail)


def test_criterion_4_reference_cross_validation(announce):
    m_ref, k_row, m_row = 256, 1.0 / 64, 64
    op_ref = paper_operator(m_ref)
    eta_ref = prepare_initial_data(op_ref)
    pr_ref = steppers.evolve(
        op_ref, SchemeKind.PEACEMAN_RACHFORD, 2.0 ** -12,
        experiments.steps_for(T_END, 2.0 ** -12), eta_ref,
    )
    cn_ref = steppers.evolve(
        op_ref, SchemeKind.CRANK_NICOLSON, 2.0 ** -10,
        experiments.steps_for(T_END, 2.0 ** -10), eta_ref,
    )
    op_row = paper_operator(m_row)
    eta_row = prolong_to(eta_ref, op_row.grid)
    u = steppers.evolve(
        op_row, SchemeKind.PEACEMAN_RACHFORD, k_row,
        experiments.steps_for(T_END, k_row), eta_row,
    )
    err_pr = experiments.measure_error(u, pr_ref)
    err_cn = experiments.measure_error(u, cn_ref)
    gap = abs(err_pr / err_cn - 1.0)
    detail = (
        f"k=h=1/64 PR-row error vs PR reference {err_pr:.4e}, vs CN reference "
        f"{err_cn:.4e}; relative gap {100 * gap:.2f}% (tol 10%)"
    )
    assert announce(4, gap <= 0.10, detail)


def test_criterion_5_dense_equivalence(announce):
    k = 0.01
    cg13 = linsolve.LinearSolverHandle(tol=1e-13)
    worst = 0.0
    for m in (2, 4, 8):
        op = paper_operator(m)
        a, b, l = oracle.dense_assemble(op)
        eye = np.eye(op.grid.interior_count)
        s_dr = np.linalg.solve(
            eye - k * b, np.linalg.solve(eye - k * a, eye + k * k * a @ b)
        )
        s_pr = np.linalg.solve(
            eye - 0.5 * k * b,
            (eye + 0.5 * k * a)
            @ np.linalg.solve(eye - 0.5 * k * a, eye + 0.5 * k * b),
        )
        pairs = [
            (lambda u: op.apply_a(u), a),
            (lambda u: op.apply_b(u), b),
            (lambda u: op.apply_l(u), l),
            (lambda u: dr_step(op, k, u), s_dr),
            (lambda u: pr_step(op, k, u), s_pr),
        ]
        for seed in range(20):
            u = random_field(op.grid, seed)
            for fn, mat in pairs:
                want = oracle.dense_apply(mat, u)
                worst = max(
                    worst, discrete_norm(fn(u) - want) / discrete_norm(want)
                )
            for solve, mat in (
                (op.solve_resolvent_a, a),
                (op.solve_resolvent_b, b),
            ):
                want = oracle.dense_solve(eye - k * mat, u)
                got = solve(k, u)
                worst = max(
                    worst, discrete_norm(got - want) / discrete_norm(want)
                )
            want = oracle.dense_solve(
                eye - 0.5 * k * l, oracle.dense_apply(eye + 0.5 * k * l, u)
            )
            got = cn_step(op, k, u, cg13)
            worst = max(worst, discrete_norm(got - want) / discrete_norm(want))
    detail = (
        f"matrix-free vs dense compositions on m in (2, 4, 8): worst relative "
        f"error {worst:.2e} (tol 1e-11)"
    )
    assert announce(5, worst <= 1e-11, detail)


def test_criterion_6_local_order(announce):
    op = paper_operator(8)
    u = random_field(op.grid, 0)
    for _ in range(3):
        u = oracle.cg_solve_l(op, u, 1e-13)
    _, _, l = oracle.dense_assemble(op)

    def errors(step, ks):
        return [
            discrete_norm(
                step(op, k, u) - oracle.dense_apply(oracle.dense_expm(l, k), u)
            )
            for k in ks
        ]

    def slope(ks, errs):
        return float(np.polyfit(np.log(ks), np.log(errs), 1)[0])

    def pairwise(errs):
        # k halves from one entry to the next
        return "(" + ", ".join(
            f"{np.log2(a / b):.3f}" for a, b in zip(errs, errs[1:])) + ")"

    ks = [2.0 ** -e for e in range(4, 11)]
    ks_fine = [2.0 ** -e for e in range(8, 15)]
    e_dr, e_pr = errors(dr_step, ks), errors(pr_step, ks)
    s_dr, s_pr = slope(ks, e_dr), slope(ks, e_pr)
    s_dr_f = slope(ks_fine, errors(dr_step, ks_fine))
    s_pr_f = slope(ks_fine, errors(pr_step, ks_fine))
    ok = abs(s_dr - 2.0) <= 0.1 and abs(s_pr - 3.0) <= 0.1
    detail = (
        f"local-order slopes over k=2^-4..2^-10: DR {s_dr:.3f} (target 2.0"
        f" +- 0.1), PR {s_pr:.3f} (target 3.0 +- 0.1); pairwise slopes per"
        f" halving of k there: DR {pairwise(e_dr)}, PR {pairwise(e_pr)}; over"
        f" the asymptotic window k=2^-8..2^-14 the same data gives DR"
        f" {s_dr_f:.3f}, PR {s_pr_f:.3f}"
    )
    assert announce(6, ok, detail)


def test_criterion_7_structural_assumptions(announce):
    report = verify_assumptions()
    detail = "verify suite:\n" + report.render()
    assert announce(7, report.all_passed, detail)


def test_criterion_8_solver_contracts(announce):
    worst_res = 0.0
    worst_gap = 0.0
    for m in (8, 16, 32):
        op = paper_operator(m)
        for seed in range(5):
            rhs = random_field(op.grid, seed)
            for kappa in (1e-3, 0.1, 10.0):
                for solve, apply in (
                    (op.solve_resolvent_a, op.apply_a),
                    (op.solve_resolvent_b, op.apply_b),
                ):
                    w = solve(kappa, rhs)
                    r = w - kappa * apply(w) - rhs
                    worst_res = max(
                        worst_res, discrete_norm(r) / discrete_norm(rhs)
                    )
            cg = oracle.cg_solve_l(op, rhs, 1e-13)
            resid = op.apply_l(cg) - rhs
            worst_res = max(worst_res, discrete_norm(resid) / discrete_norm(rhs))
            kron = linsolve.solve_lh(op, rhs)
            worst_gap = max(
                worst_gap, discrete_norm(cg - kron) / discrete_norm(cg)
            )
    ok = worst_res <= 1e-12 and worst_gap <= 1e-8
    detail = (
        f"worst relative residual {worst_res:.2e} (tol 1e-12); worst CG vs "
        f"direct solver gap {worst_gap:.2e} (tol 1e-8)"
    )
    assert announce(8, ok, detail)
