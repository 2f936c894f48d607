import collections

import numpy as np
import pytest

from adisplit import linsolve
from adisplit.experiments import PAPER_LAMBDA, PAPER_MU, prepare_initial_data
from adisplit.grid import Field, Grid, discrete_norm
from adisplit.operators import assemble_split_operator
from adisplit.steppers import (
    CN_JACOBI_WEIGHT,
    SchemeKind,
    cn_preconditioner,
    cn_step,
    dr_step,
    evolve,
    pr_step,
)

import oracle
from oracle import random_field, zero_field

ONE = lambda x: np.ones_like(np.asarray(x, dtype=float))


def scalar_op():
    # one unknown at (0.5, 0.5): A = B = -8
    return assemble_split_operator(ONE, ONE, Grid(2))


def unit(op):
    return Field(op.grid, np.array([[1.0]]))


class ZeroATestDouble:
    """Split-operator stub with A = 0, delegating B to a real operator."""

    def __init__(self, op):
        self.op = op
        self.grid = op.grid

    def apply_a(self, u):
        return zero_field(self.grid)

    def apply_b(self, u):
        return self.op.apply_b(u)

    def apply_l(self, u):
        return self.op.apply_b(u)

    def solve_resolvent_a(self, kappa, rhs):
        return rhs.copy()

    def solve_resolvent_b(self, kappa, rhs):
        return self.op.solve_resolvent_b(kappa, rhs)


class CallCounter:
    """Delegates to a real operator, counts calls of each method and
    records the address of each call's ``out=`` array (None without one)."""

    def __init__(self, op):
        self.op = op
        self.calls = collections.Counter()
        self.outs = collections.defaultdict(list)

    def __getattr__(self, name):
        attr = getattr(self.op, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            out = kwargs.get("out")
            self.outs[name].append(None if out is None else out.ctypes.data)
            return attr(*args, **kwargs)

        return counted


LOOP_METHODS = ("cayley_a", "cayley_b", "solve_resolvent_a", "solve_resolvent_b")


class TestScalarSurrogate:
    def test_dr(self):
        u = dr_step(scalar_op(), 0.0125, unit(scalar_op()))
        assert u.values[0, 0] == pytest.approx(1.01 / 1.21, rel=1e-14)

    def test_pr(self):
        u = pr_step(scalar_op(), 0.0125, unit(scalar_op()))
        assert u.values[0, 0] == pytest.approx((0.95 / 1.05) ** 2, rel=1e-14)

    def test_pr_second_order_agreement(self):
        got = pr_step(scalar_op(), 0.0125, unit(scalar_op())).values[0, 0]
        assert got == pytest.approx(np.exp(-0.2), rel=2e-4)

    def test_cn(self):
        u = cn_step(scalar_op(), 0.0125, unit(scalar_op()))
        assert u.values[0, 0] == pytest.approx(0.9 / 1.1, rel=1e-12)

    def test_pr_long_run(self):
        op = scalar_op()
        u = evolve(op, SchemeKind.PEACEMAN_RACHFORD, 0.0125, 40, unit(op))
        exact = (0.95 / 1.05) ** 80
        assert u.values[0, 0] == pytest.approx(exact, rel=1e-12)
        assert abs(u.values[0, 0] - np.exp(-8.0)) / np.exp(-8.0) < 1e-2


def dense_split_steps(op, k):
    """Dense DR and PR step matrices from their defining formulas."""
    a, b, _ = oracle.dense_assemble(op)
    eye = np.eye(op.grid.interior_count)
    s_dr = np.linalg.solve(
        eye - k * b, np.linalg.solve(eye - k * a, eye + k * k * a @ b)
    )
    s_pr = np.linalg.solve(
        eye - 0.5 * k * b,
        (eye + 0.5 * k * a)
        @ np.linalg.solve(eye - 0.5 * k * a, eye + 0.5 * k * b),
    )
    return s_dr, s_pr


@pytest.fixture(scope="module")
def op8():
    return assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(8))


@pytest.fixture(scope="module")
def op16():
    return assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(16))


class TestStepContracts:
    @pytest.fixture
    def op(self, op8):
        return op8

    def test_zero_input(self, op):
        z = zero_field(op.grid)
        for step in (dr_step, pr_step, cn_step):
            assert np.all(step(op, 0.1, z).values == 0.0)

    @pytest.mark.parametrize("step", [dr_step, pr_step, cn_step])
    def test_nonpositive_k_rejected(self, op, step):
        with pytest.raises(ValueError):
            step(op, 0.0, random_field(op.grid))

    def test_evolve_zero_steps(self, op):
        u = random_field(op.grid)
        assert np.array_equal(
            evolve(op, SchemeKind.DOUGLAS_RACHFORD, 0.1, 0, u).values, u.values
        )

    def test_evolve_negative_steps(self, op):
        with pytest.raises(ValueError):
            evolve(op, SchemeKind.DOUGLAS_RACHFORD, 0.1, -1, random_field(op.grid))

    def test_evolve_is_composition(self, op8, op16):
        # evolve runs the same map through the Cayley identity, so the two
        # agree to roundoff, not bit for bit
        for op, k, n in ((op8, 0.01, 2), (op16, 0.3, 64)):
            u = random_field(op.grid, 1)
            for scheme, step in ((SchemeKind.DOUGLAS_RACHFORD, dr_step),
                                 (SchemeKind.PEACEMAN_RACHFORD, pr_step)):
                manual = u
                for _ in range(n):
                    manual = step(op, k, manual)
                got = evolve(op, scheme, k, n, u)
                assert discrete_norm(got - manual) <= 1e-13 * discrete_norm(manual)

    @pytest.mark.parametrize(
        "scheme", [SchemeKind.DOUGLAS_RACHFORD, SchemeKind.PEACEMAN_RACHFORD]
    )
    def test_evolve_applies_one_operator_per_run(self, op, scheme):
        # PR's last step ends in R_B instead of C_B; DR maps back with one R_B
        counter = CallCounter(op)
        evolve(counter, scheme, 0.05, 7, random_field(op.grid, 4))
        cayley_b = 7 if scheme is SchemeKind.DOUGLAS_RACHFORD else 6
        assert counter.calls == {
            "apply_b": 1, "cayley_a": 7, "cayley_b": cayley_b,
            "solve_resolvent_b": 1,
        }

    @pytest.mark.parametrize("scheme,buffers", [
        (SchemeKind.DOUGLAS_RACHFORD, 3), (SchemeKind.PEACEMAN_RACHFORD, 2)])
    def test_evolve_steps_allocate_no_field(self, op, scheme, buffers):
        # every transform and solve of the loop writes into one of the
        # run's buffers: PR alternates two, DR rotates three
        rec = CallCounter(op)
        evolve(rec, scheme, 0.05, 7, random_field(op.grid, 4))
        outs = [a for name in LOOP_METHODS for a in rec.outs[name]]
        assert len(outs) == sum(rec.calls[name] for name in LOOP_METHODS) > 0
        assert None not in outs
        assert len(set(outs)) == buffers

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    @pytest.mark.parametrize("n_steps", [1, 5])
    def test_evolve_leaves_u0_untouched(self, op, scheme, n_steps):
        u0 = random_field(op.grid, 8)
        before = u0.values.copy()
        got = evolve(op, scheme, 0.05, n_steps, u0)
        assert np.array_equal(u0.values, before)
        assert not np.may_share_memory(got.values, u0.values)

    def test_evolve_keeps_the_resolvent_recurrences(self, op16):
        # PR's Cayley loop does the operations of the resolvent recurrence
        # below in the same order; DR's Lions-Mercier loop regroups the
        # Douglas recurrence, so it agrees to roundoff
        k, n = 1.0 / 16, 24
        u0 = random_field(op16.grid, 5)
        kappa = 0.5 * k
        z = u0 + kappa * op16.apply_b(u0)
        for _ in range(n):
            w = op16.solve_resolvent_a(kappa, z)
            y = 2.0 * w - z
            u = op16.solve_resolvent_b(kappa, y)
            z = 2.0 * u - y
        got = evolve(op16, SchemeKind.PEACEMAN_RACHFORD, k, n, u0)
        assert np.array_equal(got.values, u.values)
        u, v = u0, k * op16.apply_b(u0)
        for _ in range(n):
            z = op16.solve_resolvent_a(k, u + v) - v
            u = op16.solve_resolvent_b(k, z)
            v = u - z
        got = evolve(op16, SchemeKind.DOUGLAS_RACHFORD, k, n, u0)
        assert discrete_norm(got - u) <= 1e-14 * discrete_norm(u)

    def test_linearity(self, op):
        u = random_field(op.grid, 2)
        v = random_field(op.grid, 3)
        for step in (dr_step, pr_step):
            su = step(op, 0.05, u)
            sv = step(op, 0.05, v)
            ssum = step(op, 0.05, u + v)
            assert np.allclose(ssum.values, su.values + sv.values,
                               rtol=1e-13, atol=1e-13)
            assert np.allclose(step(op, 0.05, 3.0 * u).values, 3.0 * su.values,
                               rtol=1e-13, atol=1e-13)

    def test_matches_dense_compositions(self, op8, op16):
        # k = 0.3 at m = 16 is a large step: k * rho(B) is about 322
        for op, k in ((op8, 1e-3), (op16, 0.3)):
            _, _, l = oracle.dense_assemble(op)
            eye = np.eye(op.grid.interior_count)
            s_dr, s_pr = dense_split_steps(op, k)
            for seed in range(5):
                u = random_field(op.grid, seed)
                for step, s in ((dr_step, s_dr), (pr_step, s_pr)):
                    want = oracle.dense_apply(s, u)
                    rel = discrete_norm(step(op, k, u) - want) / discrete_norm(want)
                    assert rel <= 1e-11
                want = oracle.dense_solve(
                    eye - 0.5 * k * l, oracle.dense_apply(eye + 0.5 * k * l, u)
                )
                rel = discrete_norm(cn_step(op, k, u) - want) / discrete_norm(want)
                assert rel <= 1e-9

    def test_evolve_matches_dense_powers(self, op16):
        k, n = 0.3, 8
        for scheme, s in zip(
            (SchemeKind.DOUGLAS_RACHFORD, SchemeKind.PEACEMAN_RACHFORD),
            dense_split_steps(op16, k),
        ):
            s_n = np.linalg.matrix_power(s, n)
            for seed in range(3):
                u = random_field(op16.grid, seed)
                want = oracle.dense_apply(s_n, u)
                got = evolve(op16, scheme, k, n, u)
                assert discrete_norm(got - want) <= 1e-11 * discrete_norm(want)


class TestStability:
    @pytest.fixture
    def op(self, op16):
        return op16

    @pytest.mark.parametrize(
        "scheme,kappa_factor",
        [(SchemeKind.DOUGLAS_RACHFORD, 1.0), (SchemeKind.PEACEMAN_RACHFORD, 0.5)],
    )
    def test_conjugated_nonexpansivity(self, op, scheme, kappa_factor):
        for k in (0.01, 0.5):
            kappa = kappa_factor * k
            for n in (1, 8, 64):
                u = random_field(op.grid, n)
                v = op.solve_resolvent_b(kappa, u)
                w = evolve(op, scheme, k, n, v)
                back = w - kappa * op.apply_b(w)
                assert discrete_norm(back) <= (1 + 1e-10) * discrete_norm(u)

    def test_local_order_in_asymptotic_regime(self, op8):
        # the one-step defect against the exact matrix exponential shows the
        # classical orders once k * |lowest eigenvalue| is small
        op = op8
        u = random_field(op.grid, 7)
        for _ in range(3):
            u = oracle.cg_solve_l(op, u, 1e-13)
        _, _, l = oracle.dense_assemble(op)
        ks = [2.0 ** -e for e in range(8, 15)]
        for step, order in ((dr_step, 2.0), (pr_step, 3.0)):
            errs = [
                discrete_norm(
                    step(op, k, u) - oracle.dense_apply(oracle.dense_expm(l, k), u)
                )
                for k in ks
            ]
            slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
            assert slope == pytest.approx(order, abs=0.1)


class TestZeroADegeneration:
    def test_dr_reduces_to_backward_euler_in_b(self):
        op = ZeroATestDouble(scalar_op())
        k = 0.0125
        u = unit(op.op)
        got = dr_step(op, k, u)
        # with A = 0: S = (I - kB)^{-1}
        assert got.values[0, 0] == pytest.approx(1.0 / 1.1, rel=1e-14)

    def test_pr_reduces_to_cayley_in_b(self):
        op = ZeroATestDouble(scalar_op())
        k = 0.0125
        u = unit(op.op)
        got = pr_step(op, k, u)
        # with A = 0: S = (I - k/2 B)^{-1} (I + k/2 B)
        assert got.values[0, 0] == pytest.approx(0.95 / 1.05, rel=1e-14)


def dense_cn(op, k):
    _, _, l = oracle.dense_assemble(op)
    eye = np.eye(op.grid.interior_count)
    return np.linalg.solve(eye - 0.5 * k * l, eye + 0.5 * k * l)


class TestCrankNicolsonSolve:
    def test_preconditioner_is_spd_and_the_documented_product(self):
        op = assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(24))
        k = 100.0
        a, b, l = oracle.dense_assemble(op)
        eye = np.eye(op.grid.interior_count)
        precondition = cn_preconditioner(op, k)
        got = np.column_stack([precondition(col).copy() for col in eye])
        r_b = np.linalg.inv(eye - 0.25 * k * b)
        r_a = np.linalg.inv(eye - 0.5 * k * a)
        jacobi = CN_JACOBI_WEIGHT / np.diag(eye - 0.5 * k * l)
        want = r_b @ r_a @ r_b + np.diag(jacobi)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert np.max(np.abs(got - got.T)) <= 1e-13 * scale
        assert np.min(np.linalg.eigvalsh(0.5 * (got + got.T))) > 0.0

    @pytest.mark.parametrize("m,k", [(24, 100.0), (16, 0.5)])
    def test_matches_dense_map(self, m, k):
        op = assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(m))
        s_cn = dense_cn(op, k)
        for seed in range(3):
            u = random_field(op.grid, seed)
            want = oracle.dense_apply(s_cn, u)
            rel = discrete_norm(cn_step(op, k, u) - want) / discrete_norm(want)
            assert rel <= 1e-9

    def test_preconditioner_overwrites_its_own_output(self, op16):
        precondition = cn_preconditioner(op16, 0.05)
        rng = np.random.default_rng(3)
        r1, r2 = rng.standard_normal((2, op16.grid.interior_count))
        first = precondition(r1)
        kept = first.copy()
        assert precondition(r2) is first
        assert not np.array_equal(first, kept)
        assert precondition(r1).tobytes() == kept.tobytes()

    def test_cg_iterations_allocate_no_field(self, op16):
        # every apply_l inside CG and every resolvent of the preconditioner
        # writes into a workspace of the step; only the right-hand side
        # (I + k/2 L) u is a new field
        rec = CallCounter(op16)
        cn_step(rec, 0.05, random_field(op16.grid, 9))
        matvecs = [a for a in rec.outs["apply_l"] if a is not None]
        assert rec.outs["apply_l"].count(None) == 1 and len(matvecs) > 1
        assert len(set(matvecs)) == 1
        solves = rec.outs["solve_resolvent_a"] + rec.outs["solve_resolvent_b"]
        assert None not in solves and len(set(solves)) == 3

    def test_evolve_builds_the_preconditioner_once(self, op16):
        rec = CallCounter(op16)
        u = random_field(op16.grid, 10)
        got = evolve(rec, SchemeKind.CRANK_NICOLSON, 0.05, 4, u)
        assert rec.calls["diagonal_l"] == 1
        assert rec.outs["apply_l"].count(None) == 4
        assert None not in rec.outs["solve_resolvent_a"] + rec.outs["solve_resolvent_b"]
        want = u
        for _ in range(4):
            want = cn_step(op16, 0.05, want)
        assert np.array_equal(got.values, want.values)

    def test_few_operator_applications_on_smooth_data(self):
        # the paper's initial data at m=128, k=2^-10: the unpreconditioned
        # solve needs about 30 applications of L, this one at most 12
        op = assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(128))
        counter = CallCounter(op)
        cn_step(counter, 2.0 ** -10, prepare_initial_data(op))
        assert counter.calls["apply_l"] <= 12

    def test_rough_data_needs_fewer_applications_than_plain_cg(self):
        # the ADI product alone needs about twice as many iterations as
        # plain CG here; its Jacobi term restores the gain
        op = assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(128))
        k = 2.0 ** -10
        u = random_field(op.grid, 11)
        counter = CallCounter(op)
        got = cn_step(counter, k, u)
        n = op.grid.n
        plain = []

        def matvec(v):
            plain.append(1)
            f = Field(op.grid, v.reshape(n, n))
            return (f - 0.5 * k * op.apply_l(f)).values.ravel()

        rhs = u + 0.5 * k * op.apply_l(u)
        want = linsolve.conjugate_gradient(matvec, rhs.values.ravel())
        assert counter.calls["apply_l"] - 1 < len(plain) / 2
        assert np.max(np.abs(got.values.ravel() - want)) <= 1e-9

    def test_evolve_passes_the_iteration_cap_to_cg(self, op16):
        u = random_field(op16.grid, 12)
        with pytest.raises(linsolve.NonConvergenceError):
            evolve(op16, SchemeKind.CRANK_NICOLSON, 0.05, 2, u,
                   linsolve.LinearSolverHandle(max_iter=1))

    def test_evolve_passes_the_tolerance_to_cg(self, op16):
        u = random_field(op16.grid, 12)
        counts = []
        for handle in (linsolve.LinearSolverHandle(tol=1e-4), None):
            rec = CallCounter(op16)
            evolve(rec, SchemeKind.CRANK_NICOLSON, 0.05, 2, u, handle)
            counts.append(rec.calls["apply_l"])
        assert counts[0] < counts[1]


class TestNonFinite:
    @pytest.mark.parametrize(
        "scheme", [SchemeKind.PEACEMAN_RACHFORD, SchemeKind.DOUGLAS_RACHFORD]
    )
    def test_nan_initial_field_raises(self, op8, scheme):
        values = random_field(op8.grid).values
        values[2, 3] = np.nan
        message = rf"{scheme.value}.*k=0\.01.*5 steps"
        with pytest.raises(FloatingPointError, match=message):
            evolve(op8, scheme, 0.01, 5, Field(op8.grid, values))

    def test_nan_initial_field_crank_nicolson(self, op8):
        values = random_field(op8.grid).values
        values[0, 0] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            evolve(op8, SchemeKind.CRANK_NICOLSON, 0.01, 2, Field(op8.grid, values))

    @pytest.mark.parametrize("e", [-700, 900])
    def test_crank_nicolson_scales_extreme_data_exactly(self, op8, e):
        # 2^-700 ~ 1e-211 and 2^900 ~ 8e270: CG's right-hand side norm would
        # under- or overflow; the scheme is linear, so the result scales
        u = random_field(op8.grid, 7)
        want = evolve(op8, SchemeKind.CRANK_NICOLSON, 0.1, 3, u)
        got = evolve(op8, SchemeKind.CRANK_NICOLSON, 0.1, 3, u * 2.0 ** e)
        assert np.array_equal(got.values, np.ldexp(want.values, e))
