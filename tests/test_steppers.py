import collections
import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from adisplit import _kernel, linsolve, operators, steppers
from adisplit.experiments import PAPER_LAMBDA, PAPER_MU, prepare_initial_data
from adisplit.grid import Field, Grid, discrete_norm
from adisplit.operators import SplitDiffusionOperator, assemble_split_operator
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
    records the address of each call's ``out=`` and ``scratch=`` arrays
    (None without one)."""

    def __init__(self, op):
        self.op = op
        self.calls = collections.Counter()
        self.outs = collections.defaultdict(list)
        self.scratches = collections.defaultdict(list)

    def __getattr__(self, name):
        attr = getattr(self.op, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            for key, seen in (("out", self.outs), ("scratch", self.scratches)):
                buffer = kwargs.get(key)
                seen[name].append(None if buffer is None else buffer.ctypes.data)
            return attr(*args, **kwargs)

        return counted


LOOP_METHODS = ("solve_resolvent_a", "solve_resolvent_b")


class MethodRecorder:
    """Counts every call of the operator class's methods, the operator's
    calls of its own methods included, and records each call's input
    address, and each call of the compiled Cayley loop as (steps,
    average, ends)."""

    NAMES = ("apply_a", "apply_b", "cayley_loop") + LOOP_METHODS

    def __init__(self, monkeypatch):
        self.calls = collections.Counter()
        self.arrays = collections.defaultdict(list)
        self.kernel_calls = []
        for name in self.NAMES:
            monkeypatch.setattr(SplitDiffusionOperator, name,
                                self._recording(name, getattr(SplitDiffusionOperator, name)))
        kernel = _kernel.load()
        loop = kernel.adisplit_cayley_loop

        def counted_loop(n, steps, average, ends, *args):
            self.kernel_calls.append((steps, average, ends))
            return loop(n, steps, average, ends, *args)

        monkeypatch.setattr(kernel, "adisplit_cayley_loop", counted_loop)

    def _recording(self, name, method):
        def recorded(op, *args, **kwargs):
            self.calls[name] += 1
            field = next(a for a in args if isinstance(a, Field))
            self.arrays[name].append(field.values.ctypes.data)
            return method(op, *args, **kwargs)

        return recorded


def recorded_evolve(monkeypatch, scheme):
    """A MethodRecorder of one 7-step evolve at m=8, and its result."""
    op = assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(8))
    rec = MethodRecorder(monkeypatch)
    return rec, evolve(op, scheme, 0.05, 7, random_field(op.grid, 4))


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
    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf])
    def test_k_not_positive_and_finite_rejected(self, op, step, k):
        with pytest.raises(ValueError):
            step(op, k, random_field(op.grid))

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    @pytest.mark.parametrize("k", [np.nan, np.inf])
    def test_evolve_rejects_a_nonfinite_step_before_any_work(self, op, scheme, k):
        counter = CallCounter(op)
        with pytest.raises(ValueError, match="finite"):
            evolve(counter, scheme, k, 3, random_field(op.grid))
        assert counter.calls == {}

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    @pytest.mark.parametrize("n_steps", [3.0, 2.5])
    def test_evolve_rejects_a_noninteger_step_count_before_any_work(
            self, op, scheme, n_steps):
        counter = CallCounter(op)
        with pytest.raises(TypeError):
            evolve(counter, scheme, 0.05, n_steps, random_field(op.grid))
        assert counter.calls == {}

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_evolve_accepts_numpy_integer_step_counts(self, op, scheme):
        u = random_field(op.grid)
        want = evolve(op, scheme, 0.05, 3, u).values
        for n_steps in (np.int64(3), np.int32(3), np.uint8(3)):
            assert np.array_equal(evolve(op, scheme, 0.05, n_steps, u).values, want)

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
    def test_evolve_applies_one_operator_per_run(self, monkeypatch, scheme):
        # one B before the loop.  The kernel runs the whole run in one
        # call, closing R_B included (ends 2), PR's with its leading C_A
        # too (ends 1 | 2), and evolve makes no solve from Python
        dr = scheme is SchemeKind.DOUGLAS_RACHFORD
        rec, _ = recorded_evolve(monkeypatch, scheme)
        assert rec.kernel_calls == [(7, True, 2) if dr else (6, False, 3)]
        assert rec.calls == {"apply_b": 1, "cayley_loop": 1}

    @pytest.mark.parametrize("scheme,calls", [
        (SchemeKind.DOUGLAS_RACHFORD, [(3, True, 0), (3, True, 0), (1, True, 2)]),
        (SchemeKind.PEACEMAN_RACHFORD, [(3, False, 1), (3, False, 2)])])
    def test_evolve_loop_calls_are_bounded(self, op, monkeypatch, scheme, calls):
        # three steps of work per compiled call: DR's 7 steps take three
        # calls, the last closing with R_B; PR's leading C_A and closing
        # R_B take the place of one step, so its other 6 take two, the
        # first opening with C_A and the last closing with R_B
        want = evolve(op, scheme, 0.05, 7, random_field(op.grid, 4))
        rec = MethodRecorder(monkeypatch)
        monkeypatch.setattr(operators, "_LOOP_WORK", 3 * op.grid.interior_count)
        got = evolve(op, scheme, 0.05, 7, random_field(op.grid, 4))
        assert rec.kernel_calls == calls
        assert rec.calls["solve_resolvent_a"] == 0
        assert rec.calls["solve_resolvent_b"] == 0
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize(
        "scheme", [SchemeKind.DOUGLAS_RACHFORD, SchemeKind.PEACEMAN_RACHFORD])
    def test_evolve_steps_allocate_no_field(self, monkeypatch, scheme):
        # both runs end in the start's array, which one loop call takes;
        # DR's second field is the loop's own, and no resolvent is called
        rec, got = recorded_evolve(monkeypatch, scheme)
        assert rec.arrays["cayley_loop"] == [got.values.ctypes.data]
        assert "solve_resolvent_a" not in rec.arrays
        assert "solve_resolvent_b" not in rec.arrays

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    @pytest.mark.parametrize("n_steps", [1, 5])
    def test_evolve_leaves_u0_untouched(self, op, scheme, n_steps):
        u0 = random_field(op.grid, 8)
        before = u0.values.copy()
        got = evolve(op, scheme, 0.05, n_steps, u0)
        assert np.array_equal(u0.values, before)
        assert not np.may_share_memory(got.values, u0.values)

    @pytest.mark.parametrize("scheme,fields", [
        (SchemeKind.PEACEMAN_RACHFORD, 3), (SchemeKind.DOUGLAS_RACHFORD, 4)])
    def test_a_run_holds_its_fields(self, scheme, fields):
        # numpy reports its allocations to tracemalloc.  The start is formed
        # in B u0's array, and an input only the call holds is freed before
        # the factors are made, so the peak above the call's start is the
        # two resolvent factors, each one field of multipliers and O(n)
        # line coefficients, and the recurrence's buffers: PR's start
        # alone, DR's start and the second field cayley_loop allocates
        # for its average
        op = assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(256))
        _kernel.load()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = evolve(op, scheme, 2.0 ** -6, 3, random_field(op.grid, 14))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        nbytes = got.values.nbytes
        assert (fields - 1) * nbytes < peak <= fields * nbytes + 2 ** 16

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


class TestConstantCoefficientClosedForm:
    """``evolve`` against the sine-basis closed form at full size, where
    no dense matrix fits.  Differences are taken relative to ||u0||, since
    the schemes damp u_n by orders of magnitude (PR least on stiff modes),
    and a fixed roundoff floor would read large against ||u_n||."""

    @pytest.mark.parametrize("m", [5, 8])
    def test_closed_form_is_the_dense_power(self, m):
        op = assemble_split_operator(ONE, ONE, Grid(m))
        k, n = 0.3, 6
        u = random_field(op.grid, m)
        for scheme, s in zip(
            (SchemeKind.DOUGLAS_RACHFORD, SchemeKind.PEACEMAN_RACHFORD),
            dense_split_steps(op, k),
        ):
            want = oracle.dense_apply(np.linalg.matrix_power(s, n), u)
            got = oracle.constant_coefficient_evolve(scheme, k, n, u)
            assert discrete_norm(got - want) <= 1e-13 * discrete_norm(u)

    # n = m - 1 is never a multiple of the 16-line tile; m = 514 and 1024
    # run on two threads where two CPUs are available, and m = 1024's 17
    # steps take three compiled calls
    @pytest.mark.parametrize("m,k", [(3, 1 / 128), (18, 1 / 128), (258, 2.0 ** -10),
                                     (514, 2.0 ** -12), (1024, 2.0 ** -13)])
    @pytest.mark.parametrize(
        "scheme", [SchemeKind.DOUGLAS_RACHFORD, SchemeKind.PEACEMAN_RACHFORD])
    def test_evolve_matches_the_closed_form(self, m, k, scheme):
        op = assemble_split_operator(ONE, ONE, Grid(m))
        u0 = random_field(op.grid, m)
        got = evolve(op, scheme, k, 17, u0)
        want = oracle.constant_coefficient_evolve(scheme, k, 17, u0)
        assert discrete_norm(got - want) <= 1e-13 * discrete_norm(u0)


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


def fields(op, count):
    """``count`` new C-contiguous float64 fields of op's grid."""
    return [np.empty((op.grid.n, op.grid.n)) for _ in range(count)]


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
        r, z, middle, jacobi = fields(op, 4)
        precondition = cn_preconditioner(op, k, r, z, middle, jacobi)
        columns = []
        for col in eye:
            r[...] = col.reshape(r.shape)
            precondition()
            columns.append(z.ravel().copy())
        got = np.column_stack(columns)
        r_b = np.linalg.inv(eye - 0.25 * k * b)
        r_a = np.linalg.inv(eye - 0.5 * k * a)
        weights = CN_JACOBI_WEIGHT / np.diag(eye - 0.5 * k * l)
        want = r_b @ r_a @ r_b + np.diag(weights)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert np.max(np.abs(got - got.T)) <= 1e-13 * scale
        assert np.min(np.linalg.eigvalsh(0.5 * (got + got.T))) > 0.0
        # the weights are numpy's formula of them, bit for bit
        half = 0.5 * k
        assert jacobi.tobytes() == (
            CN_JACOBI_WEIGHT / (1.0 - half * op.diagonal_l().values)).tobytes()

    @pytest.mark.parametrize("m,k", [(24, 100.0), (16, 0.5)])
    def test_matches_dense_map(self, m, k):
        op = assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(m))
        s_cn = dense_cn(op, k)
        for seed in range(3):
            u = random_field(op.grid, seed)
            want = oracle.dense_apply(s_cn, u)
            rel = discrete_norm(cn_step(op, k, u) - want) / discrete_norm(want)
            assert rel <= 1e-9

    def test_preconditioner_reads_r_and_overwrites_z(self, op16):
        r, z, middle, jacobi = fields(op16, 4)
        precondition = cn_preconditioner(op16, 0.05, r, z, middle, jacobi)
        rng = np.random.default_rng(3)
        r1, r2 = rng.standard_normal((2,) + r.shape)
        r[...] = r1
        assert precondition() is None
        kept = z.copy()
        r[...] = r2
        precondition()
        assert not np.array_equal(z, kept)
        r[...] = r1
        precondition()
        assert z.tobytes() == kept.tobytes()

    def test_cg_iterations_allocate_no_field(self):
        # the right-hand side goes into one field of the run and every
        # apply_l inside CG into another, which is also the preconditioner's
        # middle field; the preconditioner is bound once
        op = assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(16))
        rec = CallCounter(op)
        got = cn_step(rec, 0.05, random_field(op.grid, 9))
        rhs, *matvecs = rec.outs["apply_l"]
        assert len(matvecs) > 1 and len(set(matvecs)) == 1
        assert rec.calls["bind_adi_product"] == rec.calls["diagonal_l"] == 1
        bound = rec.outs["bind_adi_product"] + rec.scratches["bind_adi_product"]
        assert len({rhs, matvecs[0], *bound}) == 3 and bound[1] == matvecs[0]
        assert got.values.ctypes.data not in {rhs, matvecs[0], *bound}
        assert "solve_resolvent_a" not in rec.calls
        assert "solve_resolvent_b" not in rec.calls

    def test_evolve_builds_the_preconditioner_once(self, op16):
        # one set of fields, one Jacobi diagonal and one bound
        # preconditioner for every step of the run
        rec = CallCounter(op16)
        u = random_field(op16.grid, 10)
        got = evolve(rec, SchemeKind.CRANK_NICOLSON, 0.05, 4, u)
        for name in ("diagonal_l", "bind_adi_product"):
            assert rec.calls[name] == 1, name
        outs = rec.outs["apply_l"]
        assert None not in outs and len(set(outs)) == 2 and len(outs) > 4 * 2
        want = u
        for _ in range(4):
            want = cn_step(op16, 0.05, want)
        assert np.array_equal(got.values, want.values)

    def test_a_run_allocates_its_six_fields_once(self):
        # numpy reports its allocations to tracemalloc; a run's peak above
        # the start is its six fields, a few Python objects and, while
        # diagonal_l forms its broadcast products, numpy's 128 KB of
        # iterator buffers: x takes the memory of diagonal_l's temporary,
        # and the steps allocate no field (m=256 measured 6 fields +
        # 132 944..133 000 bytes)
        op = assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(256))
        u0 = random_field(op.grid, 13)
        k = 2.0 ** -10
        evolve(op, SchemeKind.CRANK_NICOLSON, k, 3, u0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = evolve(op, SchemeKind.CRANK_NICOLSON, k, 3, u0)
            peak = tracemalloc.get_traced_memory()[1] - start
            run = steppers._CnRun(op, k)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            step = cn_step(op, k, u0, None, run)
            step_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        nbytes = 6 * got.values.nbytes
        assert nbytes <= peak <= nbytes + 2 ** 17 + 16384
        # a step on a run's fields allocates no field at all
        assert step.values is run.x and step_peak <= 16384

    def test_a_run_is_freed_without_the_cycle_collector(self, op16):
        # matvec and precondition refer to the run's fields, not to the
        # run: a reference cycle would keep all six fields until the next
        # collection
        gc.disable()
        try:
            run = steppers._CnRun(op16, 0.05)
            freed = weakref.ref(run)
            cn_step(op16, 0.05, random_field(op16.grid, 14), None, run)
            del run
            assert freed() is None
        finally:
            gc.enable()

    def test_two_threads_on_one_operator_give_the_serial_result(self):
        op = assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(40))
        k = 2.0 ** -6
        inputs = [random_field(op.grid, seed) for seed in range(4)]
        want = [evolve(op, SchemeKind.CRANK_NICOLSON, k, 3, u).values
                for u in inputs]
        got = [[] for _ in inputs]
        barrier = threading.Barrier(len(inputs))

        def work(i):
            barrier.wait()
            for _ in range(3):
                got[i].append(evolve(op, SchemeKind.CRANK_NICOLSON, k, 3,
                                     inputs[i]).values)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for results, values in zip(got, want):
            assert len(results) == 3
            for result in results:
                assert result.tobytes() == values.tobytes()

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
        plain = []
        rhs = (u + 0.5 * k * op.apply_l(u)).values
        x, p, ap, z = fields(op, 4)

        def matvec():
            plain.append(1)
            f = Field(op.grid, p)
            np.copyto(ap, (f - 0.5 * k * op.apply_l(f)).values)

        want = linsolve.conjugate_gradient(matvec, lambda: np.copyto(z, rhs),
                                           rhs, x, p, ap, z)
        assert counter.calls["apply_l"] - 1 < len(plain) / 2
        assert np.max(np.abs(got.values - want)) <= 1e-9

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


class TestRunFields:
    """A CN run works in fields of its own: a later run writes neither
    what an earlier one returned nor what it reads."""

    def test_a_later_run_leaves_a_returned_field_alone(self):
        op = assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(20))
        k = 2.0 ** -6
        first = evolve(op, SchemeKind.CRANK_NICOLSON, k, 3, random_field(op.grid, 1))
        single = cn_step(op, k, random_field(op.grid, 2))
        kept = [first.values.copy(), single.values.copy()]
        for scheme in (SchemeKind.CRANK_NICOLSON, SchemeKind.PEACEMAN_RACHFORD):
            evolve(op, scheme, k, 3, random_field(op.grid, 3))
            for field, values in zip((first, single), kept):
                assert field.values.tobytes() == values.tobytes()

    def test_u0_stays_unwritten(self):
        op = assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(20))
        ints = np.arange(19 * 19).reshape(19, 19) % 7 - 3
        want = evolve(op, SchemeKind.CRANK_NICOLSON, 0.05, 3,
                      Field(op.grid, ints.astype(float))).values
        for values in (np.asfortranarray(ints.astype(float)), ints):
            before = values.copy()
            got = evolve(op, SchemeKind.CRANK_NICOLSON, 0.05, 3, Field(op.grid, values))
            assert got.values.tobytes() == want.tobytes()
            assert np.array_equal(values, before) and values.dtype == before.dtype


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

    @pytest.mark.filterwarnings("error")
    def test_pr_overflow_raises_without_a_warning(self, op8):
        # an overflow in the kernel, which forms PR's leading C_A, reaches
        # the caller only as the non-finite field
        huge = Field(op8.grid, np.full((op8.grid.n, op8.grid.n), 1e308))
        with pytest.raises(FloatingPointError, match="non-finite"):
            evolve(op8, SchemeKind.PEACEMAN_RACHFORD, 1.0 / 16, 8, huge)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_zero_steps_check_the_initial_field(self, op8, scheme, bad):
        # -inf reaches only the minimum, +inf only the maximum
        values = random_field(op8.grid).values
        values[4, 1] = bad
        with pytest.raises(FloatingPointError, match="0 steps.*non-finite"):
            evolve(op8, scheme, 0.01, 0, Field(op8.grid, values))

    def test_the_check_allocates_no_mask(self):
        # numpy reports its allocations to tracemalloc; a zero-step run is
        # the finiteness check alone, where a bool mask would take n^2 bytes
        op = assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(256))
        u = random_field(op.grid, 3)
        for scheme in SchemeKind:
            evolve(op, scheme, 0.01, 0, u)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                evolve(op, scheme, 0.01, 0, u)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert peak < 4096, scheme

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
