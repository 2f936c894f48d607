import collections
import logging
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from adisplit import _kernel, steppers
from adisplit.experiments import PAPER_LAMBDA, PAPER_MU, coefficient_pair
from adisplit.grid import Grid, discrete_norm
from adisplit.linsolve import (
    KroneckerFactorization,
    LinearSolverHandle,
    NonConvergenceError,
    conjugate_gradient,
    kronecker_direct_prepare,
    power_iteration,
    solve_lh,
)
from adisplit.operators import assemble_split_operator

import oracle
from oracle import random_field, reference_cg, zero_field

ONE = lambda x: np.ones_like(np.asarray(x, dtype=float))


def paper_operator(m):
    return assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(m))


def ill_conditioned_system(n=60, seed=2):
    """SPD matrix with a diagonal spread of 1e6 plus a small coupling."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, n))
    mat = np.diag(np.logspace(0, 6, n)) + 0.1 * (q @ q.T) / n
    return mat, rng.standard_normal(n)


def cg(matvec, b, **kwargs):
    """conjugate_gradient on fresh vectors: r a copy of b, x and p empty."""
    r = np.array(b, dtype=np.float64)
    return conjugate_gradient(matvec, r, np.empty_like(r), np.empty_like(r), **kwargs)


class TestHandle:
    def test_defaults(self):
        h = LinearSolverHandle()
        assert h.tol == 1e-12
        assert h.max_iter is None

    @pytest.mark.parametrize("tol", [0.0, -1e-3, 0.5])
    def test_bad_tol(self, tol):
        with pytest.raises(ValueError):
            LinearSolverHandle(tol=tol)

    @pytest.mark.parametrize("max_iter", [-1, 0, 2.5, True, False, 3.0, "3"])
    def test_bad_max_iter(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            LinearSolverHandle(max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [None, 1, 40, np.int64(7)])
    def test_max_iter_none_or_positive_integer(self, max_iter):
        assert LinearSolverHandle(max_iter=max_iter).max_iter == max_iter


class TestConjugateGradient:
    def test_small_spd_system(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((12, 12))
        mat = q @ q.T + 12 * np.eye(12)
        b = rng.standard_normal(12)
        x = cg(lambda v: mat @ v, b, tol=1e-13)
        assert np.linalg.norm(mat @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_zero_rhs(self):
        x = cg(lambda v: v, np.zeros(5))
        assert np.all(x == 0.0)

    def test_no_preconditioner_is_plain_cg_bit_for_bit(self):
        mat, b = ill_conditioned_system()
        want, _ = reference_cg(lambda v: mat @ v, b, 1e-12)
        got = cg(lambda v: mat @ v, b, tol=1e-12, precondition=None)
        assert np.array_equal(got, want)

    def test_identity_preconditioner_is_plain_cg_bit_for_bit(self):
        mat, b = ill_conditioned_system()
        plain = cg(lambda v: mat @ v, b, tol=1e-12)
        pcg = cg(lambda v: mat @ v, b, tol=1e-12,
                                 precondition=lambda r: r)
        assert np.array_equal(plain, pcg)

    def test_jacobi_preconditioner_cuts_iterations(self):
        mat, b = ill_conditioned_system()
        counts = {}
        for name, pc in (("plain", None), ("jacobi", lambda r: r / np.diag(mat))):
            calls = []

            def matvec(v):
                calls.append(1)
                return mat @ v

            x = cg(matvec, b, tol=1e-12, precondition=pc)
            assert np.linalg.norm(mat @ x - b) <= 1e-11 * np.linalg.norm(b)
            counts[name] = len(calls)
        assert counts["jacobi"] < counts["plain"] / 3

    def test_reused_result_buffers_give_the_same_bits(self):
        # matvec and precondition may overwrite what they returned last time
        mat, b = ill_conditioned_system()
        diag = np.diag(mat)
        ap, z = np.empty_like(b), np.empty_like(b)

        def matvec_into(v):
            np.matmul(mat, v, out=ap)
            return ap

        def jacobi_into(r):
            np.divide(r, diag, out=z)
            return z

        want = cg(lambda v: mat @ v, b, tol=1e-12,
                                  precondition=lambda r: r / diag)
        got = cg(matvec_into, b, tol=1e-12, precondition=jacobi_into)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rhs_rejected_before_iterating(self, bad):
        b = np.ones(16)
        b[5] = bad

        def matvec(v):
            raise AssertionError("CG must not iterate on a non-finite right-hand side")

        r = b.copy()
        with pytest.raises(ValueError, match="not finite") as err:
            conjugate_gradient(matvec, r, np.empty(16), np.empty(16))
        # a run that overflowed into it reports it as evolve does
        assert isinstance(err.value, FloatingPointError)
        assert np.array_equal(r, b, equal_nan=True)

    def test_solves_in_the_callers_vectors(self):
        mat, b = ill_conditioned_system()
        want = cg(lambda v: mat @ v, b, tol=1e-12)
        r, x, p = b.copy(), np.full_like(b, np.nan), np.full_like(b, np.nan)
        got = conjugate_gradient(lambda v: mat @ v, r, x, p, tol=1e-12)
        assert got is x and x.tobytes() == want.tobytes()
        # r ends as the residual b - A x that the stopping rule measured
        assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b)
        assert np.allclose(r, b - mat @ x, rtol=0, atol=1e-9 * np.linalg.norm(b))

    @pytest.mark.parametrize("bad,message", [
        ("r list", "r must be"), ("x float32", "x must be"),
        ("p strided", "p must be"), ("x shape", "x must be"),
        ("p Fortran order", "p must be"), ("r read-only", "r must be writeable"),
        ("x is r", "must not overlap"), ("p overlaps x", "must not overlap"),
    ])
    def test_unusable_vectors_rejected_before_any_work(self, bad, message):
        # 2 x 3 vectors, so that a Fortran-ordered one is not C-contiguous
        shape = (2, 3)
        pair = np.zeros(12)
        vectors = dict(r=np.ones(shape), x=np.zeros(shape), p=np.zeros(shape))
        if bad == "r list":
            vectors["r"] = vectors["r"].tolist()
        elif bad == "x float32":
            vectors["x"] = np.zeros(shape, dtype=np.float32)
        elif bad == "p strided":
            vectors["p"] = pair[::2].reshape(shape)
        elif bad == "x shape":
            vectors["x"] = np.zeros((2, 4))
        elif bad == "p Fortran order":
            vectors["p"] = np.zeros(shape, order="F")
        elif bad == "r read-only":
            vectors["r"].flags.writeable = False
        elif bad == "x is r":
            vectors["x"] = vectors["r"]
        else:
            vectors["x"], vectors["p"] = pair[:6].reshape(shape), pair[2:8].reshape(shape)

        def matvec(v):
            raise AssertionError("CG must check its vectors before iterating")

        with pytest.raises(ValueError, match=message):
            conjugate_gradient(matvec, vectors["r"], vectors["x"], vectors["p"])

    @pytest.mark.parametrize("scale", [1e300, 1e-200])
    def test_extreme_rhs_is_solved(self, scale):
        # the plain norm of the right-hand side over- or underflows
        mat, b = ill_conditioned_system()
        x = cg(lambda v: mat @ v, scale * b, tol=1e-12)
        residual = (mat @ x) / scale - b
        assert np.linalg.norm(residual) <= 1e-11 * np.linalg.norm(b)

    def test_extreme_rhs_scales_the_solution_exactly(self):
        mat, b = ill_conditioned_system()
        x = cg(lambda v: mat @ v, b, tol=1e-12)
        for e in (1000, -700):
            got = cg(lambda v: mat @ v, np.ldexp(b, e), tol=1e-12)
            assert np.array_equal(got, np.ldexp(x, e))

    def test_nonfinite_residual_stops_at_once(self):
        calls = []

        def matvec(v):
            calls.append(1)
            return np.full_like(v, np.nan)

        with pytest.raises(NonConvergenceError):
            cg(matvec, np.ones(400))
        assert len(calls) == 1

    def test_logs_iterations_and_residual_at_debug(self, caplog):
        mat, b = ill_conditioned_system()
        with caplog.at_level(logging.DEBUG, logger="adisplit.linsolve"):
            cg(lambda v: mat @ v, b, tol=1e-12)
        records = [r for r in caplog.records if r.name == "adisplit.linsolve"]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        iterations, residual = records[0].args
        assert iterations > 0 and residual <= 1e-12

    def test_silent_above_debug(self, caplog):
        mat, b = ill_conditioned_system()
        with caplog.at_level(logging.INFO, logger="adisplit.linsolve"):
            cg(lambda v: mat @ v, b, tol=1e-12)
        assert not [r for r in caplog.records if r.name == "adisplit.linsolve"]

    def test_nonconvergence_carries_history(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((20, 20))
        mat = q @ q.T + 1e-6 * np.eye(20)
        b = rng.standard_normal(20)
        with pytest.raises(NonConvergenceError) as err:
            cg(lambda v: mat @ v, b, tol=1e-14, max_iter=2)
        assert len(err.value.residuals) >= 2


def count_kernel_updates(monkeypatch):
    """Calls of the compiled CG updates, by entry name."""
    kernel = _kernel.load()
    calls = collections.Counter()
    for name in ("adisplit_cg_step", "adisplit_cg_direction"):
        def counted(*args, fn=getattr(kernel, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(kernel, name, counted)
    return calls


def traced(solve, matvec, precondition):
    """solve(matvec, precondition)'s result, and copies of every p given
    to ``matvec`` and every r given to ``precondition``."""
    ps, rs = [], []

    def traced_matvec(v):
        ps.append(v.copy())
        return matvec(v)

    def traced_precondition(r):
        rs.append(r.copy())
        return precondition(r)

    return solve(traced_matvec, traced_precondition), ps, rs


class TestCompiledUpdates:
    """CG's compiled vector updates against the oracle's textbook CG."""

    @pytest.fixture
    def system(self):
        mat, b = ill_conditioned_system()
        diag = np.diag(mat)
        return (lambda v: mat @ v), (lambda r: r / diag), b

    @pytest.mark.parametrize("stop", [dict(tol=1e-12), dict(tol=1e-300, max_iter=7)])
    def test_same_iterates_history_and_count(self, monkeypatch, system, stop):
        matvec, precondition, b = system
        calls = count_kernel_updates(monkeypatch)

        def solve(matvec, precondition):
            # x and the residual history, or None where CG converged
            r, x = b.copy(), np.empty_like(b)
            try:
                conjugate_gradient(matvec, r, x, np.empty_like(b),
                                   precondition=precondition, **stop)
            except NonConvergenceError as err:
                return x, err.residuals
            return x, None

        (x, history), ps, rs = traced(solve, matvec, precondition)
        assert calls["adisplit_cg_step"] == len(ps)
        assert calls["adisplit_cg_direction"] == len(rs) - 1
        (x0, history0), ps0, rs0 = traced(
            lambda m, p: reference_cg(m, b, stop["tol"], p, stop.get("max_iter")),
            matvec, precondition)
        assert x.tobytes() == x0.tobytes()
        assert history == (None if history0[-1] <= stop["tol"] else history0)
        assert len(ps) == len(ps0) == len(history0) - 1 > 1
        assert len(rs) == len(rs0)
        for a, a0 in zip(ps + rs, ps0 + rs0):
            assert a.tobytes() == a0.tobytes()

    @pytest.mark.parametrize("which", ["matvec", "precondition"])
    @pytest.mark.parametrize("call", [0, 1])
    @pytest.mark.parametrize("bad", ["strided", "float32", "short", "list"])
    def test_results_the_updates_cannot_take_are_rejected(
            self, monkeypatch, system, which, call, bad):
        # a result is checked whenever it is another array than the last
        # one, before any update uses it
        matvec, precondition, b = system
        buf = np.empty(2 * b.size)
        made = []

        def unusable(f):
            def apply(v):
                y = f(v)
                made.append(y)
                if len(made) - 1 != call:
                    return y
                buf[::2] = y
                return {"strided": buf[::2], "float32": y.astype(np.float32),
                        "short": y[1:], "list": list(y)}[bad]
            return apply

        if which == "matvec":
            matvec = unusable(matvec)
        else:
            precondition = unusable(precondition)
        updates = count_kernel_updates(monkeypatch)
        name = "A p" if which == "matvec" else "z"
        with pytest.raises(ValueError, match=f"CG's {name} must be"):
            cg(matvec, b, tol=1e-12, precondition=precondition)
        assert updates["adisplit_cg_step"] == call
        assert updates["adisplit_cg_direction"] == call * (which == "matvec")

    def test_crank_nicolson_runs_the_compiled_updates(self, monkeypatch):
        op = paper_operator(17)
        u = random_field(op.grid, 3)
        want = steppers.cn_step(op, 2.0 ** -6, u)
        calls = count_kernel_updates(monkeypatch)
        matvecs = []
        apply_l = op.apply_l

        def counted_apply_l(*args, **kwargs):
            matvecs.append(1)
            return apply_l(*args, **kwargs)

        monkeypatch.setattr(op, "apply_l", counted_apply_l)
        got = steppers.cn_step(op, 2.0 ** -6, u)
        assert got.values.tobytes() == want.values.tobytes()
        # one apply_l builds the right-hand side
        assert calls["adisplit_cg_step"] == len(matvecs) - 1 > 1
        assert calls["adisplit_cg_direction"] == len(matvecs) - 2


class TestSolveLh:
    def test_roundtrip(self):
        op = paper_operator(16)
        v0 = random_field(op.grid, 2)
        f = op.apply_l(v0)
        v = solve_lh(op, f)
        assert discrete_norm(v - v0) <= 1e-10 * discrete_norm(v0)

    def test_zero(self):
        op = paper_operator(8)
        v = solve_lh(op, zero_field(op.grid))
        assert np.all(v.values == 0.0)

    def test_matches_dense_lu(self):
        op = paper_operator(8)
        _, _, l = oracle.dense_assemble(op)
        f = random_field(op.grid, 3)
        want = oracle.dense_solve(l, f)
        got = solve_lh(op, f)
        assert discrete_norm(got - want) / discrete_norm(want) <= 1e-9

    @pytest.mark.parametrize("m", [8, 16, 32])
    def test_cg_and_kronecker_agree(self, m):
        op = paper_operator(m)
        f = random_field(op.grid, m)
        cg = oracle.cg_solve_l(op, f, 1e-12)
        kr = solve_lh(op, f)
        assert discrete_norm(cg - kr) / discrete_norm(cg) <= 1e-8

    def test_uniform_inverse_bound(self):
        # ||L^{-1}|| shows no growth trend in h
        norms = []
        for m in (8, 16, 32, 64, 128):
            op = paper_operator(m)
            best = 0.0
            for seed in range(5):
                f = random_field(op.grid, seed)
                v = solve_lh(op, f)
                best = max(best, discrete_norm(v) / discrete_norm(f))
            norms.append(best)
        assert max(norms) <= 1.10 * max(norms[:2])


class TestKroneckerDirect:
    def test_constant_coefficient_spectrum(self):
        m = 8
        op = assemble_split_operator(ONE, ONE, Grid(m))
        fact = kronecker_direct_prepare(op)
        want = 2.0 - 2.0 * np.cos(np.arange(1, m) * np.pi / m)
        assert np.allclose(np.sort(fact.theta_lam), np.sort(want), atol=1e-12)

    def test_eigenvector_solve_is_scalar_division(self):
        m = 8
        op = assemble_split_operator(ONE, ONE, Grid(m))
        fact = kronecker_direct_prepare(op)
        xi = Grid(m).interior_nodes()
        p, q = 2, 3
        u = np.outer(np.sin(q * np.pi * xi), np.sin(p * np.pi * xi))
        theta = 2.0 - 2.0 * np.cos(np.array([p, q]) * np.pi / m)
        got = fact.solve_stiffness(u)
        assert np.allclose(got, u / theta.sum(), atol=1e-12)

    @pytest.mark.parametrize("coeffs", ["paper", "constant"])
    def test_eigenpairs_are_scipys_tridiagonal_ones(self, coeffs):
        # numpy's dense eigh and SciPy's eigh_tridiagonal (driver stevd)
        # both end in LAPACK dstedc: the same eigenpairs, signs included,
        # and in the same memory order, which solve_stiffness's bits need
        for m in (2, 3, 8, 17, 45, 91, 128, 256):
            op = assemble_split_operator(*coefficient_pair(coeffs), Grid(m))
            fact = KroneckerFactorization(op)
            for k1d, coef, theta, v in (
                    (op.k_lambda, op.d_lambda, fact.theta_lam, fact.v_lam),
                    (op.k_mu, op.d_mu, fact.theta_mu, fact.v_mu)):
                isqrt = 1.0 / np.sqrt(coef)
                want_theta, want_v = eigh_tridiagonal(
                    k1d.diag / coef, k1d.off * isqrt[:-1] * isqrt[1:])
                assert theta.tobytes() == want_theta.tobytes()
                assert v.tobytes() == want_v.tobytes()
                assert v.strides == want_v.strides

    def test_solve_stiffness_keeps_the_bits_in_two_fields(self):
        # numpy reports its allocations to tracemalloc; besides the two
        # arrays the products go into, np.outer's broadcast takes up to
        # 128 KB of iterator buffers, whatever the grid
        for m in (8, 91, 256):
            fac = kronecker_direct_prepare(paper_operator(m))
            rhs = random_field(Grid(m), m).values
            s = np.outer(fac.dm_isqrt, fac.dl_isqrt)
            c = fac.v_mu.T @ (rhs * s) @ fac.v_lam
            c /= fac.denom
            want = (fac.v_mu @ c @ fac.v_lam.T) * s
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                got = fac.solve_stiffness(rhs)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert got.tobytes() == want.tobytes(), m
            assert peak <= 2 * rhs.nbytes + 2 ** 17 + 16384, m

    def test_prepare_is_cached(self):
        op = paper_operator(8)
        assert kronecker_direct_prepare(op) is kronecker_direct_prepare(op)

    def test_factorization_class_direct(self):
        op = paper_operator(8)
        fact = KroneckerFactorization(op)
        rhs = random_field(op.grid, 4).values
        x = fact.solve_stiffness(rhs)
        _, _, l = oracle.dense_assemble(op)
        stiff = -(op.grid.h ** 2) * l
        assert np.linalg.norm(stiff @ x.ravel() - rhs.ravel()) <= 1e-10 * np.linalg.norm(rhs)


class TestPowerIteration:
    def test_diagonal(self):
        d = np.array([1.0, 2.0, 3.0])
        res = power_iteration(lambda v: d * v, lambda v: d * v, 3)
        assert res.value == pytest.approx(3.0, abs=1e-6)

    def test_tridiagonal_closed_form(self):
        mat = np.diag([2.0, 2.0, 2.0]) + np.diag([-1.0, -1.0], 1) + np.diag(
            [-1.0, -1.0], -1
        )
        res = power_iteration(lambda v: mat @ v, lambda v: mat @ v, 3, iters=500)
        assert res.value == pytest.approx(2.0 + np.sqrt(2.0), rel=1e-6)

    def test_random_spd_matches_svd(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((8, 8))
        mat = q @ q.T
        res = power_iteration(lambda v: mat @ v, lambda v: mat @ v, 8, iters=2000,
                              tol=1e-12)
        assert res.value == pytest.approx(np.linalg.norm(mat, 2), rel=1e-4)

    def test_zero_operator(self):
        res = power_iteration(lambda v: 0.0 * v, lambda v: 0.0 * v, 4)
        assert res.value == 0.0
        assert res.converged
