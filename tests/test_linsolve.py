import logging

import numpy as np
import pytest

from adisplit.experiments import PAPER_LAMBDA, PAPER_MU
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
from oracle import random_field, zero_field

ONE = lambda x: np.ones_like(np.asarray(x, dtype=float))


def paper_operator(m):
    return assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(m))


def reference_cg(matvec, b, tol):
    """Textbook unpreconditioned CG with the same arithmetic order."""
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    while np.sqrt(rs) / bnorm > tol:
        Ap = matvec(p)
        alpha = rs / float(p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def ill_conditioned_system(n=60, seed=2):
    """SPD matrix with a diagonal spread of 1e6 plus a small coupling."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, n))
    mat = np.diag(np.logspace(0, 6, n)) + 0.1 * (q @ q.T) / n
    return mat, rng.standard_normal(n)


class TestHandle:
    def test_defaults(self):
        h = LinearSolverHandle()
        assert h.tol == 1e-12
        assert h.max_iter is None

    @pytest.mark.parametrize("tol", [0.0, -1e-3, 0.5])
    def test_bad_tol(self, tol):
        with pytest.raises(ValueError):
            LinearSolverHandle(tol=tol)


class TestConjugateGradient:
    def test_small_spd_system(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((12, 12))
        mat = q @ q.T + 12 * np.eye(12)
        b = rng.standard_normal(12)
        x = conjugate_gradient(lambda v: mat @ v, b, tol=1e-13)
        assert np.linalg.norm(mat @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_zero_rhs(self):
        x = conjugate_gradient(lambda v: v, np.zeros(5))
        assert np.all(x == 0.0)

    def test_no_preconditioner_is_plain_cg_bit_for_bit(self):
        mat, b = ill_conditioned_system()
        want = reference_cg(lambda v: mat @ v, b, 1e-12)
        got = conjugate_gradient(lambda v: mat @ v, b, tol=1e-12, precondition=None)
        assert np.array_equal(got, want)

    def test_identity_preconditioner_is_plain_cg_bit_for_bit(self):
        mat, b = ill_conditioned_system()
        plain = conjugate_gradient(lambda v: mat @ v, b, tol=1e-12)
        pcg = conjugate_gradient(lambda v: mat @ v, b, tol=1e-12,
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

            x = conjugate_gradient(matvec, b, tol=1e-12, precondition=pc)
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

        want = conjugate_gradient(lambda v: mat @ v, b, tol=1e-12,
                                  precondition=lambda r: r / diag)
        got = conjugate_gradient(matvec_into, b, tol=1e-12, precondition=jacobi_into)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rhs_rejected_before_iterating(self, bad):
        b = np.ones(16)
        b[5] = bad

        def matvec(v):
            raise AssertionError("CG must not iterate on a non-finite right-hand side")

        with pytest.raises(ValueError, match="not finite"):
            conjugate_gradient(matvec, b)

    @pytest.mark.parametrize("scale", [1e300, 1e-200])
    def test_extreme_rhs_is_solved(self, scale):
        # the plain norm of the right-hand side over- or underflows
        mat, b = ill_conditioned_system()
        x = conjugate_gradient(lambda v: mat @ v, scale * b, tol=1e-12)
        residual = (mat @ x) / scale - b
        assert np.linalg.norm(residual) <= 1e-11 * np.linalg.norm(b)

    def test_extreme_rhs_scales_the_solution_exactly(self):
        mat, b = ill_conditioned_system()
        x = conjugate_gradient(lambda v: mat @ v, b, tol=1e-12)
        for e in (1000, -700):
            got = conjugate_gradient(lambda v: mat @ v, np.ldexp(b, e), tol=1e-12)
            assert np.array_equal(got, np.ldexp(x, e))

    def test_nonfinite_residual_stops_at_once(self):
        calls = []

        def matvec(v):
            calls.append(1)
            return np.full_like(v, np.nan)

        with pytest.raises(NonConvergenceError):
            conjugate_gradient(matvec, np.ones(400))
        assert len(calls) == 1

    def test_logs_iterations_and_residual_at_debug(self, caplog):
        mat, b = ill_conditioned_system()
        with caplog.at_level(logging.DEBUG, logger="adisplit.linsolve"):
            conjugate_gradient(lambda v: mat @ v, b, tol=1e-12)
        records = [r for r in caplog.records if r.name == "adisplit.linsolve"]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        iterations, residual = records[0].args
        assert iterations > 0 and residual <= 1e-12

    def test_silent_above_debug(self, caplog):
        mat, b = ill_conditioned_system()
        with caplog.at_level(logging.INFO, logger="adisplit.linsolve"):
            conjugate_gradient(lambda v: mat @ v, b, tol=1e-12)
        assert not [r for r in caplog.records if r.name == "adisplit.linsolve"]

    def test_nonconvergence_carries_history(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((20, 20))
        mat = q @ q.T + 1e-6 * np.eye(20)
        b = rng.standard_normal(20)
        with pytest.raises(NonConvergenceError) as err:
            conjugate_gradient(lambda v: mat @ v, b, tol=1e-14, max_iter=2)
        assert len(err.value.residuals) >= 2


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
