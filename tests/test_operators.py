import logging
import os
import platform
import select
import signal
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from adisplit import (KernelUnavailableError, _kernel, cli, experiments,
                      operators, steppers)
from adisplit.experiments import PAPER_LAMBDA, PAPER_MU, coefficient_pair
from adisplit.grid import Field, Grid, discrete_inner_product, discrete_norm
from adisplit.linsolve import conjugate_gradient
from adisplit.operators import (
    FACTOR_CACHE_CAPACITY,
    TridiagonalMatrix,
    assemble_1d_stiffness,
    assemble_split_operator,
    stability_bound,
    stability_certificate,
)

import oracle
from oracle import random_field

ONE = lambda x: np.ones_like(np.asarray(x, dtype=float))


def paper_operator(m):
    return assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(m))


class TestStiffnessAssembly:
    def test_constant_coefficient(self):
        k = assemble_1d_stiffness(ONE, Grid(4))
        assert np.allclose(k.diag, [2.0, 2.0, 2.0])
        assert np.allclose(k.off, [-1.0, -1.0])

    def test_linear_coefficient(self):
        k = assemble_1d_stiffness(lambda x: x, Grid(4))
        assert np.allclose(k.diag, [0.5, 1.0, 1.5])
        assert np.allclose(k.off, [-0.375, -0.625])

    def test_interior_row_sums_vanish(self):
        # row sums cancel algebraically except in the boundary-truncated rows
        k = assemble_1d_stiffness(lambda x: np.exp(x) + 0.2, Grid(12))
        dense = oracle.dense_tridiagonal(k)
        sums = dense.sum(axis=1)
        assert np.allclose(sums[1:-1], 0.0, atol=1e-14)
        assert sums[0] > 0.0 and sums[-1] > 0.0

    def test_symmetric_positive_definite(self):
        k = assemble_1d_stiffness(PAPER_LAMBDA, Grid(9))
        dense = oracle.dense_tridiagonal(k)
        assert np.array_equal(dense, dense.T)
        assert np.min(np.linalg.eigvalsh(dense)) > 0.0


class TestOperatorAssembly:
    def test_constant_coefficients(self):
        op = assemble_split_operator(ONE, ONE, Grid(4))
        assert np.allclose(oracle.dense_tridiagonal(op.k_lambda),
                           oracle.dense_tridiagonal(op.k_mu))
        assert np.allclose(op.d_lambda, 1.0)
        assert np.allclose(op.d_mu, 1.0)
        assert op.lambda_0 == op.lambda_inf == 1.0

    def test_scalar_coefficient_broadcasts(self):
        array_form = assemble_split_operator(ONE, ONE, Grid(6))
        scalar_form = assemble_split_operator(lambda x: 1.0, lambda y: 1.0, Grid(6))
        for name in ("k_lambda", "k_mu"):
            assert np.array_equal(getattr(scalar_form, name).diag,
                                  getattr(array_form, name).diag)
            assert np.array_equal(getattr(scalar_form, name).off,
                                  getattr(array_form, name).off)
        for name in ("d_lambda", "d_mu", "lambda_inf", "mu_inf", "lambda_0", "mu_0"):
            assert np.array_equal(getattr(scalar_form, name), getattr(array_form, name))

    def test_paper_coefficient_extrema(self):
        op = paper_operator(16)
        assert op.lambda_0 == pytest.approx(0.1, abs=1e-6)
        assert op.mu_0 == pytest.approx(0.1, abs=1e-6)
        assert op.mu_inf == pytest.approx(2.1, abs=1e-6)
        # max of x*sin(pi*x) is ~0.5792 near x ~ 0.6458
        assert op.lambda_inf == pytest.approx(0.6792, abs=1e-3)

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(ValueError):
            assemble_split_operator(lambda x: np.cos(2 * np.pi * x), ONE, Grid(8))

    def test_grid_mismatch(self):
        op = paper_operator(8)
        with pytest.raises(ValueError):
            op.apply_a(random_field(Grid(4)))
        with pytest.raises(ValueError):
            op.solve_resolvent_a(0.1, random_field(Grid(4)))


class TestApplications:
    def test_zero(self):
        op = paper_operator(8)
        z = Field(op.grid, np.zeros((7, 7)))
        assert np.all(op.apply_a(z).values == 0.0)
        assert np.all(op.apply_b(z).values == 0.0)
        assert np.all(op.apply_l(z).values == 0.0)

    def test_discrete_laplacian_eigenpair(self):
        g = Grid(16)
        op = assemble_split_operator(ONE, ONE, g)
        xi = g.interior_nodes()
        u = Field(g, np.outer(np.sin(np.pi * xi), np.sin(np.pi * xi)))
        sigma = (2.0 - 2.0 * np.cos(np.pi * g.h)) / g.h ** 2
        assert np.allclose(op.apply_a(u).values, -sigma * u.values, atol=1e-11)
        assert np.allclose(op.apply_b(u).values, -sigma * u.values, atol=1e-11)
        assert np.allclose(op.apply_l(u).values, -2 * sigma * u.values, atol=1e-11)

    def test_matches_dense_kronecker(self):
        op = paper_operator(8)
        a, b, l = oracle.dense_assemble(op)
        for seed in range(5):
            u = random_field(op.grid, seed)
            for fn, mat in ((op.apply_a, a), (op.apply_b, b), (op.apply_l, l)):
                got = fn(u)
                want = oracle.dense_apply(mat, u)
                rel = discrete_norm(got - want) / discrete_norm(want)
                assert rel <= 1e-13

    def test_coefficient_swap_transposes(self):
        op = paper_operator(8)
        swapped = assemble_split_operator(PAPER_MU, PAPER_LAMBDA, Grid(8))
        u = random_field(op.grid, 3)
        ut = Field(op.grid, np.ascontiguousarray(u.values.T))
        got = swapped.apply_a(ut).values.T
        want = op.apply_b(u).values
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_dissipativity(self):
        for m in (4, 8, 16, 32):
            op = paper_operator(m)
            for seed in range(25):
                u = random_field(op.grid, seed)
                n2 = discrete_norm(u) ** 2
                assert discrete_inner_product(op.apply_a(u), u) <= 1e-12 * n2
                assert discrete_inner_product(op.apply_b(u), u) <= 1e-12 * n2


def signed_zeros(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, np.where(rng.random((grid.n, grid.n)) < 0.5, -0.0, 0.0))


class TestApplyPaths:
    """The compiled stencil against the oracle's numpy stencil."""

    @pytest.mark.parametrize("m", [2, 3, 17, 64, 91])
    def test_applications_agree_bit_for_bit(self, m):
        op = paper_operator(m)
        # random signs of zero show a missing edge neighbour added as +0.0
        for u in (random_field(op.grid, m), signed_zeros(op.grid, m)):
            for got, want in (
                    (op.apply_a(u), oracle.apply(op, "a", u)),
                    (op.apply_b(u), oracle.apply(op, "b", u)),
                    (op.apply_l(u), oracle.apply(op, "l", u)),
                    (op.apply_l(u, 0.25), oracle.apply(op, "l", u, 0.25)),
                    (op.apply_l(u, -0.25), oracle.apply(op, "l", u, -0.25))):
                assert got.values.flags.c_contiguous
                assert got.values.tobytes() == want.values.tobytes()

    def test_shifted_l_is_identity_plus_scaled_l(self):
        op = paper_operator(33)
        u = random_field(op.grid, 4)
        lu = op.apply_l(u).values
        assert np.array_equal(op.apply_l(u, 0.5).values, u.values + 0.5 * lu)
        assert np.array_equal(op.apply_l(u, -0.5).values, u.values - 0.5 * lu)

    def test_noncontiguous_and_integer_fields(self):
        op = paper_operator(20)
        ints = np.arange(19 * 19).reshape(19, 19) % 7 - 3
        floats = Field(op.grid, ints.astype(float))
        for field in (Field(op.grid, np.asfortranarray(ints.astype(float))),
                      Field(op.grid, ints)):
            for f in (op.apply_a, op.apply_b, op.apply_l,
                      lambda u: op.apply_l(u, 0.5)):
                got = f(field).values
                assert got.tobytes() == f(floats).values.tobytes()

    def test_cn_step_and_cg_solve_agree(self):
        op = paper_operator(33)
        u = random_field(op.grid, 5)
        k = 2.0 ** -6
        got = steppers.cn_step(op, k, u).values
        assert np.array_equal(got, oracle.crank_nicolson_step(op, k, u).values)
        # cg_solve_l's CG on the oracle's stencil and vector updates
        h2 = op.grid.h ** 2
        want, _ = oracle.reference_cg(
            lambda v: -h2 * oracle.apply(op, "l", Field(op.grid, v.reshape(32, 32))).values.ravel(),
            (-h2 * u.values).ravel(), 1e-12)
        assert np.array_equal(oracle.cg_solve_l(op, u, 1e-12).values.ravel(), want)


class TestResolvents:
    def test_scalar_surrogate(self):
        op = assemble_split_operator(ONE, ONE, Grid(2))
        u = Field(op.grid, np.array([[1.0]]))
        w = op.solve_resolvent_a(0.1, u)
        assert w.values[0, 0] == pytest.approx(1.0 / 1.8, rel=1e-15)

    def test_lines_do_not_couple(self):
        # the factor concatenates all lines into one tridiagonal matrix; its
        # zero off-diagonal entries at line ends must keep the lines apart
        op = paper_operator(8)
        n = op.grid.n
        for j in (0, 3, n - 1):
            x_line = np.zeros((n, n))
            x_line[j, :] = np.arange(1.0, n + 1)
            w = op.solve_resolvent_a(10.0, Field(op.grid, x_line)).values
            assert np.all(np.delete(w, j, axis=0) == 0.0)
            assert np.all(w[j] != 0.0)
            y_line = x_line.T.copy()
            w = op.solve_resolvent_b(10.0, Field(op.grid, y_line)).values
            assert np.all(np.delete(w, j, axis=1) == 0.0)
            assert np.all(w[:, j] != 0.0)

    def test_indefinite_system_raises(self):
        # a negated stiffness makes I - kappa*A indefinite for large kappa;
        # the factorization must report it instead of returning garbage
        op = paper_operator(8)
        op.k_lambda = TridiagonalMatrix(-op.k_lambda.diag, -op.k_lambda.off)
        with pytest.raises(np.linalg.LinAlgError):
            op.solve_resolvent_a(10.0, random_field(op.grid))

    def test_zero_rhs(self):
        op = paper_operator(8)
        z = Field(op.grid, np.zeros((7, 7)))
        assert np.all(op.solve_resolvent_a(1.0, z).values == 0.0)
        assert np.all(op.solve_resolvent_b(1.0, z).values == 0.0)
        assert np.all(op.cayley_a(1.0, z).values == 0.0)
        assert np.all(op.cayley_b(1.0, z).values == 0.0)

    def test_residual_and_dense_match(self):
        op = paper_operator(8)
        a, b, _ = oracle.dense_assemble(op)
        kappa = 0.01
        eye = np.eye(op.grid.interior_count)
        for seed in range(5):
            rhs = random_field(op.grid, seed)
            for solve, mat, apply in (
                (op.solve_resolvent_a, a, op.apply_a),
                (op.solve_resolvent_b, b, op.apply_b),
            ):
                w = solve(kappa, rhs)
                residual = w - kappa * apply(w) - rhs
                assert discrete_norm(residual) <= 1e-12 * discrete_norm(rhs)
                want = oracle.dense_solve(eye - kappa * mat, rhs)
                rel = discrete_norm(w - want) / discrete_norm(want)
                assert rel <= 1e-11

    def test_nonexpansive(self):
        op = paper_operator(16)
        for kappa in (1e-3, 1.0, 1e3):
            for seed in range(5):
                u = random_field(op.grid, seed)
                bound = (1.0 + 1e-12) * discrete_norm(u)
                assert discrete_norm(op.solve_resolvent_a(kappa, u)) <= bound
                assert discrete_norm(op.solve_resolvent_b(kappa, u)) <= bound

    def test_cayley_nonexpansive(self):
        op = paper_operator(16)
        for kappa in (1e-3, 1.0, 1e3):
            u = random_field(op.grid, 1)
            w = op.solve_resolvent_a(kappa, u)
            cay = w + kappa * op.apply_a(w)
            assert discrete_norm(cay) <= (1.0 + 1e-12) * discrete_norm(u)

    @pytest.mark.parametrize("kappa", [0.0, -1.0])
    def test_nonpositive_kappa_rejected(self, kappa):
        op = paper_operator(4)
        with pytest.raises(ValueError):
            op.solve_resolvent_a(kappa, random_field(op.grid))

    def test_nonfinite_kappa_rejected_before_the_cache(self):
        # a NaN key never equals itself, so each such call would add a
        # factor and evict a live one
        op = paper_operator(4)
        u = random_field(op.grid)
        op.solve_resolvent_a(0.1, u)
        for kappa in [np.nan] * FACTOR_CACHE_CAPACITY + [np.inf]:
            for method in (op.solve_resolvent_a, op.cayley_b):
                with pytest.raises(ValueError, match="finite"):
                    method(kappa, u)
        assert list(op._factor_cache) == [("a", 0.1)]


class TestLinePaths:
    """The compiled kernel's line solves against the oracle's numpy ones."""

    # n = m - 1 lines per direction: 16 and 32 fill whole 16-line tiles,
    # 1, 2, 17, 63 and 90 leave a partial one; on the strided axis 64 and
    # 128 fill whole 64-line blocks, 65, 129 and 255 leave a partial one
    @pytest.mark.parametrize("m", [2, 3, 17, 18, 33, 64, 65, 66, 91, 129,
                                   130, 256])
    def test_solves_agree_bit_for_bit(self, m):
        op = paper_operator(m)
        u = random_field(op.grid, m)
        for kappa in (1e-3, 1.0, 1e3):
            for name in ("solve_resolvent_a", "solve_resolvent_b", "cayley_a",
                         "cayley_b"):
                got = getattr(op, name)(kappa, u).values
                want = oracle.LineFactor(op, name[-1], kappa).solve(
                    u.values, reflect=name.startswith("cayley"))
                assert got.flags.c_contiguous
                assert np.array_equal(got, want)

    def test_cayley_is_the_reflected_resolvent(self):
        op = paper_operator(40)
        u = random_field(op.grid, 2)
        for kappa in (1e-3, 1.0, 1e3):
            for solve, cayley in ((op.solve_resolvent_a, op.cayley_a),
                                  (op.solve_resolvent_b, op.cayley_b)):
                want = 2.0 * solve(kappa, u).values - u.values
                assert np.array_equal(cayley(kappa, u).values, want)

    def test_evolve_agrees(self):
        # evolve's start, Cayley recurrence and final solve from the
        # oracle's stencil and line factors
        op = paper_operator(33)
        u = random_field(op.grid, 3)
        for scheme, kappa in ((PR, 1.0 / 128), (DR, 1.0 / 64)):
            got = steppers.evolve(op, scheme, 1.0 / 64, 20, u)
            b_u = oracle.apply(op, "b", u).values * kappa
            fac_a = oracle.LineFactor(op, "a", kappa)
            fac_b = oracle.LineFactor(op, "b", kappa)
            if scheme is PR:
                t = fac_a.solve(u.values + b_u, reflect=True)
            else:
                t = u.values - b_u
            for _ in range(20 - (scheme is PR)):
                s = fac_a.solve(fac_b.solve(t, reflect=True), reflect=True)
                t = s if scheme is PR else (t + s) * 0.5
            assert np.array_equal(got.values, fac_b.solve(t))

    def test_noncontiguous_and_integer_fields(self):
        # the kernel gets C-ordered float64 copies of other layouts and types
        op = paper_operator(20)
        ints = np.arange(19 * 19).reshape(19, 19) % 7 - 3
        floats = Field(op.grid, ints.astype(float))
        for field in (Field(op.grid, np.asfortranarray(ints.astype(float))),
                      Field(op.grid, ints)):
            for name in ("solve_resolvent_a", "solve_resolvent_b",
                         "cayley_a", "cayley_b"):
                got = getattr(op, name)(0.5, field).values
                assert np.array_equal(got, getattr(op, name)(0.5, floats).values)


FACTOR_GRIDS = [2, 3, 17, 18, 33, 64, 91, 256, 513]
FACTOR_KAPPAS = [1e-3, 1.0, 1e3]


class TestFactorBits:
    """The kernel's factors against SciPy's LAPACK dpttrf, bit for bit."""

    @pytest.mark.parametrize("m", FACTOR_GRIDS)
    def test_kernel_factor_is_dpttrf_in_the_sweep_layout(self, m):
        # the kernel stores dpttrf's e, and the pivots its sweeps recompute
        # from e and the line coefficients c, in the kernel's operation
        # order, are dpttrf's d; axis "a" is padded to whole tiles with
        # identity lines (gamma 0, so pivot 1, and e = 0)
        op = paper_operator(m)
        n = op.grid.n
        tile = operators.ctypes.c_long.in_dll(op._lib, "adisplit_tile").value
        for kappa in FACTOR_KAPPAS:
            for axis, k1d, coef in (("a", op.k_lambda, op.d_mu),
                                    ("b", op.k_mu, op.d_lambda)):
                d, e = oracle.lapack_factor(op, axis, kappa)  # [line][position]
                fac = op._factors(axis, kappa)
                # [block][position][line], blocks of whole tiles on axis "a"
                width = tile if axis == "a" else n
                pad = -n % width
                d = np.vstack([d, np.ones((pad, n))])
                e = np.vstack([e, np.zeros((pad, n))])
                stored = e.reshape(-1, width, n).transpose(0, 2, 1)
                assert fac.e.tobytes() == stored.tobytes()
                lines = fac.e.transpose(0, 2, 1).reshape(-1, n)
                diag, off, gamma = np.split(fac.c, [n, 2 * n - 1])
                want = np.zeros(len(d))
                want[:n] = kappa * coef / op.grid.h ** 2
                assert diag.tobytes() == k1d.diag.tobytes()
                assert off.tobytes() == k1d.off.tobytes()
                assert gamma.tobytes() == want.tobytes()
                g = gamma[:, None]
                pivots = np.empty_like(d)
                pivots[:, 0] = 1.0 + gamma * diag[0]
                pivots[:, 1:] = (1.0 + g * diag[1:]) - lines[:, :-1] * (g * off)
                assert pivots.tobytes() == d.tobytes()

    @pytest.mark.parametrize("m", [2, 17, 18, 91, 256])
    def test_kernel_factor_holds_multipliers_and_line_data(self, m):
        # n^2 multipliers, rounded up to whole tiles on axis "a", and O(n)
        # line coefficients: no field-sized array of pivots
        op = paper_operator(m)
        n = op.grid.n
        tile = operators.ctypes.c_long.in_dll(op._lib, "adisplit_tile").value
        for axis, lines in (("a", -(-n // tile) * tile), ("b", n)):
            fac = op._factors(axis, 0.5)
            held = sum(a.nbytes for a in vars(fac).values()
                       if isinstance(a, np.ndarray))
            assert lines * n * 8 <= held <= (lines * n + 3 * n + tile) * 8

    def test_contiguous_solve_reports_a_failed_allocation(self):
        # a tile of 2^63 doubles overflows calloc's size and fails before
        # the sweep touches an array; the factor turns -1 into MemoryError
        # (the strided solve allocates nothing)
        lib = _kernel.load()
        assert lib.adisplit_solve_contiguous(2 ** 58, None, None, None, None,
                                             0) == -1
        op = paper_operator(8)
        fac = op._factors("a", 0.5)
        fac._solve = lambda *args: -1
        with pytest.raises(MemoryError, match="could not allocate"):
            op.solve_resolvent_a(0.5, random_field(op.grid))


PR = steppers.SchemeKind.PEACEMAN_RACHFORD
DR = steppers.SchemeKind.DOUGLAS_RACHFORD


def run_loop(op, kappa, n_steps, u, average):
    """op.cayley_loop on a copy of u's array and a fresh ``out``."""
    start = Field(op.grid, u.values.copy())
    return op.cayley_loop(kappa, n_steps, start,
                          out=np.full_like(start.values, np.nan), average=average)


def force_threads(monkeypatch, threads):
    """Make cayley_loop run on ``threads`` (1 or 2) threads on any grid."""
    monkeypatch.setattr(operators, "_LOOP_THREADS_FROM_M",
                        2 if threads == 2 else sys.maxsize)
    monkeypatch.setattr(operators, "_cpus", lambda: 2)


def count_kernel_loops(monkeypatch):
    """The (steps, average) of every call of the compiled Cayley loop."""
    kernel = _kernel.load()
    loop = kernel.adisplit_cayley_loop
    calls = []

    def counted(n, steps, average, *args):
        calls.append((steps, average))
        return loop(n, steps, average, *args)

    monkeypatch.setattr(kernel, "adisplit_cayley_loop", counted)
    return calls


class TestCayleyLoop:
    """The compiled Cayley loop against one Cayley call per transform."""

    # n = m - 1 lines: 1 and 2 give a thread no B column or no A tile, 16
    # one whole tile, 17 an odd column split and a partial tile; 64 and
    # 128 whole 64-column B blocks, 65 and 129 a partial one after them,
    # 255 split 127 + 128 on two threads, the first half ending in a
    # partial block; 255, 256 and 512 on grids near and past
    # _LOOP_THREADS_FROM_M
    @pytest.mark.parametrize("m", [2, 3, 17, 18, 33, 65, 66, 129, 130, 256,
                                   257, 513])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("average", [False, True])
    def test_agrees_with_the_per_call_loop(self, monkeypatch, caplog, m,
                                           threads, average):
        op = paper_operator(m)
        u = random_field(op.grid, m)
        force_threads(monkeypatch, threads)
        for kappa, n_steps in ((1.0 / 64, 5), (10.0, 2), (1e-3, 1)):
            want = oracle.cayley_calls(op, kappa, n_steps, u, average)
            with caplog.at_level(logging.DEBUG, logger="adisplit.operators"):
                got = run_loop(op, kappa, n_steps, u, average)
            assert np.array_equal(got.values, want.values)
            assert caplog.records[-1].getMessage().endswith(f"threads={threads}")
            # two steps per call
            with monkeypatch.context() as mp:
                mp.setattr(operators, "_LOOP_WORK", 2 * op.grid.interior_count)
                got = run_loop(op, kappa, n_steps, u, average)
            assert np.array_equal(got.values, want.values)

    def test_concurrent_loops_agree(self, monkeypatch):
        # six loop threads on the machine's cores: every barrier still
        # waits for its own partner, also when the cores are oversubscribed.
        # The thread count is patched before the workers start: patching
        # inside them races, and a late undo leaks into later tests
        op = paper_operator(65)
        u = random_field(op.grid, 6)
        force_threads(monkeypatch, 1)
        want = run_loop(op, 1.0 / 64, 40, u, True).values.copy()
        force_threads(monkeypatch, 2)
        got = [None] * 3

        def work(i):
            got[i] = run_loop(op, 1.0 / 64, 40, u, True).values

        threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert all(np.array_equal(g, want) for g in got)

    def test_result_buffer(self, monkeypatch):
        # the result overwrites u's array, which is returned; out is
        # scratch; zero steps leave u as it is and call no kernel
        calls = count_kernel_loops(monkeypatch)
        op = paper_operator(9)
        u = random_field(op.grid, 1)
        for average in (False, True):
            start = Field(op.grid, u.values.copy())
            got = op.cayley_loop(0.1, 3, start, out=np.empty((8, 8)),
                                 average=average)
            assert got is start
            assert not np.array_equal(start.values, u.values)
            start = Field(op.grid, u.values.copy())
            got = op.cayley_loop(0.1, 0, start, out=np.empty((8, 8)),
                                 average=average)
            assert got is start and np.array_equal(start.values, u.values)
        assert calls == [(3, False), (3, True)]

    def test_threads_follow_the_grid_and_the_cpus(self, monkeypatch, caplog):
        for m, cpus, threads in ((255, 2, 1), (256, 2, 2), (256, 1, 1)):
            monkeypatch.setattr(operators, "_cpus", lambda: cpus)
            op = paper_operator(m)
            with caplog.at_level(logging.DEBUG, logger="adisplit.operators"):
                steppers.evolve(op, PR, 1.0 / 64, 2, random_field(op.grid))
            assert caplog.records[-1].getMessage() == (
                f"cayley loop: average=False m={m} steps=1 kernel_calls=1 "
                f"threads={threads}")

    def test_no_thread_outlives_evolve(self, monkeypatch):
        tasks = Path("/proc/self/task")
        if not tasks.is_dir():
            pytest.skip("no /proc/self/task")
        monkeypatch.setattr(operators, "_cpus", lambda: 2)
        op = paper_operator(512)
        u = random_field(op.grid)
        before = len(list(tasks.iterdir()))
        for scheme in (PR, DR):
            steppers.evolve(op, scheme, 1.0 / 64, 3, u)
            assert len(list(tasks.iterdir())) == before

    def test_one_debug_line_per_evolve(self, caplog):
        op = paper_operator(20)
        u = random_field(op.grid)
        with caplog.at_level(logging.DEBUG, logger="adisplit.operators"):
            steppers.evolve(op, DR, 1.0 / 64, 9, u)
            steppers.evolve(op, steppers.SchemeKind.CRANK_NICOLSON, 1.0 / 64, 2, u)
        assert [r.getMessage() for r in caplog.records] == [
            "cayley loop: average=True m=20 steps=9 kernel_calls=1 threads=1"]

    def test_no_log_record_when_debug_is_off(self, monkeypatch, caplog):
        made = []
        monkeypatch.setattr(operators.logger, "debug", lambda *a: made.append(a))
        op = paper_operator(20)
        with caplog.at_level(logging.INFO, logger="adisplit.operators"):
            steppers.evolve(op, PR, 1.0 / 64, 3, random_field(op.grid))
        assert made == []

    def test_rejects_bad_step_counts_and_buffers(self):
        op = paper_operator(9)
        u = random_field(op.grid)
        with pytest.raises(ValueError, match="n_steps"):
            op.cayley_loop(0.1, -1, u.copy(), out=np.empty((8, 8)), average=False)
        with pytest.raises(ValueError, match="^u must"):
            op.cayley_loop(0.1, 2, Field(op.grid, np.asfortranarray(u.values)),
                           out=np.empty((8, 8)), average=False)
        with pytest.raises(ValueError, match="overlap"):
            v = u.copy()
            op.cayley_loop(0.1, 2, v, out=v.values, average=True)

    def test_ctrl_c_stops_a_long_run(self):
        # 2^19 PR steps at m=1024 would take most of an hour; Python handles
        # SIGINT between calls of the compiled loop
        src = str(Path(operators.__file__).resolve().parent.parent)
        code = (
            "import sys\n"
            "from adisplit import cli, operators\n"
            "loop = operators.SplitDiffusionOperator.cayley_loop\n"
            "def started(*args, **kwargs):\n"
            "    print('loop', flush=True)\n"
            "    return loop(*args, **kwargs)\n"
            "operators.SplitDiffusionOperator.cayley_loop = started\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        args = ["run", "--scheme", "pr", "--m", "1024", "--k", "1/1048576"]
        proc = subprocess.Popen([sys.executable, "-c", code, *args],
                                env=dict(os.environ, PYTHONPATH=src),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 120)
            assert ready, "the run did not reach its time loop"
            assert proc.stdout.readline() == "loop\n"
            time.sleep(1.0)
            assert proc.poll() is None
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=2) != 0
            assert "KeyboardInterrupt" in proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()


def out_calls(op):
    """(name, call) for every method that takes ``out=``: L shifted and
    unshifted, and each resolvent and Cayley transform at a small and a
    large kappa."""
    calls = [("apply_l", lambda u, **kw: op.apply_l(u, **kw))]
    calls += [(f"apply_l({sigma})", lambda u, s=sigma, **kw: op.apply_l(u, s, **kw))
              for sigma in (0.25, -0.25)]
    for name in ("solve_resolvent_a", "solve_resolvent_b", "cayley_a", "cayley_b"):
        for kappa in (1e-3, 1e3):
            method = getattr(op, name)
            calls.append((f"{name}({kappa})",
                          lambda u, f=method, k=kappa, **kw: f(k, u, **kw)))
    return calls


class TestOut:
    """``out=`` of every method that takes it."""

    @pytest.mark.parametrize("m", [2, 17, 20])
    def test_out_equals_a_fresh_result(self, m):
        op = paper_operator(m)
        u = random_field(op.grid, m)
        before = u.values.copy()
        for name, call in out_calls(op):
            want = call(u).values
            out = np.full((op.grid.n, op.grid.n), np.nan)
            got = call(u, out=out)
            assert got.values is out, name
            assert out.tobytes() == want.tobytes(), name
        assert np.array_equal(u.values, before)

    def test_out_from_other_layouts_and_types(self):
        # the input is converted, the output is written in place
        op = paper_operator(20)
        ints = np.arange(19 * 19).reshape(19, 19) % 7 - 3
        floats = Field(op.grid, ints.astype(float))
        for field in (Field(op.grid, np.asfortranarray(ints.astype(float))),
                      Field(op.grid, ints)):
            for name, call in out_calls(op):
                out = np.empty((19, 19))
                call(field, out=out)
                assert out.tobytes() == call(floats).values.tobytes(), name

    @pytest.mark.parametrize("bad", [
        "input itself", "overlapping view", "shape", "float32 dtype",
        "Fortran order", "strided", "read-only", "list",
    ])
    def test_unusable_out_rejected(self, bad):
        op = paper_operator(9)
        n = op.grid.n
        base = random_field(op.grid, 1).values
        big = np.zeros(2 * n * n)
        u = {"overlapping view": Field(op.grid, big[:n * n].reshape(n, n))}.get(
            bad, Field(op.grid, base))
        out = {
            "input itself": base,
            "overlapping view": big[n:n + n * n].reshape(n, n),
            "shape": np.empty((n, n + 1)),
            "float32 dtype": np.empty((n, n), dtype=np.float32),
            "Fortran order": np.empty((n, n), order="F"),
            "strided": np.empty((n, 2 * n))[:, ::2],
            "read-only": np.empty((n, n)),
            "list": [[0.0] * n for _ in range(n)],
        }[bad]
        if bad == "read-only":
            out.flags.writeable = False
        before = u.values.copy()
        for name, call in out_calls(op):
            with pytest.raises(ValueError, match="out"):
                call(u, out=out)
        assert np.array_equal(u.values, before)


def separate_adi_product(op, kappa_a, kappa_b, r, weight):
    """The ADI product by three separate resolvent calls and numpy's
    out + weight * r: the operations ``bind_adi_product`` replaces."""
    r = Field(op.grid, r)
    w = op.solve_resolvent_b(kappa_b, op.solve_resolvent_a(
        kappa_a, op.solve_resolvent_b(kappa_b, r))).values
    return np.add(w, np.multiply(weight, r.values))


class TestBoundAdiProduct:
    @pytest.mark.parametrize("m", [2, 3, 17, 18, 64, 257])
    def test_equals_the_separate_solves(self, m):
        op = paper_operator(m)
        r, weight = (random_field(op.grid, m + i).values for i in range(2))
        out, scratch = (np.full_like(r, np.nan) for _ in range(2))
        for kappa_a, kappa_b in ((2.0 ** -11, 2.0 ** -12), (0.5, 0.25), (1e3, 1e-3)):
            product = op.bind_adi_product(kappa_a, kappa_b, r=r, weight=weight,
                                          out=out, scratch=scratch)
            # each call reads what r holds then
            for seed in (m + 2, m + 3):
                r[...] = random_field(op.grid, seed).values
                before = r.copy()
                want = separate_adi_product(op, kappa_a, kappa_b, r, weight)
                assert product() is None
                assert out.tobytes() == want.tobytes()
                assert np.array_equal(r, before)

    @pytest.mark.parametrize("m", [2, 3, 17, 18, 64, 257])
    def test_paths_agree_bit_for_bit(self, m):
        # against the oracle's line factors and numpy's sum
        op = paper_operator(m)
        r, weight = random_field(op.grid, m).values, random_field(op.grid, m + 1).values
        out, scratch = np.empty_like(r), np.empty_like(r)
        op.bind_adi_product(0.5, 0.25, r=r, weight=weight, out=out,
                            scratch=scratch)()
        want = oracle.adi_product(op, 0.5, 0.25, r, weight)
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad,message", [
        ("out shape", "out must be"), ("scratch shape", "scratch must be"),
        ("out read-only", "out must be"), ("scratch read-only", "scratch must be"),
        ("out Fortran order", "out must be"), ("scratch float32", "scratch must be"),
        ("r Fortran order", "r must be"), ("weight integer", "weight must be"),
        ("r of another grid", "r must be"), ("weight of another grid", "weight must be"),
        ("out is r", "out must not overlap"),
        ("scratch overlaps r", "scratch must not overlap"),
        ("out overlaps the weight", "out must not overlap"),
        ("out is scratch", "out and scratch must not overlap"),
        ("out overlaps scratch", "out and scratch must not overlap"),
    ])
    def test_unusable_arrays_rejected_when_bound(self, bad, message):
        op = paper_operator(9)
        n = op.grid.n
        nn = n * n
        # r and the weight live in one array, so that C-ordered views of
        # it can overlap either
        base = random_field(Grid(2 * n + 1), 1).values.reshape(-1)
        arrays = dict(r=base[:nn].reshape(n, n), weight=base[2 * nn:3 * nn].reshape(n, n),
                      out=np.empty((n, n)), scratch=np.empty((n, n)))
        pair = np.empty(nn + n)
        name = bad.split()[0]
        if bad.endswith("shape"):
            arrays[name] = np.empty((n, n + 1))
        elif bad.endswith("read-only"):
            arrays[name].flags.writeable = False
        elif bad.endswith("Fortran order"):
            arrays[name] = np.asfortranarray(arrays[name])
        elif bad == "scratch float32":
            arrays[name] = np.empty((n, n), dtype=np.float32)
        elif bad == "weight integer":
            arrays[name] = np.ones((n, n), dtype=np.int64)
        elif bad.endswith("another grid"):
            arrays[name] = random_field(Grid(10), 2).values
        elif bad == "out is r":
            arrays["out"] = arrays["r"]
        elif bad == "scratch overlaps r":
            arrays["scratch"] = base[n:n + nn].reshape(n, n)
        elif bad == "out overlaps the weight":
            arrays["out"] = base[2 * nn - n:3 * nn - n].reshape(n, n)
        elif bad == "out is scratch":
            arrays["out"] = arrays["scratch"]
        else:
            arrays["out"], arrays["scratch"] = pair[:nn].reshape(n, n), pair[n:].reshape(n, n)
        before = base.copy()
        with pytest.raises(ValueError, match=message):
            op.bind_adi_product(0.5, 0.25, **arrays)
        assert np.array_equal(base, before)
        assert not op._factor_cache


@pytest.fixture
def fresh_loader():
    """Forget the loaded kernel, or the failure to load it, before and
    after the test."""
    _kernel._build_and_load.cache_clear()
    yield
    _kernel._build_and_load.cache_clear()


def counting_subprocess_run(monkeypatch):
    """The compiles ("compile") and target probes ("probe") that _kernel
    starts with subprocess.run, in order, even those that fail to start."""
    started = []
    run = subprocess.run

    def counting_run(args, **kwargs):
        started.append("compile" if "-o" in args else "probe")
        return run(args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    return started


def hide_the_compiler(monkeypatch, tmp_path):
    """No ``cc`` on PATH and an empty kernel cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", str(tmp_path))


class TestKernelBuild:
    def test_builds_once_into_the_user_cache(self, monkeypatch, tmp_path, fresh_loader):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        started = counting_subprocess_run(monkeypatch)
        u = random_field(Grid(20))
        first = paper_operator(20).cayley_a(0.5, u).values
        cache = tmp_path / "adisplit"
        built = list(cache.iterdir())
        assert started.count("compile") == 1
        assert [p.name[:9] for p in built] == ["_tridiag-"]  # no temporary left
        assert stat.S_IMODE(cache.stat().st_mode) & 0o077 == 0
        _kernel._build_and_load.cache_clear()  # as in a new process
        second = paper_operator(20).cayley_a(0.5, u).values
        assert started.count("compile") == 1
        assert _kernel.load()._name == str(built[0])
        assert np.array_equal(first, second)
        # another CPU sharing the cache gets a library of its own
        target = _kernel.target()
        monkeypatch.setattr(_kernel, "target",
                            lambda: target + "#define __AVX10_2__ 1\n")
        _kernel._build_and_load.cache_clear()
        assert _kernel.load()._name not in map(str, built)
        assert started.count("compile") == 2 and len(list(cache.iterdir())) == 2

    def test_library_name_hashes_the_target(self):
        target = _kernel.target()
        names = {_kernel.library_path(t) for t in (
            target, "#define __AVX2__ 1\n", "#define __AVX512F__ 1\n")}
        assert len(names) == 3
        # the same macros in another order name the same file
        shuffled = "\n".join(reversed(target.splitlines())) + "\n"
        assert _kernel.library_path(shuffled) == _kernel.library_path(target)

    def test_load_logs_the_library_and_its_target(self, caplog, fresh_loader):
        with caplog.at_level(logging.DEBUG, logger="adisplit.operators"):
            lib = _kernel.load()
            _kernel.load()
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert message.startswith(f"compiled tridiagonal kernel {lib._name}, "
                                  "vector units: ")
        if platform.machine() == "x86_64":
            assert message.split(": ")[1].split()[0] == "sse2"

    def test_native_build_keeps_the_bits(self, monkeypatch, tmp_path, fresh_loader):
        # the library built without -march=native, whose sweeps are two
        # doubles wide on x86-64, gives the same bits as the native one
        def compute():
            results = []
            for threads in (1, 2):
                force_threads(monkeypatch, threads)
                for m in (17, 257, 513):
                    op = paper_operator(m)
                    u = random_field(op.grid, m)
                    results += [steppers.evolve(op, scheme, 1.0 / 64, 3, u).values
                                for scheme in (PR, DR)]
            op = paper_operator(91)
            u = random_field(op.grid, 4)
            results += [op.apply_l(u, sigma).values for sigma in (0.25, -0.25)]
            results += [getattr(op, name)(kappa, u).values
                        for name in ("solve_resolvent_a", "solve_resolvent_b",
                                     "cayley_a", "cayley_b")
                        for kappa in (1e-3, 1.0, 1e3)]
            return _kernel.load()._name, results

        assert "-march=native" in _kernel.FLAGS
        native_name, native = compute()
        monkeypatch.setattr(_kernel, "FLAGS", tuple(
            flag for flag in _kernel.FLAGS if flag != "-march=native"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        _kernel._build_and_load.cache_clear()
        portable_name, portable = compute()
        assert Path(portable_name).parent == tmp_path / "adisplit"
        assert native_name != portable_name
        assert len(native) == len(portable)
        for got, want in zip(portable, native):
            assert np.array_equal(got, want)

    def test_missing_compiler_raises(self, monkeypatch, tmp_path, fresh_loader):
        hide_the_compiler(monkeypatch, tmp_path)
        cause = "No such file or directory: 'cc'"
        with pytest.raises(KernelUnavailableError, match=cause):
            paper_operator(20).cayley_b(0.5, random_field(Grid(20)))
        # the command line reports it on one line, with exit status 3
        src = str(Path(operators.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "adisplit.cli", "run", "--scheme", "pr",
             "--m", "8", "--k", "1/8"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr == ("error: the compiled tridiagonal kernel is "
                               f"unavailable: [Errno 2] {cause}\n")

    @pytest.mark.parametrize("command", [
        ["convergence", "--scheme", "pr", "--row", "1/8,8", "--row", "1/16,8",
         "--ref-m", "16", "--ref-k", "1/16"],
        ["verify", "--m", "8"],
    ], ids=["convergence", "verify"])
    def test_each_command_exits_3_without_the_kernel(self, monkeypatch,
                                                      tmp_path, command):
        hide_the_compiler(monkeypatch, tmp_path)
        src = str(Path(operators.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "adisplit.cli", *command],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == ("error: the compiled tridiagonal kernel is "
                               "unavailable: [Errno 2] No such file or "
                               "directory: 'cc'\n")

    @pytest.mark.parametrize("command", [
        ["run", "--scheme", "pr", "--m", "1024", "--k", "1/8"],
        ["convergence", "--scheme", "pr", "--paper-rows", "--ref-m", "1024",
         "--ref-k", "1/8192"],
    ], ids=["run", "convergence"])
    def test_the_command_line_fails_before_any_work(self, monkeypatch, tmp_path,
                                                     fresh_loader, capsys,
                                                     command):
        # the kernel is loaded before the initial data are prepared
        hide_the_compiler(monkeypatch, tmp_path)

        def prepare_initial_data(op):
            raise AssertionError("initial data prepared before the kernel loaded")

        monkeypatch.setattr(experiments, "prepare_initial_data", prepare_initial_data)
        assert cli.main(command) == 3
        assert capsys.readouterr().err.startswith(
            "error: the compiled tridiagonal kernel is unavailable: ")

    def test_a_failed_build_is_attempted_once(self, monkeypatch, tmp_path,
                                             fresh_loader):
        # every operator and every CG solve asks for the kernel; the first
        # failure is remembered, so no cc is looked for again
        hide_the_compiler(monkeypatch, tmp_path)
        started = counting_subprocess_run(monkeypatch)
        u = random_field(Grid(9))
        for _ in range(2):
            with pytest.raises(KernelUnavailableError):
                paper_operator(9).apply_l(u)
        r = np.ones(4)
        with pytest.raises(KernelUnavailableError):
            conjugate_gradient(lambda: None, lambda: None, r,
                               *(np.empty(4) for _ in range(4)))
        assert started == ["probe"]

    def test_source_compiles_without_warnings(self, tmp_path):
        subprocess.run(
            ["cc", "-std=c11", "-Wall", "-Wextra", "-Wpedantic", "-Wshadow",
             "-Werror", *_kernel.FLAGS,
             "-o", str(tmp_path / "kernel.so"), str(_kernel.SOURCE)],
            check=True, capture_output=True,
        )


def test_library_name_hashes_the_source(monkeypatch, tmp_path):
    # one changed byte anywhere in the source names another library
    host = "#define __SSE2__ 1\n"
    source = _kernel.SOURCE.read_bytes()
    original = _kernel.library_path(host)
    copy = tmp_path / "_tridiag.c"
    copy.write_bytes(source)
    monkeypatch.setattr(_kernel, "SOURCE", copy)
    assert _kernel.library_path(host) == original
    names = {original}
    for at in (0, len(source) // 2, len(source) - 1):
        for flip in (0x01, 0x80):
            edited = bytearray(source)
            edited[at] ^= flip
            copy.write_bytes(bytes(edited))
            names.add(_kernel.library_path(host))
    copy.write_bytes(source + b" ")
    names.add(_kernel.library_path(host))
    assert len(names) == 8


def test_kernel_runs_leave_openssl_unloaded():
    # the library's name takes zlib's checksums; hashlib would load
    # OpenSSL's _hashlib and its resident pages into every process.  The
    # field comes from interpolate: numpy.random imports hashlib itself.
    code = (
        "import sys\n"
        "from adisplit import operators, steppers\n"
        "from adisplit.experiments import ETA0, PAPER_LAMBDA, PAPER_MU\n"
        "from adisplit.grid import Grid, interpolate\n"
        "op = operators.assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(17))\n"
        "u = interpolate(ETA0, op.grid)\n"
        "for scheme in steppers.SchemeKind:\n"
        "    steppers.evolve(op, scheme, 1.0 / 64, 3, u)\n"
        "print(sorted(name for name in sys.modules if 'hashlib' in name))\n"
    )
    src = str(Path(operators.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_import_starts_no_process():
    # the kernel is built on the first resolvent solve, never on import
    code = (
        "import sys\n"
        "seen = []\n"
        "spawn = ('subprocess.Popen', 'os.system', 'os.posix_spawn', "
        "'os.fork', 'os.exec', 'os.spawn')\n"
        "sys.addaudithook(lambda event, args: event in spawn and seen.append(event))\n"
        "import adisplit\n"
        "print(seen, adisplit._kernel._build_and_load.cache_info().currsize)\n"
    )
    src = str(Path(operators.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[]", "0"]


def test_package_runs_without_scipy():
    # the package needs numpy only: SciPy is a test dependency
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from adisplit import operators, steppers\n"
        "from adisplit.experiments import PAPER_LAMBDA, PAPER_MU\n"
        "from adisplit.grid import Field, Grid\n"
        "from adisplit.linsolve import solve_lh\n"
        "op = operators.assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(17))\n"
        "u = Field(op.grid, np.random.default_rng(1).standard_normal((16, 16)))\n"
        "for scheme in steppers.SchemeKind:\n"
        "    steppers.evolve(op, scheme, 1.0 / 64, 3, u)\n"
        "solve_lh(op, u)\n"
        "operators.stability_certificate(op)\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(operators.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


class TestDiagonal:
    def test_matches_dense(self):
        op = paper_operator(9)
        _, _, l = oracle.dense_assemble(op)
        got = op.diagonal_l().values.ravel()
        assert np.allclose(got, np.diag(l), rtol=1e-14, atol=0.0)


def count_factorizations(monkeypatch):
    """One entry per call of the compiled factor entry."""
    calls = []
    kernel = _kernel.load()
    factor = kernel.adisplit_factor

    def counting(*args):
        calls.append(1)
        return factor(*args)

    monkeypatch.setattr(kernel, "adisplit_factor", counting)
    return calls


class TestFactorCache:
    def test_never_exceeds_capacity(self):
        op = paper_operator(8)
        u = random_field(op.grid)
        for i in range(3 * FACTOR_CACHE_CAPACITY):
            kappa = 0.01 * (i + 1)
            op.solve_resolvent_a(kappa, u)
            op.solve_resolvent_b(kappa, u)
            assert len(op._factor_cache) <= FACTOR_CACHE_CAPACITY
        assert len(op._factor_cache) == FACTOR_CACHE_CAPACITY

    def test_evicts_least_recently_used(self, monkeypatch):
        op = paper_operator(8)
        u = random_field(op.grid)
        op.solve_resolvent_a(0.5, u)
        for i in range(FACTOR_CACHE_CAPACITY - 1):
            op.solve_resolvent_b(0.01 * (i + 1), u)
        op.solve_resolvent_a(0.5, u)  # touch: now the most recent
        op.solve_resolvent_b(10.0, u)  # evicts the oldest b factor instead
        calls = count_factorizations(monkeypatch)
        op.solve_resolvent_a(0.5, u)
        assert calls == []
        op.solve_resolvent_b(0.01, u)
        assert len(calls) == 1

    def test_scheme_loop_factors_once(self, monkeypatch):
        # CN needs R_A(k/2) and R_B(k/4), PR R_A(k/2) and R_B(k/2), DR
        # R_A(k) and R_B(k): five factors, all kept across passes
        op = paper_operator(16)
        u = random_field(op.grid)
        calls = count_factorizations(monkeypatch)
        k = 2.0 ** -6
        per_pass = []
        for _ in range(4):
            steppers.evolve(op, steppers.SchemeKind.CRANK_NICOLSON, k, 3, u)
            steppers.evolve(op, steppers.SchemeKind.PEACEMAN_RACHFORD, k, 3, u)
            per_pass.append(len(calls))
        for _ in range(3):
            steppers.evolve(op, steppers.SchemeKind.DOUGLAS_RACHFORD, k, 3, u)
            steppers.evolve(op, steppers.SchemeKind.CRANK_NICOLSON, k, 3, u)
            steppers.evolve(op, steppers.SchemeKind.PEACEMAN_RACHFORD, k, 3, u)
            per_pass.append(len(calls))
        assert per_pass == [3, 3, 3, 3, 5, 5, 5]


class TestStabilityNorm:
    @staticmethod
    def dense_norm(op):
        a, _, l = oracle.dense_assemble(op)
        return oracle.dense_operator_norm(a @ np.linalg.inv(l))

    def test_constant_coefficients_contraction(self):
        for m in (8, 16):
            op = assemble_split_operator(ONE, ONE, Grid(m))
            assert stability_certificate(op) < 1.0

    def test_matches_dense_norm(self):
        # D = I, so the certificate is the norm itself
        for m in (8, 16):
            op = assemble_split_operator(ONE, ONE, Grid(m))
            cert = stability_certificate(op)
            assert cert == pytest.approx(self.dense_norm(op), rel=1e-12, abs=0.0)
        op = assemble_split_operator(ONE, ONE, Grid(8))
        assert stability_certificate(op) == pytest.approx(0.96193976625564, abs=1e-13)

    def test_paper_coefficients_bound_dense_norm(self):
        for m in (8, 16):
            op = paper_operator(m)
            assert stability_certificate(op) >= self.dense_norm(op)
        assert stability_certificate(paper_operator(8)) == pytest.approx(8.2522, abs=1e-4)

    def test_paper_coefficients_below_bound(self):
        for m in (8, 16, 32, 64, 128, 1024):
            op = paper_operator(m)
            assert stability_certificate(op) <= stability_bound(op) + 1e-6

    def test_bound_value(self):
        op = paper_operator(8)
        assert stability_bound(op) == pytest.approx(11.94, abs=0.05)

    def test_verify_fails_above_bound(self, monkeypatch):
        monkeypatch.setattr(experiments, "stability_bound", lambda op: 8.0)
        report = experiments.verify_assumptions(m_list=[8, 16])
        check = next(c for c in report.checks if c.name == "stability norm bound")
        assert not check.passed and not report.all_passed
        assert check.detail == "m=8: 8.2522; m=16: 10.7782 vs bound 8.0000"
