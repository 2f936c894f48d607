import logging
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adisplit import experiments, operators, steppers
from adisplit.experiments import PAPER_LAMBDA, PAPER_MU, coefficient_pair
from adisplit.grid import Field, Grid, discrete_inner_product, discrete_norm
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


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


@pytest.fixture(params=["kernel", "lapack"])
def line_path(request, monkeypatch):
    """Run the test with the compiled kernel, or with its fallbacks: LAPACK
    dpttrs for the resolvents and numpy for A, B and L."""
    if request.param == "lapack":
        monkeypatch.setattr(operators, "_kernel", lambda: None)
    elif shutil.which("cc") is None:
        pytest.skip("no C compiler")
    else:
        assert operators._kernel() is not None
    return request.param


def on_both_paths(monkeypatch, compute):
    """compute() with the compiled kernel and with the LAPACK fallback."""
    assert operators._kernel() is not None
    kernel = compute()
    with monkeypatch.context() as mp:
        mp.setattr(operators, "_kernel", lambda: None)
        fallback = compute()
    return kernel, fallback


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


@pytest.mark.usefixtures("line_path")
class TestApplicationsOnEachPath(TestApplications):
    """The checks of TestApplications on the compiled stencil and on the
    numpy fallback; the base class runs them on the default path."""


def signed_zeros(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, np.where(rng.random((grid.n, grid.n)) < 0.5, -0.0, 0.0))


@needs_cc
class TestApplyPaths:
    """The compiled stencil against the numpy bodies of apply_a/b/l."""

    @pytest.mark.parametrize("m", [2, 3, 17, 64, 91])
    def test_applications_agree_bit_for_bit(self, monkeypatch, m):
        g = Grid(m)
        # random signs of zero show a missing edge neighbour added as +0.0
        fields = (random_field(g, m), signed_zeros(g, m))

        def compute():
            op = paper_operator(m)
            return [f(u).values for u in fields
                    for f in (op.apply_a, op.apply_b, op.apply_l,
                              lambda u: op.apply_l(u, 0.25),
                              lambda u: op.apply_l(u, -0.25))]

        for got, want in zip(*on_both_paths(monkeypatch, compute)):
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    def test_shifted_l_is_identity_plus_scaled_l(self):
        op = paper_operator(33)
        u = random_field(op.grid, 4)
        lu = op.apply_l(u).values
        assert np.array_equal(op.apply_l(u, 0.5).values, u.values + 0.5 * lu)
        assert np.array_equal(op.apply_l(u, -0.5).values, u.values - 0.5 * lu)

    def test_noncontiguous_and_integer_fields(self, line_path):
        op = paper_operator(20)
        ints = np.arange(19 * 19).reshape(19, 19) % 7 - 3
        floats = Field(op.grid, ints.astype(float))
        for field in (Field(op.grid, np.asfortranarray(ints.astype(float))),
                      Field(op.grid, ints)):
            for f in (op.apply_a, op.apply_b, op.apply_l,
                      lambda u: op.apply_l(u, 0.5)):
                got = f(field).values
                assert got.tobytes() == f(floats).values.tobytes()

    def test_cn_step_and_cg_solve_agree(self, monkeypatch):
        u = random_field(Grid(33), 5)
        k = 2.0 ** -6

        def compute():
            op = paper_operator(33)
            return [steppers.cn_step(op, k, u).values,
                    oracle.cg_solve_l(op, u, 1e-12).values]

        for got, want in zip(*on_both_paths(monkeypatch, compute)):
            assert np.array_equal(got, want)


class TestResolvents:
    def test_scalar_surrogate(self):
        op = assemble_split_operator(ONE, ONE, Grid(2))
        u = Field(op.grid, np.array([[1.0]]))
        w = op.solve_resolvent_a(0.1, u)
        assert w.values[0, 0] == pytest.approx(1.0 / 1.8, rel=1e-15)

    def test_lines_do_not_couple(self, line_path):
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

    def test_indefinite_system_raises(self, line_path):
        # a negated stiffness makes I - kappa*A indefinite for large kappa;
        # the factorization must report it instead of returning garbage
        op = paper_operator(8)
        op.k_lambda = TridiagonalMatrix(-op.k_lambda.diag, -op.k_lambda.off)
        with pytest.raises(np.linalg.LinAlgError):
            op.solve_resolvent_a(10.0, random_field(op.grid))

    def test_zero_rhs(self, line_path):
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


@needs_cc
class TestLinePaths:
    """The compiled kernel against the LAPACK dpttrf/dpttrs fallback."""

    # n = m - 1 lines per direction: 16 and 32 fill whole 16-line tiles,
    # 1, 2, 17, 63 and 90 leave a partial one
    @pytest.mark.parametrize("m", [2, 3, 17, 18, 33, 64, 91])
    def test_solves_agree_bit_for_bit(self, monkeypatch, m):
        u = random_field(Grid(m), m)
        names = ("solve_resolvent_a", "solve_resolvent_b", "cayley_a", "cayley_b")

        def compute():
            op = paper_operator(m)
            return [getattr(op, name)(kappa, u).values
                    for kappa in (1e-3, 1.0, 1e3) for name in names]

        for got, want in zip(*on_both_paths(monkeypatch, compute)):
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

    def test_evolve_agrees(self, monkeypatch):
        u = random_field(Grid(33), 3)
        for scheme in (steppers.SchemeKind.PEACEMAN_RACHFORD,
                       steppers.SchemeKind.DOUGLAS_RACHFORD):
            got, want = on_both_paths(
                monkeypatch,
                lambda: steppers.evolve(paper_operator(33), scheme, 1.0 / 64, 20, u))
            if scheme is steppers.SchemeKind.PEACEMAN_RACHFORD:
                assert np.array_equal(got.values, want.values)
            else:
                assert discrete_norm(got - want) <= 1e-14 * discrete_norm(want)

    def test_noncontiguous_and_integer_fields(self, line_path):
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
    """``out=`` on the kernel and on the fallback paths."""

    @pytest.mark.parametrize("m", [2, 17, 20])
    def test_out_equals_a_fresh_result(self, line_path, m):
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

    def test_out_from_other_layouts_and_types(self, line_path):
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
    def test_unusable_out_rejected(self, line_path, bad):
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


@pytest.fixture
def fresh_loader():
    """Forget the loaded kernel before and after the test."""
    operators._kernel.cache_clear()
    yield
    operators._kernel.cache_clear()


@needs_cc
class TestKernelBuild:
    def test_builds_once_into_the_user_cache(self, monkeypatch, tmp_path, fresh_loader):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        compiles = []
        run = subprocess.run

        def counting_run(args, **kwargs):
            compiles.append(args[0])
            return run(args, **kwargs)

        monkeypatch.setattr(operators.subprocess, "run", counting_run)
        u = random_field(Grid(20))
        first = paper_operator(20).cayley_a(0.5, u).values
        cache = tmp_path / "adisplit"
        built = list(cache.iterdir())
        assert compiles == ["cc"]
        assert [p.name[:9] for p in built] == ["_tridiag-"]  # no temporary left
        assert stat.S_IMODE(cache.stat().st_mode) & 0o077 == 0
        operators._kernel.cache_clear()  # as in a new process
        second = paper_operator(20).cayley_a(0.5, u).values
        assert compiles == ["cc"]
        assert operators._kernel()._name == str(built[0])
        assert np.array_equal(first, second)

    def test_missing_compiler_falls_back(self, monkeypatch, tmp_path, caplog,
                                         fresh_loader):
        u = random_field(Grid(20))
        want = paper_operator(20).cayley_b(0.5, u).values
        operators._kernel.cache_clear()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("PATH", str(tmp_path))  # no cc on it
        with caplog.at_level(logging.WARNING, logger="adisplit.operators"):
            got = paper_operator(20).cayley_b(0.5, u).values
            paper_operator(20).solve_resolvent_a(0.5, u)
        assert operators._kernel() is None
        assert len(caplog.records) == 1
        assert "dpttrs" in caplog.records[0].getMessage()
        assert np.array_equal(got, want)

    def test_source_compiles_without_warnings(self, tmp_path):
        subprocess.run(
            ["cc", "-Wall", "-Wextra", "-Werror", *operators._KERNEL_FLAGS,
             "-o", str(tmp_path / "kernel.so"), str(operators._KERNEL_SOURCE)],
            check=True, capture_output=True,
        )


def test_import_starts_no_process():
    # the kernel is built on the first resolvent solve, never on import
    code = (
        "import sys\n"
        "seen = []\n"
        "spawn = ('subprocess.Popen', 'os.system', 'os.posix_spawn', "
        "'os.fork', 'os.exec', 'os.spawn')\n"
        "sys.addaudithook(lambda event, args: event in spawn and seen.append(event))\n"
        "import adisplit\n"
        "print(seen, adisplit.operators._kernel.cache_info().currsize)\n"
    )
    src = str(Path(operators.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[]", "0"]


class TestDiagonal:
    def test_matches_dense(self):
        op = paper_operator(9)
        _, _, l = oracle.dense_assemble(op)
        got = op.diagonal_l().values.ravel()
        assert np.allclose(got, np.diag(l), rtol=1e-14, atol=0.0)


def count_dpttrf(monkeypatch):
    calls = []
    dpttrf = operators.lapack.dpttrf

    def counting(*args, **kwargs):
        calls.append(1)
        return dpttrf(*args, **kwargs)

    monkeypatch.setattr(operators.lapack, "dpttrf", counting)
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
        calls = count_dpttrf(monkeypatch)
        op.solve_resolvent_a(0.5, u)
        assert calls == []
        op.solve_resolvent_b(0.01, u)
        assert len(calls) == 1

    def test_scheme_loop_factors_once(self, monkeypatch):
        # CN needs R_A(k/2) and R_B(k/4), PR R_A(k/2) and R_B(k/2), DR
        # R_A(k) and R_B(k): five factors, all kept across passes
        op = paper_operator(16)
        u = random_field(op.grid)
        calls = count_dpttrf(monkeypatch)
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
