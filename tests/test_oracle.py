import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from adisplit.experiments import PAPER_LAMBDA, PAPER_MU
from adisplit.grid import (
    Field,
    Grid,
    discrete_inner_product,
    discrete_norm,
    exact_l2_norm,
    exact_l2_norm_squared,
    interpolate,
    l2_distance_to_function,
)
from adisplit.operators import TridiagonalMatrix, assemble_split_operator

import oracle
from oracle import random_field, zero_field

ONE = lambda x: np.ones_like(np.asarray(x, dtype=float))


def paper_operator(m):
    return assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(m))


class TestDenseAssemble:
    def test_single_node(self):
        op = assemble_split_operator(ONE, ONE, Grid(2))
        a, b, l = oracle.dense_assemble(op)
        assert a[0, 0] == pytest.approx(-8.0)
        assert b[0, 0] == pytest.approx(-8.0)
        assert l[0, 0] == pytest.approx(-16.0)

    def test_constant_coefficient_block_pattern(self):
        op = assemble_split_operator(ONE, ONE, Grid(4))
        a, _, _ = oracle.dense_assemble(op)
        h2 = op.grid.h ** 2
        block = -np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]) / h2
        for j in range(3):
            s = slice(3 * j, 3 * j + 3)
            assert np.allclose(a[s, s], block)
        assert np.allclose(a - np.kron(np.eye(3), block), 0.0)

    def test_symmetry(self):
        op = assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(8))
        a, b, _ = oracle.dense_assemble(op)
        assert np.allclose(a, a.T, atol=1e-12)
        assert np.allclose(b, b.T, atol=1e-12)

    def test_budget_exceeded(self):
        op = assemble_split_operator(ONE, ONE, Grid(128))
        with pytest.raises(ValueError):
            oracle.dense_assemble(op)


class TestDenseExpm:
    def test_zero_matrix(self):
        assert np.allclose(oracle.dense_expm(np.zeros((4, 4)), 1.0), np.eye(4))

    def test_diagonal(self):
        got = oracle.dense_expm(np.diag([-1.0, -2.0]), 1.0)
        assert np.allclose(got, np.diag([np.exp(-1.0), np.exp(-2.0)]), rtol=1e-12)

    def test_rotation(self):
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        got = oracle.dense_expm(rot, np.pi / 2.0)
        assert np.allclose(got, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-12)

    def test_semigroup_property(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((6, 6))
        mat = -(mat @ mat.T) - np.eye(6)
        lhs = oracle.dense_expm(mat, 0.7)
        rhs = oracle.dense_expm(mat, 0.3) @ oracle.dense_expm(mat, 0.4)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_dimension_budget(self):
        with pytest.raises(ValueError):
            oracle.dense_expm(np.zeros((200, 200)), 1.0)


class TestExactL2:
    def test_zero(self):
        assert exact_l2_norm(zero_field(Grid(8))) == 0.0

    def test_single_hat(self):
        # squared L2 norm of the 2D hat is (2h/3)^2
        g = Grid(2)
        u = Field(g, np.array([[1.0]]))
        assert exact_l2_norm_squared(u) == pytest.approx(
            4.0 * g.h ** 2 / 9.0, rel=1e-14
        )

    def test_matches_gauss_quadrature(self):
        for m in (4, 8):
            u = random_field(Grid(m), m)
            exact = exact_l2_norm(u)
            gauss = oracle.gauss_l2_norm(u)
            assert exact == pytest.approx(gauss, rel=1e-12)

    def test_interpolated_constant(self):
        # interior-ones field: exact value cross-checked by Gauss quadrature
        u = Field(Grid(4), np.ones((3, 3)))
        assert exact_l2_norm(u) == pytest.approx(
            oracle.gauss_l2_norm(u), rel=1e-13
        )


class TestL2Distance:
    def test_distance_to_self_representation(self):
        # a function already in the FE space has zero distance
        g = Grid(8)
        u = interpolate(lambda x, y: 0.0 * x, g)
        assert l2_distance_to_function(u, lambda x, y: 0.0 * x) == 0.0

    def test_known_interpolation_error_scale(self):
        def g(x, y):
            return np.sin(np.pi * x) * np.sin(np.pi * y)

        errs = []
        for m in (8, 16):
            u = interpolate(g, Grid(m))
            errs.append(l2_distance_to_function(u, g))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


@pytest.mark.parametrize("m", [2, 3, 17, 18, 33, 64, 91, 256, 513])
def test_numpy_factor_and_solve_are_dpttrf_and_dpttrs(m):
    # the line factors and solves the kernel's are checked against, bit
    # for bit, against SciPy's LAPACK
    op = assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(m))
    rhs = random_field(op.grid, m).values
    for kappa in (1e-3, 1.0, 1e3):
        for axis in ("a", "b"):
            d, e = oracle.lapack_factor(op, axis, kappa)
            fac = oracle.LineFactor(op, axis, kappa)
            assert fac.d.tobytes() == d.T.tobytes()  # [position][line]
            assert fac.e.tobytes() == e.T.tobytes()
            lines = rhs if axis == "a" else rhs.T
            if d.size == 1:
                want = lines / d
            else:
                want, info = scipy.linalg.lapack.dpttrs(
                    d.ravel(), e.ravel()[:-1], lines.ravel())
                assert info == 0
                want = want.reshape(lines.shape)
            want = want if axis == "a" else want.T
            assert np.array_equal(fac.solve(rhs), want)


# The numpy references below are what the compiled kernel must equal bit
# for bit, so each is held here to the dense matrices on its own.  Grids:
# one node, two nodes, an odd count, one whole 16-line tile, two tiles.
REFERENCE_GRIDS = [2, 3, 8, 17, 33]
REFERENCE_KAPPAS = [1e-3, 1.0, 1e3]


def dense_line_system(op, axis, kappa):
    """I - kappa*A (axis "a") or I - kappa*B (axis "b"), dense."""
    a, b, _ = oracle.dense_assemble(op)
    return np.eye(op.grid.interior_count) - kappa * (a if axis == "a" else b)


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestStencilReference:
    """``oracle.apply``, the compiled stencil's reference."""

    @pytest.mark.parametrize("m", REFERENCE_GRIDS)
    def test_matches_dense_kronecker(self, m):
        op = paper_operator(m)
        a, b, l = oracle.dense_assemble(op)
        eye = np.eye(op.grid.interior_count)
        u = random_field(op.grid, m)
        for which, sigma, mat in (("a", None, a), ("b", None, b),
                                  ("l", None, l), ("l", 0.25, eye + 0.25 * l),
                                  ("l", -0.25, eye - 0.25 * l)):
            got = oracle.apply(op, which, u, sigma).values.ravel()
            assert relative_error(got, mat @ u.values.ravel()) <= 1e-13

    def test_zero(self):
        op = paper_operator(8)
        z = zero_field(op.grid)
        for which, sigma in (("a", None), ("b", None), ("l", None),
                             ("l", 0.5), ("l", -0.5)):
            assert np.all(oracle.apply(op, which, z, sigma).values == 0.0)

    def test_discrete_laplacian_eigenpair(self):
        g = Grid(16)
        op = assemble_split_operator(ONE, ONE, g)
        xi = g.interior_nodes()
        u = Field(g, np.outer(np.sin(np.pi * xi), np.sin(np.pi * xi)))
        sigma = (2.0 - 2.0 * np.cos(np.pi * g.h)) / g.h ** 2
        for which, factor in (("a", -sigma), ("b", -sigma), ("l", -2 * sigma)):
            got = oracle.apply(op, which, u).values
            assert np.allclose(got, factor * u.values, atol=1e-11)

    def test_coefficient_swap_transposes(self):
        op = paper_operator(8)
        swapped = assemble_split_operator(PAPER_MU, PAPER_LAMBDA, Grid(8))
        u = random_field(op.grid, 3)
        ut = Field(op.grid, np.ascontiguousarray(u.values.T))
        got = oracle.apply(swapped, "a", ut).values.T
        want = oracle.apply(op, "b", u).values
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_dissipativity(self):
        for m in (4, 8, 16, 32):
            op = paper_operator(m)
            for seed in range(25):
                u = random_field(op.grid, seed)
                n2 = discrete_norm(u) ** 2
                for which in "ab":
                    au = oracle.apply(op, which, u)
                    assert discrete_inner_product(au, u) <= 1e-12 * n2

    def test_noncontiguous_and_integer_fields(self):
        op = paper_operator(20)
        ints = np.arange(19 * 19).reshape(19, 19) % 7 - 3
        floats = Field(op.grid, ints.astype(float))
        for field in (Field(op.grid, np.asfortranarray(ints.astype(float))),
                      Field(op.grid, ints)):
            for which, sigma in (("a", None), ("b", None), ("l", None),
                                 ("l", 0.5)):
                got = oracle.apply(op, which, field, sigma).values
                want = oracle.apply(op, which, floats, sigma).values
                assert got.tobytes() == want.tobytes()


class TestLineFactorReference:
    """``oracle.LineFactor`` and ``oracle.lapack_factor``, the references
    of the kernel's line factors and solves, against the dense systems
    I - kappa*A and I - kappa*B assembled by Kronecker products."""

    @pytest.mark.parametrize("axis", ["a", "b"])
    @pytest.mark.parametrize("m", REFERENCE_GRIDS)
    def test_resolvent_solves_the_dense_system(self, m, axis):
        op = paper_operator(m)
        rhs = random_field(op.grid, m).values
        for kappa in REFERENCE_KAPPAS:
            want = np.linalg.solve(dense_line_system(op, axis, kappa),
                                   rhs.ravel())
            got = oracle.LineFactor(op, axis, kappa).solve(rhs)
            assert got.flags.c_contiguous
            assert relative_error(got.ravel(), want) <= 1e-12

    @pytest.mark.parametrize("axis", ["a", "b"])
    @pytest.mark.parametrize("m", REFERENCE_GRIDS)
    def test_reflection_is_the_dense_cayley_transform(self, m, axis):
        # (I + kappa X)(I - kappa X)^-1 = 2 (I - kappa X)^-1 - I
        op = paper_operator(m)
        rhs = random_field(op.grid, m).values
        for kappa in REFERENCE_KAPPAS:
            system = dense_line_system(op, axis, kappa)
            plus = 2.0 * np.eye(len(system)) - system
            want = plus @ np.linalg.solve(system, rhs.ravel())
            got = oracle.LineFactor(op, axis, kappa).solve(rhs, reflect=True)
            assert relative_error(got.ravel(), want) <= 1e-11

    @pytest.mark.parametrize("axis", ["a", "b"])
    @pytest.mark.parametrize("m", REFERENCE_GRIDS)
    def test_lapack_factor_is_the_ldlt_of_each_dense_line(self, m, axis):
        # line j of axis "a" is row j of the field, of axis "b" column j
        op = paper_operator(m)
        n = op.grid.n
        index = np.arange(n * n).reshape(n, n)
        for kappa in REFERENCE_KAPPAS:
            system = dense_line_system(op, axis, kappa)
            d, e = oracle.lapack_factor(op, axis, kappa)
            for j in range(n):
                line = index[j] if axis == "a" else index[:, j]
                lower = np.eye(n) + np.diag(e[j, :-1], -1)
                want = system[np.ix_(line, line)]
                got = lower @ np.diag(d[j]) @ lower.T
                assert relative_error(got, want) <= 1e-14

    def test_lines_do_not_couple(self):
        op = paper_operator(8)
        n = op.grid.n
        for j in (0, 3, n - 1):
            x_line = np.zeros((n, n))
            x_line[j, :] = np.arange(1.0, n + 1)
            w = oracle.LineFactor(op, "a", 10.0).solve(x_line)
            assert np.all(np.delete(w, j, axis=0) == 0.0)
            assert np.all(w[j] != 0.0)
            w = oracle.LineFactor(op, "b", 10.0).solve(x_line.T.copy())
            assert np.all(np.delete(w, j, axis=1) == 0.0)
            assert np.all(w[:, j] != 0.0)

    def test_zero_rhs(self):
        op = paper_operator(8)
        z = np.zeros((7, 7))
        for axis in "ab":
            fac = oracle.LineFactor(op, axis, 1.0)
            assert np.all(fac.solve(z) == 0.0)
            assert np.all(fac.solve(z, reflect=True) == 0.0)

    def test_rhs_stays_unwritten(self):
        op = paper_operator(17)
        rhs = random_field(op.grid, 4).values
        before = rhs.copy()
        for axis in "ab":
            for reflect in (False, True):
                oracle.LineFactor(op, axis, 1.0).solve(rhs, reflect=reflect)
                assert rhs.tobytes() == before.tobytes()

    def test_noncontiguous_and_integer_fields(self):
        op = paper_operator(20)
        ints = np.arange(19 * 19).reshape(19, 19) % 7 - 3
        floats = ints.astype(float)
        for axis in "ab":
            fac = oracle.LineFactor(op, axis, 0.5)
            for rhs in (np.asfortranarray(floats), ints):
                for reflect in (False, True):
                    got = fac.solve(rhs, reflect=reflect)
                    want = fac.solve(floats, reflect=reflect)
                    assert got.tobytes() == want.tobytes()

    def test_indefinite_system_has_a_non_positive_pivot(self):
        # the pivot the kernel's factor reports when it raises
        op = paper_operator(8)
        op.k_lambda = TridiagonalMatrix(-op.k_lambda.diag, -op.k_lambda.off)
        assert np.min(oracle.LineFactor(op, "a", 10.0).d) <= 0.0
        with pytest.raises(np.linalg.LinAlgError):
            op.solve_resolvent_a(10.0, random_field(op.grid))


class TestAdiProductReference:
    @pytest.mark.parametrize("m", REFERENCE_GRIDS)
    def test_matches_the_dense_product(self, m):
        # R_B(kappa_b) R_A(kappa_a) R_B(kappa_b) r + weight * r
        op = paper_operator(m)
        r = random_field(op.grid, m).values
        weight = np.random.default_rng(m).random(r.shape)
        for kappa_a, kappa_b in ((1e-3, 5e-4), (1.0, 0.25), (1e3, 1e3)):
            rb = np.linalg.inv(dense_line_system(op, "b", kappa_b))
            ra = np.linalg.inv(dense_line_system(op, "a", kappa_a))
            want = rb @ ra @ rb @ r.ravel() + weight.ravel() * r.ravel()
            got = oracle.adi_product(op, kappa_a, kappa_b, r, weight)
            assert relative_error(got.ravel(), want) <= 1e-12


class TestCayleyCallsReference:
    @pytest.mark.parametrize("average", [False, True])
    @pytest.mark.parametrize("m", [2, 8, 17])
    def test_matches_the_dense_recurrence(self, m, average):
        op = paper_operator(m)
        u = random_field(op.grid, m)
        kappa, n_steps = 1.0 / 64, 3
        eye = np.eye(op.grid.interior_count)
        cay_a, cay_b = (2.0 * np.linalg.inv(dense_line_system(op, axis, kappa))
                        - eye for axis in "ab")
        step = cay_a @ cay_b
        if average:
            step = 0.5 * (eye + step)
        want = np.linalg.matrix_power(step, n_steps) @ u.values.ravel()
        got = oracle.cayley_calls(op, kappa, n_steps, u, average)
        assert relative_error(got.values.ravel(), want) <= 1e-12

    def test_u_stays_unwritten_and_zero_steps_return_it(self):
        op = paper_operator(9)
        u = random_field(op.grid, 1)
        before = u.values.copy()
        for average in (False, True):
            assert oracle.cayley_calls(op, 0.1, 0, u, average) is u
            oracle.cayley_calls(op, 0.1, 4, u, average)
            assert u.values.tobytes() == before.tobytes()


def spd_system(n=24, seed=5):
    """An SPD matrix with eigenvalues spread over [1, 1e3], and a rhs."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.logspace(0, 3, n)) @ q.T, rng.standard_normal(n)


class TestReferenceCg:
    @pytest.mark.parametrize("jacobi", [False, True])
    def test_solves_a_dense_spd_system(self, jacobi):
        mat, b = spd_system()
        diag = np.diag(mat)
        precondition = (lambda r: r / diag) if jacobi else None
        x, history = oracle.reference_cg(lambda v: mat @ v, b, 1e-12,
                                         precondition)
        assert history[0] == 1.0
        assert history[-1] <= 1e-12 < min(history[:-1])
        assert np.linalg.norm(b - mat @ x) <= 1e-12 * np.linalg.norm(b)
        assert relative_error(x, np.linalg.solve(mat, b)) <= 1e-9

    def test_the_exact_inverse_as_preconditioner_takes_one_iteration(self):
        mat, b = spd_system()
        inverse = np.linalg.inv(mat)
        x, history = oracle.reference_cg(lambda v: mat @ v, b, 1e-10,
                                         lambda r: inverse @ r)
        assert len(history) == 2
        assert relative_error(x, np.linalg.solve(mat, b)) <= 1e-10

    def test_max_iter_caps_the_iterations(self):
        mat, b = spd_system()
        _, history = oracle.reference_cg(lambda v: mat @ v, b, 1e-300,
                                         max_iter=3)
        assert len(history) == 4


class TestCrankNicolsonReference:
    @pytest.mark.parametrize("m", REFERENCE_GRIDS)
    def test_matches_the_dense_map(self, m):
        # (I - k/2 L)^-1 (I + k/2 L) u, to CG's relative residual 1e-12
        op = paper_operator(m)
        _, _, l = oracle.dense_assemble(op)
        eye = np.eye(op.grid.interior_count)
        u = random_field(op.grid, m)
        for k in (2.0 ** -10, 2.0 ** -4):
            want = np.linalg.solve(eye - 0.5 * k * l,
                                   (eye + 0.5 * k * l) @ u.values.ravel())
            got = oracle.crank_nicolson_step(op, k, u).values.ravel()
            assert relative_error(got, want) <= 1e-10


def test_dense_matches_matrix_free_master_check():
    op = assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(8))
    a, b, l = oracle.dense_assemble(op)
    u = random_field(op.grid, 1)
    for fn, mat in ((op.apply_a, a), (op.apply_b, b), (op.apply_l, l)):
        got = fn(u).values.ravel()
        want = mat @ u.values.ravel()
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def imported_names(path):
    """(line, names) of every import statement in the module at ``path``:
    the module and the names an ``import`` or ``from ... import`` reads."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, [node.module or ""] + [a.name for a in node.names]


class TestPackageBoundary:
    """The dense oracle is test code: the package neither ships nor imports
    it, nor SciPy.  The operator layer sits below the time steppers and never imports
    them."""

    PACKAGE = Path(__file__).resolve().parent.parent / "src" / "adisplit"

    def offenders(self, sources, module):
        assert sources
        return [f"{path.name}:{line}" for path in sources
                for line, names in imported_names(path)
                if any(module in name.split(".") for name in names)]

    def test_package_has_no_oracle_module(self):
        assert importlib.util.find_spec("adisplit.oracle") is None

    def test_no_package_module_imports_the_oracle(self):
        assert self.offenders(sorted(self.PACKAGE.glob("*.py")), "oracle") == []

    def test_no_package_module_imports_scipy(self):
        # SciPy is a test dependency only: the package runs on numpy
        assert self.offenders(sorted(self.PACKAGE.glob("*.py")), "scipy") == []

    def test_lower_layers_import_nothing_from_the_steppers(self):
        sources = [self.PACKAGE / f"{name}.py"
                   for name in ("operators", "linsolve", "grid")]
        assert self.offenders(sources, "steppers") == []
