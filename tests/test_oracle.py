import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from adisplit.experiments import PAPER_LAMBDA, PAPER_MU
from adisplit.grid import (
    Field,
    Grid,
    exact_l2_norm,
    exact_l2_norm_squared,
    interpolate,
    l2_distance_to_function,
)
from adisplit.operators import assemble_split_operator

import oracle
from oracle import random_field, zero_field

ONE = lambda x: np.ones_like(np.asarray(x, dtype=float))


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


def test_dense_matches_matrix_free_master_check():
    op = assemble_split_operator(PAPER_LAMBDA, PAPER_MU, Grid(8))
    a, b, l = oracle.dense_assemble(op)
    u = random_field(op.grid, 1)
    for fn, mat in ((op.apply_a, a), (op.apply_b, b), (op.apply_l, l)):
        got = fn(u).values.ravel()
        want = mat @ u.values.ravel()
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestPackageBoundary:
    """The dense oracle is test code: the package neither ships nor imports it."""

    PACKAGE = Path(__file__).resolve().parent.parent / "src" / "adisplit"

    def test_package_has_no_oracle_module(self):
        assert importlib.util.find_spec("adisplit.oracle") is None

    def test_no_package_module_imports_the_oracle(self):
        sources = sorted(self.PACKAGE.glob("*.py"))
        assert sources
        offenders = []
        for path in sources:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                else:
                    continue
                if any("oracle" in name.split(".") for name in names):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []
