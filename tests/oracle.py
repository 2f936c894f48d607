"""Small-scale dense reference implementations for the test suite.

Everything here trades efficiency for directness: literal Kronecker
expansion of the stiffness matrices, dense linear algebra, plain CG on L as
a second route besides the package's direct solver, the closed form of the
DR and PR runs for constant coefficients in the sine basis, pointwise
evaluation of a field as the reference for grid transfer, and a Gauss
quadrature cross-check of the exact L2 norm in :mod:`adisplit.grid`.  The
package itself never imports this module.
"""

from __future__ import annotations

import numpy as np
import scipy.fft
import scipy.linalg

from adisplit.grid import (
    Field,
    Grid,
    _element_index,
    l2_distance_to_function,
    padded_values,
)
from adisplit.linsolve import conjugate_gradient
from adisplit.steppers import SchemeKind

DENSE_BUDGET = 4096  # max (m-1)^2 entries per dense operator
EXPM_DIM_BUDGET = 128


def random_field(grid: Grid, seed: int = 0) -> Field:
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal((grid.n, grid.n)))


def zero_field(grid: Grid) -> Field:
    return Field(grid, np.zeros((grid.n, grid.n)))


def evaluate_field(u: Field, x: float, y: float) -> float:
    """Exact value of the bilinear FE function at (x, y) in [0,1]^2."""
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"point ({x}, {y}) outside the unit square")
    m = u.grid.m
    h = u.grid.h
    ix = _element_index(x, m)
    iy = _element_index(y, m)
    s = x / h - ix
    t = y / h - iy
    p = padded_values(u)
    return float(
        (1 - s) * (1 - t) * p[iy, ix]
        + s * (1 - t) * p[iy, ix + 1]
        + (1 - s) * t * p[iy + 1, ix]
        + s * t * p[iy + 1, ix + 1]
    )


def dense_tridiagonal(t) -> np.ndarray:
    """Dense form of a symmetric ``TridiagonalMatrix``."""
    return np.diag(t.diag) + np.diag(t.off, 1) + np.diag(t.off, -1)


def dense_assemble(op):
    """Explicit (A, B, L) matrices in the field's storage order (i fastest).

    With vec index j*(m-1)+i the Kronecker factors appear as
    A = -(1/h^2) kron(D_mu, K_lambda) and B = -(1/h^2) kron(K_mu, D_lambda).
    """
    n2 = op.grid.interior_count
    if n2 > DENSE_BUDGET:
        raise ValueError(f"dense assembly budget exceeded: {n2} > {DENSE_BUDGET}")
    h2 = op.grid.h ** 2
    a = -np.kron(np.diag(op.d_mu), dense_tridiagonal(op.k_lambda)) / h2
    b = -np.kron(dense_tridiagonal(op.k_mu), np.diag(op.d_lambda)) / h2
    return a, b, a + b


def dense_apply(matrix: np.ndarray, u: Field) -> Field:
    n = u.grid.n
    return Field(u.grid, (matrix @ u.values.ravel()).reshape(n, n))


def dense_solve(matrix: np.ndarray, rhs: Field) -> Field:
    n = rhs.grid.n
    x = np.linalg.solve(matrix, rhs.values.ravel())
    return Field(rhs.grid, x.reshape(n, n))


def cg_solve_l(op, f: Field, tol: float) -> Field:
    """Solve L v = f by unpreconditioned matrix-free CG on the SPD system
    (K_A + K_B) v = -h^2 f, whose operator is -h^2 L."""
    grid = op.grid
    n = grid.n
    h2 = grid.h ** 2
    x = conjugate_gradient(
        lambda v: -h2 * op.apply_l(Field(grid, v.reshape(n, n))).values.ravel(),
        (-h2 * f.values).ravel(),
        tol=tol,
    )
    return Field(grid, x.reshape(n, n))


def constant_coefficient_evolve(scheme: SchemeKind, k: float, n_steps: int,
                                u0: Field) -> Field:
    """The DR or PR run of n_steps steps of size k from u0 for
    lambda = mu = 1, in closed form.

    A and B then commute and share the orthonormal sine basis V, with
    V_ij = sqrt(2/m) sin(pi i j / m), which is DST-I; -A and -B have the
    eigenvalues (2 - 2 cos(pi i / m)) / h^2 along x and y.  Each scheme's
    step is diagonal in V with the factor
        PR: r = (1 - kappa a)/(1 + kappa a) * (1 - kappa b)/(1 + kappa b),
            kappa = k/2,
        DR: r = (1 + k^2 a b) / ((1 + k a)(1 + k b)),
    so u_n = V (r^n o (V u0 V)) V, costing two transforms at any m.
    """
    m = u0.grid.m
    theta = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, m) / m)) / u0.grid.h ** 2
    a, b = theta[None, :], theta[:, None]  # values[j, i]: i along x
    if scheme is SchemeKind.PEACEMAN_RACHFORD:
        kappa = 0.5 * k
        r = (1.0 - kappa * a) / (1.0 + kappa * a) * (1.0 - kappa * b) / (1.0 + kappa * b)
    elif scheme is SchemeKind.DOUGLAS_RACHFORD:
        r = (1.0 + k * k * a * b) / ((1.0 + k * a) * (1.0 + k * b))
    else:
        raise ValueError(f"no closed form for scheme {scheme.value}")
    modes = scipy.fft.dstn(u0.values, type=1, norm="ortho")
    return Field(u0.grid, scipy.fft.dstn(r ** n_steps * modes, type=1, norm="ortho"))


def dense_expm(matrix: np.ndarray, t: float) -> np.ndarray:
    """e^{t*M} by scaling-and-squaring with a Pade core (scipy)."""
    if matrix.shape[0] > EXPM_DIM_BUDGET:
        raise ValueError(
            f"expm dimension budget exceeded: {matrix.shape[0]} > {EXPM_DIM_BUDGET}"
        )
    return scipy.linalg.expm(t * matrix)


def dense_operator_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix, 2))


def gauss_l2_norm(u: Field) -> float:
    """L2 norm by per-element Gauss quadrature; cross-check for the exact form."""
    return l2_distance_to_function(u, lambda x, y: 0.0 * x)
