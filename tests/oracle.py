"""Small-scale dense reference implementations for the test suite.

Everything here trades efficiency for directness: literal Kronecker
expansion of the stiffness matrices, dense linear algebra, plain CG on L as
a second route besides the package's direct solver, the closed form of the
DR and PR runs for constant coefficients in the sine basis, pointwise
evaluation of a field as the reference for grid transfer, and a Gauss
quadrature cross-check of the exact L2 norm in :mod:`adisplit.grid`.

The numpy references of the compiled kernel run the kernel's arithmetic in
numpy expressions, so the tests require the kernel's results to equal them
bit for bit: the A, B and L stencil (``apply``), dpttrf's line factors and
dpttrs's solves one position of all lines at a time (``LineFactor``, itself
checked against SciPy's LAPACK through ``lapack_factor``), the Cayley
recurrence as one ``cayley_b``/``cayley_a`` call per transform
(``cayley_calls``), CN's preconditioner product (``adi_product``), textbook
CG with numpy's vector updates (``reference_cg``) and a CN step built from
them (``crank_nicolson_step``).  The package itself never imports this
module.
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
from adisplit.steppers import CN_JACOBI_WEIGHT, SchemeKind

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
    r = (-h2 * f.values).ravel()
    x = conjugate_gradient(
        lambda v: -h2 * op.apply_l(Field(grid, v.reshape(n, n))).values.ravel(),
        r, np.empty_like(r), np.empty_like(r), tol=tol,
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


def tridiagonal_matvec(t, x: np.ndarray) -> np.ndarray:
    """A symmetric ``TridiagonalMatrix`` applied along the last axis of x."""
    y = np.multiply(t.diag, x)
    y[..., 1:] += t.off * x[..., :-1]
    y[..., :-1] += t.off * x[..., 1:]
    return y


def apply(op, which: str, u: Field, sigma: float | None = None) -> Field:
    """A u (``which`` "a"), B u ("b") or L u ("l"), with ``sigma``
    u + sigma L u, by numpy in the compiled stencil's operation order."""
    x = np.ascontiguousarray(u.values, dtype=np.float64)
    h2 = op.grid.h ** 2
    y = None
    if which in "al":
        y = tridiagonal_matvec(op.k_lambda, x)
        y *= -op.d_mu[:, None] / h2
    if which in "bl":
        b = tridiagonal_matvec(op.k_mu, x.T).T
        b *= -op.d_lambda / h2
        y = b if y is None else y + b
    if sigma is not None:
        y = y * sigma + x
    return Field(op.grid, np.ascontiguousarray(y))


def line_system(op, axis: str, kappa: float):
    """The 1D stiffness matrix and the gamma of each line of the system
    I - kappa*A (axis "a") or I - kappa*B (axis "b"): I + gamma K per line."""
    k1d, coef = (op.k_lambda, op.d_mu) if axis == "a" else (op.k_mu, op.d_lambda)
    return k1d, kappa * coef / op.grid.h ** 2


class LineFactor:
    """dpttrf's L D L^T factor of every line of I - kappa*X, pivots ``d``
    and multipliers ``e`` stored [position][line], formed and solved by
    numpy one position of all lines at a time with dpttrf's and dpttrs's
    (dptts2's) recurrences.  Axis "b" lines are the columns of the field;
    axis "a" right-hand sides are transposed in and the solution back out."""

    def __init__(self, op, axis: str, kappa: float):
        k1d, gamma = line_system(op, axis, kappa)
        self.axis = axis
        d = 1.0 + np.outer(k1d.diag, gamma)
        ei = np.outer(k1d.off, gamma)
        e = np.zeros_like(d)
        for p in range(len(ei)):
            np.divide(ei[p], d[p], out=e[p])
            d[p + 1] -= e[p] * ei[p]
        self.d, self.e = d, e

    def solve(self, rhs: np.ndarray, reflect: bool = False) -> np.ndarray:
        """R rhs, or 2 R rhs - rhs with ``reflect``, in a new C-ordered array."""
        d, e = self.d, self.e
        x = np.array(rhs.T if self.axis == "a" else rhs, dtype=np.float64,
                     order="C")
        for p in range(1, len(x)):
            x[p] -= x[p - 1] * e[p - 1]
        x[-1] /= d[-1]
        for p in range(len(x) - 2, -1, -1):
            x[p] /= d[p]
            x[p] -= x[p + 1] * e[p]
        if self.axis == "a":
            x = np.ascontiguousarray(x.T)
        return 2.0 * x - rhs if reflect else x


def lapack_factor(op, axis: str, kappa: float):
    """The factor of I - kappa*X by SciPy's LAPACK dpttrf over all lines
    concatenated, as (d, e) arrays [line][position]; e[line, n-1] is 0."""
    k1d, gamma = line_system(op, axis, kappa)
    n = op.grid.n
    d = (1.0 + np.outer(gamma, k1d.diag)).ravel()
    e = np.outer(gamma, np.append(k1d.off, 0.0)).ravel()[:-1]
    if d.size > 1:  # the wrapper rejects an empty off-diagonal
        d, e, info = scipy.linalg.lapack.dpttrf(d, e)
        assert info == 0
    return d.reshape(n, n), np.append(e, 0.0).reshape(n, n)


def cayley_calls(op, kappa: float, n_steps: int, u: Field, average: bool) -> Field:
    """``op.cayley_loop``'s result as one ``op.cayley_b``/``op.cayley_a``
    call per transform: n_steps steps of t <- C_A C_B t, or with
    ``average`` of t <- (t + C_A C_B t) / 2, from u, which is not written."""
    t = u
    for _ in range(n_steps):
        s = op.cayley_a(kappa, op.cayley_b(kappa, t))
        t = Field(u.grid, (t.values + s.values) * 0.5) if average else s
    return t


def adi_product(op, kappa_a: float, kappa_b: float, r: np.ndarray,
                weight: np.ndarray) -> np.ndarray:
    """R_B(kappa_b) R_A(kappa_a) R_B(kappa_b) r + weight * r by
    ``LineFactor`` solves and numpy: what ``op.bind_adi_product``'s
    callable writes."""
    fac_b = LineFactor(op, "b", kappa_b)
    w = fac_b.solve(LineFactor(op, "a", kappa_a).solve(fac_b.solve(r)))
    return w + weight * r


def reference_cg(matvec, b, tol, precondition=None, max_iter=None):
    """Textbook CG, preconditioned with ``precondition`` if given, with
    conjugate_gradient's arithmetic order and stopping rule and numpy's
    vector updates; returns the solution and the relative residual
    history, after at most ``max_iter`` iterations."""
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    r = b.copy()
    z = r if precondition is None else precondition(r)
    p = z.copy()
    rz = float(r @ z)
    history = [np.sqrt(float(r @ r)) / bnorm]
    while history[-1] > tol and len(history) <= (max_iter or np.inf):
        Ap = matvec(p)
        alpha = rz / float(p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        rr = float(r @ r)
        history.append(np.sqrt(rr) / bnorm)
        if history[-1] <= tol or not np.isfinite(rr):
            break
        z = r if precondition is None else precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, history


def crank_nicolson_step(op, k: float, u: Field) -> Field:
    """``steppers.cn_step`` from the references above: ``reference_cg``
    on (I - k/2 L) w = (I + k/2 L) u with ``apply``, preconditioned by
    ``adi_product`` with kappa_a = k/2, kappa_b = k/4 and the Jacobi
    weights CN_JACOBI_WEIGHT / (1 - k/2 diag L), to relative residual
    1e-12."""
    grid, half = op.grid, 0.5 * k
    jacobi = CN_JACOBI_WEIGHT / (1.0 - half * op.diagonal_l().values)

    def matvec(p):
        return apply(op, "l", Field(grid, p.reshape(grid.n, grid.n)), -half).values.ravel()

    def precondition(r):
        return adi_product(op, half, 0.25 * k, r.reshape(grid.n, grid.n), jacobi).ravel()

    x, _ = reference_cg(matvec, apply(op, "l", u, half).values.ravel(), 1e-12,
                        precondition)
    return Field(grid, x.reshape(grid.n, grid.n))
