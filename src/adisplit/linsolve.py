"""Solvers for the full 2D operator.

``solve_lh`` solves L v = f with a fast direct solver that diagonalizes the
Kronecker-sum structure with two 1D symmetric-tridiagonal
eigendecompositions, taken by numpy's dense ``eigh``.  The same eigenvalues
give the closed-form stability certificate
(``operators.stability_certificate``).  ``conjugate_gradient``
serves Crank-Nicolson's system I - k/2 L, with the tolerance and iteration
cap of a ``LinearSolverHandle``, on vectors the caller owns.
``power_iteration``, a 2-norm estimate the package does not call, stays
while the benchmark's span recorder traces it.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernel
from .grid import SAFE_NORM_RANGE, Field, scale_exponent

logger = logging.getLogger(__name__)


class NonConvergenceError(RuntimeError):
    """Iterative solve missed its tolerance; carries the residual history."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals) if residuals is not None else []


class NonFiniteError(ValueError, FloatingPointError):
    """CG's right-hand side is not finite: bad input, and in a run that
    formed it from finite values, an overflow, as evolve's non-finite
    field is."""


@dataclass
class LinearSolverHandle:
    """Stopping rule of Crank-Nicolson's CG solve of I - k/2 L.

    ``cn_step`` is the only reader: CG, preconditioned with the ADI
    resolvents, stops at relative residual ``tol`` and raises
    NonConvergenceError after ``max_iter`` iterations (None: 10 per
    unknown; otherwise a positive integer, bool excluded).
    """

    tol: float = 1e-12
    max_iter: int | None = None

    def __post_init__(self):
        if not 0.0 < self.tol <= 1e-2:
            raise ValueError(f"tol must be in (0, 1e-2], got {self.tol}")
        if self.max_iter is not None and (
                isinstance(self.max_iter, bool)
                or not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 1):
            raise ValueError(
                f"max_iter must be None or a positive integer, got {self.max_iter!r}")


def _identity(r: np.ndarray) -> np.ndarray:
    return r


def _vector(name: str, v, shape) -> np.ndarray:
    """v, if the compiled updates can take it: a C-contiguous float64
    array of ``shape``."""
    if not (isinstance(v, np.ndarray) and v.shape == shape
            and v.dtype == np.float64 and v.flags.c_contiguous):
        raise ValueError(
            f"CG's {name} must be a C-contiguous float64 array of shape {shape}, "
            f"got {getattr(v, 'dtype', type(v).__name__)} {getattr(v, 'shape', '')}")
    return v


def conjugate_gradient(
    matvec: Callable[[np.ndarray], np.ndarray],
    r: np.ndarray,
    x: np.ndarray,
    p: np.ndarray,
    tol: float = 1e-12,
    max_iter: int | None = None,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """CG for an SPD operator, relative-residual stopping rule; returns x.

    The solve runs on three vectors the caller owns, distinct writeable
    C-contiguous float64 arrays of one shape, checked once per solve:
    ``r`` holds the right-hand side b on entry and the residual
    afterwards, ``x`` receives the solution and ``p`` the search
    directions.  ``precondition`` applies an SPD approximation of the
    inverse to a residual, which makes this preconditioned CG; the
    stopping rule still measures the plain residual ||b - A x|| / ||b||.
    With ``None`` it is plain CG.  ``matvec(p)`` and ``precondition(r)``
    return C-contiguous float64 vectors of r's shape, each checked unless
    it is the array that function returned last time.
    Either may return a buffer that it overwrites on its next call, and
    the preconditioner may overwrite ``A p``: CG is done with ``A p``
    before it preconditions, and with ``z`` (copied into or added to
    ``p``) before its next matvec.  ``matvec`` must not keep the vector
    it is given.  Dot products are numpy's ``@``, BLAS ddot: their bits
    depend on the BLAS and its thread count, and repeated solves of a
    system in one process give bitwise-identical iterates.
    Each solve's iteration count and final relative residual are logged
    at DEBUG.  x += alpha p with r -= alpha A p, and p = p beta + z, each
    run as one pass of the compiled kernel (``_kernel.load()``, called per
    solve, so even a dense system loads or builds it), with the bits of
    those numpy expressions.  A non-finite b raises
    NonFiniteError before any iteration and leaves r as it was.  A finite
    b whose norm leaves SAFE_NORM_RANGE is solved scaled by a power of two
    in r, which scales every iterate exactly, and the solution is scaled
    back.
    """
    for name, v in (("r", r), ("x", x), ("p", p)):
        if not _vector(name, v, np.shape(r)).flags.writeable:
            raise ValueError(f"CG's {name} must be writeable")
    if any(np.may_share_memory(a, b) for a, b in ((r, x), (r, p), (x, p))):
        raise ValueError("CG's r, x and p must not overlap")
    with np.errstate(over="ignore"):
        bnorm = float(np.linalg.norm(r))
    scale = 0
    x.fill(0.0)
    if not SAFE_NORM_RANGE[0] <= bnorm <= SAFE_NORM_RANGE[1]:
        if not np.isfinite(r).all():
            raise NonFiniteError(f"CG right-hand side is not finite (norm {bnorm})")
        if not r.any():
            return x
        scale = scale_exponent(r)
        np.ldexp(r, -scale, out=r)
        bnorm = float(np.linalg.norm(r))
    if max_iter is None:
        max_iter = 10 * r.size
    if precondition is None:
        precondition = _identity
    kernel = _kernel.load()
    at = x.ctypes.data, r.ctypes.data, p.ctypes.data
    seen = {}

    def address(name, v):
        """v's address, checked unless v is what ``name`` was last time."""
        known = seen.get(name)
        if known is None or known[0] is not v:
            known = seen[name] = _vector(name, v, r.shape), v.ctypes.data
        return known[1]

    z = precondition(r)
    address("z", z)
    np.copyto(p, z)
    rz = float(r @ z)
    history = [np.sqrt(float(r @ r)) / bnorm]
    iterations = 0
    while history[-1] > tol and iterations < max_iter:
        iterations += 1
        Ap = matvec(p)
        at_ap = address("A p", Ap)
        alpha = rz / float(p @ Ap)
        kernel.adisplit_cg_step(r.size, alpha, at[2], at_ap, *at[:2])
        rr = float(r @ r)
        history.append(np.sqrt(rr) / bnorm)
        if history[-1] <= tol or not np.isfinite(rr):
            break
        z = precondition(r)
        at_z = address("z", z)
        rz_new = float(r @ z)
        # z + beta p: IEEE addition commutes, so updating p in place keeps
        # the bits
        kernel.adisplit_cg_direction(r.size, rz_new / rz, at_z, at[2])
        rz = rz_new
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("CG: %d iterations, relative residual %.3e",
                     iterations, history[-1])
    if history[-1] <= tol:
        return np.ldexp(x, scale, out=x) if scale else x
    raise NonConvergenceError(
        f"CG did not reach relative residual {tol} in {iterations} iterations "
        f"(last residual {history[-1]:.3e})",
        residuals=history,
    )


class KroneckerFactorization:
    """Fast direct solver for the 2D stiffness sum K_A + K_B.

    After symmetrizing with the diagonal coefficient matrix D, the sum
    becomes a Kronecker sum of two symmetric tridiagonal matrices; their
    eigendecompositions reduce each solve to two dense 1D transforms per
    direction and one diagonal division over pairwise eigenvalue sums.
    """

    def __init__(self, op):
        dl = op.d_lambda
        dm = op.d_mu
        self.dl_isqrt = 1.0 / np.sqrt(dl)
        self.dm_isqrt = 1.0 / np.sqrt(dm)
        s_lam_diag = op.k_lambda.diag / dl
        s_lam_off = op.k_lambda.off * self.dl_isqrt[:-1] * self.dl_isqrt[1:]
        s_mu_diag = op.k_mu.diag / dm
        s_mu_off = op.k_mu.off * self.dm_isqrt[:-1] * self.dm_isqrt[1:]
        self.theta_lam, self.v_lam = _eigh_tridiagonal(s_lam_diag, s_lam_off)
        self.theta_mu, self.v_mu = _eigh_tridiagonal(s_mu_diag, s_mu_off)
        if np.min(self.theta_lam) < -1e-10 or np.min(self.theta_mu) < -1e-10:
            raise RuntimeError("symmetrized 1D stiffness has a negative eigenvalue")
        # (j, i)-shaped denominator of eigenvalue sums
        self.denom = self.theta_mu[:, None] + self.theta_lam[None, :]

    def solve_stiffness(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (K_A + K_B) x = rhs for a (n, n) array with rows indexed by
        j, in two field-sized arrays that take each product (matmul's
        ``out``) and each scaling in place, with the expression's bits."""
        w = np.outer(self.dm_isqrt, self.dl_isqrt)
        c = np.matmul(self.v_mu.T, np.multiply(rhs, w, out=w))
        np.divide(np.matmul(c, self.v_lam, out=w), self.denom, out=w)
        np.matmul(np.matmul(self.v_mu, w, out=c), self.v_lam.T, out=w)
        return np.multiply(w, np.outer(self.dm_isqrt, self.dl_isqrt, out=c), out=w)


def _eigh_tridiagonal(diag: np.ndarray, off: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of the symmetric tridiagonal
    matrix (diag, off), by numpy's dense ``eigh``.

    LAPACK dsyevd leaves a matrix that is already tridiagonal as it is and
    ends in dstedc, as SciPy's ``eigh_tridiagonal`` (driver stevd) does, so
    both give the same eigenpairs, for O(n^3) time and O(n^2) memory.
    The eigenvectors are returned in Fortran order, as SciPy returns them:
    the BLAS products in ``solve_stiffness`` round differently for the
    other layout.
    """
    theta, v = np.linalg.eigh(np.diag(diag) + np.diag(off, -1) + np.diag(off, 1))
    return theta, np.asfortranarray(v)


def kronecker_direct_prepare(op) -> KroneckerFactorization:
    """Build (and cache on the operator) the fast-diagonalization factors."""
    if op._kron_factorization is None:
        op._kron_factorization = KroneckerFactorization(op)
    return op._kron_factorization


def solve_lh(op, f: Field) -> Field:
    """Solve L v = f, i.e. the SPD system (K_A + K_B) v = -h^2 f, with the
    operator's cached Kronecker factorization."""
    rhs = -(op.grid.h ** 2) * f.values
    return Field(op.grid, kronecker_direct_prepare(op).solve_stiffness(rhs))


@dataclass
class PowerIterationResult:
    value: float
    converged: bool
    iterations: int


def power_iteration(
    forward: Callable[[np.ndarray], np.ndarray],
    adjoint: Callable[[np.ndarray], np.ndarray],
    n: int,
    iters: int = 200,
    tol: float = 1e-8,
    seed: int = 1234,
) -> PowerIterationResult:
    """Estimate the 2-norm of G by power iteration on G^T G.

    Runs at least ``iters`` iterations or until the estimate's relative
    change drops below ``tol``; a miss returns the best estimate flagged
    as unconverged.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    est = 0.0
    for it in range(1, iters + 1):
        w = adjoint(forward(v))
        wn = float(np.linalg.norm(w))
        if wn == 0.0:
            return PowerIterationResult(0.0, True, it)
        new_est = float(np.sqrt(wn))  # ||G^T G v|| -> sigma_max^2
        v = w / wn
        if est > 0.0 and abs(new_est - est) <= tol * est:
            return PowerIterationResult(new_est, True, it)
        est = new_est
    return PowerIterationResult(est, False, iters)

