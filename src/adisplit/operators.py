"""Quadrature-FEM matrices and the dimension-split diffusion operator.

The 2D operator splits as L = A + B where A acts along x with coefficient
lambda(x)*mu(y) and B along y.  With trapezoidal quadrature the mass matrix
is h^2*I and the stiffness matrices factor into Kronecker products of a 1D
tridiagonal stiffness matrix and a diagonal coefficient matrix, so A and B
apply line by line and each resolvent reduces to one SPD tridiagonal
system per grid line.  The lines are factored by LAPACK dpttrf and solved
by a small compiled kernel (``_tridiag.c``) that sweeps many lines side by
side; the same kernel applies A, B or L as one five-point stencil pass.
It is built with ``cc`` on its first use (a resolvent solve or an
application) into a per-user cache.  Where it cannot be built the solves
fall back to LAPACK dpttrs and the applications to numpy, with the same
results.  ``apply_l``, the resolvents and the Cayley transforms return a
new field, or, given ``out=``, write into that C-contiguous float64
(n, n) array, which must not overlap the input, and return it wrapped as
a field; the time-stepping loops reuse their buffers this way.

The stability assumption ||A L^{-1}||_h <= sqrt(|lambda|_inf |mu|_inf /
(lambda_0 mu_0)) is checked by a closed-form certificate computed from the
eigenvalues of the fast direct solver (``stability_certificate``).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import platform
import subprocess
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np
from scipy.linalg import lapack

from . import linsolve
from .grid import Field, Grid

logger = logging.getLogger(__name__)

COEFF_SAMPLE_POINTS = 10_001
# Resolvent factors kept per operator, least recently used evicted first.
# One step size needs two (DR), two (PR) or three (CN, whose preconditioner
# adds R_B(k/4)) keys, five with all three schemes; at m=1024 a factor
# holds about 16 MB.
FACTOR_CACHE_CAPACITY = 6
# parts argument of the compiled stencil
_PART_A, _PART_B, _PART_SHIFT = 1, 2, 4


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix stored as diagonal and off-diagonal."""

    diag: np.ndarray
    off: np.ndarray  # sub- and super-diagonal, length n-1

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply along the last axis of ``x``."""
        y = self.diag * x
        y[..., 1:] += self.off * x[..., :-1]
        y[..., :-1] += self.off * x[..., 1:]
        return y


def _sample(c, x: np.ndarray) -> np.ndarray:
    """Values of coefficient c at x; a scalar result is broadcast to x's shape."""
    return np.broadcast_to(np.asarray(c(x), dtype=float), x.shape)


def assemble_1d_stiffness(c, grid: Grid) -> TridiagonalMatrix:
    """1D trapezoidal-quadrature stiffness matrix for coefficient c.

    Entries follow the nodal-coefficient formula
        diag[i] = (c(x_{i-1}) + 2 c(x_i) + c(x_{i+1})) / 2,
        off[i]  = -(c(x_i) + c(x_{i+1})) / 2,
    for interior nodes i = 1..m-1.  There is no 1/h factor: the scaling
    pairs with the lumped mass matrix h^2*I.
    """
    cv = _sample(c, grid.nodes())
    diag = 0.5 * (cv[:-2] + 2.0 * cv[1:-1] + cv[2:])
    off = -0.5 * (cv[1:-2] + cv[2:-1])
    return TridiagonalMatrix(diag, off)


@dataclass
class SplitDiffusionOperator:
    """Realizes A, B, L = A + B and their resolvents for lambda(x)*mu(y).

    ``k_lambda`` and ``k_mu`` are the 1D stiffness matrices, ``d_lambda`` and
    ``d_mu`` the coefficient samples at interior nodes.  The full 2D
    stiffness matrices are never formed; every application is a set of
    independent 1D line operations.
    """

    grid: Grid
    k_lambda: TridiagonalMatrix
    k_mu: TridiagonalMatrix
    d_lambda: np.ndarray
    d_mu: np.ndarray
    lambda_inf: float
    mu_inf: float
    lambda_0: float
    mu_0: float
    _factor_cache: OrderedDict = dc_field(default_factory=OrderedDict, repr=False)
    _kron_factorization: object = dc_field(default=None, repr=False)
    # the compiled stencil's coefficient arrays and their addresses
    _stencil_args: tuple = dc_field(default=None, repr=False)

    # -- forward applications -------------------------------------------------

    def apply_a(self, u: Field) -> Field:
        """A u: per x-line, -(mu(y_j)/h^2) * K_lambda acting along i."""
        self._check(u)
        kernel = _kernel()
        if kernel is not None:
            return self._stencil(kernel, _PART_A, u)
        h2 = self.grid.h ** 2
        out = self.k_lambda.matvec(u.values)
        out *= -self.d_mu[:, None] / h2
        return Field(self.grid, out)

    def apply_b(self, u: Field) -> Field:
        """B u: per y-line, -(lambda(x_i)/h^2) * K_mu acting along j."""
        self._check(u)
        kernel = _kernel()
        if kernel is not None:
            return self._stencil(kernel, _PART_B, u)
        h2 = self.grid.h ** 2
        # matvec on the transposed view works along axis 0 without a copy
        out = self.k_mu.matvec(u.values.T).T
        out *= -self.d_lambda[None, :] / h2
        return Field(self.grid, out)

    def apply_l(self, u: Field, sigma: float | None = None, *,
                out: np.ndarray | None = None) -> Field:
        """L u = A u + B u, or (I + sigma L) u = u + sigma L u with ``sigma``."""
        self._check(u, out)
        kernel = _kernel()
        if kernel is not None:
            parts = _PART_A | _PART_B | (_PART_SHIFT if sigma is not None else 0)
            return self._stencil(kernel, parts, u, sigma or 0.0, out)
        lu = self.apply_a(u).values + self.apply_b(u).values
        if sigma is not None:
            lu *= sigma
            lu += u.values
        if out is None:
            return Field(self.grid, lu)
        np.copyto(out, lu)
        return Field(self.grid, out)

    def _stencil(self, kernel, parts: int, u: Field, sigma: float = 0.0,
                 out: np.ndarray | None = None) -> Field:
        """A u, B u or L u (shifted) in one compiled pass, with numpy's bits,
        into ``out`` or a new array.

        The coefficient arrays are made on the first call, so the operator's
        matrices must not be replaced after it has been applied.
        """
        if self._stencil_args is None:
            h2 = self.grid.h ** 2
            arrays = [np.ascontiguousarray(a, dtype=np.float64) for a in (
                self.k_lambda.diag, self.k_lambda.off, -self.d_mu / h2,
                self.k_mu.diag, self.k_mu.off, -self.d_lambda / h2)]
            self._stencil_args = (arrays, [a.ctypes.data for a in arrays])
        n = self.grid.n
        x = np.ascontiguousarray(u.values, dtype=np.float64)
        if x.shape != (n, n):
            raise ValueError(f"stencil needs shape {(n, n)}, got {x.shape}")
        y = np.empty_like(x) if out is None else out
        kernel.adisplit_stencil(n, parts, sigma, *self._stencil_args[1],
                                x.ctypes.data, y.ctypes.data)
        return Field(self.grid, y)

    def diagonal_l(self) -> Field:
        """The diagonal of L as a field (for Jacobi-type preconditioning)."""
        h2 = self.grid.h ** 2
        diag = np.outer(self.d_mu, self.k_lambda.diag)
        diag += np.outer(self.k_mu.diag, self.d_lambda)
        diag /= -h2
        return Field(self.grid, diag)

    # -- resolvents -----------------------------------------------------------

    def solve_resolvent_a(self, kappa: float, rhs: Field, *,
                          out: np.ndarray | None = None) -> Field:
        """Solve (I - kappa*A) w = rhs, one tridiagonal system per x-line."""
        return self._line_solve("a", kappa, rhs, False, out)

    def solve_resolvent_b(self, kappa: float, rhs: Field, *,
                          out: np.ndarray | None = None) -> Field:
        """Solve (I - kappa*B) w = rhs, one tridiagonal system per y-line."""
        return self._line_solve("b", kappa, rhs, False, out)

    def cayley_a(self, kappa: float, u: Field, *,
                 out: np.ndarray | None = None) -> Field:
        """Cayley transform (I + kappa*A)(I - kappa*A)^{-1} u = 2 R_A u - u."""
        return self._line_solve("a", kappa, u, True, out)

    def cayley_b(self, kappa: float, u: Field, *,
                 out: np.ndarray | None = None) -> Field:
        """Cayley transform (I + kappa*B)(I - kappa*B)^{-1} u = 2 R_B u - u."""
        return self._line_solve("b", kappa, u, True, out)

    def _line_solve(self, axis: str, kappa: float, rhs: Field, reflect: bool,
                    out: np.ndarray | None) -> Field:
        self._check(rhs, out)
        return Field(self.grid,
                     self._factors(axis, kappa).solve(rhs.values, reflect, out))

    def _factors(self, axis: str, kappa: float):
        """L D L^T factor of I - kappa*A (axis "a") or I - kappa*B (axis "b").

        All n line systems I + gamma_r K are concatenated into one SPD
        tridiagonal matrix of order n^2 whose off-diagonal is zero where one
        line meets the next, so the factor never couples two lines.  It is
        kept in the order the solver sweeps it: the compiled kernel's when
        it loads, dpttrs's otherwise.
        """
        if kappa <= 0.0:
            raise ValueError(f"resolvent step kappa must be positive, got {kappa}")
        key = (axis, kappa)
        fac = self._factor_cache.get(key)
        if fac is not None:
            self._factor_cache.move_to_end(key)
        else:
            k1d, coef = (
                (self.k_lambda, self.d_mu) if axis == "a" else (self.k_mu, self.d_lambda)
            )
            gamma = kappa * coef / self.grid.h ** 2
            d = (1.0 + np.outer(gamma, k1d.diag)).ravel()
            e = np.outer(gamma, np.append(k1d.off, 0.0)).ravel()[:-1]
            if d.size > 1:  # the LAPACK wrapper rejects the empty off-diagonal
                d, e, info = lapack.dpttrf(d, e)
                _check_lapack("dpttrf", info)
            kernel = _kernel()
            if kernel is None:
                fac = _LapackFactor(axis, d, e)
            else:
                fac = _KernelFactor(kernel, axis, self.grid.n, d, e)
            self._factor_cache[key] = fac
            if len(self._factor_cache) > FACTOR_CACHE_CAPACITY:
                self._factor_cache.popitem(last=False)
        return fac

    def _check(self, u: Field, out: np.ndarray | None = None) -> None:
        """Reject a field of another grid and an ``out`` the kernels cannot
        write: of the wrong shape or dtype, not C-contiguous, read-only, or
        sharing memory with the input."""
        if u.grid != self.grid:
            raise ValueError(
                f"field grid m={u.grid.m} does not match operator grid m={self.grid.m}"
            )
        if out is None:
            return
        n = self.grid.n
        if not (isinstance(out, np.ndarray) and out.shape == (n, n)
                and out.dtype == np.float64 and out.flags.c_contiguous
                and out.flags.writeable):
            raise ValueError(
                f"out must be a writeable C-contiguous float64 array of shape "
                f"{(n, n)}, got {getattr(out, 'dtype', type(out).__name__)} "
                f"{getattr(out, 'shape', '')}"
            )
        if np.may_share_memory(out, u.values):
            raise ValueError("out must not overlap the input field")


def _check_lapack(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(
            f"LAPACK {routine} failed with info={info}"
            + (" (matrix not positive definite)" if info > 0 else "")
        )


class _KernelFactor:
    """A dpttrf factor in the compiled kernel's sweep order.

    Axis "b" lines run along axis 0 of the C-ordered field, so the factor is
    transposed to [position][line] and all lines sweep together, row by
    row, directly on the field.  Axis "a" lines are contiguous; the kernel sweeps them in
    tiles of ``adisplit_tile`` lines, so the factor is stored
    [tile][position][line], padded with identity lines (d = 1, e = 0) to
    whole tiles.
    """

    def __init__(self, kernel, axis: str, n: int, d: np.ndarray, e: np.ndarray):
        d = d.reshape(n, n)
        e = np.append(e, 0.0).reshape(n, n)  # e[line, n-1] is never read
        if axis == "b":
            self.d, self.e = d.T.copy(), e.T.copy()
            self._solve = kernel.adisplit_solve_strided
        else:
            tile = ctypes.c_long.in_dll(kernel, "adisplit_tile").value
            lines = -(-n // tile) * tile
            self.d = np.ones((lines, n))
            self.e = np.zeros((lines, n))
            self.d[:n], self.e[:n] = d, e
            self.d = self.d.reshape(-1, tile, n).transpose(0, 2, 1).copy()
            self.e = self.e.reshape(-1, tile, n).transpose(0, 2, 1).copy()
            self._solve = kernel.adisplit_solve_contiguous
        self.n = n
        self._d_ptr, self._e_ptr = self.d.ctypes.data, self.e.ctypes.data

    def solve(self, rhs: np.ndarray, reflect: bool,
              out: np.ndarray | None = None) -> np.ndarray:
        """R rhs, or 2 R rhs - rhs with ``reflect``, into ``out`` or a new
        C-ordered array."""
        r = np.ascontiguousarray(rhs, dtype=np.float64)
        if r.shape != (self.n, self.n):
            raise ValueError(f"line solve needs shape {(self.n, self.n)}, got {r.shape}")
        x = np.empty_like(r) if out is None else out
        if self._solve(self.n, self._d_ptr, self._e_ptr,
                       r.ctypes.data, x.ctypes.data, reflect) != 0:
            raise MemoryError("tridiagonal kernel could not allocate its tile")
        return x


class _LapackFactor:
    """A dpttrf factor over contiguous lines, solved by one dpttrs call.

    Used where the compiled kernel is unavailable; axis "b" lines are
    transposed to contiguous rows and back around the solve.
    """

    def __init__(self, axis: str, d: np.ndarray, e: np.ndarray):
        self.axis, self.d, self.e = axis, d, e

    def solve(self, rhs: np.ndarray, reflect: bool,
              out: np.ndarray | None = None) -> np.ndarray:
        """R rhs, or 2 R rhs - rhs with ``reflect``, copied into ``out`` or
        in a new C-ordered array."""
        lines = rhs.T if self.axis == "b" else rhs
        if self.d.size == 1:
            x = lines / self.d
        else:
            x, info = lapack.dpttrs(self.d, self.e, lines.ravel())
            _check_lapack("dpttrs", info)
            x = x.reshape(lines.shape)
        if self.axis == "b":
            x = np.ascontiguousarray(x.T)
        if reflect:
            x = 2.0 * x - rhs
        if out is None:
            return x
        np.copyto(out, x)
        return out


_KERNEL_SOURCE = Path(__file__).with_name("_tridiag.c")
# -ffp-contract=off keeps dpttrs's rounding (no fused multiply-add); no
# -march flag, so the cached library runs on any machine of its architecture
_KERNEL_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


@functools.cache
def _kernel():
    """The compiled line kernel, built on first use, or None.

    None means it could not be built or loaded; the reason is logged once
    and every resolvent then uses LAPACK dpttrs, with the same results.
    """
    try:
        lib = ctypes.CDLL(str(_build_kernel()))
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        logger.warning("compiled tridiagonal kernel unavailable, using LAPACK "
                       "dpttrs: %s", detail)
        return None
    for fn in (lib.adisplit_solve_strided, lib.adisplit_solve_contiguous):
        fn.argtypes = (ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p,
                       ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int)
        fn.restype = ctypes.c_int
    lib.adisplit_stencil.argtypes = (ctypes.c_long, ctypes.c_int, ctypes.c_double,
                                     *[ctypes.c_void_p] * 8)
    lib.adisplit_stencil.restype = None
    return lib


def _build_kernel() -> Path:
    """Path of the kernel library in the per-user cache, compiling it if absent.

    The file is named by a hash of the source, the flags and the machine
    architecture and is compiled into a temporary file that is then renamed
    into place, so concurrent builds never load a partial library.
    """
    key = " ".join((*_KERNEL_FLAGS, platform.machine())).encode()
    tag = hashlib.sha256(_KERNEL_SOURCE.read_bytes() + key).hexdigest()[:16]
    base = os.environ.get("XDG_CACHE_HOME", "")
    cache = Path(base if os.path.isabs(base) else Path.home() / ".cache") / "adisplit"
    target = cache / f"_tridiag-{tag}.so"
    if target.exists():
        return target
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so")
    os.close(fd)
    try:
        subprocess.run(["cc", *_KERNEL_FLAGS, "-o", tmp, str(_KERNEL_SOURCE)],
                       check=True, capture_output=True, text=True)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def assemble_split_operator(lam, mu, grid: Grid) -> SplitDiffusionOperator:
    """Build the split operator for coefficients lambda(x) and mu(y).

    Coefficient extrema are estimated by dense sampling on a uniform grid of
    COEFF_SAMPLE_POINTS points; a non-positive sample is rejected.
    """
    xs = np.linspace(0.0, 1.0, COEFF_SAMPLE_POINTS)
    lam_s = _sample(lam, xs)
    mu_s = _sample(mu, xs)
    if np.min(lam_s) <= 0.0 or np.min(mu_s) <= 0.0:
        raise ValueError("coefficients must be strictly positive on [0,1]")
    xi = grid.interior_nodes()
    return SplitDiffusionOperator(
        grid=grid,
        k_lambda=assemble_1d_stiffness(lam, grid),
        k_mu=assemble_1d_stiffness(mu, grid),
        d_lambda=_sample(lam, xi),
        d_mu=_sample(mu, xi),
        lambda_inf=float(np.max(lam_s)),
        mu_inf=float(np.max(mu_s)),
        lambda_0=float(np.min(lam_s)),
        mu_0=float(np.min(mu_s)),
    )


def stability_bound(op: SplitDiffusionOperator) -> float:
    """Coefficient-extrema bound sqrt(|lambda|_inf |mu|_inf / (lambda_0 mu_0))."""
    return float(
        np.sqrt(op.lambda_inf * op.mu_inf / (op.lambda_0 * op.mu_0))
    )


def stability_certificate(op: SplitDiffusionOperator) -> float:
    """Closed-form upper bound on the operator norm of A L^{-1} in ||.||_h.

    With D = D_mu (x) D_lambda and S = D^{1/2}, the stiffness matrices are
    K_A = S (I (x) S_lambda) S and K_B = S (S_mu (x) I) S, where S_lambda and
    S_mu are the symmetrized 1D stiffness matrices whose eigendecompositions
    the fast direct solver holds.  Hence A L^{-1} = S Q M Q^T S^{-1} with Q
    orthogonal and M = diag(theta_lambda,i / (theta_lambda,i + theta_mu,j)),
    and
        ||A L^{-1}||_h <= sqrt(max D / min D)
                          * theta_lambda,max / (theta_lambda,max + theta_mu,min).
    The bound is attained when D is a multiple of I (constant coefficients).
    """
    fac = linsolve.kronecker_direct_prepare(op)
    d_max = np.max(op.d_mu) * np.max(op.d_lambda)
    d_min = np.min(op.d_mu) * np.min(op.d_lambda)
    lam_max, mu_min = np.max(fac.theta_lam), np.min(fac.theta_mu)
    return float(np.sqrt(d_max / d_min) * lam_max / (lam_max + mu_min))
