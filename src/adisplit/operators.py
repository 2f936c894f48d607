"""Quadrature-FEM matrices and the dimension-split diffusion operator.

The 2D operator splits as L = A + B where A acts along x with coefficient
lambda(x)*mu(y) and B along y.  With trapezoidal quadrature the mass matrix
is h^2*I and the stiffness matrices factor into Kronecker products of a 1D
tridiagonal stiffness matrix and a diagonal coefficient matrix, so A and B
apply line by line and each resolvent reduces to one SPD tridiagonal system
per grid line.  The lines are factored and solved by a small compiled
kernel (``_tridiag.c``) that sweeps many lines side by side with the
arithmetic of LAPACK's dpttrf and dpttrs.  Its factors keep dpttrf's
multipliers only, one field's worth: each sweep recomputes the pivots from
them bit for bit.  The same kernel applies A, B or L as one five-point
stencil pass, and runs the Cayley recurrence t <- C_A C_B t, or its
average with t, for many steps per call (``cayley_loop``), on two threads
from m = 256 where two CPUs are available.  The loop knows no scheme:
``steppers.evolve`` builds the DR and PR runs from it, and this module
never imports the steppers.  It is built with ``cc`` for the host CPU on
the first resolvent solve or application in a process (never on import)
into a per-user cache, by :mod:`adisplit._kernel`, which raises
KernelUnavailableError where it cannot be built.  The package needs numpy
and ``cc`` only.
``apply_l``, the resolvents and the Cayley transforms return a new field,
or, given ``out=``, write into that (n, n) array (``grid.check_buffers``),
which must not overlap the input, and return it wrapped as a field.  A
Crank-Nicolson run binds its preconditioner, an ADI product, to its own
fields once (``bind_adi_product``), and CG calls it as it is.

The stability assumption ||A L^{-1}||_h <= sqrt(|lambda|_inf |mu|_inf /
(lambda_0 mu_0)) is checked by a closed-form certificate computed from the
eigenvalues of the fast direct solver (``stability_certificate``).
"""

from __future__ import annotations

import ctypes
import functools
import logging
import os
from collections import OrderedDict
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _kernel, linsolve
from .grid import Field, Grid, check_buffers

logger = logging.getLogger(__name__)

COEFF_SAMPLE_POINTS = 10_001
# Resolvent factors kept per operator, least recently used evicted first.
# One step size needs two keys for each scheme: R_A(k) and R_B(k) (DR),
# R_A(k/2) and R_B(k/2) (PR), R_A(k/2) and R_B(k/4) (CN's
# preconditioner), five with all three schemes; at m=1024 a factor holds
# about 8 MB.
FACTOR_CACHE_CAPACITY = 6
# parts argument of the compiled stencil
_PART_A, _PART_B, _PART_SHIFT = 1, 2, 4
# Interior unknowns x steps per call of the compiled Cayley loop: a few
# tens of ms, after which Python gets to handle a pending Ctrl-C.
_LOOP_WORK = 2 ** 23
# From this m up the loop splits every sweep over two threads, where the
# process may run on two CPUs.  Each sweep then moves half the field
# between the cores, which below it costs what the second core saves: a PR
# step took 3.3 ns per unknown on one thread and on two at m=91, and 3.3
# against 2.5 at m=256 (tools/kerneltime.py).
_LOOP_THREADS_FROM_M = 256


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix stored as diagonal and off-diagonal."""

    diag: np.ndarray
    off: np.ndarray  # sub- and super-diagonal, length n-1


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

    @functools.cached_property
    def _lib(self):
        """The compiled kernel, loaded at the operator's first application
        or solve."""
        return _kernel.load()

    # -- forward applications -------------------------------------------------

    def apply_a(self, u: Field) -> Field:
        """A u: per x-line, -(mu(y_j)/h^2) * K_lambda acting along i."""
        return self._stencil(_PART_A, u)

    def apply_b(self, u: Field) -> Field:
        """B u: per y-line, -(lambda(x_i)/h^2) * K_mu acting along j."""
        return self._stencil(_PART_B, u)

    def apply_l(self, u: Field, sigma: float | None = None, *,
                out: np.ndarray | None = None) -> Field:
        """L u = A u + B u, or (I + sigma L) u = u + sigma L u with ``sigma``."""
        shift = 0 if sigma is None else _PART_SHIFT
        return self._stencil(_PART_A | _PART_B | shift, u, sigma or 0.0, out)

    def _stencil(self, parts: int, u: Field, sigma: float = 0.0,
                 out: np.ndarray | None = None) -> Field:
        """A u, B u or A u + B u as ``parts`` selects, with _PART_SHIFT
        u + sigma times that, into ``out`` or a new array, in one compiled
        pass."""
        self._check(u, out)
        x = np.ascontiguousarray(u.values, dtype=np.float64)
        y = np.empty_like(x) if out is None else out
        self._lib.adisplit_stencil(self.grid.n, parts, sigma,
                                   *self._stencil_args[1], x.ctypes.data,
                                   y.ctypes.data)
        return Field(self.grid, y)

    @functools.cached_property
    def _stencil_args(self) -> tuple:
        """The compiled stencil's coefficient arrays and their addresses,
        made on its first call, so the operator's matrices must not be
        replaced after it has been applied."""
        h2 = self.grid.h ** 2
        arrays = [np.ascontiguousarray(a, dtype=np.float64) for a in (
            self.k_lambda.diag, self.k_lambda.off, -self.d_mu / h2,
            self.k_mu.diag, self.k_mu.off, -self.d_lambda / h2)]
        return arrays, [a.ctypes.data for a in arrays]

    def diagonal_l(self, *, out: np.ndarray | None = None) -> Field:
        """The diagonal of L as a field (for Jacobi-type preconditioning),
        in ``out`` if given."""
        h2 = self.grid.h ** 2
        diag = np.outer(self.d_mu, self.k_lambda.diag, out=out)
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

    def cayley_loop(self, kappa: float, n_steps: int, u: Field, *,
                    out: np.ndarray, average: bool) -> Field:
        """n_steps >= 0 steps of t <- C_A C_B t on u's array, or with
        ``average`` of t <- (t + C_A C_B t) / 2, where
        C_X = (I + kappa X)(I - kappa X)^{-1}.

        Every transform has the bits of ``cayley_a``/``cayley_b``.  u's
        array (C-contiguous float64) is overwritten with the result, which
        is returned as u; ``out`` is scratch.  The compiled kernel runs the
        loop in calls of about ``_LOOP_WORK`` unknowns x steps, none for
        n_steps = 0, on two threads from m = ``_LOOP_THREADS_FROM_M``
        (256) where the process may use two CPUs: a PR step at m = 256
        then takes about 0.17 ms, against 0.21 ms on one.  Logs one DEBUG
        line.
        """
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {n_steps}")
        n = self.grid.n
        self._check(u)
        check_buffers((n, n), u=u.values, out=out)
        calls, threads = 0, 1
        if n_steps:
            fac_a, fac_b = self._factors("a", kappa), self._factors("b", kappa)
            want = 2 if self.grid.m >= _LOOP_THREADS_FROM_M and _cpus() >= 2 else 1
            per_call = max(1, _LOOP_WORK // (n * n))
            for done in range(0, n_steps, per_call):
                threads = self._lib.adisplit_cayley_loop(
                    n, min(per_call, n_steps - done), average, want,
                    fac_a.c_ptr, fac_a.e_ptr, fac_b.c_ptr, fac_b.e_ptr,
                    u.values.ctypes.data, out.ctypes.data)
                if threads < 0:
                    raise MemoryError("Cayley loop could not allocate its tiles")
                calls += 1
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("cayley loop: average=%s m=%d steps=%d kernel_calls=%d "
                         "threads=%d", average, self.grid.m, n_steps, calls,
                         threads)
        return u

    def bind_adi_product(self, kappa_a: float, kappa_b: float, *,
                         r: np.ndarray, weight: np.ndarray, out: np.ndarray,
                         scratch: np.ndarray):
        """A callable that writes R_B(kappa_b) R_A(kappa_a) R_B(kappa_b) r
        + weight * r into ``out``, for what ``r`` holds at each call, with
        ``scratch`` as the middle field.

        Checked here, once (``grid.check_buffers``): each array is a
        writeable C-contiguous float64 (n, n) array, and out and scratch
        overlap neither each other nor an input; the inputs r and weight
        may overlap.  The factors and addresses are taken here too, so a
        call is three line solves and the sum, each with the bits of
        ``solve_resolvent_a``/``_b`` and of numpy's out + weight * r
        (``adisplit_add_weighted``)."""
        shape = (self.grid.n, self.grid.n)
        check_buffers(shape, r=r, out=out, scratch=scratch)
        check_buffers(shape, weight=weight, out=out, scratch=scratch)
        arrays = dict(r=r, weight=weight, out=out, scratch=scratch)
        fac_a, fac_b = self._factors("a", kappa_a), self._factors("b", kappa_b)
        add, size = self._lib.adisplit_add_weighted, r.size
        at_r, at_w, at_o, at_s = (a.ctypes.data for a in arrays.values())

        def product(arrays=arrays):  # the default keeps the arrays alive
            fac_b.solve_at(at_r, at_o, False)
            fac_a.solve_at(at_o, at_s, False)
            fac_b.solve_at(at_s, at_o, False)
            add(size, at_w, at_r, at_o)
        return product

    def _line_solve(self, axis: str, kappa: float, rhs: Field, reflect: bool,
                    out: np.ndarray | None) -> Field:
        self._check(rhs, out)
        return Field(self.grid,
                     self._factors(axis, kappa).solve(rhs.values, reflect, out))

    def _factors(self, axis: str, kappa: float):
        """L D L^T factor of I - kappa*A (axis "a") or I - kappa*B (axis "b").

        One SPD tridiagonal system I + gamma_r K per grid line, factored
        with dpttrf's arithmetic and kept in the order the compiled
        kernel sweeps it.
        """
        if not 0.0 < kappa < np.inf:
            raise ValueError(
                f"resolvent step kappa must be positive and finite, got {kappa}")
        key = (axis, kappa)
        fac = self._factor_cache.get(key)
        if fac is not None:
            self._factor_cache.move_to_end(key)
        else:
            k1d, coef = (
                (self.k_lambda, self.d_mu) if axis == "a" else (self.k_mu, self.d_lambda)
            )
            gamma = kappa * coef / self.grid.h ** 2
            fac = _KernelFactor(self._lib, axis, gamma, k1d)
            self._factor_cache[key] = fac
            if len(self._factor_cache) > FACTOR_CACHE_CAPACITY:
                self._factor_cache.popitem(last=False)
        return fac

    def _check(self, u: Field, out: np.ndarray | None = None) -> None:
        """Reject a field of another grid and an ``out`` the kernels cannot
        write (``grid.check_buffers``) or that shares memory with the
        input, whose values may have any layout."""
        if u.grid != self.grid:
            raise ValueError(
                f"field grid m={u.grid.m} does not match operator grid m={self.grid.m}"
            )
        if out is None:
            return
        check_buffers((self.grid.n, self.grid.n), out=out)
        if np.may_share_memory(out, u.values):
            raise ValueError("out must not overlap the input field")


class _KernelFactor:
    """A line factor in the compiled kernel's sweep order, formed by the
    kernel (``adisplit_factor``): dpttrf's multipliers ``e`` and the line
    coefficients ``c`` (K's diagonal and off-diagonal, then gamma per
    line), from which every sweep recomputes dpttrf's pivots bit for bit.

    e is stored [block][position][line].  Axis "b" lines run along axis 0
    of the C-ordered field, so they form one block and all sweep together,
    row by row, directly on the field.  Axis "a" lines are contiguous; the
    kernel sweeps them in tiles of ``adisplit_tile`` lines, one block each,
    padded to whole tiles with identity lines (gamma = 0, e = 0).
    """

    def __init__(self, kernel, axis: str, gamma: np.ndarray, k1d: TridiagonalMatrix):
        n = gamma.size
        if axis == "b":
            width, self._solve = n, kernel.adisplit_solve_strided
        else:
            width = ctypes.c_long.in_dll(kernel, "adisplit_tile").value
            self._solve = kernel.adisplit_solve_contiguous
        # adisplit_factor stores no zeros: e's last positions and padding
        # lines keep np.zeros's
        self.e = np.zeros((-(-n // width), n, width))
        self.c = np.concatenate((k1d.diag, k1d.off, gamma,
                                 np.zeros(-n % width)), dtype=np.float64)
        self.n = n
        self.c_ptr, self.e_ptr = self.c.ctypes.data, self.e.ctypes.data
        pivots = np.empty(width)  # one position's, scratch of the factor
        if kernel.adisplit_factor(n, width, self.c_ptr, pivots.ctypes.data,
                                  self.e_ptr):
            raise np.linalg.LinAlgError(
                "resolvent factor has a non-positive pivot: the line system "
                "is not positive definite")

    def solve(self, rhs: np.ndarray, reflect: bool,
              out: np.ndarray | None = None) -> np.ndarray:
        """R rhs, or 2 R rhs - rhs with ``reflect``, into ``out`` or a new
        C-ordered array."""
        r = np.ascontiguousarray(rhs, dtype=np.float64)
        x = np.empty_like(r) if out is None else out
        self.solve_at(r.ctypes.data, x.ctypes.data, reflect)
        return x

    def solve_at(self, r: int, x: int, reflect: bool) -> None:
        """``solve`` between the C-ordered float64 fields at addresses r
        and x."""
        if self._solve(self.n, self.c_ptr, self.e_ptr, r, x, reflect) != 0:
            raise MemoryError("tridiagonal kernel could not allocate its scratch")


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
