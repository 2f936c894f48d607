"""Uniform unit-square meshes and piecewise-bilinear nodal fields.

The mesh covers (0,1)^2 with m subintervals per dimension and spacing
h = 1/m.  A :class:`Field` stores the nodal coefficients of a continuous,
piecewise-bilinear function that vanishes on the boundary; only interior
nodes are stored.  The discrete inner product is the trapezoidal
(mass-lumped) quadrature of the L2 inner product, which for
boundary-vanishing fields reduces exactly to h^2 times the Euclidean dot
product of the coefficient vectors.  The exact L2 norm of a field comes
from the Kronecker-factored mass matrix, and its L2 distance to a smooth
function is integrated element by element.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform square mesh on (0,1)^2 with ``m`` subintervals per dimension."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"grid needs m >= 2 subintervals, got m={self.m}")

    @property
    def h(self) -> float:
        return 1.0 / self.m

    @property
    def n(self) -> int:
        """Interior nodes per dimension."""
        return self.m - 1

    @property
    def interior_count(self) -> int:
        return (self.m - 1) ** 2

    def nodes(self) -> np.ndarray:
        """Per-dimension node coordinates x_i = i*h for i = 0..m."""
        return np.linspace(0.0, 1.0, self.m + 1)

    def interior_nodes(self) -> np.ndarray:
        return self.nodes()[1:-1]


@dataclass(frozen=True)
class Field:
    """Nodal coefficients of a bilinear FE function vanishing on the boundary.

    ``values[j, i]`` is the coefficient at the interior node (x_i, y_j); the
    x-index i is the last axis and therefore fastest-varying in memory, so
    x-line sweeps are contiguous.  Boundary values are implicitly zero and
    never stored.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        if self.values.shape != (n, n):
            raise ValueError(
                f"field shape {self.values.shape} does not match grid "
                f"(expected {(n, n)})"
            )

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    # small amount of vector-space sugar; every operation allocates fresh
    # storage so fields can be treated as immutable values
    def __add__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.values)


def _check_same_grid(u: Field, v: Field) -> None:
    if u.grid != v.grid:
        raise ValueError(f"grid mismatch: m={u.grid.m} vs m={v.grid.m}")


# A 2-norm in this range comes from a sum of squares that neither overflows
# nor loses bits to gradual underflow.
SAFE_NORM_RANGE = (2.0 ** -256, 2.0 ** 256)

# Gauss points per element direction in ``l2_distance_to_function``
GAUSS_POINTS = 6


def discrete_inner_product(u: Field, v: Field) -> float:
    """Trapezoidal-quadrature inner product (u, v)_h.

    For boundary-vanishing fields the element-loop quadrature collapses to
    h^2 * sum(U*V); the summation order is numpy's fixed pairwise reduction,
    so repeated runs are bitwise reproducible.
    """
    _check_same_grid(u, v)
    h = u.grid.h
    return h * h * float(np.sum(u.values * v.values))


def scale_exponent(v: np.ndarray) -> int:
    """e such that v / 2^e has its largest magnitude in [1/2, 1); 0 for v = 0."""
    return int(np.frexp(np.max(np.abs(v)))[1])


def discrete_norm(u: Field) -> float:
    """||u||_h = h * Euclidean norm of the coefficient vector.

    When the plain norm leaves SAFE_NORM_RANGE, its sum of squares may have
    over- or underflowed, and it is recomputed from the coefficients scaled
    by a power of two.  That scaling is exact, so a norm inside the range
    would get the same bits either way.
    """
    h = u.grid.h
    v = u.values.ravel()
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(v))
    if SAFE_NORM_RANGE[0] <= nrm <= SAFE_NORM_RANGE[1]:
        return h * nrm
    e = scale_exponent(v)
    return float(np.ldexp(h * np.linalg.norm(np.ldexp(v, -e)), e))


def max_norm(u: Field) -> float:
    """Nodal max norm; equals the L-infinity norm of the bilinear function."""
    return float(np.max(np.abs(u.values)))


def interpolate(g: Callable, grid: Grid) -> Field:
    """Nodal interpolant of g(x, y) onto the interior mesh nodes.

    This realizes the trapezoidal-quadrature orthogonal projection, which on
    continuous functions coincides with piecewise-bilinear interpolation.
    g gets an open mesh: x of shape (1, n) and y of shape (n, 1), with
    n = grid.n, and must broadcast them; its result, an (n, n) array or
    anything that broadcasts to one, holds the value at (x_i, y_j) in
    [j, i].  A separable g thus evaluates its factors on n points, not n^2.
    """
    xi = grid.interior_nodes()
    X, Y = np.meshgrid(xi, xi, indexing="xy", sparse=True)
    vals = np.asarray(g(X, Y), dtype=float)
    vals = np.broadcast_to(vals, (grid.n, grid.n)).copy()
    if not np.all(np.isfinite(vals)):
        raise ValueError("interpolated values are not all finite")
    return Field(grid, vals)


def padded_values(u: Field) -> np.ndarray:
    """(m+1, m+1) nodal array including the zero boundary ring."""
    n = u.grid.n
    p = np.zeros((n + 2, n + 2))
    p[1:-1, 1:-1] = u.values
    return p


def exact_l2_norm_squared(u: Field) -> float:
    """Exact integral of u^2 over the unit square.

    The bilinear mass matrix is the Kronecker square of the 1D one,
    h T with T = tridiag(1, 4, 1) / 6, and the boundary coefficients are
    zero, so the integral is h^2 * sum(U * (T U T)) over the interior
    coefficients U.
    """
    h = u.grid.h
    p = padded_values(u)
    tx = (p[:, :-2] + 4.0 * p[:, 1:-1] + p[:, 2:]) / 6.0
    tut = (tx[:-2] + 4.0 * tx[1:-1] + tx[2:]) / 6.0
    return h * h * float(np.sum(u.values * tut))


def exact_l2_norm(u: Field) -> float:
    """Exact L2 norm of u, rescaled like ``discrete_norm`` outside
    SAFE_NORM_RANGE, so finite fields neither over- nor underflow."""
    # opposite-signed huge neighbours can sum inf and -inf to nan
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = float(np.sqrt(exact_l2_norm_squared(u)))
    if SAFE_NORM_RANGE[0] <= nrm <= SAFE_NORM_RANGE[1]:
        return nrm
    e = scale_exponent(u.values)
    scaled = Field(u.grid, np.ldexp(u.values, -e))
    return float(np.ldexp(np.sqrt(exact_l2_norm_squared(scaled)), e))


def l2_distance_to_function(u: Field, g) -> float:
    """||u - g||_{L2} by per-element tensor Gauss quadrature.

    The FE function is evaluated exactly at the quadrature points (bilinear
    per element); g must accept numpy arrays.  Exact for the FE part, high
    order for smooth g.
    """
    m = u.grid.m
    h = u.grid.h
    xi, wi = np.polynomial.legendre.leggauss(GAUSS_POINTS)
    t = 0.5 * (xi + 1.0)  # nodes on [0,1]
    w = 0.5 * wi          # weights summing to 1
    p = padded_values(u)

    # FE values at all sample points: interpolate along x, then along y
    # tx: (m+1 rows, m elements, points) after the x pass
    tx = (
        p[:, :-1, None] * (1.0 - t)[None, None, :]
        + p[:, 1:, None] * t[None, None, :]
    )
    fe = (
        tx[:-1, None, :, :] * (1.0 - t)[None, :, None, None]
        + tx[1:, None, :, :] * t[None, :, None, None]
    )  # (m y-elements, points_y, m x-elements, points_x)

    edges = np.arange(m) * h
    gx = edges[:, None] + h * t[None, :]        # (m, points)
    X = gx[None, None, :, :]
    Y = gx[:, :, None, None]
    gv = np.asarray(g(X, Y), dtype=float)
    gv = np.broadcast_to(gv, fe.shape)

    diff2 = (fe - gv) ** 2
    quad = np.einsum("jqip,q,p->", diff2, w, w)
    return float(np.sqrt(h * h * quad))


def _element_index(t, m: int) -> np.ndarray:
    """1D element indices containing coordinates t in [0,1] (elementwise).

    Points exactly on an element boundary belong to the element on the
    smaller-index side; FE continuity makes the value independent of this
    tie rule.
    """
    return np.clip(np.ceil(np.multiply(t, m)).astype(np.intp) - 1, 0, m - 1)


def _interp_matrix_1d(coarse: Grid, targets: np.ndarray) -> np.ndarray:
    """Rows evaluate the 1D hat basis (including boundary nodes) at targets."""
    e = _element_index(targets, coarse.m)
    s = targets / coarse.h - e
    rows = np.arange(targets.size)
    P = np.zeros((targets.size, coarse.m + 1))
    P[rows, e] = 1.0 - s
    P[rows, e + 1] = s
    return P


def prolong_to(u: Field, fine: Grid) -> Field:
    """Evaluate a coarse FE function exactly at the interior nodes of ``fine``.

    The grids need not be nested.  Since the bilinear interpolation factors
    per dimension, the evaluation is two small dense matrix products.
    """
    if fine == u.grid:
        return u.copy()
    P = _interp_matrix_1d(u.grid, fine.interior_nodes())
    vals = P @ padded_values(u) @ P.T
    return Field(fine, np.ascontiguousarray(vals))


def write_field(path, u: Field) -> None:
    """Text format: line 1 holds m; then (m-1)^2 values in storage order.

    Each value is written with ``%.17g``, which round-trips every float64.
    """
    # one row per format call: the delimiter puts every value on its own line
    np.savetxt(path, u.values, fmt="%.17g", delimiter="\n",
               header=str(u.grid.m), comments="")


def read_field(path) -> Field:
    with open(path) as f:
        m = int(f.readline())
        grid = Grid(m)
        with warnings.catch_warnings():
            # a file without values is reported by the size check below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            vals = np.loadtxt(f, dtype=np.float64, comments=None, ndmin=1)
    if vals.ndim != 1:
        raise ValueError("field file must hold one value per line")
    if vals.size != grid.interior_count:
        raise ValueError(
            f"field file holds {vals.size} values, expected {grid.interior_count}"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError("field file contains non-finite values")
    return Field(grid, vals.reshape(grid.n, grid.n))
