"""One-step time integrators over an abstract split operator.

The step maps only require the capability set apply_a / apply_b / apply_l /
solve_resolvent_a / solve_resolvent_b, with cayley_a / cayley_b for
``evolve`` and diagonal_l for the Crank-Nicolson preconditioner, so any pair
of dissipative operators with computable resolvents plugs in; cayley_X(kappa,
u) returns (I + kappa X)(I - kappa X)^{-1} u, and Crank-Nicolson calls
apply_l(u, sigma) for u + sigma L u.  Each result is a new field unless the
call passes ``out=``, a C-contiguous float64 array that does not overlap the
input; ``evolve`` and ``cn_step`` do so for every call inside their loops,
into buffers that live for one call, so a DR or PR step and a CG iteration
allocate no field.  The diffusion instance lives in :mod:`adisplit.operators`.
"""

from __future__ import annotations

import enum

import numpy as np

from .grid import Field
from . import linsolve


class SchemeKind(enum.Enum):
    DOUGLAS_RACHFORD = "dr"
    PEACEMAN_RACHFORD = "pr"
    CRANK_NICOLSON = "cn"


def _check_step(k: float) -> None:
    if k <= 0.0:
        raise ValueError(f"step size must be positive, got {k}")


def dr_step(op, k: float, u: Field) -> Field:
    """Douglas-Rachford step: (I-kB)^{-1} (I-kA)^{-1} (I + k^2 A B) u.

    Evaluated in the Douglas form v = kBu, u' = (I-kB)^{-1}((I-kA)^{-1}(u+v) - v).
    It is the same map, since (I-kA)^{-1}(u+v) - v = (I-kA)^{-1}(u + k^2 A B u),
    but it applies one operator per step instead of two.  A and B do not
    commute for variable coefficients, so their order matters.
    """
    _check_step(k)
    v = k * op.apply_b(u)
    w = op.solve_resolvent_a(k, u + v)
    return op.solve_resolvent_b(k, w - v)


def pr_step(op, k: float, u: Field) -> Field:
    """Peaceman-Rachford step:
    (I-k/2 B)^{-1} (I+k/2 A) (I-k/2 A)^{-1} (I+k/2 B) u.
    """
    _check_step(k)
    half = 0.5 * k
    w1 = u + half * op.apply_b(u)
    w2 = op.solve_resolvent_a(half, w1)
    w3 = w2 + half * op.apply_a(w2)
    return op.solve_resolvent_b(half, w3)


# Weight of the Jacobi term in the CN preconditioner.  Smaller weights keep
# smooth data near the ADI product's few iterations, larger ones help rough
# data; 0.1 gave 7 and 47 iterations at m=128, k=2^-10 (unpreconditioned:
# 30 and 118), and 99 at m=24, k=100 where the ADI product alone stalls.
CN_JACOBI_WEIGHT = 0.1


def cn_preconditioner(op, k: float):
    """Approximate inverse of I - k/2 L for Crank-Nicolson's CG solve.

    M^{-1} = R_B(k/4) R_A(k/2) R_B(k/4) + w J with R_X(kappa) = (I - kappa X)^{-1},
    J the inverse diagonal of I - k/2 L and w = CN_JACOBI_WEIGHT.  The ADI
    product agrees with (I - k/2 L)^{-1} to O(k^2), since
    (I - k/4 B)(I - k/2 A)(I - k/4 B) = I - k/2 L + O(k^2), but it decays
    like 1/(k^3 |a| |b|^2) on modes that are rough in both directions; J
    bounds the preconditioned spectrum away from zero there.  A and B are
    symmetric (the mass matrix is h^2 I), so the product R_B^T R_A R_B is SPD
    by congruence and adding the positive diagonal w J keeps it SPD, as
    preconditioned CG requires.  Returns a callable ``precondition(r)`` on
    flat residual vectors.  It returns its own output vector, which it
    overwrites on the next call; that vector and two scratch fields live as
    long as the callable.
    """
    half, quarter = 0.5 * k, 0.25 * k
    grid = op.grid
    n = grid.n
    jacobi = CN_JACOBI_WEIGHT / (1.0 - half * op.diagonal_l().values)
    s1, s2, out = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    f1, f2 = Field(grid, s1), Field(grid, s2)
    z = out.reshape(-1)

    def precondition(r):
        r2 = r.reshape(n, n)
        op.solve_resolvent_b(quarter, Field(grid, r2), out=s1)
        op.solve_resolvent_a(half, f1, out=s2)
        op.solve_resolvent_b(quarter, f2, out=out)
        np.add(out, np.multiply(jacobi, r2, out=s1), out=out)
        return z

    return precondition


def cn_step(
    op,
    k: float,
    u: Field,
    handle: linsolve.LinearSolverHandle | None = None,
    precondition=None,
) -> Field:
    """Crank-Nicolson (trapezoidal) step: solve (I - k/2 L) w = (I + k/2 L) u.

    The system is SPD, solved by CG preconditioned with
    :func:`cn_preconditioner` to the handle's relative residual (default
    1e-12); ``precondition`` is that callable built beforehand for the same
    ``op`` and ``k``, or None to build it here.  CG's operator writes into a
    workspace vector of this call, the preconditioner into its own.  This is
    the reference integrator; it involves a full 2D solve and is not a
    splitting.
    """
    _check_step(k)
    if handle is None:
        handle = linsolve.LinearSolverHandle()
    if precondition is None:
        precondition = cn_preconditioner(op, k)
    half = 0.5 * k
    rhs = op.apply_l(u, half)
    grid = op.grid
    n = grid.n
    a_out = np.empty((n, n))

    def matvec(v):
        # u + (-half) L u equals u - half L u bit for bit
        op.apply_l(Field(grid, v.reshape(n, n)), -half, out=a_out)
        return a_out.reshape(-1)

    x = linsolve.conjugate_gradient(
        matvec,
        rhs.values.ravel(),
        tol=handle.tol,
        max_iter=handle.max_iter,
        precondition=precondition,
    )
    return Field(grid, x.reshape(n, n))


def _buffers(start: Field, count: int) -> list:
    """``start``, held in a C-contiguous float64 array, and count - 1 more
    fields of its grid for a loop to write into.  ``start`` must be a new
    field, since the loop may overwrite its array."""
    first = np.ascontiguousarray(start.values, dtype=np.float64)
    return [Field(start.grid, first)] + [
        Field(start.grid, np.empty_like(first)) for _ in range(count - 1)]


def evolve(
    op,
    scheme: SchemeKind,
    k: float,
    n_steps: int,
    u0: Field,
    handle: linsolve.LinearSolverHandle | None = None,
) -> Field:
    """n_steps-fold composition of the selected one-step map.

    DR and PR run as Cayley recurrences, with R_X = (I - kappa X)^{-1} and
    C_X = (I + kappa X) R_X = 2 R_X - I, so every step is two Cayley
    transforms and no operator application.  PR (kappa = k/2) sets
    z = (I + kappa B) u0, applies z <- C_B C_A z for n_steps - 1 steps and
    returns R_B C_A z; as (I + kappa B) R_B = C_B, that is the composed
    ``pr_step`` map.  DR
    (kappa = k) runs in Lions-Mercier form on t = (I - kB) u: it sets
    t = u0 - k B u0, applies t <- (t + C_A C_B t) / 2 n_steps times and
    returns R_B t, since R_A (I + k^2 A B) R_B = (I + C_A C_B) / 2.  A run
    applies B once and A never, and equals the composed one-step maps up
    to roundoff.  PR's loop alternates between two buffers and DR's rotates
    three; the last solve writes into one of them, and ``u0`` is never
    written.  Crank-Nicolson builds its preconditioner once per run.  A
    non-finite final field raises FloatingPointError.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps}")
    u = u0
    if n_steps == 0:
        pass
    elif scheme is SchemeKind.CRANK_NICOLSON:
        _check_step(k)
        precondition = cn_preconditioner(op, k)
        for _ in range(n_steps):
            u = cn_step(op, k, u, handle, precondition)
    elif scheme is SchemeKind.PEACEMAN_RACHFORD:
        _check_step(k)
        kappa = 0.5 * k
        z, w = _buffers(u0 + kappa * op.apply_b(u0), 2)
        for _ in range(n_steps - 1):
            op.cayley_a(kappa, z, out=w.values)
            op.cayley_b(kappa, w, out=z.values)
        u = op.solve_resolvent_b(kappa, op.cayley_a(kappa, z, out=w.values),
                                 out=z.values)
    else:
        _check_step(k)
        t, c, s = _buffers(u0 - k * op.apply_b(u0), 3)
        for _ in range(n_steps):
            op.cayley_a(k, op.cayley_b(k, t, out=c.values), out=s.values)
            v = s.values
            v += t.values
            v *= 0.5
            t, s = s, t
        u = op.solve_resolvent_b(k, t, out=c.values)
    if not np.isfinite(u.values).all():
        raise FloatingPointError(
            f"{scheme.value} evolve with k={k} over {n_steps} steps "
            f"produced a non-finite field"
        )
    return u
