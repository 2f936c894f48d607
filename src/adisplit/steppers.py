"""One-step time integrators over an abstract split operator.

The step maps only require the capability set apply_a / apply_b / apply_l /
solve_resolvent_a / solve_resolvent_b, so any pair of dissipative operators
with computable resolvents plugs in; the diffusion instance lives in
:mod:`adisplit.operators`.
"""

from __future__ import annotations

import enum

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


def cn_step(
    op,
    k: float,
    u: Field,
    handle: linsolve.LinearSolverHandle | None = None,
) -> Field:
    """Crank-Nicolson (trapezoidal) step: solve (I - k/2 L) w = (I + k/2 L) u.

    The system is SPD, solved by CG to the handle's relative residual
    (default 1e-12).  This is the reference integrator; it involves a full
    2D solve and is not a splitting.
    """
    _check_step(k)
    if handle is None:
        handle = linsolve.LinearSolverHandle()
    half = 0.5 * k
    rhs = u + half * op.apply_l(u)
    grid = op.grid
    n = grid.n

    def matvec(v):
        f = Field(grid, v.reshape(n, n))
        return (f - half * op.apply_l(f)).values.ravel()

    x = linsolve.conjugate_gradient(
        matvec, rhs.values.ravel(), tol=handle.tol, max_iter=handle.max_iter
    )
    return Field(grid, x.reshape(n, n))


def evolve(
    op,
    scheme: SchemeKind,
    k: float,
    n_steps: int,
    u0: Field,
    handle: linsolve.LinearSolverHandle | None = None,
) -> Field:
    """n_steps-fold composition of the selected one-step map."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps}")
    u = u0
    for _ in range(n_steps):
        if scheme is SchemeKind.DOUGLAS_RACHFORD:
            u = dr_step(op, k, u)
        elif scheme is SchemeKind.PEACEMAN_RACHFORD:
            u = pr_step(op, k, u)
        else:
            u = cn_step(op, k, u, handle)
    return u
