"""One-step time integrators over an abstract split operator.

The step maps only require the capability set apply_a / apply_b / apply_l /
solve_resolvent_a / solve_resolvent_b, with cayley_a and cayley_loop for
``evolve``, and diagonal_l and bind_adi_product for Crank-Nicolson, so
any pair of dissipative operators with computable resolvents plugs in;
cayley_loop(kappa, n, u, out=, average=) runs n steps of the Cayley
recurrence t <- C_A C_B t, averaged with t for DR, on u's array with
``out`` as scratch (see ``evolve``);
bind_adi_product(kappa_a, kappa_b, r=, weight=, out=, scratch=) checks
four fields once and returns a callable that writes
R_B(kappa_b) R_A(kappa_a) R_B(kappa_b) r + weight * r into ``out``; and
Crank-Nicolson calls apply_l(u, sigma) for u + sigma L u.  Each result is
a new field unless the call passes ``out=``, a C-contiguous float64 array
that does not overlap the input; ``evolve`` does so inside its loops, so
a DR or PR run allocates no field per step, and a CN run allocates its
six fields once and none per step.  The diffusion
instance lives in :mod:`adisplit.operators`, whose compiled kernel runs
the DR and PR loops in a few calls, and each CG iteration of CN in a few
passes besides the dot products.
"""

from __future__ import annotations

import enum
import operator

import numpy as np

from .grid import Field
from . import linsolve


class SchemeKind(enum.Enum):
    DOUGLAS_RACHFORD = "dr"
    PEACEMAN_RACHFORD = "pr"
    CRANK_NICOLSON = "cn"


def _check_step(k: float) -> None:
    if not 0.0 < k < np.inf:
        raise ValueError(f"step size must be positive and finite, got {k}")


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


def cn_preconditioner(op, k: float, r, z, middle, jacobi):
    """Approximate inverse of I - k/2 L for Crank-Nicolson's CG solve.

    M^{-1} = R_B(k/4) R_A(k/2) R_B(k/4) + w J with R_X(kappa) = (I - kappa X)^{-1},
    J the inverse diagonal of I - k/2 L and w = CN_JACOBI_WEIGHT.  The ADI
    product agrees with (I - k/2 L)^{-1} to O(k^2), since
    (I - k/4 B)(I - k/2 A)(I - k/4 B) = I - k/2 L + O(k^2), but it decays
    like 1/(k^3 |a| |b|^2) on modes that are rough in both directions; J
    bounds the preconditioned spectrum away from zero there.  A and B are
    symmetric (the mass matrix is h^2 I), so the product R_B^T R_A R_B is SPD
    by congruence and adding the positive diagonal w J keeps it SPD, as
    preconditioned CG requires.  It writes w J into the caller's (n, n)
    field ``jacobi`` and binds ``op.bind_adi_product`` to r, jacobi, z
    and middle.  The callable ``precondition(_)`` it returns writes
    M^{-1} r into z, for what r holds then, with the bits of the three
    resolvent calls and numpy's sum of the Jacobi term, and returns z's
    flat view; it ignores its argument, so CG must run on r's field.
    """
    half = 0.5 * k
    np.multiply(half, op.diagonal_l(out=jacobi).values, out=jacobi)
    np.divide(CN_JACOBI_WEIGHT, np.subtract(1.0, jacobi, out=jacobi), out=jacobi)
    product = op.bind_adi_product(half, 0.25 * k, r=r, weight=jacobi, out=z,
                                  scratch=middle)
    z_flat = z.reshape(-1)

    def precondition(_):
        product()
        return z_flat

    return precondition


class _CnRun:
    """The six fields of one CN run, allocated once: the iterate x, CG's
    residual r (first the right-hand side), direction p and A p, and the
    preconditioner's z and Jacobi weights, with CG's operator and
    preconditioner bound to them.  CG is done with A p before it
    preconditions, so A p's field is the preconditioner's middle field
    too."""

    def __init__(self, op, k: float):
        n = op.grid.n
        self.r, p, ap, z, jacobi = (np.empty((n, n)) for _ in range(5))
        self.precondition = cn_preconditioner(op, k, self.r, z, ap, jacobi)
        # x, which the run returns, is made after the weights: it takes
        # the memory of diagonal_l's temporary instead of adding to it
        self.x = np.empty((n, n))
        self.vectors = self.r.reshape(-1), self.x.reshape(-1), p.reshape(-1)
        grid, minus_half, ap_flat = op.grid, -0.5 * k, ap.reshape(-1)

        def matvec(v):
            # u + (-half) L u equals u - half L u bit for bit
            op.apply_l(Field(grid, v.reshape(grid.n, grid.n)), minus_half, out=ap)
            return ap_flat

        self.matvec = matvec


def cn_step(
    op,
    k: float,
    u: Field,
    handle: linsolve.LinearSolverHandle | None = None,
    run: _CnRun | None = None,
) -> Field:
    """Crank-Nicolson (trapezoidal) step: solve (I - k/2 L) w = (I + k/2 L) u.

    The system is SPD, solved by CG preconditioned with
    :func:`cn_preconditioner` to the handle's relative residual (default
    1e-12), on the fields of ``run``: the right-hand side goes into its r,
    so u may be its x, into which CG solves.  The step returns that x,
    which the run's next step overwrites (``evolve`` makes one run, for
    the same ``op`` and ``k``, for all its steps); with ``run`` None the
    step makes a run of its own.  This is the reference integrator; it
    involves a full 2D solve and is not a splitting.
    """
    _check_step(k)
    if handle is None:
        handle = linsolve.LinearSolverHandle()
    if run is None:
        run = _CnRun(op, k)
    op.apply_l(u, 0.5 * k, out=run.r)
    linsolve.conjugate_gradient(
        run.matvec, *run.vectors, tol=handle.tol, max_iter=handle.max_iter,
        precondition=run.precondition)
    return Field(op.grid, run.x)


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
    t = C_A (I + kappa B) u0, applies t <- C_A C_B t for n_steps - 1 steps
    and returns R_B t; as (I + kappa B) R_B = C_B, that is the composed
    ``pr_step`` map.  DR (kappa = k) runs in Lions-Mercier form on
    t = (I - kB) u: it sets t = u0 - k B u0, applies
    t <- (t + C_A C_B t) / 2 n_steps times and returns R_B t, since
    R_A (I + k^2 A B) R_B = (I + C_A C_B) / 2.  A run applies B once and A
    never, and equals the composed one-step maps up to roundoff.  The
    recurrence is one ``op.cayley_loop`` call on t's array, with a second
    buffer as its scratch and the final solve's output; the start is
    formed in B u0's array, and ``u0`` is never written and not kept.
    Crank-Nicolson allocates its six fields and binds its preconditioner
    to them once per run, and returns the field of the last iterate, which
    no later run writes.  A step size that is not positive
    and finite and an n_steps that is not a non-negative integer raise
    before any work; a non-finite final field raises FloatingPointError,
    and so does CN's CG on a non-finite right-hand side
    (``linsolve.NonFiniteError``).
    """
    n_steps = operator.index(n_steps)
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps}")
    _check_step(k)
    u = u0
    if n_steps == 0:
        pass
    elif scheme is SchemeKind.CRANK_NICOLSON:
        run = _CnRun(op, k)
        for _ in range(n_steps):
            u = cn_step(op, k, u, handle, run)
    else:
        pr = scheme is SchemeKind.PEACEMAN_RACHFORD
        kappa = 0.5 * k if pr else k
        # u0 + kappa B u0 (PR) or u0 - k B u0 (DR), in B u0's new array
        t = op.apply_b(u0)
        np.multiply(t.values, kappa, out=t.values)
        (np.add if pr else np.subtract)(u0.values, t.values, out=t.values)
        del u0, u  # a caller's temporary input is freed before the factors
        w = np.empty_like(t.values)
        if pr:
            t, w = op.cayley_a(kappa, t, out=w), t.values
        op.cayley_loop(kappa, n_steps - pr, t, out=w, average=not pr)
        u = op.solve_resolvent_b(kappa, t, out=w)
    # NaN propagates through max and min, which allocate no mask
    if not (np.isfinite(u.values.max()) and np.isfinite(u.values.min())):
        raise FloatingPointError(
            f"{scheme.value} evolve with k={k} over {n_steps} steps "
            f"produced a non-finite field"
        )
    return u
