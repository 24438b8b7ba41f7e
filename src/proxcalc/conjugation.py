r"""Numerical Legendre-Fenchel transform on sample grids.

The conjugate at a query q is approximated by the maximum of
<q, v> - f(v) over the lattice points v with finite f(v), a lower bound
that for an L-smooth f falls short by at most ||h||^2 L/8 (h the lattice
spacings) when the supremum is attained inside the lattice. The grid should
dominate the query range by a healthy margin, and an argmax landing on the
grid boundary signals truncation.

One kernel scores blocks of queries from the grid axes with the bits of
``fn.dots``, the same alone and in any batch, and keeps the first index of
each maximum; ``conjugate_many``, ``conjugate_argmax`` and
``numerical_conjugate`` (so ``conjugate --grid``) are views of its result.

``ascend`` climbs to a sup of <z, y> - u(y) over a box, a conjugate value, for
a batch of rows z, u a Moreau envelope of index 1, and bounds each shortfall
by the Frank-Wolfe gap (Jaggi, ICML 2013), on a box face too; the step after
a clipped one is plain. ``determination.reconstruct`` and
``verify_envelope_conjugate`` (which tabulates nothing) both run it.
"""

from __future__ import annotations

import numpy as np

from . import functions as fn
from .errors import DimensionMismatch
from .grids import SampleGrid, ValueTable
from .reports import HYPOTHESIS_FAILS, VERIFIED, CheckReport, sampled_verdict

_BLOCK_ENTRIES = 5_000_000
# an ascent row stops once its shortfall bound is this small, or after so many steps
_CERTIFIED = 1e-8
_MAX_STEPS = 100


def numerical_conjugate(table: ValueTable, query) -> float:
    """max over lattice v of <query, v> - f(v), skipping +inf entries."""
    return conjugate_argmax(table, query)[0]


def conjugate_argmax(table: ValueTable, query):
    """(value, argmax index, argmax-on-boundary flag) of the discrete sup."""
    q = fn.as_point(query, table.grid.dim)
    vals, arg = _conjugate_kernel(table, q.reshape(1, -1))
    best_idx = int(arg[0])
    return float(vals[0]), best_idx, bool(table.grid.boundary_mask()[best_idx])


def conjugate_many(table: ValueTable, queries: np.ndarray):
    """Vectorized conjugation; returns (values, boundary flags)."""
    vals, arg = _conjugate_kernel(table, fn.as_queries(queries, table.grid.dim))
    return vals, table.grid.boundary_mask()[arg]


def _conjugate_kernel(table: ValueTable, Q: np.ndarray):
    """(values, argmax indices) of the discrete sup for each query row of Q.

    A block of at most _BLOCK_ENTRIES scores sums 0 + q_0 axis_0 + q_1 axis_1
    + ... left to right, as ``fn.dots`` does, queries first, so each query's
    scores are one contiguous row; a +inf value, or a NaN score (inf - inf
    past the float range), scores -inf. Ties go to the first lattice index.
    """
    ones = (1,) * table.grid.dim
    # axis i along dimension i + 1 of a block, the queries along dimension 0
    axes = [a.reshape(ones[:i] + (-1,) + ones[i + 1:]) for i, a in enumerate(table.grid.axes())]
    vals, arg = np.empty(len(Q)), np.empty(len(Q), dtype=int)
    width = _BLOCK_ENTRIES // table.grid.size
    for lo in range(0, len(Q), width):
        q, rows = Q[lo:lo + width], slice(lo, lo + width)
        S = 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # handled just below
            for i, a in enumerate(axes):
                S = S + q[:, i].reshape((-1,) + ones) * a
            S = S.reshape(len(q), -1)
            S -= table.values
        k = np.argmax(S, axis=1)  # the first maximum, or the first NaN
        if np.isnan(S[np.arange(len(q)), k]).any():
            S[np.isnan(S)] = -np.inf  # inf - inf where a score overflows
            k = np.argmax(S, axis=1)
        arg[rows], vals[rows] = k, S[np.arange(len(q)), k]
    return vals, arg


# No library code uses this; perfbench/tracer.py binds it until ROADMAP item 4.
class TabulatedConjugate:
    """The numerical conjugate of a value table, usable as a function object.

    Exposes ``dim`` and ``value_many`` so the prox engine can minimize over
    it; piecewise linear in the query, hence convex.
    """

    def __init__(self, table: ValueTable):
        self.table = table
        self.dim = table.grid.dim

    def value_many(self, X):
        vals, _ = conjugate_many(self.table, np.asarray(X, dtype=float))
        return vals


def verify_envelope_conjugate(f, lam: float, grid: SampleGrid, queries,
                              tol: float = 2e-3) -> CheckReport:
    r"""Check (f_lam)*(q) = f*(q) + (lam/2)||q||^2 over the box [grid.lo, grid.hi]:
    the largest gap (one-sided where the sup is not certified inside the box),
    with a bound on it, shortfall plus rounding, as ``details["certificate"]``.
    Only the box is read: a grid of 2 points per axis serves in any dimension.

    (f_lam)*(q) is the sup of phi(v) = <q, v> - f_lam(v), attained at x + lam q
    for any minimizer x of f - <q, .>; the proximal-point step x = prox_{Tf}(Tq),
    T = lam 2^40, nearly finds one. From x + lam q, ``ascend`` climbs
    lam phi = <lam q, .> - (lam f)_1, whose envelope has the 1-Lipschitz
    gradient id - prox_{lam f}, as in ``reconstruct``, so the unit step suits
    every lam. At the last iterate v, the bound
    ||G|| max ||corner - v||, |G| = |grad phi(v)| widened by its rounding at the
    box's scale, exceeds phi(v*) - phi(v) by concavity for v* in the box; a
    query is interior when that bound is at most tol/100 and v is off the box
    boundary. One prox batch P = prox_{lam f}(V) at the end points V gives both
    f_lam(V) = f(P) + ||V - P||^2 / (2 lam) and G; lam is validated on entry.
    """
    fn.check_scalar("lam", lam)
    tol = fn.check_scalar("tol", tol, positive=False)
    if f.dim != grid.dim:
        raise DimensionMismatch(f"function dim {f.dim} != box dim {grid.dim}")
    lo, hi = grid.lo, grid.hi
    Q = fn.as_queries(queries, grid.dim)
    rhs = fn.evaluate_many(fn.conjugate_closed_form(f), Q) + 0.5 * lam * fn.sq_norms(Q)
    finite = np.isfinite(rhs)  # outside dom f* the sup is +inf: no ascent
    V, q, T = np.clip(lam * Q, lo, hi), Q[finite], lam * 2.0 ** 40
    V[finite] = ascend(lambda X: X - f.prox_many(lam, X), lam * q,
                       f.prox_many(T, T * q) + lam * q, lo, hi)[0]
    P, span = f.prox_many(lam, V), np.maximum(np.abs(lo), np.abs(hi))
    qv = fn.dots(Q, V)
    lhs = qv - fn._check_no_nan(f.value_many(P) + fn.sq_norms(V - P) / (2.0 * lam))
    # |G| plus its rounding (the prox map rounds at the box's scale), times the
    # distance to the farthest corner
    G = np.abs(Q - (V - P) / lam) + fn.ROUNDING * (np.abs(Q) + (np.abs(P) + span) / lam)
    bound = np.sqrt(fn.sq_norms(G) * fn.sq_norms(np.maximum(V - lo, hi - V)))
    # phi(v) <= (f_lam)*(q) anywhere: where the sup may lie beyond v, only lhs > rhs counts
    boundary = ~finite | (bound > tol / 100) | np.any((V == lo) | (V == hi), axis=1)
    gaps = np.where(boundary, np.maximum(lhs - rhs, 0.0), np.abs(lhs - rhs))
    # a gap is at most the ascent's shortfall plus the rounding of both sides
    bound = np.where(boundary, 0.0, bound) + fn.ROUNDING * np.abs([qv, qv - lhs, rhs]).sum(axis=0)
    rep = sampled_verdict(f"envelope_conjugate(lam={lam})", Q, 0.0, 0.0, gaps, tol,
                          lambda i: f"gap={gaps[i]:.3e}",
                          {"queries": int(Q.shape[0]),
                           "interior_queries": int(np.sum(~boundary)),
                           "boundary_argmax": int(np.sum(boundary)),
                           "certificate": float(np.max(bound[finite], initial=0.0))})
    if np.all(boundary) and rep.status == VERIFIED:
        rep.status = HYPOTHESIS_FAILS  # no query could be compared both ways
    return rep


def ascend(grad_many, Z: np.ndarray, Y: np.ndarray, lo, hi):
    r"""(end points y, bounds) of the ascent on <z, y> - u(y), z a row of Z,
    over the box [lo, hi], from the rows of Y clipped to it; ``grad_many``
    maps a batch of points to grad u at each, which should be 1-Lipschitz
    (u a Moreau envelope of index 1), so that F itself is a safe step.

    A step follows F = z - grad u(y) with one Anderson secant (Walker & Ni,
    SIAM J. Numer. Anal. 49(4), 2011), F - gamma (dY + dF) for
    gamma = max(<F, dF> / ||dF||^2, -5) (dY, dF the last changes), or
    doubles the last step where ||dF||^2 = 0, the gradient unchanged or
    changed too little to square (a flat piece);
    it is clipped to the box and calls ``grad_many`` once on the active rows.
    After a doubling or a clip the next step is plain F, not a secant across
    a kink. The Frank-Wolfe gap sum_i max(F_i (hi_i - y_i), F_i (lo_i - y_i))
    bounds the shortfall against the box maximum by concavity, on a face
    too, and is at most ||F|| max ||corner - y||. A row stops at that bound
    <= _CERTIFIED, when its clipped step leaves it where it was, or after
    _MAX_STEPS steps. The first step is F itself; the batch is cut down to
    the rows that go on only on a step where some row stops.
    """
    Y, bound, act = np.clip(Y, lo, hi), np.full(len(Z), np.inf), np.arange(len(Z))
    z, y, F, dY, plain = Z, Y, np.zeros_like(Y), np.zeros_like(Y), np.zeros(len(Z), bool)
    for k in range(_MAX_STEPS):
        Fk = z - grad_many(y)
        b = fn.dots(Fk, np.where(Fk > 0, hi, lo) - y)  # the Frank-Wolfe gap
        if k:
            dF = Fk - F
            dF2 = fn.sq_norms(dF)
            flat = dF2 == 0.0
            gamma = fn.dots(Fk, dF) / np.where(flat, 1.0, dF2)
            gamma = np.where(plain, 0.0, np.maximum(gamma, -5.0))
            to = y + np.where(flat[:, None], 2.0 * dY, Fk - gamma[:, None] * (dY + dF))
        else:  # F = dY = 0: the step is F itself
            flat, to = fn.sq_norms(Fk) == 0.0, y + Fk
        new = np.minimum(np.maximum(to, lo), hi)
        go = (b > _CERTIFIED) & (new != y).any(axis=1) & (k + 1 < _MAX_STEPS)
        if not go.any():
            Y[act], bound[act] = y, b
            break
        plain = flat | (new != to).any(axis=1)
        if not go.all():  # keep only the rows that go on
            Y[act[~go]], bound[act[~go]] = y[~go], b[~go]
            act, z, y, new, Fk, plain = (a[go] for a in (act, z, y, new, Fk, plain))
        F, dY, y = Fk, new - y, new
    return Y, bound
