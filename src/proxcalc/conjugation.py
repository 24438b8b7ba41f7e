r"""Numerical Legendre-Fenchel transform on sample grids.

The conjugate at a query q is approximated by the maximum of
<q, v> - f(v) over the lattice points v with finite f(v), a lower bound
that for an L-smooth f falls short by at most ||h||^2 L/8 (h the lattice
spacings) when the supremum is attained inside the lattice. The grid should
dominate the query range by a healthy margin (5x by default elsewhere in
the library), and an argmax landing on the grid boundary signals truncation.

One kernel scores every query against the lattice in blocks of bounded
size (lattice rows x queries) and keeps the first index of each maximum;
``conjugate_many``, ``conjugate_argmax`` and ``numerical_conjugate`` (and
with them ``conjugate --grid``) are views of its result.

``verify_envelope_conjugate`` tabulates nothing: it climbs <q, v> - f_lam(v)
from v = lam q inside a box by proximal-point steps, certifies the result by
concavity (``_refine``), and ``reports.sampled_verdict`` decides the status.
"""

from __future__ import annotations

import numpy as np

from . import functions as fn
from .errors import AllInfinite, DimensionMismatch
from .grids import SampleGrid, ValueTable
from .reports import HYPOTHESIS_FAILS, VERIFIED, CheckReport, sampled_verdict

_BLOCK_ROWS = 200_000
_BLOCK_ENTRIES = 5_000_000
# ascent steps per query, and the prox parameters, in units of lam, each one tries
_MAX_STEPS = 50
_PROX_SCALES = 2.0 ** np.arange(0, 41, 10)
_ROUNDING = 8 * np.finfo(float).eps  # of phi, the conjugate and the prox map, relative


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
    vals, arg = _conjugate_kernel(table, as_queries(queries, table.grid.dim))
    return vals, table.grid.boundary_mask()[arg]


def as_queries(queries, dim: int) -> np.ndarray:
    """Query points as an (n, dim) float array: 1-D input is one point, or n
    points when dim is 1. A wrong width raises DimensionMismatch and a
    non-finite coordinate ValueError."""
    Q = fn._as_batch(queries, dim)
    if not np.all(np.isfinite(Q)):
        raise ValueError("query coordinates must be finite")
    return Q


def _conjugate_kernel(table: ValueTable, Q: np.ndarray):
    """(values, argmax indices) of the discrete sup for each query row of Q.

    Scores are built in blocks of at most _BLOCK_ROWS lattice rows and
    _BLOCK_ENTRIES rows x queries, so memory stays bounded however many
    queries come in. Ties go to the first lattice index.
    """
    finite = np.isfinite(table.values)
    if not np.any(finite):
        raise AllInfinite("value table holds no finite entry")
    P = table.grid.points()
    vals = np.full(Q.shape[0], -np.inf)
    arg = np.zeros(Q.shape[0], dtype=int)
    for start in range(0, P.shape[0], _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, P.shape[0])
        mask = finite[start:stop]
        if not np.any(mask):
            continue
        width = _BLOCK_ENTRIES // (stop - start)
        for lo in range(0, Q.shape[0], width):
            cols = slice(lo, lo + width)
            S = P[start:stop] @ Q[cols].T
            S -= table.values[start:stop, None]
            S[~mask, :] = -np.inf
            # first index of each column maximum; np.argmax(S, axis=0) would
            # copy the whole block. A NaN maximum never wins, as under argmax.
            best = S.max(axis=0)
            idx = np.argmax(S == best, axis=0)
            cand = S[idx, np.arange(S.shape[1])]
            del S  # before the next block is allocated
            better = best > vals[cols]
            vals[cols][better] = cand[better]
            arg[cols][better] = start + idx[better]
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
    the largest gap (one-sided where the ascent touched the box boundary), with
    a bound on it, shortfall plus rounding, as ``details["certificate"]``. Only
    the box is read: a grid of 2 points per axis serves in any dimension."""
    tol = fn.check_scalar("tol", tol, positive=False)
    if f.dim != grid.dim:
        raise DimensionMismatch(f"function dim {f.dim} != box dim {grid.dim}")
    Q = as_queries(queries, grid.dim)
    rhs = fn.evaluate_many(fn.conjugate_closed_form(f), Q) + 0.5 * lam * fn.sq_norms(Q)
    finite = np.isfinite(rhs)  # outside dom f* the sup is +inf: no ascent
    lhs, V, bound = _refine(fn.Envelope(f, lam), grid.lo, grid.hi, Q, tol, ~finite)
    # phi(v) <= (f_lam)*(q) anywhere: where the box may cut the ascent short, only lhs > rhs counts
    boundary = ~finite | np.any((V == grid.lo) | (V == grid.hi), axis=1)
    gaps = np.where(boundary, np.maximum(lhs - rhs, 0.0), np.abs(lhs - rhs))
    # a gap is at most the ascent's shortfall plus the rounding of both sides
    qv = fn.dots(Q, V)
    bound = np.where(boundary, 0.0, bound) + _ROUNDING * np.abs([qv, qv - lhs, rhs]).sum(axis=0)
    rep = sampled_verdict(f"envelope_conjugate(lam={lam})", Q, 0.0, 0.0, gaps, tol,
                          lambda i: f"gap={gaps[i]:.3e}",
                          {"queries": int(Q.shape[0]),
                           "interior_queries": int(np.sum(~boundary)),
                           "boundary_argmax": int(np.sum(boundary)),
                           "certificate": float(np.max(bound[finite], initial=0.0))})
    if np.all(boundary) and rep.status == VERIFIED:
        rep.status = HYPOTHESIS_FAILS  # no query could be compared both ways
    return rep


def _refine(env: fn.Envelope, lo, hi, Q: np.ndarray, tol: float, outside: np.ndarray):
    r"""(phi(v), last iterates v, bounds) for phi(v) = <q, v> - env(v), q a row
    of Q, by ascent from v = lam q in the box [lo, hi]; rows ``outside`` skip it.

    sup phi is attained at x + lam q for any minimizer x of f - <q, .>, so a step
    tries x <- prox_{t f}(x + t q), t = lam 2^k for k = 0, 10, .., 40, clipped to
    the box, and keeps the best: t = lam moves v by lam G, G = grad phi(v) = q -
    (v - prox_{lam f}(v))/lam, and the long steps cross flat ridges. The bound
    ||G|| max ||corner - v||, |G| widened by its rounding, exceeds phi(v*) - phi(v)
    by concavity for v* in the box. A query stops at bound <= tol/100, when no
    step rises, at the box boundary or after _MAX_STEPS steps.
    """
    lam = env.lam
    V = np.clip(lam * Q, lo, hi)
    phi = fn.dots(Q, V) - fn.evaluate_many(env, V)
    bound = np.full(len(Q), np.inf)
    span = np.maximum(np.abs(lo), np.abs(hi))  # the prox map rounds at this scale
    act = np.flatnonzero(~outside)
    for _ in range(_MAX_STEPS):
        act = act[~np.any((V[act] == lo) | (V[act] == hi), axis=1)]
        if act.size == 0:
            break
        q, P = Q[act], env.f.prox_many(lam, V[act])
        # |G| plus its rounding, times the distance to the farthest corner
        G = np.abs(q - (V[act] - P) / lam) + _ROUNDING * (np.abs(q) + (np.abs(P) + span) / lam)
        bound[act] = np.sqrt(fn.sq_norms(G) * fn.sq_norms(np.maximum(V[act] - lo, hi - V[act])))
        X = V[act] - lam * q
        C = np.stack([P] + [env.f.prox_many(t, X + t * q) for t in lam * _PROX_SCALES[1:]], 1)
        C = np.clip(C + lam * q[:, None, :], lo, hi)
        scores = (fn.dots(C, q[:, None, :])
                  - fn.evaluate_many(env, C.reshape(-1, Q.shape[1])).reshape(C.shape[:2]))
        best = np.argmax(scores, axis=1)
        go = (scores[np.arange(act.size), best] > phi[act]) & (bound[act] > tol / 100)
        act, C, best = act[go], C[go], best[go]
        V[act], phi[act] = C[np.arange(act.size), best], np.max(scores[go], axis=1)
    return phi, V, bound
