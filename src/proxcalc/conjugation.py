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

``verify_envelope_conjugate`` instead starts from each query's argmax on
a coarse lattice and climbs <q, v> - f_lam(v) with the prox map itself:
the gradient of f_lam is (v - prox_{lam f}(v))/lam, so an accelerated
ascent step is v <- prox_{lam f}(y) + lam q. Its certificate, the gradient
norm times the distance to the farthest corner of the lattice box, bounds
the remaining gap by concavity when the maximizer lies in that box;
``reports.sampled_verdict`` decides the status from the interior gaps.
"""

from __future__ import annotations

import numpy as np

from . import functions as fn
from .errors import AllInfinite
from .grids import SampleGrid, ValueTable, tabulate
from .reports import HYPOTHESIS_FAILS, CheckReport, sampled_verdict

_BLOCK_ROWS = 200_000
_BLOCK_ENTRIES = 5_000_000
# ascent steps per query: a query just inside dom f* crawls along a nearly flat
# ridge, which took over 5,000 steps on the battery lattice at lam = 0.5
_MAX_STEPS = 20_000


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
    r"""Check (f_lam)*(q) = f*(q) + (lam/2)||q||^2 by certified conjugation.

    The left side refines each query's argmax on the tabulated envelope
    (``_refine``); the right side evaluates the closed-form conjugate of f.
    Reports the largest absolute gap over the interior queries, and the
    refinement's bound as ``details["certificate"]``.
    """
    tol = fn.check_scalar("tol", tol, positive=False)
    Q = as_queries(queries, grid.dim)
    conj = fn.conjugate_closed_form(f)
    env = fn.Envelope(f, lam)
    table = tabulate(env, grid)
    lhs, arg = _conjugate_kernel(table, Q)
    boundary = grid.boundary_mask()[arg]
    rhs = fn.evaluate_many(conj, Q) + 0.5 * lam * np.sum(Q * Q, axis=1)
    # a boundary argmax means the sup is grid-truncated (including queries
    # where the true conjugate is +inf); those are counted, not compared
    interior = ~boundary & np.isfinite(rhs)
    refined, certificate = _refine(env, grid, Q[interior], grid.points()[arg[interior]], tol)
    lhs[interior] = np.maximum(lhs[interior], refined)  # both lower bounds
    gaps = np.where(interior, np.abs(lhs - rhs), 0.0)
    rep = sampled_verdict(f"envelope_conjugate(lam={lam})", Q, 0.0, 0.0, gaps, tol,
                          lambda i: f"gap={gaps[i]:.3e}",
                          {"queries": int(Q.shape[0]),
                           "interior_queries": int(np.sum(interior)),
                           "boundary_argmax": int(np.sum(boundary)),
                           "certificate": certificate})
    if not np.any(interior):
        rep.status = HYPOTHESIS_FAILS  # no query could be compared
    return rep


def _refine(env: fn.Envelope, grid: SampleGrid, Q: np.ndarray, V: np.ndarray, tol: float):
    r"""(phi(v), certificate) for phi(v) = <q, v> - env(v), q a row of Q, by
    accelerated gradient ascent from the rows of V (overwritten).

    By Moreau's identity grad phi(y) = q - (y - prox_{lam f}(y))/lam, and
    phi is concave and (1/lam)-smooth, so the step v <- prox_{lam f}(y) + lam q
    ascends from the extrapolated point y = v + k/(k+3) (v - v_prev)
    (Nesterov 1983), with k reset to 0 when the gradient opposes the last
    move (O'Donoghue and Candes 2015), and phi(v) >= phi(y). With the
    maximizer v* in the lattice box, phi(v*) - phi(y) <= ||grad phi(y)||
    ||v* - y||, so a query stops once ||grad phi(y)|| times the distance from
    y to the farthest box corner is at most tol/100, or after _MAX_STEPS
    steps; the certificate is the largest such bound.
    """
    prev, k, bound = V.copy(), np.zeros(len(Q)), np.zeros(len(Q))
    act = np.arange(len(Q))
    for _ in range(_MAX_STEPS):
        if act.size == 0:
            break
        Y = V[act] + (k[act] / (k[act] + 3))[:, None] * (V[act] - prev[act])
        P = env.f.prox_many(env.lam, Y)
        G = Q[act] - (Y - P) / env.lam
        far = np.maximum(Y - grid.lo, grid.hi - Y)
        bound[act] = np.sqrt(fn.sq_norms(G) * fn.sq_norms(far))
        prev[act], V[act] = V[act], P + env.lam * Q[act]
        k[act] = np.where(np.sum(G * (V[act] - prev[act]), axis=1) < 0, 0, k[act] + 1)
        act = act[bound[act] > tol / 100]
    return np.sum(Q * V, axis=1) - fn.evaluate_many(env, V), float(np.max(bound, initial=0.0))
