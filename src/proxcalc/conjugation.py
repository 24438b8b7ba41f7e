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

``verify_envelope_conjugate`` instead refines each query's argmax on a
coarse lattice locally, as fast Legendre-Fenchel transforms do (Corrias,
SIAM J. Numer. Anal. 1996; Lucet, SIAM Review 2010), and certifies it.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import functions as fn
from .errors import AllInfinite, DimensionMismatch
from .grids import SampleGrid, ValueTable, tabulate
from .reports import VERIFIED, COUNTEREXAMPLE, HYPOTHESIS_FAILS, CheckReport

_BLOCK_ROWS = 200_000
_BLOCK_ENTRIES = 5_000_000


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
    Q = np.asarray(queries, dtype=float)
    if Q.ndim == 1:
        Q = Q.reshape(-1, 1) if table.grid.dim == 1 else Q.reshape(1, -1)
    if Q.shape[1] != table.grid.dim:
        raise DimensionMismatch("query dimension does not match the table")
    vals, arg = _conjugate_kernel(table, Q)
    return vals, table.grid.boundary_mask()[arg]


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
    Reports the largest absolute gap over the queries, and the refinement's
    bound as ``details["certificate"]``.
    """
    conj = fn.conjugate_closed_form(f)
    env = fn.Envelope(f, lam)
    table = tabulate(env, grid)
    Q = np.asarray(queries, dtype=float)
    if Q.ndim == 1:
        Q = Q.reshape(-1, 1) if grid.dim == 1 else Q.reshape(1, -1)
    lhs, arg = _conjugate_kernel(table, Q)
    boundary = grid.boundary_mask()[arg]
    rhs = fn.evaluate_many(conj, Q) + 0.5 * lam * np.sum(Q * Q, axis=1)
    # a boundary argmax means the sup is grid-truncated (including queries
    # where the true conjugate is +inf); those are counted, not compared
    interior = ~boundary & np.isfinite(rhs)
    lhs[interior], certificate = _refine(env, table, Q[interior], arg[interior], tol)
    gaps = np.abs(lhs - rhs)
    worst_gap = float(np.max(gaps[interior])) if np.any(interior) else 0.0
    witnesses = []
    if worst_gap > tol:
        idx = np.flatnonzero(interior)
        w = idx[int(np.argmax(gaps[interior]))]
        witnesses.append((Q[w], f"gap={gaps[w]:.3e}"))
    status = VERIFIED if worst_gap <= tol and np.any(interior) else (
        COUNTEREXAMPLE if worst_gap > tol else HYPOTHESIS_FAILS
    )
    return CheckReport(
        name=f"envelope_conjugate(lam={lam})",
        status=status,
        hypothesis_residual=0.0,
        conclusion_residual=worst_gap,
        tolerance=tol,
        witnesses=witnesses,
        details={
            "queries": int(Q.shape[0]),
            "interior_queries": int(np.sum(interior)),
            "boundary_argmax": int(np.sum(boundary)),
            "certificate": certificate,
        },
    )


def _refine(env: fn.Envelope, table: ValueTable, Q: np.ndarray, start: np.ndarray,
            tol: float):
    r"""(refined sups, certificate) of <q, v> - env(v), q a row of Q, from
    the lattice points of index start.

    Each step scores the 3^d stencil at spacing h around every unfinished
    point in one batch; a point moves to its stencil maximum, keeping the
    scores it shares, or halves h when it is the maximum itself. The
    objective is concave and (1/lam)-smooth, so with the maximizer in the
    final cell the sup falls short by at most the certificate
    ||h||^2/(8 lam); levels are added until it is at most tol/100.
    Near the edge of dom f* a nearly flat ridge can leave the climb short
    by more; the values stay lower bounds. Points outside the lattice box
    score -inf, and the climb stops after one crossing of it per level.
    """
    grid = table.grid
    stencil = np.array(list(itertools.product((-1, 0, 1), repeat=grid.dim)))
    mid = stencil.shape[0] // 2
    # after a move by stencil[j], point t of the new stencil is point
    # shift[j, t] of the old one (-1, the NaN column, if it is new)
    code = {tuple(t): i for i, t in enumerate(stencil)}
    shift = np.array([[code.get(tuple(t + s), -1) for t in stencil] for s in stencil])
    h0 = (grid.hi - grid.lo) / (grid.counts - 1)
    certificate, levels = float(np.dot(h0, h0) / (8 * env.lam)), 0
    while certificate > tol / 100:
        certificate, levels = certificate / 4, levels + 1
    C = grid.points()[start]
    V = np.full((Q.shape[0], stencil.shape[0] + 1), np.nan)
    V[:, mid] = np.sum(Q * C, axis=1) - table.values[start]
    # level 0 is the lattice, whose argmax already tops its stencil
    for level in range(1, levels + 1):
        V[:, :mid] = V[:, mid + 1:-1] = np.nan
        act = np.arange(Q.shape[0])
        for _ in range(int(np.max(grid.counts) - 1) * 2**level):
            if act.size == 0:
                break
            W = V[act]
            P = C[act, None] + h0 / 2**level * stencil
            W[:, :-1][~np.all((P >= grid.lo) & (P <= grid.hi), axis=2)] = -np.inf
            new = np.isnan(W[:, :-1])
            W[:, :-1][new] = np.sum(Q[act, None] * P, axis=2)[new] - fn.evaluate_many(env, P[new])
            j = np.argmax(W[:, :-1], axis=1)
            up = W[np.arange(act.size), j] > W[:, mid]
            C[act[up]] = P[up, j[up]]
            V[act[up], :-1] = np.take_along_axis(W[up], shift[j[up]], axis=1)
            act = act[up]
    return V[:, mid], certificate
