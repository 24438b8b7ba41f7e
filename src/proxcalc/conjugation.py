r"""Numerical Legendre-Fenchel transform on sample grids.

The conjugate at a query q is approximated by the maximum of
<q, v> - f(v) over the lattice points v with finite f(v). This is a lower
bound of the true conjugate that becomes exact as the grid refines over the
region where the supremum is attained; the grid should dominate the query
range by a healthy margin (5x by default elsewhere in the library), and an
argmax landing on the grid boundary signals truncation.

One kernel scores every query against the lattice in blocks of bounded
size (lattice rows x queries) and keeps the first index of each maximum;
``conjugate_many``, ``conjugate_argmax`` and ``numerical_conjugate`` are
views of its result.
"""

from __future__ import annotations

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
    r"""Check (f_lam)*(q) = f*(q) + (lam/2)||q||^2 through grid conjugation.

    The left side is the numerical conjugate of the tabulated envelope; the
    right side evaluates the closed-form conjugate of f. Reports the largest
    absolute gap over the queries.
    """
    conj = fn.conjugate_closed_form(f)
    table = tabulate(fn.Envelope(f, lam), grid)
    Q = np.asarray(queries, dtype=float)
    if Q.ndim == 1:
        Q = Q.reshape(-1, 1) if grid.dim == 1 else Q.reshape(1, -1)
    lhs, boundary = conjugate_many(table, Q)
    rhs = fn.evaluate_many(conj, Q) + 0.5 * lam * np.sum(Q * Q, axis=1)
    # a boundary argmax means the sup is grid-truncated (including queries
    # where the true conjugate is +inf); those are counted, not compared
    interior = ~boundary & np.isfinite(rhs)
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
        },
    )
