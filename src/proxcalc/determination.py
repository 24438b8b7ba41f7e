r"""Recovery of a convex function, up to a constant, from its prox map.

Given oracle access to prox_f and an anchor x0 in dom f, the pipeline
rebuilds f at each query q, with z = q - x0, by four steps:

1. gradient field: G(y) = prox_f(y + x0) - x0 is the gradient of the
   potential u = (f* - <x0, .>)_1, a C^{1,1} convex function bounded below
   whose conjugate is u*(z) = f(z + x0) + ||z||^2 / 2;
2. ascent: <z, y> - u(y) is concave with gradient z - G(y), so the batched,
   Anderson-accelerated ``conjugation.ascend`` (the ascent the envelope-
   conjugate check shares) finds its maximizer y inside the box of
   ``tilde_grid`` from y = z, at one oracle row per step;
3. line integration: u(y) - u(0) is a Simpson integral of G along the
   segment from 0 to y, every end point in one oracle batch;
4. constant pinning: inf u = -f(x0), reached by the ascent from z = 0, so
   knowing f(x0) fixes u absolutely (otherwise u(0) = 0 and the output is
   declared "up to a constant"); then f(q) = <z, y> - u(y) - ||z||^2 / 2.

Before the ascent, the field is vetted in one oracle batch:
monotonicity and firm nonexpansiveness on sampled pairs, and discrete
cross-partial symmetry at sampled probes. A field that fails these is not
the prox of any proper convex l.s.c. function and reconstruction aborts.
The largest bound on an ascent's shortfall over the queries that ended
inside the box, plus that of the z = 0 row, is reported as
``certificate``; an ascent ending on the box boundary gives a lower bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import functions as fn
from .conjugation import ascend
from .errors import (
    AnchorOutsideDomain,
    DimensionMismatch,
    NonConservativeField,
    OracleError,
)
from .grids import SampleGrid, ValueTable
from .reports import HYPOTHESIS_FAILS, PRECONDITION_VIOLATED, CheckReport, sampled_verdict
from .sampling import Lcg

MONOTONE_TOL = 1e-8
FIRM_TOL = 1e-8
SYMMETRY_TOL = 1e-3
PATH_TOL = 1e-4
MAX_PANELS = 1024
RAY_PANELS = 64
# oracle rows per batch of the ray integrals, so memory does not grow with the queries
_RAY_BATCH = 2 ** 16


class ProxOracle:
    """Black-box prox map with a call counter, stored as one batch map.

    ``batch_query`` maps an (n, dim) array to n prox points; without it the
    one-point ``query`` is applied row by row. A single point is a batch of
    one row.
    """

    def __init__(self, query, dim: int, batch_query=None):
        self._batch = batch_query if batch_query is not None else (
            lambda X: [query(x) for x in X])
        self.dim = int(dim)
        self.call_count = 0

    @classmethod
    def from_function(cls, f: fn.ConvexFunction, lam: float = 1.0) -> "ProxOracle":
        return cls(None, f.dim, lambda X: f.prox_many(lam, X))

    @classmethod
    def from_table(cls, inputs: np.ndarray, outputs: np.ndarray) -> "ProxOracle":
        """Interpolating oracle over sampled (input, output) pairs.

        1-D tables interpolate linearly per output coordinate; higher
        dimensions use barycentric-linear interpolation inside the convex
        hull of the inputs with nearest-neighbor fallback outside. Inputs
        must be finite and, from dimension 2 on, must not all lie in one
        hyperplane (a triangulation needs a full-dimensional hull); either
        fault raises ValueError before any query. Outputs are checked when
        queried: a non-finite one raises OracleError.
        """
        inputs = np.asarray(inputs, dtype=float)
        outputs = np.asarray(outputs, dtype=float)
        if inputs.shape != outputs.shape:
            raise DimensionMismatch("oracle table inputs/outputs must share shape")
        if not np.isfinite(inputs).all():
            raise ValueError("oracle table inputs must be finite")
        dim = inputs.shape[1]
        if dim == 1:
            order = np.argsort(inputs[:, 0])
            xs = inputs[order, 0]
            ys = outputs[order, 0]

            def many(X):
                return np.interp(X[:, 0], xs, ys).reshape(-1, 1)
        else:
            from scipy.interpolate import LinearNDInterpolator, NearestNDInterpolator
            from scipy.spatial import QhullError

            try:
                lin = LinearNDInterpolator(inputs, outputs)
            except QhullError:
                raise ValueError(f"oracle table inputs must span R^{dim}") from None
            near = NearestNDInterpolator(inputs, outputs)

            def many(X):
                Y = lin(X)
                bad = np.any(np.isnan(Y), axis=1)
                if np.any(bad):
                    Y[bad] = near(X[bad])
                return Y

        return cls(None, dim, many)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # query_many on one row, inlined so that a wrapped query_many counts it once
        self.call_count += 1
        return _checked(self._batch(fn.as_point(x, self.dim)[None]), (1, self.dim))[0]

    def query_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        self.call_count += X.shape[0]
        return _checked(self._batch(X), (X.shape[0], self.dim))


def _checked(out, shape: tuple) -> np.ndarray:
    """Oracle output as a float array of the expected shape, all finite."""
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        raise DimensionMismatch(
            f"oracle returned shape {out.shape}, expected {shape}")
    if not np.isfinite(out).all():
        raise OracleError("oracle returned a non-finite point")
    return out


@dataclass
class ReconstructionTask:
    oracle: ProxOracle
    x0: np.ndarray
    tilde_grid: SampleGrid
    query_points: np.ndarray
    f_at_x0: float | None = None

    def __post_init__(self):
        self.x0 = fn.as_point(self.x0, self.oracle.dim)
        if self.f_at_x0 is not None:
            self.f_at_x0 = fn._finite("f_at_x0", self.f_at_x0)
        self.query_points = fn.as_queries(self.query_points, self.oracle.dim)
        if self.tilde_grid.dim != self.oracle.dim:
            raise DimensionMismatch("grid does not match the oracle dimension")


@dataclass
class ReconstructionReport:
    recovered: list  # (point, value) pairs
    pinned_constant: float
    gradient_symmetry_residual: float
    monotonicity_residual: float
    boundary_argmax_warnings: int
    convention: str  # "absolute" | "up to additive constant"
    pin_min_on_boundary: bool = False
    details: dict = field(default_factory=dict)


def tilde_gradient(oracle: ProxOracle, x0, x) -> np.ndarray:
    """G(x) = oracle(x + x0) - x0, the gradient of the shifted potential."""
    x0 = fn.as_point(x0, oracle.dim)
    x = fn.as_point(x, oracle.dim)
    return oracle(x + x0) - x0


def _field_many(oracle: ProxOracle, x0: np.ndarray, X: np.ndarray) -> np.ndarray:
    return oracle.query_many(X + x0) - x0


def validate_field(oracle: ProxOracle, x0, radius: float, seed: int = 13,
                   pairs: int = 40):
    """Monotonicity, firm nonexpansiveness, and cross-partial symmetry.

    Returns (monotonicity_residual, firm_residual, symmetry_residual);
    raises NonConservativeField beyond tolerance. One Lcg(seed) draw gives
    the pairs and, from dimension 2 on, 12 probes for central differences;
    one oracle batch scores all 2 pairs + 24 dim rows.
    """
    x0 = fn.as_point(x0, oracle.dim)
    dim, h = oracle.dim, 1e-5
    probes = 12 if dim >= 2 else 0
    P = Lcg(seed).points_in_ball(2 * pairs + probes, dim, radius)
    # after the pairs, rows p_k + h e_i, then p_k - h e_i, for every probe k and axis i
    shifts = P[2 * pairs:, None, :] + np.array([h, -h])[:, None, None, None] * np.eye(dim)
    G = _field_many(oracle, x0, np.vstack([P[:2 * pairs], shifts.reshape(-1, dim)]))
    D = G[:pairs] - G[pairs:2 * pairs]
    inner = fn.dots(D, P[:pairs] - P[pairs:2 * pairs])
    mono = float(np.max(np.maximum(-inner, 0.0)))
    firm = float(np.max(np.maximum(fn.sq_norms(D) - inner, 0.0)))

    sym = 0.0
    if probes:
        G = G[2 * pairs:].reshape(shifts.shape)
        J = (G[0] - G[1]) / (2 * h)  # J[k] is the transposed Jacobian at probe k
        sym = float(np.max(np.abs(J - np.swapaxes(J, 1, 2))))

    if mono > MONOTONE_TOL:
        raise NonConservativeField(f"field is not monotone (residual {mono:.3e})")
    if firm > FIRM_TOL:
        raise NonConservativeField(
            f"field is not firmly nonexpansive (residual {firm:.3e})")
    if sym > SYMMETRY_TOL:
        raise NonConservativeField(f"cross-partials asymmetric (residual {sym:.3e})")
    return mono, firm, sym


def _simpson_weights(panels: int) -> tuple[np.ndarray, np.ndarray]:
    n = 2 * panels + 1
    t = np.linspace(0.0, 1.0, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w /= 3.0 * 2.0 * panels
    return t, w


def _ray_integrals(oracle: ProxOracle, x0: np.ndarray, X: np.ndarray,
                   panels: int) -> np.ndarray:
    """int_0^1 <G(t x), x> dt for every row x of X: composite Simpson, nodes summed
    left to right. The (node, row) pairs of a block of rows of X go to the oracle
    in one batch of at most _RAY_BATCH pairs."""
    t, w = _simpson_weights(panels)
    rows = _RAY_BATCH // t.size
    u = np.empty(X.shape[0])
    for i in range(0, X.shape[0], rows):
        B = X[i:i + rows]
        nodes = t[:, None, None] * B[None, :, :]
        G = _field_many(oracle, x0, nodes.reshape(-1, X.shape[1])).reshape(nodes.shape)
        u[i:i + rows] = np.cumsum(w[:, None] * fn.dots(G, B), axis=0)[-1]
    return u


def _staircase_integral(oracle: ProxOracle, x0: np.ndarray, x: np.ndarray,
                        panels: int) -> float:
    """Axis-aligned path 0 -> (x1,0,..) -> (x1,x2,0,..) -> ... -> x."""
    t, w = _simpson_weights(panels)
    total = 0.0
    base = np.zeros_like(x)
    for i in range(x.size):
        seg = np.zeros_like(x)
        seg[i] = x[i]
        pts = base[None, :] + t[:, None] * seg[None, :]
        G = _field_many(oracle, x0, pts)
        total += float(np.sum(w * (G @ seg)))
        base = base + seg
    return total


def check_path_independence(oracle: ProxOracle, x0, probes: np.ndarray,
                            panels: int) -> tuple[float, int]:
    """Ray-vs-staircase disagreement; panels double until within PATH_TOL."""
    x0 = fn.as_point(x0, oracle.dim)
    probes = np.atleast_2d(probes)
    while True:
        ray = _ray_integrals(oracle, x0, probes, panels)
        stair = np.array(
            [_staircase_integral(oracle, x0, p, panels) for p in probes]
        )
        gap = float(np.max(np.abs(ray - stair)))
        if gap <= PATH_TOL or panels >= MAX_PANELS:
            return gap, panels
        panels *= 2


# Unused by the library; perfbench/tracer.py binds integrate_tilde until ROADMAP item 4.
def _lattice_path_integrals(oracle: ProxOracle, x0: np.ndarray,
                            grid: SampleGrid):
    """u(x) - u(b) on every lattice point x, b the lattice point nearest 0.

    One oracle batch gives G on the lattice. The cumulative trapezoid of
    G_i along axis i, anchored at b, is the leg of a staircase path along
    axis i; a path in axis order (i1, ..., id) sums the leg of i_k with
    i_{k+1}, ..., i_d still at b. Returns the mean of the d! path tables,
    the largest spread between them (a discrete-curl probe over the whole
    lattice) and b.
    """
    axes = grid.axes()
    shape = tuple(a.size for a in axes)
    base = [int(np.argmin(np.abs(a))) for a in axes]
    G = _field_many(oracle, x0, grid.points()).reshape(shape + (grid.dim,))
    legs = []
    for i, a in enumerate(axes):
        Gi = np.moveaxis(G[..., i], i, -1)
        steps = 0.5 * (Gi[..., 1:] + Gi[..., :-1]) * np.diff(a)
        leg = np.zeros(Gi.shape)
        np.cumsum(steps, axis=-1, out=leg[..., 1:])
        leg -= leg[..., base[i]:base[i] + 1]
        legs.append(np.moveaxis(leg, -1, i))
    tables = []
    for order in itertools.permutations(range(grid.dim)):
        table = np.zeros(shape)
        for k, i in enumerate(order):
            leg = legs[i]
            for j in order[k + 1:]:
                leg = leg.take([base[j]], axis=j)
            table += leg
        tables.append(table.ravel())
    b = np.array([a[k] for a, k in zip(axes, base)])
    return np.mean(tables, axis=0), float(np.max(np.ptp(tables, axis=0))), b


def integrate_tilde(oracle: ProxOracle, x0, grid: SampleGrid, *,
                    f_at_x0: float | None = None):
    """Tabulate the potential u on the grid by lattice-path integration.

    Without ``f_at_x0`` the table is anchored at u(0) = 0. With it, the
    whole table is shifted so that its minimum equals -f_at_x0, the exact
    infimum of u; the shift is reliable only when the grid contains the
    minimizer, so a minimum on the grid boundary is flagged.

    Returns (ValueTable, diagnostics dict).
    """
    x0 = fn.as_point(x0, oracle.dim)
    if not grid.dim == oracle.dim <= 3:  # d! axis orders
        raise DimensionMismatch("grid must match the oracle dimension, at most 3")
    mono, firm, sym = validate_field(
        oracle, x0, radius=float(np.max(np.abs(grid.hi - grid.lo))) / 2.0
    )

    values, lattice_gap, b = _lattice_path_integrals(oracle, x0, grid)
    if np.any(b != 0.0):
        values = values + _ray_integrals(oracle, x0, b.reshape(1, -1), RAY_PANELS)[0]

    pinned = 0.0
    pin_on_boundary = False
    if f_at_x0 is not None:
        i_min = int(np.argmin(values))
        pinned = -float(f_at_x0) - float(values[i_min])
        values = values + pinned
        pin_on_boundary = bool(grid.boundary_mask()[i_min])

    diag = {
        "monotonicity_residual": mono,
        "firm_residual": firm,
        "gradient_symmetry_residual": sym,
        "lattice_path_gap": lattice_gap,
        "pinned_constant": pinned,
        "pin_min_on_boundary": pin_on_boundary,
    }
    return ValueTable(grid, values), diag


def reconstruct(task: ReconstructionTask) -> ReconstructionReport:
    """Run the full pipeline and evaluate the recovered function at the queries."""
    oracle, x0, lo, hi = task.oracle, task.x0, task.tilde_grid.lo, task.tilde_grid.hi
    mono, firm, sym = validate_field(oracle, x0, radius=float(np.max(np.abs(hi - lo))) / 2.0)
    Z, pin, n = task.query_points - x0, task.f_at_x0 is not None, len(task.query_points)
    # with f(x0) known, one more row z = 0 climbs to the minimizer of u, where u = -f(x0)
    Z1 = np.vstack([Z, np.zeros((int(pin), Z.shape[1]))])
    Y, bound = ascend(lambda Y: _field_many(oracle, x0, Y), Z1, Z1, lo, hi)
    u = _ray_integrals(oracle, x0, Y, RAY_PANELS)  # u(y) - u(0)
    pinned = -float(task.f_at_x0) - float(u[n]) if pin else 0.0
    rec = fn.dots(Z, Y[:n]) - (u[:n] + pinned) - 0.5 * fn.sq_norms(Z)
    boundary = np.any((Y == lo) | (Y == hi), axis=1)
    return ReconstructionReport(
        recovered=[(q.copy(), float(v)) for q, v in zip(task.query_points, rec)],
        pinned_constant=pinned,
        gradient_symmetry_residual=sym,
        monotonicity_residual=mono,
        boundary_argmax_warnings=int(np.sum(boundary[:n])),
        convention="absolute" if pin else "up to additive constant",
        pin_min_on_boundary=bool(pin and boundary[n]),
        details={"oracle_calls": oracle.call_count,
                 "firm_residual": firm,
                 "certificate": float(np.max(bound[:n][~boundary[:n]], initial=0.0)
                                      + np.sum(bound[n:]))},
    )


def determine_from_norm(f: fn.ConvexFunction, g: fn.ConvexFunction, samples,
                        x0=None, tol_h: float = 1e-8,
                        tol_c: float = 1e-6) -> CheckReport:
    """If ||prox_f - x0|| and ||prox_g - x0|| agree everywhere, f and g agree
    up to the constant f(x0) - g(x0).

    With an anchor x0 (which must lie in both domains), the conclusion
    |(f - f(x0)) - (g - g(x0))| <= tol_c is asserted at finite samples.
    Without one, the check runs the origin variant: the anchor is 0, the
    conclusion constant is inf g* - inf f*, and the precondition that f* and
    g* are bounded below guards the claim. Both are exact: inf f* = -f(0) by
    Fenchel-Moreau, so the precondition holds when f(0) and g(0) are finite.
    """
    tol_h = fn.check_scalar("tol_h", tol_h, positive=False)
    tol_c = fn.check_scalar("tol_c", tol_c, positive=False)
    samples = fn.as_queries(samples, f.dim)
    pf = f.prox_many(1.0, samples)
    pg = g.prox_many(1.0, samples)

    if x0 is not None:
        variant, diverges = "anchored", False
        anchor = fn.as_point(x0, f.dim)
        f0 = fn.evaluate(f, anchor)
        g0 = fn.evaluate(g, anchor)
        if not (np.isfinite(f0) and np.isfinite(g0)):
            raise AnchorOutsideDomain("anchor must lie in dom f and dom g")
        constant = 0.0
        details = {"anchor": anchor, "samples": int(samples.shape[0])}
    else:
        # origin variant: anchor 0 without domain requirement; needs bounded conjugates
        variant, anchor, f0, g0 = "origin", np.zeros(f.dim), 0.0, 0.0
        inf_f, inf_g = fn.conjugate_infimum(f), fn.conjugate_infimum(g)
        diverges = not (np.isfinite(inf_f) and np.isfinite(inf_g))
        constant = 0.0 if diverges else inf_g - inf_f
        details = {"inf_conj_f": inf_f, "inf_conj_g": inf_g,
                   "samples": int(samples.shape[0])}
    hyp = float(np.max(np.abs(fn.norms(pf - anchor) - fn.norms(pg - anchor))))
    fv = fn.evaluate_many(f, samples) - f0
    gv = fn.evaluate_many(g, samples) - g0
    rep = sampled_verdict(
        f"determine_from_norm({variant})", samples, hyp, tol_h,
        _constant_gaps(fv, gv, constant), tol_c,
        lambda i: f"f={float(fv[i])!r} g={float(gv[i])!r} expected_gap={float(constant)!r}",
        details, first=10)
    if rep.status == HYPOTHESIS_FAILS or diverges:  # the report asserts nothing
        rep.conclusion_residual, rep.witnesses = 0.0, []
        if rep.status != HYPOTHESIS_FAILS:
            rep.status = PRECONDITION_VIOLATED
    return rep


def _constant_gaps(fv, gv, constant) -> np.ndarray:
    """Per-sample gaps |(f - g) - constant|, extended-real aware: +inf on
    one side only is an infinite gap, on both sides none."""
    fin_a, fin_b = np.isfinite(fv), np.isfinite(gv)
    both = fin_a & fin_b
    gaps = np.zeros(len(fv))
    gaps[both] = np.abs((fv[both] - gv[both]) - constant)
    gaps[fin_a != fin_b] = np.inf
    return gaps
