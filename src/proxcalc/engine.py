r"""Prox solver, Moreau envelope, envelope gradient, and decomposition residual.

``prox`` dispatches to the catalog's closed forms and falls back to
``numerical_prox``, an iterative minimizer of

    F(y) = f(y) + ||x - y||^2 / (2 lam),

which is (1/lam)-strongly convex. The numerical path never consults the
closed-form prox rules, so it serves as an independent cross-check:
indicator chains short-circuit to their projection subroutines, and
everything else descends along the least-norm subgradient of F, exact on
catalog chains (an envelope chain's is its gradient). Where a node has no
structured subdifferential, and on non-catalog objects, finite differences
(one batch of 2d shifted rows) stand in; a difference row outside dom f
leaves no gradient, and the solve stops unconverged with an infinite
residual.

On catalog chains without an envelope node, before descending, the solver
tests the structured probe points (centres, corners, anchors) in order and
returns, with 0 iterations, the first where the least-norm subgradient of
F is below the tolerance: a prox at a kink of f is then found bit for bit,
where descent would only land within its tolerance. A probe is never a
start: descent starts at x, or at the first finite probe when
F(x) = +inf. Envelope chains skip the walk: they are C^1 and finite
everywhere, with no kink to find and no start to look for.

Each descent step searches t >= 0 on the ray y - t p, relying on the
convexity of F along it. p is the least-norm subgradient s, or, where df
is a singleton at y and at the last iterate (a ``SingletonSet``, as at
any point of an envelope chain), the PR+ conjugate direction s + beta p',
beta = <s, s - s'> / ||s'||^2 (Gilbert & Nocedal 1992), if beta > 0 and
<p, s> > 0: no zigzag on curved smooth pieces, and no conjugate memory
across kinks, where it can jam (Wolfe 1975). Only a steepest step ends a
solve on displacement; a conjugate step that moves less than the
tolerance or does not descend restarts steepest from the same y. The
line search is a geometric bracket of steps lam 2^k, k = -40..60,
narrowed until it is 1e-12 (1 + lam) / max(lam, 1) wide, so that at any
lam the search resolves y to about 1e-12 ||p||. The whole bracket is one
batch, and each zoom round scores 257 evenly spaced points at once,
together with the vertex of the parabola through the three bracket points
and a ladder of steps out from it, h 4^k away for h half the width: when
the vertex is lowest among them all up to rounding, convexity puts the
minimizer within h of it, or its value within four roundings of the
minimum, and the search stops. At a kink the vertex misses and a rung
shows it, so the round goes on narrowing the bracket. At a huge lam the
bracket shifts down by a power of 2, so that no step moves y by 2^480 or
more and no score overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functions as fn
from .errors import (DomainUnreachable, EmptySubdifferential, UnsupportedProx,
                     UnsupportedSubdifferential)

_BRACKET = np.exp2(np.arange(-40.0, 61.0))  # line-search steps, in units of lam
_ZOOM_POINTS = 257  # points per batched zoom round, both bracket ends included
_STEP_RTOL = 1e-14  # relative floor of the step accuracy
_REACH = 480  # a line-search step moves y by less than 2^_REACH: squares stay finite


@dataclass
class SolverBudget:
    max_iters: int = 10000
    tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        self.tol = fn.check_scalar("tol", self.tol)


@dataclass
class ProxResult:
    minimizer: np.ndarray
    envelope_value: float
    method: str  # "closed_form" | "numerical"
    iterations: int
    residual: float
    converged: bool = True


def _objective(f, lam: float, x: np.ndarray, y: np.ndarray) -> float:
    return fn.evaluate(f, y) + float(fn.sq_norms(x - y)) / (2.0 * lam)


def _objective_many(f, lam: float, x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """_objective at each row of Y, with evaluate's extended-real check on
    every row. The rows are the solver's own, so no coordinate check: a
    line-search step that overflows to inf stays an ExtendedRealError."""
    return fn._check_no_nan(f.value_many(Y)) + fn.sq_norms(x - Y) / (2.0 * lam)


def prox(f, lam: float, x, budget: SolverBudget | None = None,
         force_numerical: bool = False) -> ProxResult:
    """prox_{lam f}(x) plus the envelope value and solver diagnostics."""
    lam = fn.check_scalar("lam", lam)
    x = fn.as_point(x, f.dim)
    if not force_numerical and hasattr(f, "prox_many"):
        try:
            y = f.prox_many(lam, x.reshape(1, -1))[0]
            return ProxResult(y, _objective(f, lam, x, y), "closed_form", 0, 0.0)
        except UnsupportedProx:
            pass
    return numerical_prox(f, lam, x, budget)


def numerical_prox(f, lam: float, x, budget: SolverBudget | None = None) -> ProxResult:
    """Minimize f(y) + ||x-y||^2/(2 lam) without the closed-form prox table.

    Convergence is declared on iterate displacement below ``budget.tol``,
    or when no step descends and the least-norm subgradient s of F meets
    ||s|| min(lam, 1) <= 1e-5: for lam <= 1 that bounds the distance to the
    minimizer by 1e-5, for lam >= 1 the error of the envelope gradient
    (x - y) / lam, and it does not tighten as lam grows. Steps are steepest,
    or PR+ conjugate where df is a singleton (see the module docstring), and
    only a steepest step stops on displacement. ``budget.max_iters`` counts
    descent steps of both kinds. A non-converged result is still returned, with
    ``converged=False`` and the final optimality residual attached.
    """
    lam = fn.check_scalar("lam", lam)
    budget = budget or SolverBudget()
    x = fn.as_point(x, f.dim)
    catalog = isinstance(f, fn.ConvexFunction)

    if catalog and fn.is_indicator_chain(f):
        # Indicator chains reduce to projections; no iteration needed.
        y = f.prox_many(lam, x.reshape(1, -1))[0]
        return ProxResult(y, _objective(f, lam, x, y), "numerical", 0, 0.0)

    y = x.copy()
    fy = _objective(f, lam, x, y)
    subgrad = _subgradient_oracle(f, lam, x)
    if catalog and not fn.contains_envelope(f):
        # exact kink test, which also takes the first finite probe as the
        # start when F(x) = +inf (see the module docstring)
        for p in fn.structured_probes(f):
            fp = _objective(f, lam, x, p)
            if math.isfinite(fp):
                ns = float(fn.norms(subgrad(p)[0]))
                if ns * lam < budget.tol:
                    return ProxResult(p, fp, "numerical", 0, ns)
                if not math.isfinite(fy):
                    y, fy = p, fp
    if not math.isfinite(fy):
        raise DomainUnreachable("all probe points evaluate to +inf")

    iters = 0
    # steepest or PR+ conjugate descent with a line search (steps in units
    # of lam); dividing by lam twice, as lam^2 overflows past 1e154
    step_tol = 1e-12 * (1.0 + lam) / lam / max(lam, 1.0)
    residual = float("inf")
    memory = None  # (s, p) of the last step, kept only where df is a singleton
    while iters < budget.max_iters:
        s, smooth = subgrad(y)
        residual = float(fn.norms(s))
        if not math.isfinite(residual):
            # a finite-difference row left dom f: no descent direction
            return ProxResult(y, fy, "numerical", iters, residual, converged=False)
        if residual * lam < budget.tol:
            return ProxResult(y, _objective(f, lam, x, y), "numerical", iters, residual)
        p = s
        if smooth and memory is not None:
            s_prev, p_prev = memory
            beta = float(fn.dots(s, s - s_prev)) / float(fn.sq_norms(s_prev))
            q = s + beta * p_prev
            if beta > 0.0 and float(fn.dots(q, s)) > 0.0:
                p = q
        memory = (s, p) if smooth else None
        d, pn = lam * p, float(fn.norms(p))
        # steps T lam p, T <= 2^60, move y by less than 2^(60 + e) for lam ||p|| < 2^e;
        # at a huge lam the bracket shifts down by a power of 2 to stay within 2^_REACH
        shift = _REACH - 60 - math.frexp(lam * pn)[1]
        t, ft = _line_search(lambda T: _objective_many(f, lam, x, y - T[:, None] * d), fy,
                             step_tol, _BRACKET if shift >= 0 else np.ldexp(_BRACKET, shift))
        iters += 1
        disp = t * lam * pn
        if ft < fy and (p is s or disp >= budget.tol):
            y = y - t * d
            fy = ft
            if disp < budget.tol:
                return ProxResult(y, fy, "numerical", iters, residual)
        elif p is not s:
            memory = None  # a conjugate step that stalls: steepest from this y
        else:
            # no descent along the steepest ray: numerical floor reached
            return ProxResult(y, fy, "numerical", iters, residual,
                              converged=bool(residual * min(lam, 1.0) <= 1e-5))

    return ProxResult(y, fy, "numerical", iters, residual, converged=False)


def _subgradient_oracle(f, lam, x):
    """(s, smooth): a subgradient s of the prox objective F at y, and whether
    df(y) is known to be a singleton.

    On catalog chains s is the least-norm element of
    dF(y) = df(y) + (y - x)/lam, exact, and smooth means df(y) is a
    ``SingletonSet`` (at every point of an envelope chain, C^1). Where no
    structured subdifferential exists, and on everything else (tabulated
    functions), s comes from central differences and counts as not smooth.
    """
    def subgrad(y):
        v = (y - x) / lam
        if isinstance(f, fn.ConvexFunction):
            try:
                sd = f.subdiff(y)
                return sd.shift(v).project(np.zeros(f.dim)), sd.kind == "singleton"
            except (UnsupportedSubdifferential, EmptySubdifferential):
                pass
        return _fd_gradient(f, y) + v, False
    return subgrad


def _fd_gradient(f, y, h: float = 1e-7):
    """Central differences, from one batch of the 2d rows y + h e_i, y - h e_i;
    +inf in every coordinate when a row leaves dom f (f is not differentiable
    at y, and inf - inf would be NaN)."""
    E = h * np.eye(y.size)
    v = fn.evaluate_many(f, np.concatenate([y + E, y - E]))
    if not np.all(np.isfinite(v)):
        return np.full(y.size, np.inf)
    return (v[:y.size] - v[y.size:]) / (2.0 * h)


def _line_search(phi_many, f0: float, tol: float, bracket=_BRACKET):
    """(t, phi(t)) near the argmin over t >= 0 of phi, convex, with phi(0) = f0.

    ``phi_many`` scores an array of steps at once. One batch scores every
    ``bracket`` step; rounds of evenly spaced points then narrow the steps
    either side of the lowest until they are ``tol`` apart (plus 1e-14 t,
    the floor float spacing allows). Each round's batch also scores the
    vertex t_p of the parabola through the three bracket points and the
    rungs t_p -+ h 4^k (h half that width) out to two grid spacings, beyond
    which the grid points serve as rungs. When phi(t_p) exceeds the lowest
    value of the round by at most ``ROUNDING`` of that value, t_p is
    returned: by convexity the argmin then lies within h of t_p, or phi(t_p)
    is within four times phi's rounding of the minimum. Rungs at +-h alone
    could not tell: on a smooth ray phi moves by far less than its rounding
    over so short a step.
    A result with t = 0 means no step descends.
    """
    T = np.concatenate([[0.0], bracket])
    F = np.concatenate([[f0], phi_many(bracket)])
    j = int(np.argmin(F))  # the first of the lowest
    if j == T.size - 1:  # still falling at the last step
        return float(T[j]), float(F[j])
    while True:
        a, b = max(j - 1, 0), min(j + 1, T.size - 1)
        if T[b] - T[a] <= tol + _STEP_RTOL * T[b]:
            return float(T[j]), float(F[j])
        tp = _vertex(*map(float, (T[a], T[j], T[b], F[a], F[j], F[b])))
        h = 0.5 * (tol + _STEP_RTOL * tp)
        fa, fb = float(F[a]), float(F[b])
        # rungs h 4^k out to two grid spacings, the grid points serving beyond;
        # a rung past the bracket (even at t < 0) is harmless, phi being convex
        reach = 2.0 * (T[b] - T[a]) / (_ZOOM_POINTS - 1)
        L = h * 4.0 ** np.arange(math.ceil(math.log(max(reach / h, 1.0), 4)))
        T = np.linspace(T[a], T[b], _ZOOM_POINTS)
        V = phi_many(np.concatenate([T[1:-1], tp - L, tp + L, [tp]]))
        F, vp = np.concatenate([[fa], V[:T.size - 2], [fb]]), float(V[-1])
        low = min(float(V[:-1].min()), fa, fb)
        if a < j < b and vp <= low + fn.ROUNDING * abs(low):
            return tp, vp
        j = int(np.argmin(F))


def _vertex(t0, t1, t2, f0, f1, f2) -> float:
    """Vertex of the parabola through (t_i, f_i), t0 < t1 < t2 and f1 the
    lowest; t1 when that vertex is not a finite step in [t0, t2]."""
    p, q = (t1 - t0) * (f1 - f2), (t1 - t2) * (f1 - f0)
    if not (math.isfinite(p - q) and p != q):
        return t1
    v = t1 - 0.5 * ((t1 - t0) * p - (t1 - t2) * q) / (p - q)
    return v if t0 <= v <= t2 else t1


def moreau_envelope(f, lam: float, x, budget: SolverBudget | None = None) -> float:
    """f_lam(x), the value of the prox minimization."""
    return prox(f, lam, x, budget).envelope_value


def envelope_gradient(f, lam: float, x, budget: SolverBudget | None = None) -> np.ndarray:
    """(x - prox_{lam f}(x)) / lam, the gradient of the envelope at x."""
    x = fn.as_point(x, f.dim)
    return (x - prox(f, lam, x, budget).minimizer) / lam


def moreau_decomposition_residual(f, x, budget: SolverBudget | None = None,
                                  conj=None) -> float:
    """|| prox_f(x) + prox_{f*}(x) - x || at lam = 1.

    The conjugate comes from the closed-form table unless one is passed in:
    a closed form the caller already built, or any object with ``dim`` and
    ``value_many`` (a ``TabulatedConjugate``, say), whose prox then comes
    from ``numerical_prox``.
    """
    x = fn.as_point(x, f.dim)
    if conj is None:
        conj = fn.conjugate_closed_form(f)
    p = prox(f, 1.0, x, budget).minimizer
    q = prox(conj, 1.0, x, budget).minimizer
    return float(fn.norms(p + q - x))
