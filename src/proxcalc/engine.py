r"""Prox solver, Moreau envelope, envelope gradient, and decomposition residual.

``prox`` dispatches to the catalog's closed forms and falls back to
``numerical_prox``, an iterative minimizer of

    F(y) = f(y) + ||x - y||^2 / (2 lam),

which is (1/lam)-strongly convex. The numerical path never consults the
closed-form prox rules, so it serves as an independent cross-check:
indicator chains short-circuit to their projection subroutines, chains
containing an envelope node are smooth and use finite-difference gradients
(one batch of 2d shifted rows), and everything else descends along the
least-norm subgradient of F. A difference row outside dom f leaves no
gradient, and the solve stops unconverged with an infinite residual.

Chains with bounded subgradients first take 60 damped averaged-subgradient
steps (steps 2/(k+2) scaled by lam), which are safe without smoothness; the
iterates and their weighted average are scored in one batch at the end, and
the first of the lowest becomes the start. Each descent step then searches
t >= 0 on the ray y - t s, relying on the convexity of F along it: a
geometric bracket of steps lam 2^k, k = -40..60, narrowed until it is
1e-12 (1 + lam) / max(lam, 1) wide, so that at any lam the search resolves
y to about 1e-12 ||s||. A minimizer at a kink of F is reached only by
landing on the kink, so the search narrows a bracket rather than fitting a
model: the whole bracket is one batch, and each zoom round scores 257
evenly spaced points at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functions as fn
from .errors import DomainUnreachable, UnsupportedProx

_WARMUP_ITERS = 60
_BRACKET = np.exp2(np.arange(-40.0, 61.0))  # line-search steps, in units of lam
_ZOOM_POINTS = 257  # points per batched zoom round, both bracket ends included
_STEP_RTOL = 1e-14  # relative floor of the step accuracy


@dataclass
class SolverBudget:
    max_iters: int = 10000
    tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and > 0")


@dataclass
class ProxResult:
    minimizer: np.ndarray
    envelope_value: float
    method: str  # "closed_form" | "numerical"
    iterations: int
    residual: float
    converged: bool = True


def _objective(f, lam: float, x: np.ndarray, y: np.ndarray) -> float:
    return fn.evaluate(f, y) + float(np.dot(x - y, x - y)) / (2.0 * lam)


def _objective_many(f, lam: float, x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """_objective at each row of Y, with evaluate_many's checks on every row."""
    return fn.evaluate_many(f, Y) + fn.sq_norms(x - Y) / (2.0 * lam)


def prox(f, lam: float, x, budget: SolverBudget | None = None,
         force_numerical: bool = False) -> ProxResult:
    """prox_{lam f}(x) plus the envelope value and solver diagnostics."""
    lam = fn.check_lam(lam)
    x = fn.as_point(x, f.dim)
    if not force_numerical and hasattr(f, "prox_many"):
        try:
            y = f.prox_many(lam, x.reshape(1, -1))[0]
            return ProxResult(y, _objective(f, lam, x, y), "closed_form", 0, 0.0)
        except UnsupportedProx:
            pass
    return numerical_prox(f, lam, x, budget)


def prox_rows(f, lam: float, X):
    """(prox_{lam f}, envelope value) at the rows of X: one closed-form
    batch, with evaluate's checks."""
    lam = fn.check_lam(lam)
    X = np.asarray(X, dtype=float)
    Y = f.prox_many(lam, X)
    if not np.all(np.isfinite(Y)):
        raise ValueError("point coordinates must be finite")
    return Y, _objective_many(f, lam, X, Y)


def numerical_prox(f, lam: float, x, budget: SolverBudget | None = None) -> ProxResult:
    """Minimize f(y) + ||x-y||^2/(2 lam) without the closed-form prox table.

    Convergence is declared on iterate displacement below ``budget.tol``,
    or when no step descends and the least-norm subgradient s of F meets
    ||s|| min(lam, 1) <= 1e-5: for lam <= 1 that bounds the distance to the
    minimizer by 1e-5, for lam >= 1 the error of the envelope gradient
    (x - y) / lam, and it does not tighten as lam grows. A non-converged
    result is still returned, with ``converged=False`` and the final
    optimality residual attached.
    """
    lam = fn.check_lam(lam)
    budget = budget or SolverBudget()
    x = fn.as_point(x, f.dim)
    catalog = isinstance(f, fn.ConvexFunction)

    if catalog and fn.is_indicator_chain(f):
        # Indicator chains reduce to projections; no iteration needed.
        y = f.prox_many(lam, x.reshape(1, -1))[0]
        return ProxResult(y, _objective(f, lam, x, y), "numerical", 0, 0.0)

    y = x.copy()
    fy = _objective(f, lam, x, y)
    if not np.isfinite(fy):
        y, fy = _find_finite_start(f, lam, x)

    subgrad = _subgradient_oracle(f, lam, x)

    iters = 0
    # warm-up for chains with bounded subgradients (norm/support atoms):
    # averaged damped subgradient steps, safe without smoothness
    if catalog and _bounded_subgradients(f):
        trail = [y]
        y_avg = y
        weight = 0.0
        for k in range(min(_WARMUP_ITERS, budget.max_iters)):
            s = subgrad(y)
            ns = float(np.linalg.norm(s))
            if ns * lam < budget.tol:
                return ProxResult(y, _objective(f, lam, x, y), "numerical", iters, ns)
            y = y - (2.0 * lam / (k + 2.0)) * s
            w = k + 1.0
            y_avg = (weight * y_avg + w * y) / (weight + w)
            weight += w
            iters += 1
            trail.append(y)
        trail.append(y_avg)
        values = np.concatenate([[fy], _objective_many(f, lam, x, np.array(trail[1:]))])
        best = int(np.argmin(values))  # the first of the lowest
        y, fy = trail[best], float(values[best])

    # refinement: least-norm subgradient direction with a line search
    # (steps in units of lam, so the bracket steps stay finite for any lam)
    step_tol = 1e-12 * (1.0 + lam) / (lam * max(lam, 1.0))
    residual = float("inf")
    while iters < budget.max_iters:
        s = subgrad(y)
        residual = float(np.linalg.norm(s))
        if not math.isfinite(residual):
            # a finite-difference row left dom f: no descent direction
            return ProxResult(y, fy, "numerical", iters, residual, converged=False)
        if residual * lam < budget.tol:
            return ProxResult(y, _objective(f, lam, x, y), "numerical", iters, residual)
        d = lam * s
        t, ft = _line_search(lambda T: _objective_many(f, lam, x, y - T[:, None] * d),
                             fy, step_tol)
        iters += 1
        if ft < fy:
            y = y - t * d
            disp = t * lam * residual
            fy = ft
            if disp < budget.tol:
                return ProxResult(y, fy, "numerical", iters, residual)
        else:
            # no descent along the steepest ray: numerical floor reached
            return ProxResult(y, fy, "numerical", iters, residual,
                              converged=bool(residual * min(lam, 1.0) <= 1e-5))

    return ProxResult(y, fy, "numerical", iters, residual, converged=False)


def _bounded_subgradients(f) -> bool:
    """True for a norm, support or affine atom under tilts, translations and
    constants only."""
    *combinators, atom = fn.chain(f)
    return (isinstance(atom, (fn.ScaledNorm, fn.SupportBall, fn.SupportBox, fn.Affine))
            and not any(isinstance(g, (fn.Envelope, fn.AddQuadratic)) for g in combinators))


def _find_finite_start(f, lam, x):
    probes = [x]
    if isinstance(f, fn.ConvexFunction):
        probes.extend(fn.structured_probes(f))
    for p in probes:
        v = _objective(f, lam, x, p)
        if np.isfinite(v):
            return p.copy(), v
    raise DomainUnreachable("all probe points evaluate to +inf")


def _subgradient_oracle(f, lam, x):
    """Subgradient of the prox objective F at y.

    Catalog chains without envelope nodes expose structured subdifferentials;
    the least-norm element of dF(y) = df(y) + (y - x)/lam is then exact.
    Everything else (envelope chains, tabulated functions) is smooth enough
    for central differences.
    """
    use_sets = isinstance(f, fn.ConvexFunction) and not fn.contains_envelope(f)

    if use_sets:
        from .errors import EmptySubdifferential, UnsupportedSubdifferential

        def subgrad(y):
            v = (y - x) / lam
            try:
                return fn.subdifferential(f, y).shift(v).project(np.zeros(f.dim))
            except (UnsupportedSubdifferential, EmptySubdifferential):
                return _fd_gradient(f, y) + v
        return subgrad

    def subgrad(y):
        return _fd_gradient(f, y) + (y - x) / lam
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


def _line_search(phi_many, f0: float, tol: float):
    """(t, phi(t)) near the argmin over t >= 0 of phi, convex, with phi(0) = f0.

    ``phi_many`` scores an array of steps at once. One batch scores every
    bracket step 2^k; rounds of evenly spaced points then narrow the steps
    either side of the lowest until they are ``tol`` apart (plus 1e-14 t,
    the floor float spacing allows). A result with t = 0 means no step
    descends.
    """
    T = np.concatenate([[0.0], _BRACKET])
    F = np.concatenate([[f0], phi_many(_BRACKET)])
    j = int(np.argmin(F))  # the first of the lowest
    if j == T.size - 1:  # still falling at the last step
        return float(T[j]), float(F[j])
    while True:
        a, b = max(j - 1, 0), min(j + 1, T.size - 1)
        if T[b] - T[a] <= tol + _STEP_RTOL * T[b]:
            return float(T[j]), float(F[j])
        T = np.linspace(T[a], T[b], _ZOOM_POINTS)
        F = np.concatenate([[F[a]], phi_many(T[1:-1]), [F[b]]])
        j = int(np.argmin(F))


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

    The conjugate comes from the closed-form table unless one is passed in
    (for instance a grid-conjugation surrogate built by the caller).
    """
    x = fn.as_point(x, f.dim)
    if conj is None:
        conj = fn.conjugate_closed_form(f)
    p = prox(f, 1.0, x, budget).minimizer
    q = prox(conj, 1.0, x, budget).minimizer
    return float(np.linalg.norm(p + q - x))
