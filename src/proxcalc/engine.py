r"""Prox solver, Moreau envelope, envelope gradient, and decomposition residual.

``prox`` dispatches to the catalog's closed forms and falls back to
``numerical_prox``, an iterative minimizer of

    F(y) = f(y) + ||x - y||^2 / (2 lam),

which is (1/lam)-strongly convex. The numerical path never consults the
closed-form prox rules, so it serves as an independent cross-check:
indicator chains short-circuit to their projection subroutines, chains
containing an envelope node are smooth and use finite-difference gradients,
and everything else descends along the least-norm subgradient of F with a
line search, after a damped averaged-subgradient warm-up (steps 2/(k+2)
scaled by lam) that is safe without smoothness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functions as fn
from .errors import DomainUnreachable, UnsupportedProx

_WARMUP_ITERS = 60
_LINE_SEARCH_EVALS = 90


@dataclass
class SolverBudget:
    max_iters: int = 10000
    tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")


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


def prox(f, lam: float, x, budget: SolverBudget | None = None,
         force_numerical: bool = False) -> ProxResult:
    """prox_{lam f}(x) plus the envelope value and solver diagnostics."""
    if lam <= 0:
        raise ValueError("lam must be > 0")
    x = fn.as_point(x, f.dim)
    if not force_numerical and hasattr(f, "prox_many"):
        try:
            y = f.prox_many(float(lam), x.reshape(1, -1))[0]
            return ProxResult(y, _objective(f, lam, x, y), "closed_form", 0, 0.0)
        except UnsupportedProx:
            pass
    return numerical_prox(f, lam, x, budget)


def prox_rows(f, lam: float, X):
    """(prox_{lam f}, envelope value) at the rows of X: one closed-form batch,
    with evaluate's checks, when f has one, else numerical_prox row by row."""
    if lam <= 0:
        raise ValueError("lam must be > 0")
    X = np.asarray(X, dtype=float)
    try:
        Y = f.prox_many(float(lam), X) if hasattr(f, "prox_many") else None
    except UnsupportedProx:
        Y = None
    if Y is None:
        rows = [numerical_prox(f, lam, x) for x in X]
        return np.array([r.minimizer for r in rows]), np.array([r.envelope_value for r in rows])
    if not np.all(np.isfinite(Y)):
        raise ValueError("point coordinates must be finite")
    return Y, fn.evaluate_many(f, Y) + fn.sq_norms(X - Y) / (2.0 * lam)


def numerical_prox(f, lam: float, x, budget: SolverBudget | None = None) -> ProxResult:
    """Minimize f(y) + ||x-y||^2/(2 lam) without the closed-form prox table.

    Convergence is declared on iterate displacement below ``budget.tol``; a
    non-converged result is still returned, with ``converged=False`` and the
    final optimality residual attached.
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
    budget = budget or SolverBudget()
    x = fn.as_point(x, f.dim)

    if isinstance(f, fn.ConvexFunction) and fn.is_indicator_chain(f):
        # Indicator chains reduce to projections; no iteration needed.
        y = f.prox_many(float(lam), x.reshape(1, -1))[0]
        return ProxResult(y, _objective(f, lam, x, y), "numerical", 0, 0.0)

    y = x.copy()
    fy = _objective(f, lam, x, y)
    if not np.isfinite(fy):
        y, fy = _find_finite_start(f, lam, x)

    subgrad = _subgradient_oracle(f, lam, x)

    iters = 0
    # warm-up for chains with bounded subgradients (norm/support atoms):
    # averaged damped subgradient steps, safe without smoothness
    if isinstance(f, fn.ConvexFunction) and _bounded_subgradients(f):
        y_avg = y.copy()
        weight = 0.0
        best_y, best_f = y.copy(), fy
        for k in range(min(_WARMUP_ITERS, budget.max_iters)):
            s = subgrad(y)
            ns = float(np.linalg.norm(s))
            if ns * lam < budget.tol:
                return ProxResult(y, _objective(f, lam, x, y), "numerical", iters, ns)
            t = 2.0 * lam / (k + 2.0)
            y = y - t * s
            w = k + 1.0
            y_avg = (weight * y_avg + w * y) / (weight + w)
            weight += w
            iters += 1
            fy = _objective(f, lam, x, y)
            if fy < best_f:
                best_y, best_f = y.copy(), fy
        f_avg = _objective(f, lam, x, y_avg)
        if f_avg < best_f:
            best_y, best_f = y_avg, f_avg
        y, fy = best_y, best_f

    # refinement: least-norm subgradient direction with a line search
    residual = float("inf")
    while iters < budget.max_iters:
        s = subgrad(y)
        residual = float(np.linalg.norm(s))
        if residual * lam < budget.tol:
            return ProxResult(y, _objective(f, lam, x, y), "numerical", iters, residual)
        t, ft = _line_minimize(lambda t: _objective(f, lam, x, y - t * s), lam)
        iters += 1
        if ft < fy:
            y = y - t * s
            disp = t * residual
            fy = ft
            if disp < budget.tol:
                return ProxResult(y, fy, "numerical", iters, residual)
        else:
            # no descent along the steepest ray: numerical floor reached
            return ProxResult(y, fy, "numerical", iters, residual,
                              converged=bool(residual * lam <= 1e-5))

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
    g = np.empty(y.size)
    for i in range(y.size):
        e = np.zeros(y.size)
        e[i] = h
        g[i] = (fn.evaluate(f, y + e) - fn.evaluate(f, y - e)) / (2.0 * h)
    return g


def _line_minimize(phi, scale: float):
    """Approximate argmin of phi over t >= 0: doubling bracket, then Brent."""
    from scipy.optimize import minimize_scalar

    t_hi = scale
    f_hi = phi(t_hi)
    f0 = phi(0.0)
    expansions = 0
    while f_hi < f0 and expansions < 60:
        t_next = 2.0 * t_hi
        f_next = phi(t_next)
        if f_next >= f_hi:
            break
        t_hi, f_hi = t_next, f_next
        expansions += 1
    if expansions >= 60:
        return t_hi, f_hi
    res = minimize_scalar(phi, bounds=(0.0, 2.0 * t_hi), method="bounded",
                          options={"xatol": 1e-12 * (1.0 + scale), "maxiter": _LINE_SEARCH_EVALS})
    t = float(res.x)
    ft = float(res.fun)
    if f_hi < ft:
        return t_hi, f_hi
    return t, ft


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
