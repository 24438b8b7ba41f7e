r"""Empirical checkers for the comparison and determination principles.

Each checker samples its hypothesis and its conclusion over a declared point
set and reports residuals, a status, and witnesses of failure:

* ``check_comparison``: if ||prox_f(x) - x0|| <= ||prox_g(x) - x0|| for all
  x, then g - g(x0) <= f - f(x0).
* ``check_gradient_comparison``: for differentiable bounded-below functions
  (Moreau envelopes here), ||grad f|| <= ||grad g|| everywhere forces
  f - inf f <= g - inf g.
* ``check_norm_lower_bound``: ||x|| - ell <= ||prox_g(x)|| for all x forces
  g - g(0) <= ell ||.||; with ell = 0 the function is constant.
* ``check_lipschitz``: a finite-valued convex l.s.c. f is ell-Lipschitz
  exactly when ||x|| - ell <= ||prox_f(x+y) - y|| for all x, y.
* ``check_equivalences``: with f* and g* bounded below, five statements
  (prox-norm equality, equality up to the constant inf g* - inf f*,
  least-norm subgradient equality, subdifferential equality, prox equality)
  hold or fail together.
* ``check_support_distance``: for closed convex C containing 0,
  ||prox_f|| = dist(., C) exactly when f is the support function of C up to
  a constant.

Conclusions are never asserted when the sampled hypothesis fails. Statuses
are one of verified / hypothesis_fails / counterexample /
precondition_violated; a counterexample on a pair that passes its
preconditions would contradict a theorem and is treated as build-breaking
by the test suite. The sampled checks hand a hypothesis residual and
per-sample conclusion gaps to ``reports.sampled_verdict``, which decides
status and witnesses; the Lipschitz, equivalences and support-distance
checks keep composite rules.

Infima of conjugates are exact: inf f* = -f(0) by Fenchel-Moreau, so f* is
bounded below exactly when 0 lies in dom f (``functions.conjugate_infimum``).
"""

from __future__ import annotations

import numpy as np

from . import conjugation, engine
from . import functions as fn
from .determination import _constant_gaps, determine_from_norm
from .errors import AnchorOutsideDomain, OriginNotInC, UnsupportedSubdifferential
from .grids import SampleGrid
from .reports import (
    CheckReport,
    COUNTEREXAMPLE,
    HYPOTHESIS_FAILS,
    PRECONDITION_VIOLATED,
    VERIFIED,
    sampled_verdict,
)
from .sampling import Lcg
from .sets import EmptySet, sets_equal

TOL_CLOSED = 1e-8
TOL_NUMERICAL = 1e-4
TOL_GRID = 2e-3

INFIMUM_RADIUS = 50.0
INFIMUM_POINTS = 10_000
DIVERGENCE_CUTOFF = -1e6

# pair entries per row block of the Lipschitz difference quotient
_PAIR_BLOCK = 2 ** 14


# No library code calls this; perfbench/tracer.py binds it until ROADMAP item 4.
def sampled_conjugate_infimum(f: fn.ConvexFunction, radius: float = INFIMUM_RADIUS,
                              n_points: int = INFIMUM_POINTS, seed: int = 101,
                              cutoff: float = DIVERGENCE_CUTOFF):
    """(sampled inf of f*, diverges flag, radii used), superseded by the
    exact ``functions.conjugate_infimum``.

    Divergence is declared when the nested minima keep dropping materially
    from radius 2R to 4R, or fall below the absolute cutoff.
    """
    conj = fn.conjugate_closed_form(f)
    Y = Lcg(seed).log_radial_points(n_points, f.dim, 1e-3, 4.0 * radius)
    Y = np.vstack([Y, np.zeros(f.dim), *fn.structured_probes(conj)])
    norms = fn.norms(Y)
    vals = fn.evaluate_many(conj, Y)

    minima = []
    for r in (radius, 2.0 * radius, 4.0 * radius):
        sel = vals[(norms <= r) & np.isfinite(vals)]
        minima.append(float(np.min(sel)) if sel.size else float("inf"))
    m1, m2, m4 = minima
    drop = m2 - m4 if np.isfinite(m2) and np.isfinite(m4) else 0.0
    diverges = bool(m4 < cutoff or drop > max(1e-6, 1e-3 * radius))
    return m4, diverges, (radius, 2.0 * radius, 4.0 * radius)


def check_comparison(f: fn.ConvexFunction, g: fn.ConvexFunction, x0, samples,
                     tol_h: float = TOL_CLOSED, tol_c: float = 1e-6) -> CheckReport:
    """Hypothesis ||prox_f - x0|| <= ||prox_g - x0||, conclusion
    g - g(x0) <= f - f(x0), both sampled."""
    tol_h = fn.check_scalar("tol_h", tol_h, positive=False)
    tol_c = fn.check_scalar("tol", tol_c)
    x0 = fn.as_point(x0, f.dim)
    f0 = fn.evaluate(f, x0)
    g0 = fn.evaluate(g, x0)
    if not (np.isfinite(f0) and np.isfinite(g0)):
        raise AnchorOutsideDomain("anchor must lie in dom f and dom g")
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    pf = f.prox_many(1.0, X)
    pg = g.prox_many(1.0, X)
    hyp = float(np.max(np.maximum(fn.norms(pf - x0) - fn.norms(pg - x0), 0.0)))
    fv = fn.evaluate_many(f, X)
    gv = fn.evaluate_many(g, X)
    # want g - g0 <= f - f0 in extended reals: +inf on the right always
    # holds, +inf on the left alone always fails
    both = np.isfinite(fv) & np.isfinite(gv)
    gaps = np.zeros(X.shape[0])
    gaps[both] = np.maximum((gv[both] - g0) - (fv[both] - f0), 0.0)
    gaps[np.isinf(gv) & np.isfinite(fv)] = np.inf
    extended = False
    if hyp <= tol_h and np.any(gaps > tol_c):
        # the hypothesis held on the declared samples but the conclusion did
        # not; widen the hypothesis sweep before blaming the implication,
        # since a too-small sample radius can hide hypothesis failures
        hyp = max(hyp, _hypothesis_extended(f, g, x0, X, tol_h))
        extended = True
    return sampled_verdict(
        "comparison", X, hyp, tol_h, gaps, tol_c,
        lambda i: f"g-g(x0)={float(gv[i] - g0)!r} exceeds f-f(x0)={float(fv[i] - f0)!r}",
        {"anchor": x0, "samples": int(X.shape[0]), "tol_hypothesis": tol_h,
         "hypothesis_sweep_extended": extended},
        first=10)


def _hypothesis_extended(f, g, x0, X, tol_h) -> float:
    """Hypothesis residual over scaled copies of the samples plus a wider
    deterministic cloud."""
    radius = 4.0 * float(np.max(fn.norms(X)))
    rng = Lcg(0x5EED)
    clouds = [s * X for s in (2.0, 4.0, 8.0)]
    clouds.append(rng.points_in_ball(200, f.dim, radius))
    worst = 0.0
    for C in clouds:
        pf = f.prox_many(1.0, C)
        pg = g.prox_many(1.0, C)
        gaps = fn.norms(pf - x0) - fn.norms(pg - x0)
        worst = max(worst, float(np.max(np.maximum(gaps, 0.0))))
        if worst > tol_h:
            break
    return worst


def check_gradient_comparison(f, g, samples, lam: float | None = None,
                              tol: float = 1e-6) -> CheckReport:
    """Envelope-based gradient comparison: ||grad f|| <= ||grad g|| sampled,
    then f - min f <= g - min g against sampled minima."""
    tol = fn.check_scalar("tol", tol, positive=False)
    if lam is not None:
        f = fn.Envelope(f, lam)
        g = fn.Envelope(g, lam)
    if not isinstance(f, fn.Envelope) or not isinstance(g, fn.Envelope):
        raise ValueError("pass envelope nodes, or supply lam to wrap both")
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    nf = fn.norms(f.gradient_many(X)[0])
    ng = fn.norms(g.gradient_many(X)[0])
    hyp = float(np.max(np.maximum(nf - ng, 0.0)))
    fv = fn.evaluate_many(f, X)
    gv = fn.evaluate_many(g, X)
    rel_f = fv - np.min(fv)
    rel_g = gv - np.min(gv)
    gaps = np.maximum(rel_f - rel_g, 0.0)
    return sampled_verdict(
        "gradient_comparison", X, hyp, tol, gaps, tol, lambda i: f"gap={gaps[i]:.3e}",
        {"samples": int(X.shape[0]), "sampled_min_f": float(np.min(fv)),
         "sampled_min_g": float(np.min(gv))})


def check_norm_lower_bound(g: fn.ConvexFunction, ell: float, samples,
                           tol: float = 1e-6) -> CheckReport:
    """Hypothesis ||x|| - ell <= ||prox_g(x)||, conclusion
    g - g(0) <= ell ||.||; with ell = 0, additionally g is constant."""
    ell = fn.check_scalar("ell", ell, positive=False)
    tol = fn.check_scalar("tol", tol, positive=False)
    g0 = fn.evaluate(g, np.zeros(g.dim))
    if not np.isfinite(g0):
        raise AnchorOutsideDomain("g(0) must be finite")
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    norms = fn.norms(X)
    hyp = float(np.max(np.maximum(norms - ell - fn.norms(g.prox_many(1.0, X)), 0.0)))
    gv = fn.evaluate_many(g, X)
    finite = np.isfinite(gv)
    gaps = np.zeros(X.shape[0])
    gaps[finite] = np.maximum(gv[finite] - g0 - ell * norms[finite], 0.0)
    if ell == 0.0 and np.any(finite):
        # constancy: the spread max g - min g, attained at argmax g
        gaps[finite] = np.maximum(gaps[finite], gv[finite] - np.min(gv[finite]))
    return sampled_verdict(f"norm_lower_bound(ell={ell})", X, hyp, tol, gaps, tol,
                           lambda i: f"gap={gaps[i]:.3e}",
                           {"samples": int(X.shape[0]), "g_at_0": g0})


def check_lipschitz(f: fn.ConvexFunction, ell: float, samples_x, samples_y,
                    tol: float = TOL_CLOSED) -> CheckReport:
    """Both directions of the Lipschitz characterization.

    Direction A estimates the Lipschitz constant from value differences,
    max |f(x_i) - f(x_k)| / ||x_i - x_k|| over the sample pairs more than
    1e-12 apart; it scores the pairs k >= i only, in row blocks of about
    2**14 pairs, so its memory does not grow as n^2 d. Direction B measures
    the residual of ||x|| - ell <= ||prox_f(x+y) - y|| over the (x, y)
    sample product. The two must agree: both clean, or both violated.
    """
    ell = fn.check_scalar("ell", ell, positive=False)
    tol = fn.check_scalar("tol", tol, positive=False)
    X = np.atleast_2d(np.asarray(samples_x, dtype=float))
    Y = np.atleast_2d(np.asarray(samples_y, dtype=float))
    fv = fn.evaluate_many(f, X)
    if not np.all(np.isfinite(fv)):
        raise ValueError("Lipschitz check needs f finite-valued on the samples")
    lhat = _max_quotient(fv, X)

    # every (y, x) pair, y-major, in one batch
    n = X.shape[0]
    Yn = np.repeat(Y, n, axis=0)
    P = f.prox_many(1.0, np.tile(X, (Y.shape[0], 1)) + Yn)
    gaps = np.tile(fn.norms(X), Y.shape[0]) - ell - fn.norms(P - Yn)
    residual = float(np.max(gaps, initial=0.0))

    lip_holds = lhat <= ell + tol
    ineq_holds = residual <= tol
    consistent = lip_holds == ineq_holds
    witnesses = []
    if lip_holds and ineq_holds:
        status = VERIFIED
    elif not lip_holds and not ineq_holds:
        status = COUNTEREXAMPLE
        k = int(np.argmax(gaps))
        witnesses.append(
            (X[k % n].copy(), f"with y={Y[k // n].tolist()} violates by {residual:.3e}")
        )
    else:
        status = HYPOTHESIS_FAILS  # sampling was inconclusive
    return CheckReport(
        name=f"lipschitz(ell={ell})",
        status=status,
        hypothesis_residual=float(max(lhat - ell, 0.0)),
        conclusion_residual=residual,
        tolerance=tol,
        witnesses=witnesses,
        details={"lhat": lhat, "consistent": consistent,
                 "samples_x": int(X.shape[0]), "samples_y": int(Y.shape[0])},
    )


def _max_quotient(fv, X) -> float:
    """max |fv[i] - fv[k]| / ||X[i] - X[k]|| over the sample pairs more than
    1e-12 apart, 0.0 when there are none.

    Each block of rows is scored against the columns from its first row on,
    which covers every pair k >= i. Both factors are symmetric in the pair,
    and the squared distance is summed from the first column on as
    ``fn.norms`` sums it, so the maximum has the bits of the full n x n one.
    """
    n = X.shape[0]
    rows = max(1, _PAIR_BLOCK // max(n, 1))
    lhat = 0.0
    for i in range(0, n, rows):
        block = slice(i, i + rows)
        dists = np.subtract.outer(X[block, 0], X[i:, 0])
        np.multiply(dists, dists, out=dists)
        step = np.empty_like(dists)
        for j in range(1, X.shape[1]):
            np.subtract.outer(X[block, j], X[i:, j], out=step)
            np.multiply(step, step, out=step)
            dists += step
        np.sqrt(dists, out=dists)
        diffs = np.abs(np.subtract.outer(fv[block], fv[i:]))
        ratios = np.zeros_like(dists)
        np.divide(diffs, dists, out=ratios, where=dists > 1e-12)
        lhat = np.maximum(lhat, ratios.max(initial=0.0))  # a NaN stays NaN
    return float(lhat)


def check_equivalences(f: fn.ConvexFunction, g: fn.ConvexFunction, samples,
                       tol_prox: float = TOL_CLOSED, tol_value: float = 1e-6) -> CheckReport:
    """Truth pattern of the five equivalent statements on a sample sweep.

    The precondition, f* and g* bounded below, is decided exactly: it holds
    when f(0) and g(0) are finite, and item ii's constant is then
    inf g* - inf f* = f(0) - g(0). On a pair that meets it the pattern must
    be uniform; a mixed pattern is a counterexample. Items that need
    unsupported subdifferentials degrade to 'skipped'.

    Items iii and iv are decided from one gradient batch per function on
    the samples where both functions are differentiable, and from
    structured subdifferential sets row by row everywhere else.
    """
    tol_prox = fn.check_scalar("tol_prox", tol_prox, positive=False)
    tol_value = fn.check_scalar("tol_value", tol_value, positive=False)
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    pf = f.prox_many(1.0, X)
    pg = g.prox_many(1.0, X)

    inf_f, inf_g = fn.conjugate_infimum(f), fn.conjugate_infimum(g)
    precondition_ok = bool(np.isfinite(inf_f) and np.isfinite(inf_g))

    pattern: dict[str, str] = {}
    residuals: dict[str, float] = {}

    r1 = float(np.max(np.abs(fn.norms(pf) - fn.norms(pg))))
    pattern["i_prox_norms"] = "holds" if r1 <= tol_prox else "fails"
    residuals["i_prox_norms"] = r1

    fv = fn.evaluate_many(f, X)
    gv = fn.evaluate_many(g, X)
    const = inf_g - inf_f if precondition_ok else 0.0
    r2 = float(np.fmax.reduce(_constant_gaps(fv, gv, const), initial=0.0))
    pattern["ii_constant_shift"] = "holds" if r2 <= tol_value else "fails"
    residuals["ii_constant_shift"] = r2

    r3, r4, skipped = _subdiff_items(f, g, X, tol_prox)
    if skipped:
        pattern["iii_min_selection"] = pattern["iv_subdifferentials"] = "skipped"
    else:
        pattern["iii_min_selection"] = "holds" if r3 <= tol_prox else "fails"
        pattern["iv_subdifferentials"] = "holds" if r4 <= tol_prox else "fails"
    residuals["iii_min_selection"] = r3
    residuals["iv_subdifferentials"] = r4

    r5 = float(np.max(fn.norms(pf - pg)))
    pattern["v_prox_maps"] = "holds" if r5 <= tol_prox else "fails"
    residuals["v_prox_maps"] = r5

    outcomes = {v for v in pattern.values() if v != "skipped"}
    uniform = len(outcomes) <= 1
    if not precondition_ok:
        status = PRECONDITION_VIOLATED
    elif uniform:
        status = VERIFIED
    else:
        status = COUNTEREXAMPLE
    # the residual of the equivalence claim itself: items that hold must be
    # within tolerance (their max is reported); a uniformly failing pattern
    # violates nothing
    held = [residuals[k] for k, v in pattern.items() if v == "holds"]
    concl = float(max(held)) if held and uniform else (float("inf") if not uniform else 0.0)
    witnesses = []
    if status == COUNTEREXAMPLE:
        mixed = ", ".join(f"{k}={v}" for k, v in sorted(pattern.items()))
        witnesses.append((X[0], f"mixed truth pattern: {mixed}"))
    return CheckReport(
        name="equivalences",
        status=status,
        hypothesis_residual=residuals["i_prox_norms"],
        conclusion_residual=concl,
        tolerance=tol_prox,
        witnesses=witnesses,
        details={
            "pattern": [f"{k}={v}" for k, v in sorted(pattern.items())],
            "residuals": [f"{k}={residuals[k]:.3e}" for k in sorted(residuals)],
            "inf_conj_f": inf_f,
            "inf_conj_g": inf_g,
            "constant": const,
        },
    )


def _subdiff_items(f, g, X, tol):
    """(min-selection residual, subdifferential residual, skipped flag).

    Rows where both functions are differentiable (``gradient_many``) are
    scored in one batch: both subdifferentials are singletons there, so the
    residuals are gradient gaps. Every other row compares structured sets,
    in sample order, and ``sets_equal`` decides item iv exactly: its
    residual is 0 or inf.
    """
    Gf, smooth_f = f.gradient_many(X)
    Gg, smooth_g = g.gradient_many(X)
    both = smooth_f & smooth_g
    r3 = 0.0
    r4 = 0.0
    try:
        for x in X[~both]:
            sf = fn.subdifferential(f, x)
            sg = fn.subdifferential(g, x)
            ef, eg = isinstance(sf, EmptySet), isinstance(sg, EmptySet)
            if ef or eg:
                if ef != eg:
                    r3 = r4 = float("inf")
                continue
            r3 = max(r3, float(fn.norms(sf.min_norm_element() - sg.min_norm_element())))
            if not sets_equal(sf, sg, tol):
                r4 = float("inf")
    except UnsupportedSubdifferential:
        return 0.0, 0.0, True
    if np.any(both):
        gaps = fn.norms(Gf[both] - Gg[both])
        r3 = max(r3, float(np.max(gaps)))
        if np.any(gaps > tol):
            r4 = float("inf")
    return r3, r4, False


def support_function_of(C: fn.ConvexFunction) -> fn.ConvexFunction:
    """The support function of the set behind an indicator atom."""
    if isinstance(C, fn.IndicatorBall):
        return fn.SupportBall(C.center, C.radius)
    if isinstance(C, fn.IndicatorBox):
        return fn.SupportBox(C.lo, C.hi)
    if isinstance(C, fn.IndicatorPoint):
        return fn.Affine(C.p, 0.0)
    raise ValueError("C must be an indicator atom (ball, box, or point)")


def check_support_distance(f: fn.ConvexFunction, C: fn.ConvexFunction, samples,
                           tol: float = TOL_CLOSED) -> CheckReport:
    """||prox_f(x)|| = dist(x, C) on samples, then f = support of C + const.

    C is an indicator atom whose set must contain the origin. The forward
    residual compares prox norms with distances; when it passes, the
    backward determination runs f against the support function of C, and
    its witnesses and its constant inf sigma_C* - inf f* = f(0) carry over.
    """
    tol = fn.check_scalar("tol", tol, positive=False)
    if fn.evaluate(C, np.zeros(C.dim)) != 0.0:
        raise OriginNotInC("the support-distance check needs 0 in C")
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    proj = C.prox_many(1.0, X)
    dists = fn.norms(X - proj)
    pnorms = fn.norms(f.prox_many(1.0, X))
    gaps = np.abs(pnorms - dists)
    forward = float(np.max(gaps))
    sigma = support_function_of(C)
    if forward <= tol:
        back = determine_from_norm(f, sigma, X, x0=None, tol_h=max(tol, 1e-7))
        status = back.status
        concl = back.conclusion_residual
        witnesses = back.witnesses
        details = {
            "forward_residual": forward,
            "backward_status": back.status,
            "constant": back.details["inf_conj_g"] - back.details["inf_conj_f"],
            "samples": int(X.shape[0]),
        }
    else:
        status = HYPOTHESIS_FAILS
        concl = 0.0
        worst = int(np.argmax(gaps))
        witnesses = [(X[worst], f"prox norm {float(pnorms[worst])!r} "
                                f"vs distance {float(dists[worst])!r}")]
        details = {"forward_residual": forward, "samples": int(X.shape[0])}
    return CheckReport(
        name="support_distance",
        status=status,
        hypothesis_residual=forward,
        conclusion_residual=concl,
        tolerance=tol,
        witnesses=witnesses,
        details=details,
    )


# ---------------------------------------------------------------------------
# Batteries
# ---------------------------------------------------------------------------

def battery_samples(dim: int, seed: int, count: int = 200, radius: float = 6.0,
                    extra=()) -> np.ndarray:
    """Seeded sample cloud plus structured probes."""
    if not (isinstance(count, (int, np.integer)) and count >= 1):
        raise ValueError("samples must be an integer >= 1")
    radius = fn.check_scalar("radius", radius)
    pts = Lcg(seed).points_in_ball(count, dim, radius)
    return np.vstack([pts, *(np.asarray(p, dtype=float) for p in extra)])


def standard_battery(f: fn.ConvexFunction, g: fn.ConvexFunction, anchor, seed: int,
                     count: int = 200, radius: float = 6.0,
                     ell: float | None = None,
                     tol_conclusion: float = 1e-6) -> list[CheckReport]:
    """The verify-all battery for a pair of functions."""
    if ell is not None:
        ell = fn.check_scalar("ell", ell, positive=False)
    anchor = fn.as_point(anchor, f.dim)
    extra = fn.structured_probes(f) + fn.structured_probes(g) + [anchor]
    X = battery_samples(f.dim, seed, count, radius, extra)
    reports = [_guarded(name, tol_conclusion, AnchorOutsideDomain, check_comparison,
                        a, b, anchor, X, tol_c=tol_conclusion)
               for name, a, b in (("comparison(f,g)", f, g), ("comparison(g,f)", g, f))]
    rep = check_equivalences(f, g, X)
    rep.name = "equivalences(f,g)"
    reports.append(rep)

    box = SampleGrid(np.full(f.dim, -2.5 * radius), np.full(f.dim, 2.5 * radius), [2] * f.dim)
    cloud = battery_samples(f.dim, seed + 1, 25, radius / 4)
    for tag, h in (("f", f), ("g", g)):
        reports += [_decomposition_report(h, X, tag), _envelope_gradient_report(h, X, tag)]
        # envelope gradients x - prox_h(x) lie in dom h*, even on a ray; the sup is at x
        queries = np.vstack([cloud, X[:25] - h.prox_many(1.0, X[:25])])
        rep = conjugation.verify_envelope_conjugate(h, 1.0, box, queries, TOL_GRID)
        rep.name = f"envelope_conjugate({tag})"
        reports.append(rep)

    if ell is not None:
        Y = battery_samples(f.dim, seed + 2, 12, radius / 2)
        reports.append(_guarded(f"lipschitz(ell={ell})", TOL_CLOSED, ValueError,
                                check_lipschitz, f, ell, X, Y))
        reports.append(_guarded(f"norm_lower_bound(ell={ell})", 1e-6, AnchorOutsideDomain,
                                check_norm_lower_bound, g, ell, X))

    if isinstance(g, (fn.IndicatorBall, fn.IndicatorBox, fn.IndicatorPoint)):
        reports.append(_guarded("support_distance", TOL_CLOSED, OriginNotInC,
                                check_support_distance, f, g, X))
    return reports


def _guarded(name, tol, errors, check, *args, **kwargs) -> CheckReport:
    """check(*args, **kwargs) under the given name, or a
    precondition_violated report of one of the errors it raised."""
    try:
        rep = check(*args, **kwargs)
    except errors as exc:
        return CheckReport(name, PRECONDITION_VIOLATED, 0.0, 0.0, tol,
                           details={"error": str(exc)})
    rep.name = name
    return rep


def _decomposition_report(h, X, tag) -> CheckReport:
    conj = fn.conjugate_closed_form(h)
    P = engine.prox_rows(h, 1.0, X)[0] + engine.prox_rows(conj, 1.0, X)[0]
    residuals = fn.norms(P - X)
    return sampled_verdict(f"moreau_decomposition({tag})", X, 0.0, 0.0, residuals,
                           TOL_CLOSED, lambda i: f"residual={residuals[i]:.3e}",
                           {"samples": int(X.shape[0])})


def _envelope_gradient_report(h, X, tag, lam: float = 1.0,
                              step: float = 1e-5, tol: float = TOL_NUMERICAL) -> CheckReport:
    """Envelope gradient (x - prox x)/lam against central differences of the
    envelope, at every sample and its 2 d shifted copies in one prox batch."""
    n, d = X.shape
    E = step * np.eye(d)
    shifted = np.concatenate([X[:, None] + E, X[:, None] - E]).reshape(-1, d)
    Y, env = engine.prox_rows(h, lam, np.vstack([X, shifted]))
    ga = (X - Y[:n]) / lam
    up, down = env[n:].reshape(2, n, d)
    gfd = (up - down) / (2 * step)
    residuals = fn.norms(ga - gfd) / np.fmax(1.0, fn.norms(ga))
    return sampled_verdict(f"envelope_gradient({tag})", X, 0.0, 0.0, residuals, tol,
                           lambda i: f"relative_error={residuals[i]:.3e}",
                           {"samples": int(X.shape[0]), "fd_step": step, "lam": lam})
