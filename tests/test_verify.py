"""Theorem checkers: comparison, gradients, norm bound, Lipschitz,
equivalences, support distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxcalc as pc
import proxcalc.verify as verify_module
from proxcalc.errors import AnchorOutsideDomain, OriginNotInC
from proxcalc.verify import (
    _decomposition_report,
    _envelope_gradient_report,
    _worst_sample_report,
    battery_samples,
    check_comparison,
    check_equivalences,
    check_gradient_comparison,
    check_lipschitz,
    check_norm_lower_bound,
    check_support_distance,
    sampled_conjugate_infimum,
    standard_battery,
)

NORM2 = pc.ScaledNorm(1.0, [0.0, 0.0])
SQ2 = pc.Quadratic(np.eye(2))


@pytest.fixture(scope="module")
def X2():
    return battery_samples(2, 17, 150, 6.0)


# ---------------------------------------------------------------------------
# check_comparison
# ---------------------------------------------------------------------------

def test_comparison_indicator_dominates(X2):
    # prox of the point indicator is constantly 0, the strongest hypothesis
    rep = check_comparison(pc.IndicatorPoint([0.0, 0.0]), SQ2, [0.0, 0.0], X2)
    assert rep.status == "verified"


def test_comparison_scaled_norms(X2):
    # ||prox_{2||.||}|| <= ||prox_{||.||}||, so ||x|| <= 2||x||
    rep = check_comparison(pc.ScaledNorm(2.0, [0.0, 0.0]), NORM2, [0.0, 0.0], X2)
    assert rep.status == "verified"
    assert rep.hypothesis_residual == 0.0
    assert rep.conclusion_residual <= 1e-9


def test_comparison_reflexive(X2):
    rep = check_comparison(NORM2, NORM2, [0.0, 0.0], X2)
    assert rep.status == "verified"
    assert rep.hypothesis_residual == 0.0
    assert rep.conclusion_residual == 0.0


def test_comparison_hypothesis_fails_no_conclusion(X2):
    # quadratic prox norms beat norm prox norms near the origin only;
    # on a wide sample the hypothesis fails and nothing is asserted
    rep = check_comparison(NORM2, SQ2, [0.0, 0.0], X2)
    assert rep.status == "hypothesis_fails"
    assert rep.witnesses == []


def test_comparison_anchor_outside():
    with pytest.raises(AnchorOutsideDomain):
        check_comparison(pc.IndicatorPoint([1.0, 0.0]), SQ2, [0.0, 0.0], np.zeros((2, 2)))


def test_comparison_extends_hypothesis_sweep_before_blaming():
    # on a small sample radius the hypothesis of this 5-D pair looks true
    # while its conclusion fails; the checker must widen the hypothesis
    # sweep and report hypothesis_fails instead of a counterexample
    f = pc.ScaledNorm(1.0, [0.0] * 5)
    g = pc.IndicatorHalfspace([1.0] * 5, 1.0)
    X = battery_samples(5, 2, 15, 3.0)
    rep = check_comparison(f, g, [0.0] * 5, X)
    assert rep.status == "hypothesis_fails"
    assert rep.details["hypothesis_sweep_extended"]


class _DoubledNorm(pc.ScaledNorm):
    """Prox of the norm, values of twice the norm: not a consistent pair."""

    def value_many(self, X):
        return 2.0 * super().value_many(X)


def test_comparison_witness_prints_plain_floats(X2):
    rep = check_comparison(NORM2, _DoubledNorm(1.0, [0.0, 0.0]), [0.0, 0.0], X2)
    assert rep.status == "counterexample"
    assert rep.witnesses
    for _, text in rep.witnesses:
        assert "np.float64(" not in text
        gap_g, gap_f = (float(part.split("=")[1]) for part in text.split(" exceeds "))
        assert gap_g == pytest.approx(2.0 * gap_f)


class _Lookup(pc.ConvexFunction):
    """1-D values read from a table at integer points; prox is the identity,
    so two lookups always satisfy the comparison hypothesis."""

    dim = 1

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def value_many(self, X):
        return self.values[X[:, 0].astype(int) % self.values.size]

    def prox_many(self, lam, X):
        return X.copy()


def _comparison_gaps_loop(X, fv, gv, f0, g0, tol_c):
    """Per-sample reference for the conclusion residual and witnesses."""
    concl = 0.0
    witnesses = []
    for x, a, b in zip(X, fv, gv):
        if np.isinf(b) and np.isinf(a):
            continue
        if np.isinf(b):
            gap = float("inf")
        elif np.isinf(a):
            gap = 0.0
        else:
            gap = max((b - g0) - (a - f0), 0.0)
        if gap > tol_c and len(witnesses) < 10:
            witnesses.append((x, f"g-g(x0)={float(b - g0)!r} "
                                 f"exceeds f-f(x0)={float(a - f0)!r}"))
        concl = max(concl, gap)
    return concl, witnesses


_EXTENDED = st.one_of(st.floats(-10.0, 10.0), st.just(float("inf")))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_EXTENDED, _EXTENDED), min_size=1, max_size=40),
       st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
def test_comparison_conclusion_matches_per_sample_loop(pairs, f0, g0):
    fv = np.array([f0] + [a for a, _ in pairs])
    gv = np.array([g0] + [b for _, b in pairs])
    X = np.arange(fv.size, dtype=float).reshape(-1, 1)
    rep = check_comparison(_Lookup(fv), _Lookup(gv), [0.0], X)
    concl, witnesses = _comparison_gaps_loop(X, fv, gv, f0, g0, 1e-6)
    assert rep.hypothesis_residual == 0.0
    assert rep.conclusion_residual == concl
    assert rep.status == ("verified" if concl <= 1e-6 else "counterexample")
    assert [(p.tolist(), t) for p, t in rep.witnesses] == [
        (p.tolist(), t) for p, t in witnesses]


# ---------------------------------------------------------------------------
# check_gradient_comparison
# ---------------------------------------------------------------------------

def test_gradient_comparison_point_envelopes(X2):
    # envelopes of the point indicator: ||x||^2/2 vs ||x||^2
    f = pc.Envelope(pc.IndicatorPoint([0.0, 0.0]), 1.0)
    g = pc.Envelope(pc.IndicatorPoint([0.0, 0.0]), 0.5)
    rep = check_gradient_comparison(f, g, X2)
    assert rep.status == "verified"


def test_gradient_comparison_reflexive(X2):
    f = pc.Envelope(NORM2, 1.0)
    rep = check_gradient_comparison(f, f, X2)
    assert rep.status == "verified"


def test_gradient_comparison_hypothesis_fails(X2):
    # ||grad f_1|| = min(||x||,1) exceeds ||x||/2 around ||x|| = 1.5
    f = pc.Envelope(NORM2, 1.0)
    g = pc.Envelope(SQ2, 1.0)
    rep = check_gradient_comparison(f, g, X2)
    assert rep.status == "hypothesis_fails"


def test_gradient_comparison_wrap_lam(X2):
    rep = check_gradient_comparison(pc.IndicatorPoint([0.0, 0.0]), SQ2, X2, lam=1.0)
    assert rep.status in ("verified", "hypothesis_fails")


# ---------------------------------------------------------------------------
# check_norm_lower_bound
# ---------------------------------------------------------------------------

def test_norm_lower_bound_norm(X2):
    rep = check_norm_lower_bound(NORM2, 1.0, X2)
    assert rep.status == "verified"


def test_norm_lower_bound_constant(X2):
    g = pc.AddConst(pc.Affine([0.0, 0.0], 0.0), 3.0)
    rep = check_norm_lower_bound(g, 0.0, X2)
    assert rep.status == "verified"


def test_norm_lower_bound_quadratic_hypothesis_fails(X2):
    # prox = x/2: at ||x|| = 4 the hypothesis 3 <= 2 is false
    rep = check_norm_lower_bound(SQ2, 1.0, X2)
    assert rep.status == "hypothesis_fails"


# ---------------------------------------------------------------------------
# check_lipschitz
# ---------------------------------------------------------------------------

def test_lipschitz_norm_verified(X2):
    Y = battery_samples(2, 23, 10, 3.0)
    rep = check_lipschitz(NORM2, 1.0, X2, Y)
    assert rep.status == "verified"
    assert rep.details["consistent"]


def test_lipschitz_quadratic_counterexample(X2):
    Y = np.vstack([np.zeros((1, 2)), battery_samples(2, 23, 9, 3.0)])
    rep = check_lipschitz(SQ2, 1.0, X2, Y)
    assert rep.status == "counterexample"
    assert rep.details["consistent"]
    assert rep.details["lhat"] > 1.0
    x_wit = rep.witnesses[0][0]
    assert np.linalg.norm(x_wit) >= 2.0


def test_lipschitz_affine_exact(X2):
    a = np.array([0.6, 0.8])
    Y = battery_samples(2, 23, 8, 3.0)
    rep = check_lipschitz(pc.Affine(a, 0.0), 1.0, X2, Y)
    assert rep.status == "verified"
    assert rep.details["lhat"] == pytest.approx(1.0, abs=1e-2)
    assert rep.details["lhat"] <= 1.0 + 1e-12


def test_lipschitz_requires_finite_values(X2):
    with pytest.raises(ValueError):
        check_lipschitz(pc.IndicatorBall([0.0, 0.0], 1.0), 1.0, X2, X2[:5])


# ---------------------------------------------------------------------------
# check_equivalences
# ---------------------------------------------------------------------------

def test_equivalences_constant_shift(X2):
    rep = check_equivalences(NORM2, pc.AddConst(NORM2, 2.0), X2)
    assert rep.status == "verified"
    assert all(p.endswith("holds") for p in rep.details["pattern"])
    assert rep.details["constant"] == pytest.approx(-2.0, abs=1e-9)


def test_equivalences_reflexive(X2):
    rep = check_equivalences(SQ2, SQ2, X2)
    assert rep.status == "verified"
    assert all(p.endswith("holds") for p in rep.details["pattern"])


def test_equivalences_all_fail_is_uniform(X2):
    rep = check_equivalences(NORM2, pc.ScaledNorm(2.0, [0.0, 0.0]), X2)
    assert rep.status == "verified"
    assert all(p.endswith("fails") for p in rep.details["pattern"])


def test_equivalences_sharpness_example():
    f = pc.IndicatorPoint([1.0, 0.0])
    g = pc.IndicatorPoint([0.0, 1.0])
    X = battery_samples(2, 17, 60, 6.0,
                        extra=[np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    rep = check_equivalences(f, g, X)
    assert rep.status == "precondition_violated"
    pattern = dict(p.split("=") for p in rep.details["pattern"])
    assert pattern["i_prox_norms"] == "holds"
    assert pattern["v_prox_maps"] == "fails"
    assert rep.details["inf_conj_f"] == rep.details["inf_conj_g"] == -np.inf


@pytest.mark.parametrize("f, inf_conj", [
    (NORM2, 0.0),
    (pc.AddConst(NORM2, 2.0), -2.0),
    (pc.ScaledNorm(2.0, [1.0, -1.0]), -2.0 * np.sqrt(2.0)),  # sampled: -2.775
    (pc.Quadratic([[2.0, 0.4], [0.4, 1.0]], [0.3, -0.1], 0.5), -0.5),  # sampled: -0.49989
    (pc.IndicatorHalfspace([1.0, 0.0], 1.0), 0.0),
    (pc.IndicatorBall([1.0001, 0.0], 1.0), -np.inf),  # sampled: -0.012, "bounded"
    (pc.IndicatorPoint([1.0, 0.0]), -np.inf),
])
def test_conjugate_infimum_is_exact(f, inf_conj):
    assert pc.functions.conjugate_infimum(f) == inf_conj


def test_ball_just_off_the_origin_violates_the_precondition(X2):
    f = pc.IndicatorBall([1.0001, 0.0], 1.0)
    for rep in (check_equivalences(f, f, X2), pc.determine_from_norm(f, f, X2, x0=None)):
        assert rep.status == "precondition_violated"
        assert rep.details["inf_conj_f"] == -np.inf


def test_equivalences_constant_is_the_exact_difference_of_infima(X2):
    f = pc.Quadratic([[2.0, 0.4], [0.4, 1.0]], [0.3, -0.1], 0.5)
    g = pc.Tilt(NORM2, [0.3, -0.2])
    rep = check_equivalences(f, g, X2)
    assert rep.details["constant"] == 0.5  # inf g* - inf f* = f(0) - g(0)


def test_sampled_infimum_bounded_cases():
    inf_n, div, radii = sampled_conjugate_infimum(NORM2)
    assert not div
    assert inf_n == pytest.approx(0.0, abs=1e-12)  # conjugate is a ball indicator
    assert radii == (50.0, 100.0, 200.0)
    inf_c, div, _ = sampled_conjugate_infimum(pc.AddConst(NORM2, 2.0))
    assert not div
    assert inf_c == pytest.approx(-2.0, abs=1e-12)


def test_sampled_infimum_divergent_case():
    # conjugate of the point indicator is linear, unbounded below
    _, div, _ = sampled_conjugate_infimum(pc.IndicatorPoint([1.0, 0.0]))
    assert div


def test_sampled_infimum_grid_fallback():
    # halfspace indicator: its conjugate is finite on a ray; classified bounded
    inf_h, div, _ = sampled_conjugate_infimum(pc.IndicatorHalfspace([1.0], 0.0))
    assert not div
    assert inf_h == pytest.approx(0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# check_support_distance
# ---------------------------------------------------------------------------

def test_support_distance_unit_ball(X2):
    rep = check_support_distance(NORM2, pc.IndicatorBall([0.0, 0.0], 1.0), X2)
    assert rep.status == "verified"
    assert rep.hypothesis_residual <= 1e-8


def test_support_distance_origin(X2):
    # support of {0} is the zero function; prox is the identity
    f = pc.Affine([0.0, 0.0], 0.0)
    rep = check_support_distance(f, pc.IndicatorPoint([0.0, 0.0]), X2)
    assert rep.status == "verified"


def test_support_distance_box(X2):
    C = pc.IndicatorBox([-1.0, -1.0], [1.0, 1.0])
    rep = check_support_distance(pc.SupportBox([-1.0, -1.0], [1.0, 1.0]), C, X2)
    assert rep.status == "verified"


def test_support_distance_constant_shift(X2):
    C = pc.IndicatorBall([0.0, 0.0], 1.0)
    rep = check_support_distance(pc.AddConst(pc.SupportBall([0.0, 0.0], 1.0), 3.0), C, X2)
    assert rep.status == "verified"


def test_support_distance_wrong_function(X2):
    rep = check_support_distance(SQ2, pc.IndicatorBall([0.0, 0.0], 1.0), X2)
    assert rep.status == "hypothesis_fails"


def test_support_distance_witness_prints_plain_floats(X2):
    rep = check_support_distance(SQ2, pc.IndicatorBall([0.0, 0.0], 1.0), X2)
    (_, text), = rep.witnesses
    assert text.startswith("prox norm ")
    assert "np.float64(" not in text


def test_support_distance_needs_origin(X2):
    with pytest.raises(OriginNotInC):
        check_support_distance(NORM2, pc.IndicatorBall([5.0, 0.0], 1.0), X2)


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

def test_standard_battery_statuses():
    reports = standard_battery(SQ2, SQ2, [0.0, 0.0], seed=7, count=60, radius=4.0)
    assert len(reports) >= 7
    assert all(r.status == "verified" for r in reports)


def test_battery_no_verified_above_tolerance():
    reports = standard_battery(NORM2, pc.ScaledNorm(2.0, [0.0, 0.0]), [0.0, 0.0],
                               seed=3, count=60, radius=4.0)
    for r in reports:
        if r.status == "verified":
            assert r.conclusion_residual <= r.tolerance


def test_battery_envelope_conjugate_rows_3d(monkeypatch):
    # the benchmark's huber1-halfsq-3d battery: its two envelope_conjugate
    # checks tabulated 2 x 61^3 = 2 x 226,981 envelope rows; a 21^3 lattice
    # plus local refinement needs far fewer
    rows, inside = [0], [False]
    value_many = pc.Envelope.value_many
    check = verify_module.verify_envelope_conjugate

    def counted_value_many(self, X):
        if inside[0]:  # outermost call only: a nested envelope passes through
            rows[0] += X.shape[0]
            inside[0] = False
            try:
                return value_many(self, X)
            finally:
                inside[0] = True
        return value_many(self, X)

    def counted_check(*args, **kwargs):
        inside[0] = True
        try:
            return check(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(pc.Envelope, "value_many", counted_value_many)
    monkeypatch.setattr(verify_module, "verify_envelope_conjugate", counted_check)
    huber = pc.Envelope(pc.ScaledNorm(1.0, [0.0] * 3), 1.0)
    reports = standard_battery(huber, pc.Quadratic(np.eye(3)), [0.0] * 3, seed=7, ell=1.0)
    conj = [r for r in reports if r.name.startswith("envelope_conjugate(")]
    assert [r.status for r in conj] == ["verified", "verified"]
    assert 2 * 21**3 < rows[0] <= 30_000


@pytest.mark.parametrize("call, message", [
    (lambda X: standard_battery(NORM2, NORM2, [0.0, 0.0], 1, ell=float("nan")), "ell"),
    (lambda X: standard_battery(NORM2, NORM2, [0.0, 0.0], 1, ell=-1.0), "ell"),
    (lambda X: standard_battery(NORM2, NORM2, [0.0, 0.0], 1, tol_conclusion=0.0), "tol"),
    (lambda X: battery_samples(2, 1, 200, float("inf")), "radius"),
    (lambda X: battery_samples(2, 1, 0, 6.0), "samples"),
    (lambda X: battery_samples(2, 1, 2.5, 6.0), "samples"),
    (lambda X: check_comparison(NORM2, NORM2, [0.0, 0.0], X, tol_c=float("nan")), "tol"),
    (lambda X: check_norm_lower_bound(NORM2, float("nan"), X), "ell"),
    (lambda X: check_lipschitz(NORM2, float("inf"), X, X[:3]), "ell"),
])
def test_numeric_options_checked_where_they_enter(X2, call, message):
    with pytest.raises(ValueError, match=f"^{message} must be"):
        call(X2)


# ---------------------------------------------------------------------------
# Per-sample reports: the batched prox rows against the per-sample loops
# ---------------------------------------------------------------------------

def _worst_loop(X, residuals):
    """Per-sample reference: the largest residual and the first sample
    attaining it (NaN never wins)."""
    worst, witness = 0.0, None
    for x, r in zip(X, residuals):
        if r > worst:
            worst, witness = r, x
    return worst, witness


def _envelope_gradient_loop(h, X, lam=1.0, step=1e-5):
    residuals = []
    for x in X:
        ga = pc.envelope_gradient(h, lam, x)
        gfd = np.empty_like(ga)
        for i in range(x.size):
            e = np.zeros(x.size)
            e[i] = step
            gfd[i] = (pc.moreau_envelope(h, lam, x + e)
                      - pc.moreau_envelope(h, lam, x - e)) / (2 * step)
        residuals.append(float(np.linalg.norm(ga - gfd) / max(1.0, np.linalg.norm(ga))))
    return residuals


_SAME_BITS = [  # at lam = 1 these batches round exactly as one-row calls
    pc.ScaledNorm(1.0, [0.0, 0.0]),
    pc.Envelope(pc.ScaledNorm(2.0, [0.0, 0.0]), 1.0),
    pc.Quadratic(np.eye(2)),
    pc.IndicatorBall([0.5, 0.0], 1.0),
    pc.ScaledNorm(1.0, [0.0]),
    pc.Envelope(pc.ScaledNorm(1.0, [0.0, 0.0, 0.0]), 1.0),
]


@pytest.mark.parametrize("h", _SAME_BITS, ids=repr)
def test_sample_reports_match_per_sample_loops(h):
    X = battery_samples(h.dim, 5, 60, 6.0, [np.zeros(h.dim)])
    rep = _envelope_gradient_report(h, X, "h")
    worst, witness = _worst_loop(X, _envelope_gradient_loop(h, X))
    assert rep.conclusion_residual == worst
    rep = _decomposition_report(h, X, "h")
    conj = pc.conjugate_closed_form(h)
    worst, witness = _worst_loop(
        X, [pc.moreau_decomposition_residual(h, x, conj=conj) for x in X])
    assert rep.conclusion_residual == worst


def test_sample_reports_near_loops_with_blas_batches():
    # a cross-term quadratic solves its batch in one LAPACK call, which rounds
    # differently from one call per row; finite differences over a 2e-5 span
    # of envelope values near 50 carry about 1e-16 * 50 / 2e-5 = 2.5e-10
    h = pc.Quadratic([[2.0, 0.4], [0.4, 1.0]], [0.3, -0.1], 0.5)
    X = battery_samples(2, 5, 60, 6.0)
    rep = _envelope_gradient_report(h, X, "h")
    worst, _ = _worst_loop(X, _envelope_gradient_loop(h, X))
    assert rep.status == "verified" and abs(rep.conclusion_residual - worst) < 1e-9


_RESIDUAL = st.one_of(st.sampled_from([0.0, 0.5, 2.0, float("inf"), float("nan")]),
                      st.floats(0.0, 3.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(_RESIDUAL, min_size=1, max_size=30), st.floats(0.1, 2.0))
def test_worst_sample_report_matches_per_sample_loop(residuals, tol):
    X = np.arange(len(residuals), dtype=float).reshape(-1, 1)
    rep = _worst_sample_report("r", X, np.array(residuals), tol, "residual", {})
    worst, witness = _worst_loop(X, residuals)
    assert rep.conclusion_residual == worst
    if worst <= tol:
        assert rep.status == "verified" and rep.witnesses == []
    else:
        assert rep.status == "counterexample"
        assert [(p.tolist(), t) for p, t in rep.witnesses] == [
            (witness.tolist(), f"residual={worst:.3e}")]
