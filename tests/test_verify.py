"""Theorem checkers: comparison, gradients, norm bound, Lipschitz,
equivalences, support distance."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxcalc as pc
import proxcalc.verify as verify_module
from proxcalc import conjugation
from proxcalc import functions as fn
from proxcalc.errors import (
    AnchorOutsideDomain,
    DimensionMismatch,
    OriginNotInC,
    UnsupportedSubdifferential,
)
from proxcalc.reports import report_to_text, sampled_verdict
from proxcalc.sets import EmptySet, sets_equal
from proxcalc.verify import (
    _self_checks,
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
HUBER2 = pc.Envelope(NORM2, 1.0)
NAN = float("nan")
GOLDEN = Path(__file__).parent / "golden"


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


class _NanProx(pc.ScaledNorm):
    """The norm, with a prox whose first row is NaN."""

    def prox_many(self, lam, X):
        P = super().prox_many(lam, X)
        P[0] = np.nan
        return P


def test_a_nan_hypothesis_residual_fails_the_hypothesis(X2):
    # NaN > tol is false, so a NaN residual passed as a hypothesis that held
    f = _NanProx(1.0, [0.0, 0.0])
    for rep in (check_comparison(f, NORM2, [0.0, 0.0], X2),
                pc.determine_from_norm(f, NORM2, X2, x0=[0.0, 0.0]),
                pc.determine_from_norm(f, NORM2, X2)):
        assert math.isnan(rep.hypothesis_residual)
        assert rep.status == "hypothesis_fails"


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


class _NegatedNorm(pc.ScaledNorm):
    """The identity prox of ell = 0 with values -||x||: not constant."""

    def value_many(self, X):
        return -np.linalg.norm(X, axis=1)


def test_norm_lower_bound_constancy_witness_attains_the_residual(X2):
    rep = check_norm_lower_bound(_NegatedNorm(0.0, [0.0, 0.0]), 0.0, X2)
    norms = np.linalg.norm(X2, axis=1)
    assert rep.status == "counterexample"
    assert rep.conclusion_residual == np.max(norms) - np.min(norms)
    [(point, note)] = rep.witnesses
    assert note == f"gap={rep.conclusion_residual:.3e}"
    assert np.array_equal(point, X2[np.argmin(norms)])


def test_norm_lower_bound_quadratic_hypothesis_fails(X2):
    # prox = x/2: at ||x|| = 4 the hypothesis 3 <= 2 is false
    rep = check_norm_lower_bound(SQ2, 1.0, X2)
    assert rep.status == "hypothesis_fails"


@pytest.mark.parametrize("ell, status", [(6.0, "hypothesis_fails"), (10.0, "hypothesis_fails"),
                                         (100.0, "counterexample")])
def test_norm_lower_bound_scores_infinite_values_as_comparison_does(ell, status):
    # g = +inf on half the samples, so g - g(0) <= ell ||x|| fails there; the
    # hypothesis holds on the samples and fails only at ||x|| > ell, which
    # the widened sweep reaches for ell = 6 and 10 but not for ell = 100
    g = pc.IndicatorHalfspace([1.0, 0.0], 0.0)
    X = battery_samples(2, 1, 200, 6.0)
    outside = np.sum(X[:, 0] > 1e-9)
    rep = check_norm_lower_bound(g, ell, X)
    assert outside == 99 and rep.status == status
    if status == "counterexample":
        assert rep.hypothesis_residual == 0.0 and rep.conclusion_residual == np.inf
        assert len(rep.witnesses) == 1 and rep.witnesses[0][0][0] > 0.0
    else:
        assert rep.hypothesis_residual > 1e-6


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


def test_lipschitz_scores_every_pair_in_one_prox_batch(monkeypatch, X2):
    Y = np.vstack([battery_samples(2, 23, 9, 3.0), np.zeros((1, 2))])
    # the first (y, x) pair of the largest gap, y-major, as one batch per y finds it
    gaps = [fn.norms(X2) - 1.0 - fn.norms(SQ2.prox_many(1.0, X2 + y) - y) for y in Y]
    j, i = np.unravel_index(np.argmax(gaps), (len(Y), len(X2)))
    calls = [0]
    prox_many = pc.Quadratic.prox_many

    def counted(self, lam, X):
        calls[0] += 1
        return prox_many(self, lam, X)

    monkeypatch.setattr(pc.Quadratic, "prox_many", counted)
    rep = check_lipschitz(SQ2, 1.0, X2, Y)
    assert calls[0] == 1  # one per y, 10, before
    assert rep.status == "counterexample"
    assert rep.conclusion_residual == gaps[j][i]
    assert np.array_equal(rep.witnesses[0][0], X2[i])
    assert rep.witnesses[0][1].startswith(f"with y={Y[j].tolist()} ")
    empty = check_lipschitz(NORM2, 1.0, X2, np.empty((0, 2)))
    assert empty.conclusion_residual == 0.0 and empty.status == "verified"


def _tensor_lhat(fv, X):
    # the quotient over the full (n, n, d) difference tensor, every pair twice
    diffs = np.abs(fv[:, None] - fv[None, :])
    dists = fn.norms(X[:, None, :] - X[None, :, :])
    mask = dists > 1e-12
    return float(np.max(diffs[mask] / dists[mask])) if np.any(mask) else 0.0


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("n", [0, 1, 2, 181, 205])  # 181: a last block of one row
def test_lipschitz_quotient_matches_the_full_pair_tensor(dim, n):
    rng = np.random.default_rng(100 * dim + n)
    X = rng.normal(size=(n, dim)) * 3.0
    if n > 4:
        X[3] = X[1]                 # a duplicate row
        X[4] = X[0] + 1e-13 / dim   # a near duplicate, closer than 1e-12
    f = pc.Quadratic(np.diag(rng.uniform(0.5, 2.0, dim)), rng.normal(size=dim))
    rep = check_lipschitz(f, 1.0, X, X[:2])
    assert rep.details["lhat"] == _tensor_lhat(fn.evaluate_many(f, X), X)
    # values unrelated to X: an unmasked (near) duplicate would dominate
    fv = rng.normal(size=n)
    assert verify_module._max_quotient(fv, X) == _tensor_lhat(fv, X)


def test_lipschitz_quotient_memory_does_not_grow_as_n_squared_d():
    X = battery_samples(16, 3, 1001, 4.0)
    f = pc.ScaledNorm(1.0, np.zeros(16))
    tracemalloc.start()
    try:
        rep = check_lipschitz(f, 1.0, X, X[:1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.status == "verified"
    assert peak < 16 * 2 ** 20  # the (n, n, d) tensor alone is 128 MB


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


def _subdiff_items_row_by_row(f, g, X, tol):
    """The structured-set loop over every row: the reference that the
    batched items iii and iv must reproduce exactly."""
    r3 = r4 = 0.0
    try:
        for x in X:
            sf, sg = pc.subdifferential(f, x), pc.subdifferential(g, x)
            ef, eg = isinstance(sf, EmptySet), isinstance(sg, EmptySet)
            if ef or eg:
                if ef != eg:
                    r3 = r4 = float("inf")
                continue
            r3 = max(r3, float(np.linalg.norm(sf.min_norm_element() - sg.min_norm_element())))
            if not sets_equal(sf, sg, tol):
                r4 = float("inf")
    except UnsupportedSubdifferential:
        return 0.0, 0.0, True
    return r3, r4, False


HUBER2 = pc.Envelope(NORM2, 1.0)


@pytest.mark.parametrize("f, g", [
    (HUBER2, pc.AddConst(HUBER2, 2.0)),  # every row smooth, items hold
    (HUBER2, SQ2),  # every row smooth, items fail
    (pc.Envelope(pc.ScaledNorm(1.0, [1e-3, 0.0]), 1.0), HUBER2),  # small gaps
    (NORM2, HUBER2),  # a ball against a singleton at the centre
    (NORM2, pc.Tilt(pc.Translate(NORM2, [0.5, 0.0]), [0.1, 0.0])),
    (pc.IndicatorBall([0.0, 0.0], 2.0), pc.IndicatorBox([-2.0, -1.0], [2.0, 1.0])),  # empties
    (pc.SupportBall([0.0, 0.0], 1.0), pc.SupportBox([-1.0, -1.0], [1.0, 1.0])),  # ball vs box
    (pc.Quadratic([[2.0, 0.4], [0.4, 1.0]], [0.3, -0.1]), pc.Affine([1.0, -1.0])),
    (pc.Envelope(SQ2, 0.7), pc.Quadratic(np.eye(2) / 1.7)),  # envelope of a quadratic
    (pc.functions.SupportHalfspace([1.0, 0.0], 1.0), NORM2),  # unsupported
    (HUBER2, pc.functions.SupportHalfspace([1.0, 0.0], 1.0)),
], ids=repr)
def test_subdiff_items_match_the_row_by_row_loop(f, g, X2):
    X = np.vstack([X2, np.zeros(2), *pc.functions.structured_probes(f),
                   *pc.functions.structured_probes(g), np.zeros(2)])
    for tol in (1e-8, 1e-2):
        got = verify_module._subdiff_items(f, g, X, tol)
        assert got == _subdiff_items_row_by_row(f, g, X, tol)


def test_equivalences_on_smooth_pairs_skip_the_subdifferential_loop(monkeypatch):
    # the 2-D Huber battery: 200 samples, the structured probes and the anchor
    calls = {"subdifferential": 0, "prox_many": 0}
    subdifferential, prox_many = pc.functions.subdifferential, pc.ScaledNorm.prox_many

    def counted_subdifferential(f, x):
        calls["subdifferential"] += 1
        return subdifferential(f, x)

    def counted_prox_many(self, lam, X):
        calls["prox_many"] += 1
        return prox_many(self, lam, X)

    monkeypatch.setattr(pc.functions, "subdifferential", counted_subdifferential)
    monkeypatch.setattr(pc.ScaledNorm, "prox_many", counted_prox_many)
    extra = [*pc.functions.structured_probes(HUBER2)] * 2 + [np.zeros(2)]
    X = battery_samples(2, 5, 200, 6.0, extra)
    assert X.shape[0] == 205
    rep = check_equivalences(HUBER2, HUBER2, X)
    assert rep.status == "verified"
    assert calls["subdifferential"] == 0  # 410 with a set loop over every row
    assert calls["prox_many"] <= 8  # 416 with a set loop over every row


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


def test_support_distance_reports_the_determination_constant(X2):
    # f = sigma_C + 5: the constant is inf sigma_C* - inf f* = f(0) = 5, not inf sigma_C* = 0
    f = pc.AddConst(pc.SupportBall([0.0, 0.0], 1.0), 5.0)
    rep = check_support_distance(f, pc.IndicatorBall([0.0, 0.0], 1.0), X2)
    assert rep.status == "verified"
    assert rep.details["constant"] == 5.0


class _DoubledNorm(pc.ScaledNorm):
    """Prox of the norm, values of twice the norm: not a consistent pair."""

    def value_many(self, X):
        return 2.0 * super().value_many(X)


def test_support_distance_counterexample_carries_the_backward_witnesses(X2):
    f, C = _DoubledNorm(1.0, [0.0, 0.0]), pc.IndicatorBall([0.0, 0.0], 1.0)
    rep = check_support_distance(f, C, X2)
    back = pc.determine_from_norm(f, pc.SupportBall([0.0, 0.0], 1.0), X2, x0=None,
                                  tol_h=1e-7)
    assert rep.status == back.status == "counterexample"
    assert len(rep.witnesses) == 10
    assert [(p.tolist(), t) for p, t in rep.witnesses] == \
        [(p.tolist(), t) for p, t in back.witnesses]


def test_support_distance_needs_origin(X2):
    with pytest.raises(OriginNotInC):
        check_support_distance(NORM2, pc.IndicatorBall([5.0, 0.0], 1.0), X2)


def _two_pass_support_distance(f, C, X, tol):
    """The support-distance check as two passes: the distance test by hand,
    then determine_from_norm against sigma_C under the tolerance max(tol, 1e-7)."""
    proj = C.prox_many(1.0, X)
    dists = fn.norms(X - proj)
    pnorms = fn.norms(f.prox_many(1.0, X))
    gaps = np.abs(pnorms - dists)
    forward = float(np.max(gaps))
    if forward <= tol:
        back = pc.determine_from_norm(f, verify_module.support_function_of(C), X, x0=None,
                                      tol_h=max(tol, 1e-7))
        return pc.CheckReport("support_distance", back.status, forward,
                              back.conclusion_residual, tol, back.witnesses, {
                                  "forward_residual": forward,
                                  "backward_status": back.status,
                                  "constant": back.details["inf_conj_g"]
                                  - back.details["inf_conj_f"],
                                  "samples": int(X.shape[0])})
    worst = int(np.argmax(gaps))
    return pc.CheckReport("support_distance", "hypothesis_fails", forward, 0.0, tol,
                          [(X[worst], f"prox norm {float(pnorms[worst])!r} "
                                      f"vs distance {float(dists[worst])!r}")],
                          {"forward_residual": forward, "samples": int(X.shape[0])})


def _support_distance_cases(d):
    """(f, C) pairs that verify, fail the hypothesis and meet a counterexample."""
    zero, centre = np.zeros(d), np.full(d, 0.3 / np.sqrt(d))
    return [
        (pc.SupportBall(zero, 1.0), pc.IndicatorBall(zero, 1.0)),
        (pc.AddConst(pc.SupportBall(centre, 2.0), 3.0), pc.IndicatorBall(centre, 2.0)),
        (pc.SupportBox(np.full(d, -1.0), np.linspace(0.5, 2.0, d)),
         pc.IndicatorBox(np.full(d, -1.0), np.linspace(0.5, 2.0, d))),
        (pc.Affine(zero, 0.0), pc.IndicatorPoint(zero)),
        (pc.Quadratic(np.eye(d)), pc.IndicatorBall(zero, 1.0)),
        (pc.ScaledNorm(2.0, zero), pc.IndicatorBall(centre, 1.0)),
        (pc.SupportBall(zero, 1.0), pc.IndicatorBox(-np.ones(d), np.ones(d))),
        (_DoubledNorm(1.0, zero), pc.IndicatorBall(zero, 1.0)),
        (_DoubledNorm(1.0, zero), pc.IndicatorBall(centre, 1.0)),
    ]


@pytest.mark.parametrize("d", [1, 2, 8])
@pytest.mark.parametrize("tol", [1e-9, 1e-8, 1e-6])
def test_support_distance_matches_the_two_pass_check(d, tol):
    statuses = set()
    for seed in (1, 2):
        X = battery_samples(d, seed, 60, 4.0, [np.zeros(d)])
        for f, C in _support_distance_cases(d):
            rep = check_support_distance(f, C, X, tol=tol)
            assert report_to_text(rep) == report_to_text(
                _two_pass_support_distance(f, C, X, tol))
            statuses.add(rep.status)
    assert statuses == {"verified", "hypothesis_fails", "counterexample"}


def _support_distance_batches(monkeypatch, f, C, X):
    """The status of check_support_distance(f, C, X), and its prox batches of f
    and its projections onto C."""
    calls = {"f": 0, "projection": 0}
    prox_f, project = f.prox_many, pc.IndicatorBall.prox_many

    def counted_f(lam, X):
        calls["f"] += 1
        return prox_f(lam, X)

    def counted_projection(self, lam, X):
        calls["projection"] += self is not f.indicator  # f's own prox projects too
        return project(self, lam, X)

    monkeypatch.setattr(f, "prox_many", counted_f)
    monkeypatch.setattr(pc.IndicatorBall, "prox_many", counted_projection)
    return check_support_distance(f, C, X).status, calls


def test_support_distance_scores_one_prox_batch_of_f_and_one_projection(monkeypatch, X2):
    f, C = pc.SupportBall([0.0, 0.0], 1.0), pc.IndicatorBall([0.0, 0.0], 1.0)
    assert _support_distance_batches(monkeypatch, f, C, X2) == (
        "verified", {"f": 1, "projection": 1})


def test_a_failing_support_distance_scores_one_prox_batch_of_f_and_one_projection(
        monkeypatch, X2):
    # the witness of a failing forward residual comes from the determination's
    # batches, where a second prox batch of f and a second projection made it
    f, C = pc.SupportBall([0.0, 0.0], 2.0), pc.IndicatorBall([0.0, 0.0], 1.0)
    assert _support_distance_batches(monkeypatch, f, C, X2) == (
        "hypothesis_fails", {"f": 1, "projection": 1})


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


def test_battery_self_checks_make_one_prox_batch_of_h_and_of_its_conjugate(monkeypatch):
    # with the other checkers stubbed out, every prox batch of the battery is
    # a self-check's: per function h one batch of h and one of h* on the
    # samples X, and no ascent towards a conjugate value
    huber = pc.Envelope(pc.ScaledNorm(1.0, [0.0] * 3), 1.0)
    quad = pc.Quadratic(np.eye(3))
    batches, samples, ascents = [], [], []

    def counted(label, prox_many):
        def prox(lam, X):
            batches.append((label, lam, X.copy()))
            return prox_many(lam, X)
        return prox

    def recorded(name, original):
        def call(*args, **kwargs):
            ascents.append(name)
            return original(*args, **kwargs)
        return call

    def conjugate_closed_form(h):
        conj = h.conjugate()
        conj.prox_many = counted(f"{h!r}*", conj.prox_many)
        return conj

    def stub_equivalences(f, g, X):
        samples.append(X)
        return pc.CheckReport("equivalences", "verified", 0.0, 0.0, 0.0)

    for h in (huber, quad):
        monkeypatch.setattr(h, "prox_many", counted(repr(h), h.prox_many))
    monkeypatch.setattr(fn, "conjugate_closed_form", conjugate_closed_form)
    monkeypatch.setattr(verify_module, "check_comparison",
                        lambda *args, **kwargs: pc.CheckReport("c", "verified", 0.0, 0.0, 0.0))
    monkeypatch.setattr(verify_module, "check_equivalences", stub_equivalences)
    for name in ("verify_envelope_conjugate", "ascend"):
        monkeypatch.setattr(conjugation, name, recorded(name, getattr(conjugation, name)))
    reports = standard_battery(huber, quad, [0.0] * 3, seed=7)
    assert ascents == []
    assert sorted(label for label, _, _ in batches) == sorted(
        [repr(huber), f"{huber!r}*", repr(quad), f"{quad!r}*"])
    for _, lam, X in batches:
        assert lam == 1.0 and np.array_equal(X, samples[0])
    assert all(r.status == "verified" for r in reports)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16])
@pytest.mark.parametrize("make", [
    lambda z: pc.ScaledNorm(1.0, z),
    lambda z: pc.Tilt(pc.ScaledNorm(1.0, z), [0.3] + [0.0] * (len(z) - 1)),
    lambda z: pc.Envelope(pc.ScaledNorm(1.0, z), 1.0),
], ids=["norm", "tilted_norm", "huber"])
def test_battery_envelope_conjugate_in_every_dimension(dim, make):
    # the gradient points s = x - prox_f(x) lie in the unit ball dom f* in
    # every dimension, so the Fenchel-Young gap is finite at each sample
    z = [0.0] * dim
    f = make(z)
    reports = standard_battery(f, f, z, seed=1, count=60)
    conj = [r for r in reports if r.name.startswith("envelope_conjugate(")]
    assert [r.name for r in conj] == ["envelope_conjugate(f)", "envelope_conjugate(g)"]
    for r in conj:
        assert r.status == "verified", (r.name, r.conclusion_residual)


_HELPER_REPORTS = ("comparison(", "moreau_decomposition(", "envelope_gradient(",
                   "envelope_conjugate(", "norm_lower_bound(")


@pytest.mark.parametrize("f_doc, g_doc, seed, ell", [
    ("cross_quadratic", "tilted_norm", 0, 1.0),
    ("env_norm", "unit_ball", 3, None),
    ("env_norm_3d", "half_sq_3d", 7, 1.0),
])
def test_battery_sampled_reports_witness_exactly_their_counterexamples(f_doc, g_doc,
                                                                       seed, ell):
    # three golden verify-all pairs; a sampled report carries witnesses
    # exactly when it is a counterexample, so a hypothesis_fails one has none
    f, g = (pc.load_document(str(GOLDEN / f"{doc}.json")) for doc in (f_doc, g_doc))
    reports = standard_battery(f, g, [0.0] * f.dim, seed, ell=ell)
    sampled = [r for r in reports if r.name.startswith(_HELPER_REPORTS)]
    assert len(sampled) >= 8
    assert {r.status for r in sampled} >= {"verified", "hypothesis_fails"}
    for r in sampled:
        assert (r.status == "counterexample") == bool(r.witnesses), r.name


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
    # a NaN tolerance compares false both ways; it must not reach a verdict
    (lambda X: check_comparison(HUBER2, HUBER2, [0.0, 0.0], X, tol_h=NAN), "tol_h"),
    (lambda X: check_gradient_comparison(HUBER2, HUBER2, X, tol=NAN), "tol"),
    (lambda X: check_norm_lower_bound(HUBER2, 1.0, X, tol=NAN), "tol"),
    (lambda X: check_lipschitz(HUBER2, 1.0, X, X[:3], tol=-1.0), "tol"),
    (lambda X: check_equivalences(HUBER2, HUBER2, X, tol_prox=NAN), "tol_prox"),
    (lambda X: check_equivalences(HUBER2, HUBER2, X, tol_value=NAN), "tol_value"),
    (lambda X: check_support_distance(HUBER2, pc.IndicatorBall([0.0, 0.0], 1.0), X,
                                      tol=NAN), "tol"),
    (lambda X: pc.determine_from_norm(HUBER2, HUBER2, X, tol_h=NAN), "tol_h"),
    (lambda X: pc.determine_from_norm(HUBER2, HUBER2, X, tol_c=NAN), "tol_c"),
    (lambda X: pc.verify_envelope_conjugate(
        NORM2, 1.0, pc.SampleGrid([-5.0, -5.0], [5.0, 5.0], [21, 21]), X[:5], tol=NAN),
     "tol"),
])
def test_numeric_options_checked_where_they_enter(X2, call, message):
    with pytest.raises(ValueError, match=f"^{message} must be"):
        call(X2)


_CHECKERS = [  # every checker, and determine_from_norm, on samples S
    lambda S: check_comparison(NORM2, SQ2, [0.0, 0.0], S),
    lambda S: check_gradient_comparison(NORM2, SQ2, S, lam=1.0),
    lambda S: check_norm_lower_bound(SQ2, 1.0, S),
    lambda S: check_lipschitz(NORM2, 1.0, S, [[0.0, 0.0]]),
    lambda S: check_lipschitz(NORM2, 1.0, [[0.0, 0.0]], S),
    lambda S: check_equivalences(NORM2, SQ2, S),
    lambda S: check_support_distance(NORM2, pc.IndicatorBall([0.0, 0.0], 1.0), S),
    lambda S: pc.determine_from_norm(NORM2, SQ2, S),
    lambda S: pc.determine_from_norm(NORM2, SQ2, S, x0=[0.0, 0.0]),
]


@pytest.mark.parametrize("call", _CHECKERS)
def test_samples_checked_on_entry(monkeypatch, call):
    # a NaN coordinate and a wrong width are refused before any prox batch
    def no_prox(self, lam, X):
        raise AssertionError("a prox batch ran on unchecked samples")

    monkeypatch.setattr(pc.ScaledNorm, "prox_many", no_prox)
    monkeypatch.setattr(pc.Quadratic, "prox_many", no_prox)
    with pytest.raises(ValueError, match="^query coordinates must be finite$"):
        call(np.array([[1.0, 0.5], [NAN, 0.2]]))
    with pytest.raises(DimensionMismatch, match=r"got shape \(3, 3\)"):
        call(np.zeros((3, 3)))


def test_a_vector_of_one_dimensional_samples_is_n_points():
    rep = check_comparison(pc.ScaledNorm(1.0, [0.0]), pc.Quadratic([[1.0]]), [0.0],
                           [0.5, 1.0, 2.0])
    assert rep.details["samples"] == 3


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


_SAME_BITS = [  # at lam = 1 these batches round exactly as one-row calls
    pc.ScaledNorm(1.0, [0.0, 0.0]),
    pc.Envelope(pc.ScaledNorm(2.0, [0.0, 0.0]), 1.0),
    pc.Quadratic(np.eye(2)),
    pc.IndicatorBall([0.5, 0.0], 1.0),
    pc.ScaledNorm(1.0, [0.0]),
    pc.Envelope(pc.ScaledNorm(1.0, [0.0, 0.0, 0.0]), 1.0),
]


def _self_check_loops(h, X):
    """The three self-check residuals, one sample at a time: the prox of h
    and of its closed-form conjugate, values by ``pc.evaluate``, and sums
    left to right as ``fn.dots`` takes them."""
    conj = pc.conjugate_closed_form(h)
    norm = lambda w: math.sqrt(sum(w * w))
    rows = []
    for x in X:
        p = pc.prox(h, 1.0, x).minimizer
        s = x - p
        hp, hs, ps = pc.evaluate(h, p), pc.evaluate(conj, s), sum(p * s)
        G, smooth = h.gradient_many(p[None])
        inclusion = math.inf if hp == math.inf else (
            norm(G[0] - s) / max(1.0, norm(s)) if smooth[0] else 0.0)
        gap = (abs(hp + hs - ps) / (1.0 + abs(hp) + abs(hs) + abs(ps))
               if max(hp, hs) < math.inf else math.inf)
        rows.append((norm(p + pc.prox(conj, 1.0, x).minimizer - x), inclusion, gap))
    return zip(*rows)


@pytest.mark.parametrize("h", _SAME_BITS, ids=repr)
def test_sample_reports_match_per_sample_loops(h):
    X = battery_samples(h.dim, 5, 60, 6.0, [np.zeros(h.dim)])
    reports = _self_checks(h, X, "h")
    assert [r.name for r in reports] == [
        "moreau_decomposition(h)", "envelope_gradient(h)", "envelope_conjugate(h)"]
    for rep, residuals in zip(reports, _self_check_loops(h, X)):
        assert rep.conclusion_residual == _worst_loop(X, residuals)[0], rep.name
        assert rep.status == "verified" and rep.tolerance == 1e-8


_RESIDUAL = st.one_of(st.sampled_from([0.0, 0.5, 2.0, float("inf"), float("nan")]),
                      st.floats(0.0, 3.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(_RESIDUAL, min_size=1, max_size=30), st.floats(0.1, 2.0),
       st.sampled_from([0.0, 1.0]))
def test_sampled_verdict_worst_witness_matches_per_sample_loop(residuals, tol, hyp):
    X = np.arange(len(residuals), dtype=float).reshape(-1, 1)
    gaps = np.array(residuals)
    rep = sampled_verdict("r", X, hyp, 0.5, gaps, tol,
                          lambda i: f"residual={gaps[i]:.3e}", {})
    worst, witness = _worst_loop(X, residuals)
    assert rep.conclusion_residual == worst
    if hyp > 0.5:
        assert rep.status == "hypothesis_fails" and rep.witnesses == []
    elif worst <= tol:
        assert rep.status == "verified" and rep.witnesses == []
    else:
        assert rep.status == "counterexample"
        assert [(p.tolist(), t) for p, t in rep.witnesses] == [
            (witness.tolist(), f"residual={worst:.3e}")]
