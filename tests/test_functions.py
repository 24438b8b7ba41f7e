"""Catalog atoms and combinators: evaluation, conjugates, prox, subdifferentials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxcalc as pc
from proxcalc.errors import (
    DimensionMismatch,
    EmptySubdifferential,
    ExtendedRealError,
    ProxcalcError,
)
from proxcalc.functions import (
    atom_of,
    chain,
    contains_envelope,
    is_indicator_chain,
    structured_probes,
)
from proxcalc.sets import BallSet, BoxSet, EmptySet, HalflineSet, SingletonSet

from conftest import brute_force_conjugate

INF = float("inf")


def norm2(center=(0.0, 0.0), ell=1.0):
    return pc.ScaledNorm(ell, center)


# conjugates finite only on a ray or an affine subspace
HALFSPACE = pc.IndicatorHalfspace([1.0, 0.0], 1.0)
SINGULAR = [
    pc.Quadratic(np.diag([1.0, 0.0])),
    pc.Quadratic([[1.0, 2.0], [2.0, 4.0]], [0.3, -0.4], 0.2),  # rank 1, b != 0
]
THIN_DOMAIN_CONJUGATES = [HALFSPACE, *SINGULAR, pc.Envelope(HALFSPACE, 1.0)]


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_norm():
    assert pc.evaluate(norm2(), [3, 4]) == 5.0


def test_evaluate_indicator_outside():
    assert pc.evaluate(pc.IndicatorBall([0, 0], 1.0), [2, 0]) == INF


def test_evaluate_tilted_quadratic():
    f = pc.Tilt(pc.Quadratic(np.eye(2)), [1, 0])
    assert pc.evaluate(f, [1, 0]) == pytest.approx(-0.5)


def test_evaluate_combinators():
    f = pc.AddConst(pc.Translate(norm2(), [1.0, 0.0]), 3.0)
    assert pc.evaluate(f, [2, 0]) == pytest.approx(6.0)  # ||(3,0)|| + 3


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pc.evaluate(norm2(), [1, 2, 3])


def test_quadratic_rejects_indefinite():
    with pytest.raises(ValueError):
        pc.Quadratic(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        pc.Quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric


def test_quadratic_rejects_indefinite_direction_sampling_misses():
    # the only negative direction is e6; the PSD certificate must be exact
    with pytest.raises(ValueError):
        pc.Quadratic(np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -0.01]))


def test_dimension_cap():
    with pytest.raises(DimensionMismatch):
        pc.ScaledNorm(1.0, np.zeros(17))


# ---------------------------------------------------------------------------
# conjugate_closed_form
# ---------------------------------------------------------------------------

def test_conjugate_half_sq_norm_self():
    f = pc.Quadratic(np.eye(2))
    g = pc.conjugate_closed_form(f)
    for x in ([0.3, -1.2], [2.0, 0.0]):
        assert pc.evaluate(g, x) == pytest.approx(pc.evaluate(f, x))


def test_conjugate_indicator_point_is_linear():
    g = pc.conjugate_closed_form(pc.IndicatorPoint([1.0, 0.0]))
    for q in ([0.0, 0.0], [2.0, -1.0], [0.5, 0.5]):
        assert pc.evaluate(g, q) == pytest.approx(q[0])


def test_conjugate_norm_is_ball_indicator():
    # brute-force sup over a wide grid agrees with the ball indicator
    ell = 1.5
    f = pc.ScaledNorm(ell, [0.0])
    g = pc.conjugate_closed_form(f)
    for q in (0.0, 0.5, 1.0, 1.4999):
        assert pc.evaluate(g, [q]) == 0.0
        bf = brute_force_conjugate(f, [q], -10 * ell, 10 * ell, 40001)
        assert abs(bf - 0.0) < 1e-6
    assert pc.evaluate(g, [1.6]) == INF
    # outside: the brute-force sup grows with the grid radius
    assert brute_force_conjugate(f, [1.6], -10 * ell, 10 * ell) > 1.0


def test_conjugate_quadratic_general():
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    f = pc.Quadratic(Q, [0.3, -0.4], 0.7)
    g = pc.conjugate_closed_form(f)
    for q in ([1.0, 0.0], [-0.5, 2.0]):
        bf = brute_force_conjugate(f, q, -20, 20, 300**2)
        assert pc.evaluate(g, q) == pytest.approx(bf, abs=5e-3)


def test_conjugate_rules_tilt_translate_roundtrip(rng):
    base = pc.Quadratic(np.eye(2), [0.1, 0.2], 0.3)
    for f in (
        pc.Tilt(base, [0.5, -0.3]),
        pc.Translate(base, [1.0, 0.5]),
        pc.AddConst(base, 2.5),
    ):
        g = pc.conjugate_closed_form(f)
        # conjugate correctness via Fenchel-Young equality at smooth points:
        # f(x) + f*(grad f(x)) == <grad f(x), x>
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            gx = pc.minimal_selection(f, x)
            lhs = pc.evaluate(f, x) + pc.evaluate(g, gx)
            assert lhs == pytest.approx(float(np.dot(gx, x)), abs=1e-9)


def test_conjugate_halfspace_is_beta_t_on_the_ray():
    g = pc.conjugate_closed_form(pc.IndicatorHalfspace([2.0, 0.0], 1.5))
    # y = t a with t >= 0 gives beta t; anywhere off the ray is +inf
    assert pc.evaluate(g, [4.0, 0.0]) == 3.0
    assert pc.evaluate(g, [0.0, 0.0]) == 0.0
    for y in ([4.0, 1e-6], [-1.0, 0.0], [0.0, 1.0]):
        assert pc.evaluate(g, y) == INF
    # prox by the Moreau peel: x - proj_H(x) at lam = 1
    X = np.array([[3.0, 1.0], [-2.0, 5.0], [0.5, 0.0]])
    H = pc.IndicatorHalfspace([2.0, 0.0], 1.5)
    assert np.allclose(g.prox_many(1.0, X), X - H.prox_many(1.0, X), atol=1e-15)


def test_conjugate_singular_quadratic_lives_on_b_plus_range():
    f = pc.Quadratic([[1.0, 2.0], [2.0, 4.0]], [0.3, -0.4], 0.2)
    g = pc.conjugate_closed_form(f)
    b, u = np.array([0.3, -0.4]), np.array([1.0, 2.0])
    for t in (-1.0, 0.0, 2.5):
        # Q^+ = u u^T / 25, so (1/2) <Q^+ t u, t u> = t^2 / 2
        assert pc.evaluate(g, b + t * u) == pytest.approx(0.5 * t * t - 0.2, abs=1e-12)
        assert pc.evaluate(g, b + t * u + [2e-3, -1e-3]) == INF
    # prox still fine on both sides: (I + Q)^-1 (x - b) and its Moreau complement
    x = np.array([2.0, 2.0])
    p = pc.prox_closed_form(f, 1.0, x)
    assert np.allclose(p, np.linalg.solve(np.eye(2) + f.Q, x - b))
    assert np.allclose(p + pc.prox_closed_form(g, 1.0, x), x, atol=1e-12)


def test_conjugate_involution_samples(rng):
    cases = [
        pc.Quadratic(np.array([[2.0, 0.3], [0.3, 1.0]]), [0.1, 0.0], 0.2),
        pc.IndicatorBall([0.5, 0.0], 2.0),
        pc.IndicatorBox([-1.0, -0.5], [1.0, 2.0]),
        pc.SupportBall([0.0, 0.0], 1.0),
        pc.Envelope(norm2(), 0.7),
        *THIN_DOMAIN_CONJUGATES,
    ]
    for f in cases:
        ff = pc.conjugate_closed_form(pc.conjugate_closed_form(f))
        for _ in range(25):
            x = rng.uniform(-3, 3, 2)
            a, b = pc.evaluate(f, x), pc.evaluate(ff, x)
            if np.isfinite(a) or np.isfinite(b):
                assert a == pytest.approx(b, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    x1=st.floats(-5, 5), x2=st.floats(-5, 5),
    y1=st.floats(-5, 5), y2=st.floats(-5, 5),
)
def test_fenchel_inequality_property(x1, x2, y1, y2):
    x = np.array([x1, x2])
    y = np.array([y1, y2])
    for f in (
        norm2(),
        pc.Quadratic(np.eye(2)),
        pc.IndicatorBox([-1.0, -1.0], [1.0, 1.0]),
        pc.SupportBall([0.2, 0.0], 1.5),
        *THIN_DOMAIN_CONJUGATES,
    ):
        g = pc.conjugate_closed_form(f)
        # y itself, and its prox under f*, which lies in dom f*
        for v in (y, pc.prox_closed_form(g, 1.0, y)):
            lhs = pc.evaluate(f, x) + pc.evaluate(g, v)
            if np.isfinite(lhs):
                assert lhs >= float(np.dot(x, v)) - 1e-9


# ---------------------------------------------------------------------------
# prox_closed_form
# ---------------------------------------------------------------------------

def test_prox_norm_shrinkage():
    p = pc.prox_closed_form(norm2(), 1.0, [3, 4])
    assert np.allclose(p, [2.4, 3.2])


def test_prox_norm_collapse():
    assert np.allclose(pc.prox_closed_form(norm2(), 1.0, [0.5, 0]), [0, 0])


def test_prox_ball_projection():
    p = pc.prox_closed_form(pc.IndicatorBall([0, 0], 1.0), 1.0, [3, 4])
    assert np.allclose(p, [0.6, 0.8])


def test_prox_combinator_rules(rng):
    base = norm2(ell=1.3)
    cases = [
        pc.Tilt(base, [0.4, -0.2]),
        pc.Translate(base, [0.7, 0.1]),
        pc.AddConst(base, 5.0),
        pc.Envelope(base, 0.8),
        pc.AddQuadratic(base, 0.5),
    ]
    for f in cases:
        for _ in range(15):
            lam = float(rng.uniform(0.3, 2.0))
            x = rng.uniform(-3, 3, 2)
            y = pc.prox_closed_form(f, lam, x)
            fy = pc.evaluate(f, y) + np.dot(x - y, x - y) / (2 * lam)
            # optimality against a probe cloud around the returned point
            for _ in range(50):
                z = y + rng.uniform(-0.5, 0.5, 2)
                fz = pc.evaluate(f, z) + np.dot(x - z, x - z) / (2 * lam)
                assert fy <= fz + 1e-9


def test_prox_nonexpansive(rng):
    for f in (norm2(), pc.IndicatorBox([-1, -1], [1, 1]), pc.SupportBall([0, 0], 2.0)):
        for _ in range(40):
            x, y = rng.uniform(-4, 4, 2), rng.uniform(-4, 4, 2)
            px = pc.prox_closed_form(f, 1.0, x)
            py = pc.prox_closed_form(f, 1.0, y)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-9


# ---------------------------------------------------------------------------
# subdifferential / minimal_selection
# ---------------------------------------------------------------------------

def test_subdiff_norm_at_origin():
    s = pc.subdifferential(norm2(), [0, 0])
    assert isinstance(s, BallSet)
    assert s.radius == 1.0
    assert np.allclose(s.center, 0.0)


def test_subdiff_quadratic_is_gradient():
    f = pc.Quadratic(np.eye(2), [0.5, 0.0])
    s = pc.subdifferential(f, [1.0, 2.0])
    assert isinstance(s, SingletonSet)
    assert np.allclose(s.point, [1.5, 2.0])


def test_subdiff_box_face_normal_cone():
    # at (1, 0.5) on the right face the normal cone is the +e1 halfline
    s = pc.subdifferential(pc.IndicatorBox([0, 0], [1, 1]), [1.0, 0.5])
    assert isinstance(s, BoxSet)
    assert s.lo[0] == 0.0 and s.hi[0] == INF
    assert s.lo[1] == 0.0 and s.hi[1] == 0.0
    # elements (projections of seeded points) obey the normal-cone
    # definition <v, c - x> <= 0 for every c in the box
    rng = np.random.default_rng(3)
    x = np.array([1.0, 0.5])
    for z in rng.uniform(-10, 10, (50, 2)):
        v = s.project(z)
        assert v[0] == max(z[0], 0.0) and v[1] == 0.0
        c = rng.uniform(0, 1, 2)
        assert float(np.dot(v, c - x)) <= 1e-9


def test_subdiff_ball_boundary():
    s = pc.subdifferential(pc.IndicatorBall([0, 0], 1.0), [1.0, 0.0])
    assert isinstance(s, HalflineSet)
    assert np.allclose(s.direction / np.linalg.norm(s.direction), [1, 0])


def test_subdiff_outside_domain_empty():
    s = pc.subdifferential(pc.IndicatorBall([0, 0], 1.0), [2.0, 0.0])
    assert isinstance(s, EmptySet)
    with pytest.raises(EmptySubdifferential):
        pc.minimal_selection(pc.IndicatorBall([0, 0], 1.0), [2.0, 0.0])


def test_minimal_selection_norm():
    assert np.allclose(pc.minimal_selection(norm2(), [0, 0]), [0, 0])
    assert np.allclose(pc.minimal_selection(norm2(), [3, 4]), [0.6, 0.8])


def test_minimal_selection_tilted_norm_at_origin():
    # ball B((-0.5, 0), 1) contains 0, so the least-norm element is 0
    f = pc.Tilt(norm2(), [0.5, 0.0])
    assert np.allclose(pc.minimal_selection(f, [0, 0]), [0, 0])


def test_minimal_selection_is_least_norm(rng):
    cases = [
        (norm2(), [0.0, 0.0]),
        (pc.Tilt(norm2(), [0.3, 0.1]), [0.0, 0.0]),
        (pc.IndicatorBox([0, 0], [1, 1]), [1.0, 0.5]),
        (pc.SupportBox([-1, -1], [1, 1]), [0.0, 0.7]),
    ]
    for f, x in cases:
        s = pc.subdifferential(f, x)
        m = pc.minimal_selection(f, x)
        assert np.linalg.norm(s.project(m) - m) <= 1e-12  # m lies in the set
        # projections of seeded points are elements of the set
        for v in (s.project(z) for z in rng.uniform(-10, 10, (50, 2))):
            assert np.linalg.norm(m) <= np.linalg.norm(v) + 1e-9


def test_envelope_subdiff_matches_gradient_formula():
    f = pc.Envelope(norm2(), 2.0)
    x = np.array([3.0, 4.0])
    s = pc.subdifferential(f, x)
    expected = (x - pc.prox_closed_form(norm2(), 2.0, x)) / 2.0
    assert isinstance(s, SingletonSet)
    assert np.allclose(s.point, expected)


@pytest.mark.parametrize("lam", [float("nan"), INF, -INF, 0.0])
def test_envelope_index_must_be_finite_and_positive(lam):
    with pytest.raises(ValueError, match="envelope index must be finite and > 0"):
        pc.Envelope(norm2(), lam)


@pytest.mark.parametrize("bad", [float("nan"), INF, -INF])
def test_catalog_scalars_must_be_finite(bad):
    cases = [
        (lambda: pc.ScaledNorm(bad, [0.0]), "ell must be finite and >= 0"),
        (lambda: pc.IndicatorBall([0.0], bad), "radius must be finite and > 0"),
        (lambda: pc.SupportBall([0.0], bad), "radius must be finite and > 0"),
        (lambda: pc.IndicatorHalfspace([1.0], bad), "beta must be finite"),
        (lambda: pc.Affine([1.0], bad), "c must be finite"),
        (lambda: pc.Quadratic([[1.0]], None, bad), "c must be finite"),
        (lambda: pc.Quadratic([[1.0, 0.0], [0.0, bad]]), "Q entries must be finite"),
        (lambda: pc.AddConst(norm2(), bad), "c must be finite"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError, match=message):
            make()


def test_extended_real_error_is_library_and_arithmetic_error():
    f = pc.Tilt(pc.Quadratic(np.eye(1)), [1e200])
    with np.errstate(all="ignore"), pytest.raises(ExtendedRealError) as info:
        pc.evaluate(f, [1e200])
    assert isinstance(info.value, ProxcalcError)
    assert isinstance(info.value, ArithmeticError)


def test_chain_walks_from_root_to_atom():
    atom = pc.IndicatorBall([0.0, 0.0], 1.0)
    f = pc.AddConst(pc.Translate(pc.Envelope(pc.Tilt(atom, [1.0, 0.0]), 0.5),
                                 [0.5, -1.0]), 2.0)
    nodes = list(chain(f))
    assert [type(g).__name__ for g in nodes] == [
        "AddConst", "Translate", "Envelope", "Tilt", "IndicatorBall"]
    assert nodes[0] is f and nodes[-1] is atom
    assert list(chain(atom)) == [atom]
    assert atom_of(f) is atom
    assert contains_envelope(f) and not is_indicator_chain(f)
    assert is_indicator_chain(pc.AddQuadratic(pc.Translate(atom, [1.0, 1.0]), 2.0))


def test_structured_probes_subtract_translations_in_order():
    atom = pc.IndicatorPoint([0.3, 0.1])
    f = pc.Translate(pc.Tilt(pc.Translate(atom, [0.1, 0.7]), [1.0, 1.0]), [0.2, -0.4])
    probes = structured_probes(f)
    shift = (np.zeros(2) - np.array([0.2, -0.4])) - np.array([0.1, 0.7])
    assert np.array_equal(probes[0], shift)
    assert np.array_equal(probes[1], atom.p + shift)


def test_gradient_many_never_flags_a_kink():
    norm = pc.ScaledNorm(1.5, [0.5, 0.0])
    ball = pc.IndicatorBall([0.5, 0.0], 2.0)
    box = pc.IndicatorBox([-1.0, -0.5], [1.0, 2.0])
    for f, kinks in ((norm, [[0.5, 0.0], [0.5 + 1e-10, 0.0]]),
                     (ball, [[2.5, 0.0], [0.5, -2.0]]),
                     (box, [[-1.0, 0.3], [0.2, 2.0], [1.0, -0.5]]),
                     (pc.Tilt(pc.Translate(norm, [0.1, 0.0]), [1.0, 1.0]), [[0.4, 0.0]])):
        _, smooth = f.gradient_many(np.array(kinks))
        assert not smooth.any()
        assert not any(isinstance(pc.subdifferential(f, x), SingletonSet) for x in kinks)


def test_gradient_many_of_a_zero_norm_is_smooth_everywhere():
    f = pc.ScaledNorm(0.0, [1.0, 1.0])
    G, smooth = f.gradient_many(np.array([[1.0, 1.0], [3.0, -2.0]]))
    assert smooth.all() and np.array_equal(G, np.zeros((2, 2)))


@pytest.mark.parametrize("f", [
    pc.AddQuadratic(pc.ScaledNorm(1.0, [0.5, 0.0]), 0.7),
    pc.AddQuadratic(pc.Quadratic([[2.0, 0.4], [0.4, 1.0]], [0.3, -0.1]), 1.5),
    pc.Envelope(pc.AddQuadratic(pc.SupportBox([-1.0, 0.0], [1.0, 2.0]), 0.5), 0.3),
    pc.Envelope(pc.Envelope(pc.ScaledNorm(1.0, [0.0, 0.0]), 1.0), 0.5),
], ids=repr)
def test_gradient_many_through_add_quadratic_and_nested_envelopes(f, rng):
    X = np.vstack([rng.uniform(-3.0, 3.0, (80, 2)), [[0.5, 0.0], [0.0, 0.0]]])
    G, smooth = f.gradient_many(X)
    assert smooth.sum() >= 80
    for x, gk in zip(X[smooth], G[smooth]):
        s = pc.subdifferential(f, x)
        assert isinstance(s, SingletonSet) and np.array_equal(s.point, gk)


@pytest.mark.parametrize("inner", [
    pc.Quadratic([[1.0, 1.0], [1.0, 1.0]]),
    pc.IndicatorHalfspace([0.8, -0.6], 0.25),
], ids=repr)
def test_envelope_gradient_many_keeps_batch_rounded_prox_row_by_row(inner):
    # these atoms' prox_many rounds a row differently inside a larger batch,
    # so their envelope flags no row and verify compares sets row by row
    _, smooth = pc.Envelope(pc.Tilt(inner, [0.3, 0.2]), 0.7).gradient_many(np.ones((4, 2)))
    assert not smooth.any()


def test_extended_real_guard():
    # tilting an indicator keeps +inf; no nan may appear
    f = pc.Tilt(pc.IndicatorPoint([1.0]), [2.0])
    assert pc.evaluate(f, [0.0]) == INF
    assert pc.evaluate(f, [1.0]) == pytest.approx(-2.0)
