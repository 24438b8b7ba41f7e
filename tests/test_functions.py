"""Catalog atoms and combinators: evaluation, conjugates, prox, subdifferentials."""

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from proxcalc.sampling import Lcg
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
@example(x1=0.0, x2=2.0, y1=0.0, y2=1e-9)
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
            # a thin-domain conjugate accepts v within MEMBERSHIP_TOL of its
            # domain, where <x, v> may exceed f(x) + f*(v) by that much times ||x||
            if np.isfinite(lhs):
                slack = pc.functions.MEMBERSHIP_TOL * (1.0 + np.linalg.norm(x))
                assert lhs >= float(np.dot(x, v)) - slack


# ---------------------------------------------------------------------------
# dots, the row-exact kernel
# ---------------------------------------------------------------------------

def _dots_reference(X, A):
    """<x, a> written out for every broadcast row: each product added to
    0.0 in Python floats, left to right."""
    X, A = np.broadcast_arrays(X, A)
    out = np.empty(X.shape[:-1])
    for idx in np.ndindex(out.shape):
        s = 0.0
        for x, a in zip(X[idx].tolist(), A[idx].tolist()):
            s = s + x * a
        out[idx] = s
    return out


def _entries(rng, shape):
    special = np.array([0.0, -0.0, INF, -INF, np.nan, 1.5, -2.25])
    X = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    pick = rng.random(shape) < 0.3
    X[pick] = rng.choice(special, size=int(pick.sum()))
    return X


@pytest.mark.parametrize("d", range(1, 17))
def test_dots_keeps_its_bits(d):
    rng = np.random.default_rng(d)
    v, w, X, A = (_entries(rng, s) for s in [(d,), (d,), (9, d), (9, d)])
    M, X3 = _entries(rng, (4, d)), _entries(rng, (3, 9, d))
    # products of signed zeros only: a sum that began at the first product
    # would keep -0.0 where the sum from 0.0 gives 0.0
    Z, W = rng.choice([0.0, -0.0], size=(2, 9, d))
    Z[0], W[0] = 0.0, -0.0
    pairs = [(v, w), (X, A), (X, w), (X3, A), (X[..., None, :], M), (Z, W), (Z[0], W[0])]
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf are NaN here
        cases = [(pc.functions.dots(P, Q), _dots_reference(P, Q)) for P, Q in pairs]
    for got, ref in cases:
        assert np.shape(got) == ref.shape
        assert np.array_equal(got, ref, equal_nan=True)
        # a NaN's sign is no part of its value (the hardware picks it)
        num = ~np.isnan(ref)
        assert np.array_equal(np.signbit(got)[num], np.signbit(ref)[num])


def test_norms_of_finite_rows_do_not_overflow():
    # squares past the float range made the norm of a finite row +inf, so a
    # finite function evaluated to +inf and the prox of a tilted norm went wrong
    assert pc.evaluate(pc.ScaledNorm(1.0, [0.0]), [1e200]) == 1e200
    tilted = pc.Tilt(pc.ScaledNorm(1.0, [0.0, 0.0]), [0.3, 0.2])
    assert pc.prox_closed_form(tilted, 1e300, [3.0, 4.0]).tolist() == [0.0, 0.0]
    big = 2.0 ** 600
    W = np.array([[1e155, 0.0], [3.0 * big, -4.0 * big], [3.0, 4.0], [1.5e308, 1.5e308],
                  [INF, 1.0], [np.nan, 1e200]])
    got = pc.functions.norms(W)
    assert got.tolist()[:5] == [1e155, 5.0 * big, 5.0, INF, INF] and np.isnan(got[5])
    # a row gets the same bits alone and in any batch
    for w, n in zip(W, got):
        assert np.array_equal(pc.functions.norms(w), n, equal_nan=True)
    # rows whose squares stay finite keep the plain square root
    rng = np.random.default_rng(5)
    for d in (1, 2, 8):
        X = _entries(rng, (40, d))
        with np.errstate(invalid="ignore"):
            assert np.array_equal(pc.functions.norms(X),
                                  np.sqrt(pc.functions.sq_norms(X)), equal_nan=True)


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


# one 4-D instance per document kind, plus the two conjugate-only atoms
_Q4 = np.array([[2.0, 0.4, -0.3, 0.1], [0.4, 1.5, 0.2, 0.0],
                [-0.3, 0.2, 1.0, 0.5], [0.1, 0.0, 0.5, 0.8]])
_ATOMS_4D = {
    "affine": pc.Affine([0.3, -0.2, 0.7, 0.1], 0.4),
    "quadratic": pc.Quadratic(_Q4, [0.3, -0.1, 0.2, 0.5], 0.5),
    "scaled_norm": pc.ScaledNorm(1.5, [0.5, -1.0, 0.2, 0.0]),
    "indicator_point": pc.IndicatorPoint([0.1, 0.2, 0.3, -0.4]),
    "indicator_ball": pc.IndicatorBall([0.5, 0.0, -0.2, 0.1], 1.5),
    "indicator_box": pc.IndicatorBox([-1.0, -0.5, 0.0, -2.0], [1.0, 2.0, 1.0, 0.5]),
    "indicator_halfspace": pc.IndicatorHalfspace([0.8, -0.6, 0.3, 0.1], 0.25),
    "support_ball": pc.SupportBall([0.2, -0.1, 0.0, 0.3], 1.2),
    "support_box": pc.SupportBox([-1.0, -0.5, 0.0, -2.0], [1.0, 2.0, 1.0, 0.5]),
    "SubspaceQuadratic": pc.Quadratic([[1.0, 2.0, 0.0, 1.0], [2.0, 4.0, 0.0, 2.0],
                                       [0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 0.0, 1.0]],
                                      [0.3, -0.4, 0.0, 0.1]).conjugate(),
    "SupportHalfspace": pc.IndicatorHalfspace([0.8, -0.6, 0.3, 0.1], 0.25).conjugate(),
}
_WRAPPERS = {
    "bare": lambda f: f,
    "envelope": lambda f: pc.Envelope(f, 0.7),
    "tilt": lambda f: pc.Tilt(f, [0.3, 0.2, -0.1, 0.4]),
    "translate": lambda f: pc.Translate(f, [-0.5, 0.1, 0.2, 0.3]),
    "add_const": lambda f: pc.AddConst(f, 1.5),
}
_ROW_CASES = {f"{w}({a})": wrap(f) for a, f in _ATOMS_4D.items() for w, wrap in _WRAPPERS.items()}


def test_row_cases_cover_every_document_kind():
    from proxcalc.specfmt import _KINDS

    assert set(_KINDS) <= set(_ATOMS_4D) | set(_WRAPPERS)
    assert {type(f).__name__ for f in _ATOMS_4D.values()} >= {"SubspaceQuadratic",
                                                              "SupportHalfspace"}


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("name", sorted(_ROW_CASES))
def test_a_row_rounds_alike_alone_and_in_a_batch(name):
    # every product sums coordinates left to right, one column at a time, so
    # neither the batch shape nor the BLAS build moves a bit
    f = _ROW_CASES[name]
    X = Lcg(5).points_in_ball(500, 4, 3.0)
    batch = {"prox_many": f.prox_many(0.6, X), "value_many": f.value_many(X),
             "gradient": f.gradient_many(X)[0], "smooth": f.gradient_many(X)[1]}
    for k in range(0, 500, 23):
        x = X[k:k + 1]
        alone = {"prox_many": f.prox_many(0.6, x), "value_many": f.value_many(x),
                 "gradient": f.gradient_many(x)[0], "smooth": f.gradient_many(x)[1]}
        for key, rows in batch.items():
            assert _bits(alone[key][0]) == _bits(rows[k]), (key, k)


@pytest.mark.parametrize("inner", [_ATOMS_4D["quadratic"], _ATOMS_4D["indicator_halfspace"]],
                         ids=repr)
@pytest.mark.parametrize("wrap", [lambda f: f, lambda f: pc.Tilt(f, [0.3, 0.2, -0.1, 0.4])],
                         ids=["bare", "tilt"])
def test_envelope_gradient_is_the_subdifferential_bit_for_bit(inner, wrap):
    X = Lcg(6).points_in_ball(60, 4, 3.0)
    for f in (wrap(inner), pc.Envelope(wrap(inner), 0.7)):
        G, smooth = f.gradient_many(X)
        assert smooth.all() or not isinstance(f, pc.Envelope)
        for x, g, ok in zip(X, G, smooth):
            if ok:
                s = pc.subdifferential(f, x)
                assert isinstance(s, SingletonSet) and _bits(s.point) == _bits(g)


def test_extended_real_guard():
    # tilting an indicator keeps +inf; no nan may appear
    f = pc.Tilt(pc.IndicatorPoint([1.0]), [2.0])
    assert pc.evaluate(f, [0.0]) == INF
    assert pc.evaluate(f, [1.0]) == pytest.approx(-2.0)


# ---------------------------------------------------------------------------
# Support atoms: sigma_C = iota_C*, one Moreau peel
# ---------------------------------------------------------------------------

def _peel_ball(center, radius, lam, X):
    D = X / lam - center
    scale = np.minimum(1.0, radius / np.maximum(np.sqrt(D[:, 0] * D[:, 0] + D[:, 1] * D[:, 1]),
                                                1e-300))
    return X - lam * (center + scale[:, None] * D)


def _peel_box(lo, hi, lam, X):
    return X - lam * np.clip(X / lam, lo, hi)


def _peel_halfspace(a, beta, lam, X):
    Y = X / lam
    excess = np.maximum(Y[:, 0] * a[0] + Y[:, 1] * a[1] - beta, 0.0)
    return X - lam * (Y - (excess / (a[0] * a[0] + a[1] * a[1]))[:, None] * a)


_SUPPORTS = [  # (atom, its indicator's type, the closed-form peel written out)
    (pc.SupportBall([0.3, -0.2], 1.5), pc.IndicatorBall,
     lambda lam, X: _peel_ball(np.array([0.3, -0.2]), 1.5, lam, X)),
    (pc.SupportBox([-1.0, 0.0], [0.5, 2.0]), pc.IndicatorBox,
     lambda lam, X: _peel_box(np.array([-1.0, 0.0]), np.array([0.5, 2.0]), lam, X)),
    (pc.functions.SupportHalfspace([0.8, -0.6], 0.25), pc.IndicatorHalfspace,
     lambda lam, X: _peel_halfspace(np.array([0.8, -0.6]), 0.25, lam, X)),
]


@pytest.mark.parametrize("sigma, indicator_type, peel", _SUPPORTS)
def test_support_atoms_share_the_indicator_peel(sigma, indicator_type, peel):
    assert type(sigma.indicator) is indicator_type
    assert sigma.conjugate() is sigma.indicator
    X = Lcg(11).points_in_ball(60, 2, 8.0)
    for lam in (0.3, 1.0, 7.0):
        assert np.array_equal(sigma.prox_many(lam, X), peel(lam, X))


@pytest.mark.parametrize("make, error, message", [
    (lambda: pc.SupportBall([0.0, 0.0], 0.0), ValueError, "radius must be finite and > 0"),
    (lambda: pc.SupportBall([0.0, float("nan")], 1.0), ValueError,
     "point coordinates must be finite"),
    (lambda: pc.SupportBall([0.0] * 17, 1.0), DimensionMismatch, "dimension 17 outside 1..16"),
    (lambda: pc.SupportBox([0.0, 1.0], [1.0, 0.0]), ValueError,
     "box needs lo <= hi componentwise"),
    (lambda: pc.SupportBox([0.0, 0.0], [1.0]), DimensionMismatch, "expected dimension 2, got 1"),
    (lambda: pc.functions.SupportHalfspace([0.0, 0.0], 1.0), ValueError,
     "halfspace normal must be nonzero"),
    (lambda: pc.functions.SupportHalfspace([1.0, 0.0], INF), ValueError,
     "beta must be finite"),
])
def test_support_atom_constructor_errors(make, error, message):
    with pytest.raises(error, match=message):
        make()


@pytest.mark.parametrize("C", [pc.IndicatorBall([0.1, 0.0], 2.0),
                               pc.IndicatorBox([-1.0, -0.5], [1.0, 2.0]),
                               pc.IndicatorPoint([0.4, -0.3])])
def test_support_function_of_is_the_conjugate(C):
    sigma = pc.verify.support_function_of(C)
    assert repr(sigma) == repr(C.conjugate())
    X = Lcg(5).points_in_ball(30, 2, 5.0)
    assert np.array_equal(sigma.value_many(X), C.conjugate().value_many(X))


def test_support_function_of_rejects_a_halfspace():
    with pytest.raises(ValueError, match="C must be an indicator atom"):
        pc.verify.support_function_of(pc.IndicatorHalfspace([1.0, 0.0], 1.0))


@pytest.mark.parametrize("row", [[np.nan, 0.0], [INF, 0.0], [0.0, -INF]])
def test_batch_entry_points_reject_non_finite_rows(row):
    # as evaluate does for one point: no NaN rows, no +inf value, no inf - inf error
    X = [[1.0, 2.0], row]
    for call in (lambda: pc.evaluate_many(norm2(), X),
                 lambda: pc.functions.prox_many_closed_form(norm2(), 1.0, X)):
        with pytest.raises(ValueError, match="^query coordinates must be finite$"):
            call()


def test_a_singular_quadratic_keeps_its_null_space_at_every_lambda():
    # Q = v v^T: _jacobi leaves two eigenvalues at -+1.9e-18, and 1 + lam w
    # went wrong from lam ~ 1e10 on (negative at 1e18); they now count as 0,
    # the conjugate's rank rule
    v = np.random.default_rng(0).normal(size=3)
    f, x = pc.Quadratic(np.outer(v, v)), np.array([1.0, 2.0, 3.0])
    conj = f.conjugate()
    for lam in (1.0, 1e10, 1e17, 1e18, 1e30, 1e300):
        want = x - v * (lam * (v @ x) / (1.0 + lam * (v @ v)))
        got = f.prox_many(lam, x[None])[0]
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)
        # Moreau: prox_{lam f}(x) + lam prox_{f*/lam}(x/lam) = x
        moreau = got + lam * conj.prox_many(1.0 / lam, (x / lam)[None])[0]
        assert np.allclose(moreau, x, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("Q, b", [
    (1e-11 * np.eye(2), None),
    (np.diag([1.0, 1e-11]), None),
    (np.diag([1.0, 1e-11]), [1e-12, 2e-12]),
])
def test_small_eigenvalues_of_a_nonsingular_quadratic_are_kept(Q, b):
    # only Jacobi's rounding level counts as 0: at lam = 1e11 the eigenvalue
    # 1e-11 halves x, in the closed form and in the solver, which reads Q
    f, lam, x = pc.Quadratic(Q, b), 1e11, np.array([1.0, 1.0])
    want = np.linalg.solve(np.eye(2) + lam * Q, x - lam * f.b)
    assert np.allclose(f.prox_many(lam, x[None])[0], want, rtol=1e-12, atol=1e-15)
    solved = pc.engine.numerical_prox(f, lam, x)
    assert solved.converged
    assert np.allclose(solved.minimizer, want, rtol=1e-9, atol=1e-12)
