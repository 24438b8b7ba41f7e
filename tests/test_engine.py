"""Prox engine: dispatch, numerical solver, envelopes, decomposition."""

import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import proxcalc as pc
from proxcalc import conjugation, engine
from proxcalc.engine import SolverBudget, numerical_prox
from proxcalc.errors import DomainUnreachable
from proxcalc.functions import prox_many_closed_form
from proxcalc.verify import battery_samples

from conftest import brute_force_prox


def test_prox_quadratic_example():
    # brute-force 1D oracle: min of y^2/2 + (2-y)^2/2 at y=1, value 1.0
    f = pc.Quadratic(np.eye(2))
    y, val = brute_force_prox(pc.Quadratic(np.eye(1)), 1.0, [2.0], -1, 3, 400001)
    assert y[0] == pytest.approx(1.0, abs=1e-5)
    assert val == pytest.approx(1.0, abs=1e-8)
    res = pc.prox(f, 1.0, [2, 0])
    assert np.allclose(res.minimizer, [1, 0])
    assert res.envelope_value == pytest.approx(1.0)
    assert res.method == "closed_form"
    assert res.residual == 0.0


def test_prox_indicator_point():
    res = pc.prox(pc.IndicatorPoint([0.0, 0.0]), 1.0, [3, 4])
    assert np.allclose(res.minimizer, [0, 0])
    assert res.envelope_value == pytest.approx(12.5)


def test_prox_translated_norm():
    f = pc.Translate(pc.ScaledNorm(1.0, [0.0, 0.0]), [1.0, 0.0])
    res = pc.prox(f, 1.0, [2, 0])
    assert np.allclose(res.minimizer, [1.0, 0.0])
    y, _ = brute_force_prox(f, 1.0, [2.0, 0.0], -4, 4, 640000)
    assert np.allclose(res.minimizer, y, atol=2e-2)


def test_numerical_prox_norm_matches_formula():
    res = numerical_prox(pc.ScaledNorm(1.0, [0.0, 0.0]), 1.0, [3, 4])
    assert np.allclose(res.minimizer, [2.4, 3.2], atol=1e-6)


def test_numerical_prox_addconst_quadratic():
    # brute-force oracle: min of y^2/2 + 7 + (3-y)^2/4 -> y = 1
    f = pc.AddConst(pc.Quadratic(np.eye(2)), 7.0)
    y, _ = brute_force_prox(pc.AddConst(pc.Quadratic(np.eye(1)), 7.0), 2.0, [3.0], -1, 4, 500001)
    assert y[0] == pytest.approx(1.0, abs=1e-5)
    res = numerical_prox(f, 2.0, [3, 0])
    assert np.allclose(res.minimizer, [1, 0], atol=1e-6)
    assert res.envelope_value == pytest.approx(7.0 + 0.5 + 1.0, abs=1e-9)


def test_numerical_prox_fixed_point_short_circuit():
    # x already the minimizer: finished without a descent step
    f = pc.ScaledNorm(1.0, [0.0, 0.0])
    x = [0.0, 0.0]
    res = numerical_prox(f, 1.0, x)
    assert res.iterations == 0
    assert np.allclose(res.minimizer, x, atol=1e-12)


def test_numerical_prox_agrees_with_closed_form(rng):
    cases = [
        pc.ScaledNorm(1.5, [0.2, -0.1]),
        pc.Quadratic(np.array([[3.0, 0.4], [0.4, 1.0]]), [0.2, 0.0], 0.5),
        pc.SupportBall([0.1, 0.0], 1.2),
        pc.Tilt(pc.ScaledNorm(1.0, [0.0, 0.0]), [0.3, 0.4]),
        pc.Envelope(pc.ScaledNorm(1.0, [0.0, 0.0]), 1.0),
    ]
    for f in cases:
        for _ in range(12):
            lam = float(rng.uniform(0.4, 2.0))
            x = rng.uniform(-4, 4, 2)
            a = numerical_prox(f, lam, x).minimizer
            b = pc.prox_closed_form(f, lam, x)
            assert np.linalg.norm(a - b) < 1e-6


def test_numerical_prox_converges_at_a_kink_for_huge_lambda():
    # prox is 0, a kink of the norm; the least-norm subgradient next to it
    # stays of order 1, so a stop needing residual * lam <= 1e-5 never fired
    f = pc.Tilt(pc.ScaledNorm(1.0, [0.0, 0.0]), [0.3, 0.2])
    res = numerical_prox(f, 1e6, [3.0, -2.0])
    assert res.converged
    assert np.linalg.norm(res.minimizer) <= 1e-8


_CROSSCHECK_CASES = [  # the iterative solver's benchmark functions
    pc.ScaledNorm(1.0, [0.0, 0.0]),
    pc.Tilt(pc.ScaledNorm(1.0, [0.0, 0.0]), [0.3, 0.2]),
    pc.Quadratic([[2.0, 0.4], [0.4, 1.0]], [0.3, -0.1], 0.5),
    pc.SupportBox([-1.0, -0.5], [1.0, 0.5]),
    pc.Envelope(pc.ScaledNorm(1.5, [0.0, 0.0]), 1.0),
]


@pytest.mark.parametrize("lam", [0.3, 1.0, 10.0, 1e3, 1e6])
@pytest.mark.parametrize("f", _CROSSCHECK_CASES, ids=repr)
def test_numerical_prox_converges_for_every_lambda(f, lam):
    for x in battery_samples(2, 5, 8, 4.0):
        res = numerical_prox(f, lam, x)
        assert res.converged
        assert np.linalg.norm(res.minimizer - pc.prox_closed_form(f, lam, x)) <= 1e-4


_STIFF_QUADRATIC = pc.Quadratic(np.diag([50.0, 0.1]))
_SOLVER_MATRIX = [  # further chains, atoms and dimensions for the iterative solver
    pc.ScaledNorm(1.5, [0.2, -0.1]),
    pc.ScaledNorm(1.0, [0.1, 0.0, -0.2]),
    pc.ScaledNorm(1.0, np.zeros(4)),
    pc.ScaledNorm(0.7, np.linspace(-0.3, 0.4, 8)),
    pc.Tilt(pc.ScaledNorm(1.0, np.zeros(3)), [0.2, -0.4, 0.1]),
    pc.Translate(pc.ScaledNorm(1.0, [0.0, 0.0]), [1.0, -0.5]),
    pc.SupportBall([0.1, 0.0], 1.2),
    pc.Tilt(pc.SupportBox([-1.0, -0.5], [1.0, 0.5]), [0.2, -0.1]),
    pc.SupportBox([-1.0, -0.5, -2.0], [1.0, 0.5, 0.3]),
    pc.SupportBox([-0.2, 0.1], [1.0, 0.5]),
    pc.Affine([0.4, -0.7], 0.3),
    pc.AddQuadratic(pc.ScaledNorm(1.0, [0.0, 0.0]), 0.5),
    pc.Envelope(pc.ScaledNorm(1.0, [0.0, 0.0]), 0.5),
    _STIFF_QUADRATIC,
    pc.Quadratic([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]], [0.1, -0.2, 0.3], 0.4),
]


def _high_dim_cases(d):
    # seeded: a PSD quadratic with eigenvalues 0.01..2, a tilted and a
    # strongly convex support box, and the envelope of a tilted norm
    rng = np.random.default_rng(d)
    U = np.linalg.qr(rng.standard_normal((d, d)))[0]
    box = pc.SupportBox(-rng.uniform(0.2, 1.0, d), rng.uniform(0.2, 1.0, d))
    cases = {
        "quadratic": pc.Quadratic((U * np.geomspace(0.01, 2.0, d)) @ U.T,
                                  rng.uniform(-0.5, 0.5, d), 0.3),
        "tilted_support_box": pc.Tilt(box, rng.uniform(-0.3, 0.3, d)),
        "support_box_plus_quadratic": pc.AddQuadratic(box, 0.4),
        "envelope_of_tilted_norm": pc.Envelope(
            pc.Tilt(pc.ScaledNorm(1.0, rng.uniform(-0.5, 0.5, d)), rng.uniform(-0.3, 0.3, d)),
            0.5),
    }
    return [pytest.param(f, id=f"{name}_{d}d") for name, f in cases.items()]


@pytest.mark.parametrize("lam", [0.3, 1.0, 10.0, 1e3, 1e6])
@pytest.mark.parametrize("f", _SOLVER_MATRIX + _high_dim_cases(8) + _high_dim_cases(16),
                         ids=repr)
def test_numerical_prox_meets_its_stop_contract(f, lam):
    # ||s|| min(lam, 1) <= 1e-5 bounds the error by 1e-5 for lam <= 1 and
    # the envelope gradient's error by 1e-5 for lam >= 1
    for x in battery_samples(f.dim, 5, 8, 4.0):
        res = numerical_prox(f, lam, x)
        assert res.converged
        err = np.linalg.norm(res.minimizer - pc.prox_closed_form(f, lam, x))
        assert err <= 1e-5 * max(1.0, lam)


def test_numerical_prox_work_ceiling():
    # descent steps, not time: conjugate directions end the zigzag of
    # steepest descent on smooth pieces (3,635 steps and up to 269 per
    # diag(50, 0.1) solve with steepest descent alone)
    total = 0
    for f in _SOLVER_MATRIX + _CROSSCHECK_CASES:
        for lam in [0.3, 1.0, 10.0, 1e3, 1e6]:
            steps = [numerical_prox(f, lam, x).iterations
                     for x in battery_samples(f.dim, 5, 8, 4.0)]
            if f is _STIFF_QUADRATIC:
                assert max(steps) <= 6
            total += sum(steps)
    assert total <= 1100


@pytest.mark.parametrize("lam", [0.3, 1.0, 10.0])
def test_numerical_prox_takes_conjugate_steps_only_where_df_is_a_singleton(lam):
    # conjugate steps that carry memory across the box's kinks jam: without
    # the singleton guard, 3 of these 6 solves at lam = 1 stop converged
    # 0.2-0.29 from the prox
    f = pc.SupportBox(-np.ones(16), np.linspace(0.2, 1.0, 16))
    for x in battery_samples(16, 3, 6, 4.0):
        res = numerical_prox(f, lam, x)
        assert res.converged
        err = np.linalg.norm(res.minimizer - pc.prox_closed_form(f, lam, x))
        assert err <= 1e-5 * max(1.0, lam)


def test_subgradient_oracle_flags_only_a_singleton_df_as_smooth():
    x, lam = np.array([0.3, -0.2]), 1.0
    tilted = pc.Tilt(pc.ScaledNorm(1.0, [0.0, 0.0]), [0.3, 0.2])
    norm = engine._subgradient_oracle(tilted, lam, x)
    assert norm(np.array([0.4, -0.7]))[1] and not norm(np.zeros(2))[1]
    env = pc.Envelope(pc.ScaledNorm(1.0, [0.0, 0.0]), 0.5)
    assert engine._subgradient_oracle(env, lam, x)(np.zeros(2))[1]
    table = pc.tabulate(pc.ScaledNorm(1.0, [0.0]), pc.SampleGrid([-3.0], [3.0], [61]))
    tab = engine._subgradient_oracle(conjugation.TabulatedConjugate(table), lam, x[:1])
    assert not tab(np.array([0.5]))[1]


def test_subgradient_oracle_on_an_envelope_chain_is_its_exact_gradient():
    # an envelope chain's subdifferential is the singleton of its gradient,
    # so the solver reads it there, not from central differences
    f = pc.Tilt(pc.Envelope(pc.ScaledNorm(1.5, [0.4, -0.3]), 0.5), [0.3, 0.2])
    x, lam = np.array([0.3, -0.2]), 0.7
    oracle = engine._subgradient_oracle(f, lam, x)
    for y in battery_samples(2, 5, 12, 3.0):
        s, smooth = oracle(y)
        assert smooth and np.array_equal(s, f.gradient_many(y[None])[0][0] + (y - x) / lam)


_KINKS = [  # (f, its kink, u -> (x - kink) / lam for x with prox = kink, |u| <= 1)
    (pc.Tilt(pc.ScaledNorm(1.0, [0.0, 0.0]), [0.3, 0.2]), [0.0, 0.0],
     lambda u: 0.9 * u - np.array([0.3, 0.2])),
    (pc.SupportBox([-1.0, -0.5], [1.0, 0.5]), [0.0, 0.0],
     lambda u: 0.9 * u * np.array([1.0, 0.5])),
    (pc.ScaledNorm(1.5, [0.4, -0.3]), [0.4, -0.3], lambda u: 1.35 * u),
]


@pytest.mark.parametrize("lam", [0.3, 1.0, 1e6])
@pytest.mark.parametrize("f, kink, to_x", _KINKS, ids=[repr(c[0]) for c in _KINKS])
def test_numerical_prox_returns_a_kink_exactly(f, kink, to_x, lam):
    # the prox is a kink at a structured probe: returned bit for bit with no
    # descent step, where descent would only land within its tolerance
    for u in battery_samples(2, 3, 8, 1.0):
        x = np.add(kink, lam * to_x(u))
        res = numerical_prox(f, lam, x)
        assert res.converged and res.iterations == 0
        assert np.array_equal(res.minimizer, kink)


def test_numerical_prox_indicator_short_circuit():
    res = numerical_prox(pc.IndicatorBox([-1, -1], [1, 1]), 1.0, [3, -0.5])
    assert res.iterations == 0
    assert np.allclose(res.minimizer, [1, -0.5])


def test_numerical_prox_domain_unreachable():
    class Nowhere:
        dim = 1

        def value_many(self, X):
            return np.full(X.shape[0], np.inf)

    with pytest.raises(DomainUnreachable):
        numerical_prox(Nowhere(), 1.0, [0.0])


def test_budget_validation():
    with pytest.raises(ValueError):
        SolverBudget(max_iters=0)
    with pytest.raises(ValueError):
        SolverBudget(tol=0.0)
    with pytest.raises(ValueError):
        pc.prox(pc.ScaledNorm(1.0, [0.0]), -1.0, [1.0])


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-8])
def test_budget_tol_must_be_finite_and_positive(tol):
    # an infinite tol would declare any iterate converged
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        SolverBudget(tol=tol)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_lam_must_be_finite_and_positive(lam):
    f = pc.ScaledNorm(1.0, [0.0, 0.0])
    calls = [
        lambda: pc.prox(f, lam, [3.0, 4.0]),
        lambda: pc.prox(f, lam, [3.0, 4.0], force_numerical=True),
        lambda: numerical_prox(f, lam, [3.0, 4.0]),
        lambda: pc.prox_closed_form(f, lam, [3.0, 4.0]),
        lambda: prox_many_closed_form(f, lam, [[3.0, 4.0]]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="lam must be finite and > 0"):
                call()


def test_envelope_value_invariant(rng):
    f = pc.IndicatorBall([0.0, 0.0], 1.0)
    for _ in range(20):
        lam = float(rng.uniform(0.3, 2.0))
        x = rng.uniform(-4, 4, 2)
        res = pc.prox(f, lam, x)
        direct = pc.evaluate(f, res.minimizer) + np.dot(x - res.minimizer, x - res.minimizer) / (2 * lam)
        assert res.envelope_value == pytest.approx(direct, abs=1e-9)


# ---------------------------------------------------------------------------
# moreau_envelope / envelope_gradient
# ---------------------------------------------------------------------------

def test_envelope_of_ball_is_half_squared_distance():
    # distance from (3,4) to the unit ball is 4; 4^2/2 = 8
    assert pc.moreau_envelope(pc.IndicatorBall([0, 0], 1.0), 1.0, [3, 4]) == pytest.approx(8.0)


def test_envelope_quadratic():
    assert pc.moreau_envelope(pc.Quadratic(np.eye(2)), 1.0, [2, 0]) == pytest.approx(1.0)


def test_envelope_addconst_passthrough(rng):
    g = pc.ScaledNorm(1.0, [0.0, 0.0])
    f = pc.AddConst(g, 7.0)
    for _ in range(10):
        x = rng.uniform(-3, 3, 2)
        assert pc.moreau_envelope(f, 1.0, x) == pytest.approx(
            pc.moreau_envelope(g, 1.0, x) + 7.0
        )


def test_envelope_gradient_indicator_point():
    for x in ([3.0, 4.0], [-1.0, 0.5]):
        g = pc.envelope_gradient(pc.IndicatorPoint([0.0, 0.0]), 1.0, x)
        assert np.allclose(g, x)


def test_envelope_gradient_norm():
    g = pc.envelope_gradient(pc.ScaledNorm(1.0, [0.0, 0.0]), 1.0, [3, 4])
    assert np.allclose(g, [0.6, 0.8])


def test_envelope_gradient_finite_differences(rng):
    cases = [
        pc.ScaledNorm(1.0, [0.0, 0.0]),
        pc.IndicatorBall([0.0, 0.0], 1.0),
        pc.Quadratic(np.array([[2.0, 0.0], [0.0, 1.0]])),
        pc.SupportBox([-1.0, -1.0], [1.0, 1.0]),
    ]
    h = 1e-5
    for f in cases:
        for _ in range(15):
            x = rng.uniform(-3, 3, 2)
            ga = pc.envelope_gradient(f, 1.0, x)
            gfd = np.array([
                (pc.moreau_envelope(f, 1.0, x + h * e) - pc.moreau_envelope(f, 1.0, x - h * e)) / (2 * h)
                for e in np.eye(2)
            ])
            assert np.linalg.norm(ga - gfd) / max(1.0, np.linalg.norm(ga)) < 1e-4


class _BrokenProx(pc.ScaledNorm):
    """A catalog function whose closed-form prox has a bug."""

    def prox_many(self, lam, X):
        raise AttributeError("bug inside prox_many")


def test_prox_propagates_attribute_error_from_prox_many():
    # a bug inside a closed form must surface, not become an iterative solve
    with pytest.raises(AttributeError, match="bug inside prox_many"):
        pc.prox(_BrokenProx(1.0, [0.0, 0.0]), 1.0, [3.0, 4.0])


# ---------------------------------------------------------------------------
# moreau_decomposition_residual
# ---------------------------------------------------------------------------

def test_decomposition_ball():
    assert pc.moreau_decomposition_residual(pc.IndicatorBall([0, 0], 1.0), [3, 4]) < 1e-12


def test_decomposition_point_indicator(rng):
    f = pc.IndicatorPoint([0.0, 0.0])
    for _ in range(10):
        x = rng.uniform(-5, 5, 2)
        assert pc.moreau_decomposition_residual(f, x) < 1e-12


def test_decomposition_quadratic():
    assert pc.moreau_decomposition_residual(pc.Quadratic(np.eye(2)), [2, 0]) < 1e-12


_HALFSPACE = pc.IndicatorHalfspace([1.0, 0.0], 1.0)


@pytest.mark.parametrize("f", [
    _HALFSPACE,
    pc.Quadratic(np.diag([1.0, 0.0])),
    pc.Quadratic([[1.0, 2.0], [2.0, 4.0]], [0.3, -0.4], 0.2),
    pc.Envelope(_HALFSPACE, 1.0),
], ids=repr)
def test_decomposition_with_thin_domain_conjugates(f):
    # conjugates finite only on a ray or a line, at the acceptance-1 tolerance
    X = battery_samples(2, 43, 200, 5.0)
    worst = max(pc.moreau_decomposition_residual(f, x) for x in X)
    assert worst <= 1e-8


@pytest.mark.parametrize("f, start", [
    (pc.conjugate_closed_form(_HALFSPACE), [0.0, 0.0]),
    (pc.conjugate_closed_form(pc.Quadratic(np.diag([1.0, 0.0]))), [0.0, 0.0]),
    (pc.conjugate_closed_form(pc.Quadratic(np.diag([1.0, 0.0]), [0.3, -0.4])), [0.3, -0.4]),
], ids=repr)
def test_numerical_prox_on_a_thin_domain_stops_cleanly(f, start):
    # finite differences leave dom f at every point: no gradient, so the
    # solver stops unconverged at its finite start, without NaN or warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = numerical_prox(f, 1.0, [2.0, 1.0])
    assert not res.converged and res.residual == np.inf
    assert np.array_equal(res.minimizer, start)
    assert np.isfinite(res.envelope_value)


def test_subspace_quadratic_probes_its_offset():
    f = pc.conjugate_closed_form(pc.Quadratic(np.diag([1.0, 0.0]), [0.3, -0.4]))
    assert any(np.array_equal(p, [0.3, -0.4]) for p in pc.functions.structured_probes(f))


def test_decomposition_with_grid_conjugate():
    # a grid-conjugation surrogate passed in place of the closed form
    f = pc.IndicatorHalfspace([1.0], 0.5)
    table = pc.tabulate(f, pc.SampleGrid([-30.0], [30.0], [12001]))
    conj = conjugation.TabulatedConjugate(table)
    for x in ([2.0], [-1.0], [0.7]):
        r = pc.moreau_decomposition_residual(f, x, conj=conj)
        assert r < 1e-4


@pytest.mark.parametrize("lam", [1e150, 1e200, 1e300])
def test_a_huge_lam_converges_without_overflow(lam):
    # lam^2 in the step tolerance overflowed past lam ~ 1e154, and the far
    # bracket steps y - T lam p overflowed the objective; the bracket now
    # shifts down by a power of 2 to stay in range
    f = pc.Quadratic([[2.0, 0.4], [0.4, 1.0]], [0.3, -0.1], 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = numerical_prox(f, lam, [3.0, 4.0])
    assert res.converged
    assert np.allclose(res.minimizer, f.prox_many(lam, np.array([[3.0, 4.0]]))[0],
                       rtol=0.0, atol=1e-7)


# ---------------------------------------------------------------------------
# line search and batched objective
# ---------------------------------------------------------------------------

_STEP_TOL = 2e-12  # the solver's step tolerance 1e-12 (1 + lam) / lam at lam = 1


def _convex_piece(a, c, kinks):
    """t -> a (t - c)^2 + sum b |t - k|, vectorized over t."""
    def phi_many(T):
        T = np.asarray(T, dtype=float)
        return a * (T - c) ** 2 + sum(b * np.abs(T - k) for k, b in kinks)
    return phi_many


_SEARCHES = ["_line_search"]


@pytest.mark.parametrize("search", _SEARCHES)
@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.1, 10.0), c=st.floats(-5.0, 20.0),
       kinks=st.lists(st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 10.0)), max_size=3))
@example(a=1.0, c=-2.0, kinks=[])                 # minimum at t = 0
@example(a=1.0, c=3.3, kinks=[])                  # minimum inside the range
@example(a=0.5, c=6.0, kinks=[(2.5, 8.0)])        # minimum at a kink
@example(a=2.0, c=1.0, kinks=[(0.0, 9.0)])        # kink at t = 0: no step descends
# minima at a kink within 1e-6 of the bracket parabola's vertex
@example(a=0.5, c=6.0, kinks=[(5.9999987500004375, 2.0)])
@example(a=2.0, c=1.0, kinks=[(1.033635340273252, 0.5)])
@example(a=1.0, c=3.3, kinks=[(3.40831768530355, 1.0)])
# the bracket parabola's vertex lies 8.8e-4 from the argmin, where phi moves
# by 5e-15 over +-h, below its rounding: only rungs further out refute it
@example(a=2.83203125, c=0.0, kinks=[(4.0, 9.5), (5.0, 7.5)])
def test_line_search_matches_brute_force(search, a, c, kinks):
    phi_many = _convex_piece(a, c, kinks)
    grid = np.concatenate([np.linspace(0.0, 40.0, 400_001), [k for k, _ in kinks]])
    values = phi_many(grid)
    t_brute, f_brute = grid[np.argmin(values)], float(np.min(values))
    t, ft = getattr(engine, search)(phi_many, float(phi_many([0.0])[0]), _STEP_TOL)
    assert ft == float(phi_many([t])[0])
    # a step within the step tolerance of the minimizer costs at most
    # slope * tolerance in value
    slope = 2.0 * a * 45.0 + sum(b for _, b in kinks)
    assert ft <= f_brute + slope * _STEP_TOL + 1e-15 * abs(f_brute)
    assert abs(t - t_brute) <= 1e-4 + 1e-9  # the brute-force grid spacing


@pytest.mark.parametrize("a, c", [(1.0, 3.3), (0.5, 1e-3), (7.0, 250.0), (0.1, 19.0)])
def test_line_search_takes_two_batches_on_a_quadratic(a, c):
    # the bracket batch, then one zoom round whose parabola vertex certifies
    phi, calls = _convex_piece(a, c, []), []

    def phi_many(T):
        calls.append(T.size)
        return phi(T)

    t, ft = engine._line_search(phi_many, a * c * c, _STEP_TOL)
    assert len(calls) == 2
    assert abs(t - c) <= _STEP_TOL and ft == float(phi([t])[0])


def test_line_search_accepts_a_vertex_within_rounding(monkeypatch):
    # lam = 1e6: the first zoom round's vertex is the argmin, but phi there
    # loses to a neighbour by one ulp; refused, the rounds went on into the
    # band where phi is flat to rounding and landed 1.2e-2 off after 12 batches
    f, lam = pc.Affine([0.4, -0.7], 0.3), 1e6
    x = battery_samples(2, 5, 8, 4.0)[4]
    calls = []
    objective_many = engine._objective_many

    def counted(*args):
        calls.append(args[3].shape[0])
        return objective_many(*args)

    monkeypatch.setattr(engine, "_objective_many", counted)
    res = numerical_prox(f, lam, x)
    assert res.converged and len(calls) <= 4
    assert np.linalg.norm(res.minimizer - pc.prox_closed_form(f, lam, x)) <= 1e-5 * max(1.0, lam)


_VERTEX_BESIDE_A_KINK = [  # (a, c, kink, weight): the kink is the argmin and
    # sits 5e-7, -3e-7 and 8e-7 from the vertex of the bracket parabola
    (0.5, 6.0, 5.9999987500004375, 2.0),
    (2.0, 1.0, 1.033635340273252, 0.5),
    (1.0, 3.3, 3.40831768530355, 1.0),
]


@pytest.mark.parametrize("a, c, k, b", _VERTEX_BESIDE_A_KINK)
def test_line_search_refuses_a_vertex_beside_a_kink_below_float_spacing(a, c, k, b):
    # lam = 1e6 gives a step tolerance of 1e-18, below the float spacing at
    # t ~ 1: the vertex's neighbours t_p +- h must still be distinct steps
    phi_many = _convex_piece(a, c, [(k, b)])
    t, _ = engine._line_search(phi_many, float(phi_many([0.0])[0]), 1e-18)
    assert abs(t - k) <= 1e-14 * k


@pytest.mark.parametrize("search", _SEARCHES)
@pytest.mark.parametrize("a, c, kinks", [(1.0, -2.0, []), (2.0, 1.0, [(0.0, 9.0)])])
def test_line_search_reports_no_descent(search, a, c, kinks):
    phi_many = _convex_piece(a, c, kinks)
    f0 = float(phi_many([0.0])[0])
    assert getattr(engine, search)(phi_many, f0, _STEP_TOL) == (0.0, f0)


_OBJECTIVE_CASES = [
    pc.Quadratic([[2.0, 0.4], [0.4, 1.0]], [0.3, -0.1], 0.5),
    pc.Quadratic(np.eye(2)),
    pc.ScaledNorm(1.5, [0.5, -1.0]),
    pc.Tilt(pc.ScaledNorm(1.0, [0.0, 0.0]), [0.3, 0.2]),
    pc.Envelope(pc.ScaledNorm(1.0, [0.0, 0.0]), 1.0),
    pc.SupportBox([-1.0, -0.5], [1.0, 0.5]),
]


@pytest.mark.parametrize("f", _OBJECTIVE_CASES, ids=repr)
def test_objective_many_matches_objective_row_by_row(f, rng):
    x = rng.uniform(-4, 4, 2)
    Y = rng.uniform(-4, 4, (50, 2))
    many = engine._objective_many(f, 0.7, x, Y)
    rows = np.array([engine._objective(f, 0.7, x, y) for y in Y])
    assert np.array_equal(many, rows)


def test_numerical_prox_leaves_scipy_optimize_unimported(cli_env):
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import proxcalc as pc\n"
        "for f in (pc.Quadratic(np.array([[2.0, 0.4], [0.4, 1.0]])),\n"
        "          pc.Tilt(pc.ScaledNorm(1.0, [0.0, 0.0]), [0.3, 0.2]),\n"
        "          pc.Envelope(pc.ScaledNorm(1.0, [0.0, 0.0]), 1.0)):\n"
        "    res = pc.numerical_prox(f, 1.0, [3.0, -2.0])\n"
        "    assert res.converged and res.iterations > 0\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], env=cli_env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
