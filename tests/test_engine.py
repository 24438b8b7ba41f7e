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
from proxcalc.engine import SolverBudget, numerical_prox, prox_rows
from proxcalc.errors import DomainUnreachable, ExtendedRealError
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
    # x already the minimizer: finished within two iterations
    f = pc.ScaledNorm(1.0, [0.0, 0.0])
    x = [0.0, 0.0]
    res = numerical_prox(f, 1.0, x)
    assert res.iterations <= 2
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
        lambda: prox_rows(f, lam, [[3.0, 4.0]]),
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


# ---------------------------------------------------------------------------
# prox_rows
# ---------------------------------------------------------------------------

_ROW_EXACT = [
    pc.ScaledNorm(1.5, [0.5, -1.0]),
    pc.Envelope(pc.ScaledNorm(1.0, [0.0, 0.0]), 1.0),
    pc.IndicatorBall([0.0, 0.0], 1.0),
]
_ROW_BLAS = [  # LAPACK solves and BLAS products round per batch shape
    pc.Quadratic(np.eye(2)),
    pc.Quadratic([[2.0, 0.4], [0.4, 1.0]], [0.3, -0.1], 0.5),
    pc.Tilt(pc.ScaledNorm(1.0, [0.0, 0.0]), [0.3, -0.2]),
]


@pytest.mark.parametrize("f", _ROW_EXACT + _ROW_BLAS, ids=repr)
def test_prox_rows_matches_prox_row_by_row(f, rng):
    X = rng.uniform(-5, 5, (60, 2))
    Y, env = prox_rows(f, 0.7, X)
    rows = [pc.prox(f, 0.7, x) for x in X]
    assert all(r.method == "closed_form" for r in rows)
    Yr = np.array([r.minimizer for r in rows])
    envr = np.array([r.envelope_value for r in rows])
    if any(f is g for g in _ROW_EXACT):
        assert np.array_equal(Y, Yr) and np.array_equal(env, envr)
    else:
        np.testing.assert_allclose(Y, Yr, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(env, envr, rtol=1e-13, atol=1e-14)


class _NanProx(pc.ScaledNorm):
    def prox_many(self, lam, X):
        return np.full_like(X, np.nan)


def test_prox_rows_keeps_evaluate_checks():
    with pytest.raises(ValueError, match="finite"):
        prox_rows(_NanProx(1.0, [0.0, 0.0]), 1.0, [[1.0, 2.0]])
    with pytest.raises(ValueError, match="lam"):
        prox_rows(pc.Quadratic(np.eye(2)), 0.0, [[1.0, 2.0]])
    # the tilt overflows to inf - inf: the library error, and no numpy warning
    tilt = pc.Tilt(pc.Quadratic([[1.0]]), [1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExtendedRealError):
            prox_rows(tilt, 1.0, [[1e200], [0.0]])


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
    # Quadratic batches round differently in the last bit from one row
    x = rng.uniform(-4, 4, 2)
    Y = rng.uniform(-4, 4, (50, 2))
    many = engine._objective_many(f, 0.7, x, Y)
    rows = np.array([engine._objective(f, 0.7, x, y) for y in Y])
    np.testing.assert_allclose(many, rows, rtol=1e-13, atol=0.0)


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
