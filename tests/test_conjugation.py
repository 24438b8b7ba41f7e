"""Grid tabulation and the numerical Legendre-Fenchel transform."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxcalc as pc
from proxcalc import conjugation
from proxcalc import functions as fn
from proxcalc.conjugation import conjugate_argmax, conjugate_many
from proxcalc.errors import DimensionMismatch
from proxcalc.verify import battery_samples

INF = float("inf")


def test_tabulate_half_square():
    t = pc.tabulate(pc.Quadratic(np.eye(1)), pc.SampleGrid([-1.0], [1.0], [3]))
    assert np.allclose(t.values, [0.5, 0.0, 0.5])


def test_tabulate_indicator_interval():
    t = pc.tabulate(pc.IndicatorBox([0.0], [1.0]), pc.SampleGrid([-1.0], [2.0], [4]))
    assert t.values[0] == INF and t.values[3] == INF
    assert t.values[1] == 0.0 and t.values[2] == 0.0


def test_tabulate_tilted_norm():
    # |x| - x on {-2,-1,0,1,2} is (4, 2, 0, 0, 0) by direct arithmetic
    f = pc.Tilt(pc.ScaledNorm(1.0, [0.0]), [1.0])
    t = pc.tabulate(f, pc.SampleGrid([-2.0], [2.0], [5]))
    assert np.allclose(t.values, [4.0, 2.0, 0.0, 0.0, 0.0])


def test_tabulate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pc.tabulate(pc.ScaledNorm(1.0, [0.0, 0.0]), pc.SampleGrid([-1.0], [1.0], [3]))


def test_grid_caps():
    # dimensions 1..16 as for functions; the point cap bounds every lattice
    # that is built, not the grid description
    with pytest.raises(DimensionMismatch):
        pc.SampleGrid([-1.0] * 17, [1.0] * 17, [2] * 17)
    assert pc.SampleGrid([-1.0] * 16, [1.0] * 16, [2] * 16).dim == 16
    grid = pc.SampleGrid([-1.0, -1.0], [1.0, 1.0], [1001, 1001])
    for build in (grid.points, grid.boundary_mask,
                  lambda: pc.tabulate(pc.ScaledNorm(1.0, dim=2), grid)):
        with pytest.raises(ValueError, match="grid exceeds 1000000 points"):
            build()


@pytest.mark.parametrize("counts, size", [([2**32, 2**32], 2**64), ([2**16] * 16, 2**256)])
def test_grid_size_does_not_overflow(counts, size):
    # np.prod in int64 wraps these sizes to 0; the lattice is never built,
    # the cap raises first
    grid = pc.SampleGrid([-1.0] * len(counts), [1.0] * len(counts), counts)
    assert grid.size == size
    with pytest.raises(ValueError, match="grid exceeds"):
        pc.tabulate(pc.ScaledNorm(1.0, dim=len(counts)), grid)
    with pytest.raises(ValueError, match="grid exceeds"):
        grid.boundary_mask()


def test_grid_lattice_built_once_and_read_only():
    grid = pc.SampleGrid([-1.0, -2.0], [1.0, 2.0], [3, 5])
    P, B = grid.points(), grid.boundary_mask()
    assert grid.points() is P and grid.boundary_mask() is B
    assert P.shape == (15, 2) and B.sum() == 12
    for a in (P, B):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_all_infinite_table_rejected():
    with pytest.raises(ValueError, match="finite"):
        pc.ValueTable(pc.SampleGrid([-1.0], [1.0], [3]), [INF, INF, INF])


def test_numerical_conjugate_half_square():
    # self-conjugacy of x^2/2 as the oracle
    t = pc.tabulate(pc.Quadratic(np.eye(1)), pc.SampleGrid([-3.0], [3.0], [601]))
    assert pc.numerical_conjugate(t, [1.0]) == pytest.approx(0.5, abs=1e-4)


def test_numerical_conjugate_point_indicator():
    # one finite node: sup over a single point gives <q, p> exactly
    f = pc.Translate(pc.IndicatorPoint([1.0]), [0.0])
    t = pc.tabulate(f, pc.SampleGrid([-2.0], [2.0], [5]))
    for q in (0.0, 0.5, -2.0):
        assert pc.numerical_conjugate(t, [q]) == pytest.approx(q)


def test_numerical_conjugate_at_zero_is_minus_min():
    f = pc.Quadratic(np.eye(1), [-1.0], 0.3)
    t = pc.tabulate(f, pc.SampleGrid([-3.0], [3.0], [601]))
    assert pc.numerical_conjugate(t, [0.0]) == pytest.approx(-float(np.min(t.values)))


def test_monotone_refinement():
    # a strict lattice refinement (2n-1 points) never decreases the sup
    f = pc.ScaledNorm(1.0, [0.3])
    coarse = pc.tabulate(f, pc.SampleGrid([-4.0], [4.0], [41]))
    fine = pc.tabulate(f, pc.SampleGrid([-4.0], [4.0], [81]))
    for q in np.linspace(-0.9, 0.9, 7):
        assert pc.numerical_conjugate(fine, [q]) >= pc.numerical_conjugate(coarse, [q]) - 1e-12


def test_fenchel_with_numerical_conjugate():
    f = pc.SupportBox([-1.0, -0.5], [1.0, 2.0])
    grid = pc.SampleGrid([-5.0, -5.0], [5.0, 5.0], [81, 81])
    t = pc.tabulate(f, grid)
    P = grid.points()
    for q in ([0.5, 0.5], [1.5, -0.2]):
        vstar = pc.numerical_conjugate(t, q)
        vals = t.values
        finite = np.isfinite(vals)
        assert np.all(vals[finite] + vstar >= P[finite] @ np.asarray(q) - 1e-12)


def test_conjugate_argmax_boundary_flag():
    # conjugating a quadratic at a far query pushes the argmax to the edge
    t = pc.tabulate(pc.Quadratic(np.eye(1)), pc.SampleGrid([-2.0], [2.0], [201]))
    _, _, boundary = conjugate_argmax(t, [5.0])
    assert boundary
    _, _, interior = conjugate_argmax(t, [0.5])
    assert not interior


def test_agreement_with_closed_form_interior():
    # >= 200 points/axis spanning 5x the query range: within 2e-3
    cases_1d = [
        pc.ScaledNorm(1.0, [0.0]),
        pc.Quadratic(np.eye(1)),
        pc.Envelope(pc.IndicatorBox([-1.0], [1.0]), 1.0),
    ]
    grid = pc.SampleGrid([-10.0], [10.0], [2001])
    queries = np.linspace(-0.9, 0.9, 11).reshape(-1, 1)
    for f in cases_1d:
        t = pc.tabulate(f, grid)
        conj = pc.conjugate_closed_form(f)
        vals, _ = conjugate_many(t, queries)
        for q, v in zip(queries, vals):
            truth = pc.evaluate(conj, q)
            if np.isfinite(truth):
                assert abs(v - truth) <= 2e-3


# ---------------------------------------------------------------------------
# envelope conjugate identity
# ---------------------------------------------------------------------------

def test_envelope_conjugate_point_indicator():
    # envelope of the point indicator at 0 is ||.||^2/2, its own conjugate
    rep = pc.verify_envelope_conjugate(
        pc.IndicatorPoint([0.0]), 1.0,
        pc.SampleGrid([-6.0], [6.0], [1201]),
        np.linspace(-1.0, 1.0, 9),
    )
    assert rep.status == "verified"
    assert rep.conclusion_residual < 1e-6


def test_envelope_conjugate_norm():
    rep = pc.verify_envelope_conjugate(
        pc.ScaledNorm(1.0, [0.0]), 1.0,
        pc.SampleGrid([-5.0], [5.0], [2001]),
        np.linspace(-2.0, 2.0, 17),
    )
    assert rep.status == "verified"
    assert rep.conclusion_residual <= 2e-3


def test_envelope_conjugate_half_square_lam2():
    # envelope of x^2/2 at lam=2 is x^2/6, whose conjugate is 1.5 q^2
    f = pc.Quadratic(np.eye(1))
    env = pc.Envelope(f, 2.0)
    assert pc.evaluate(env, [3.0]) == pytest.approx(1.5)  # 9/6
    rep = pc.verify_envelope_conjugate(
        f, 2.0, pc.SampleGrid([-8.0], [8.0], [1601]), np.linspace(-1.5, 1.5, 13)
    )
    assert rep.status == "verified"
    for q in (0.5, 1.0, 1.5):
        conj_env = pc.conjugate_closed_form(env)
        assert pc.evaluate(conj_env, [q]) == pytest.approx(1.5 * q * q, abs=1e-12)


def test_envelope_conjugate_identity_by_construction(rng):
    # evaluate(conj(Envelope(f,lam)), x) == evaluate(f*, x) + lam/2 ||x||^2
    for f in (pc.ScaledNorm(1.0, [0.0, 0.0]), pc.IndicatorBall([0.0, 0.0], 1.0)):
        lam = 0.7
        lhs_f = pc.conjugate_closed_form(pc.Envelope(f, lam))
        conj = pc.conjugate_closed_form(f)
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            lhs = pc.evaluate(lhs_f, x)
            rhs = pc.evaluate(conj, x) + 0.5 * lam * float(np.dot(x, x))
            if np.isfinite(rhs):
                assert lhs == pytest.approx(rhs, abs=1e-12)
            else:
                assert lhs == INF


@st.composite
def _closed_form_cases(draw):
    """(f, lam, query seed) in 2-D or 3-D. Queries of the battery's cloud
    (radius 1.5) reach the edge of dom f* of the norms, where the objective
    <q, v> - f_lam(v) has a nearly flat ridge. The rotated quadratics have an
    eigenvalue down to 0.01: f_lam is nearly flat along its eigenvector."""
    dim = draw(st.sampled_from([2, 3]))

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=dim, max_size=dim)))

    def rotated_quadratic():
        u = vec(0.1, 1.0) * draw(st.sampled_from([-1.0, 1.0]))
        H = np.eye(dim) - 2.0 * np.outer(u, u) / (u @ u)  # a reflection
        w = np.concatenate([[draw(st.floats(0.01, 0.05))], vec(0.3, 2.5)[1:]])
        M = H @ np.diag(w) @ H
        return pc.Quadratic(0.5 * (M + M.T), vec(-1.0, 1.0))

    c = vec(-1.0, 1.0)
    f = draw(st.sampled_from([
        lambda: pc.ScaledNorm(draw(st.floats(1.0, 3.0)), c),
        lambda: pc.Quadratic(np.diag(vec(0.3, 2.0)), vec(-1.0, 1.0)),
        rotated_quadratic,
        lambda: pc.IndicatorBall(c, draw(st.floats(0.3, 2.0))),
        lambda: pc.IndicatorBox(c - vec(0.1, 1.5), c + vec(0.1, 1.5)),
        lambda: pc.Tilt(pc.ScaledNorm(draw(st.floats(1.0, 3.0)), c), vec(-0.4, 0.4)),
    ]))()
    return f, draw(st.floats(0.5, 2.0)), draw(st.integers(0, 2**31))


@settings(max_examples=50, deadline=None)
@given(_closed_form_cases())
def test_envelope_conjugate_gap_within_certificate(case):
    # the battery's box, +-2.5 radius with radius 6; the grid's counts go unused
    f, lam, seed = case
    grid = pc.SampleGrid([-15.0] * f.dim, [15.0] * f.dim, [21] * f.dim)
    Q = pc.Lcg(seed).points_in_ball(25, f.dim, 1.5)
    # as in the battery, the envelope gradient (x - prox_{lam f}(x)) / lam has
    # its sup at x: at the atom's last structured probe (a centre, the middle
    # of a box, or the origin of a quadratic) one query stays interior however
    # flat f_lam is, and inside dom f*
    x = fn.structured_probes(f)[-1][None, :]
    Q = np.vstack([Q, (x - f.prox_many(lam, x)) / lam])
    rep = pc.verify_envelope_conjugate(f, lam, grid, Q, tol=2e-3)
    assert rep.details["interior_queries"] > 0
    assert rep.details["certificate"] <= 2e-5
    assert rep.conclusion_residual <= rep.details["certificate"]


@pytest.mark.parametrize("f, lam", [
    (pc.Quadratic(np.eye(3), [0.0, 0.0, 2.225073858507e-311]), 1.0),
    (pc.ScaledNorm(1.0, [1.0, 7.34871236192399e-281]), 0.5),
])
def test_ascent_survives_a_gradient_change_too_small_to_square(f, lam):
    # ||dF||^2 underflows to 0 while dF != 0; the secant must not divide by it
    x = np.zeros((1, f.dim))
    box = pc.SampleGrid([-15.0] * f.dim, [15.0] * f.dim, [2] * f.dim)
    rep = pc.verify_envelope_conjugate(f, lam, box, (x - f.prox_many(lam, x)) / lam)
    assert rep.status == "verified" and rep.details["interior_queries"] == 1


@pytest.mark.parametrize("seed", [111, 242, 330, 379])
def test_envelope_conjugate_ridge_within_certificate(seed):
    # queries near the edge of dom f* (the unit ball): <q, v> - f_lam(v) has
    # a nearly flat ridge there, where a local climb can stall short of the sup
    grid = pc.SampleGrid([-15.0] * 2, [15.0] * 2, [21] * 2)
    Q = battery_samples(2, seed + 1, 25, 1.5)
    rep = pc.verify_envelope_conjugate(pc.ScaledNorm(1.0, [0.0, 0.0]), 1.0, grid, Q)
    assert rep.details["interior_queries"] > 0
    assert rep.conclusion_residual <= rep.details["certificate"] <= 2e-5


def test_envelope_conjugate_certificate_covers_rounding():
    # q = x - proj(x) for x just inside the ball is one ulp: prox_{lam f}(lam q)
    # rounds at the center's scale, so the computed gradient at the start is
    # exactly 0 while the sup lies 2.5e-17 above phi(lam q)
    ball = pc.IndicatorBall([0.15390625, -0.28424178, -0.77733482], 1.1687421883739797)
    grid = pc.SampleGrid([-15.0] * 3, [15.0] * 3, [21] * 3)
    rep = pc.verify_envelope_conjugate(ball, 0.5914586832126776, grid,
                                       [[0.0, 2.7755575615628914e-17, 0.0]])
    assert rep.details["interior_queries"] == 1
    assert 0.0 < rep.conclusion_residual <= rep.details["certificate"] <= 1e-10


def test_envelope_conjugate_16d_grid_argument():
    # a library caller passes a 16-D grid; only its box is read. The queries
    # lie inside the unit ball, dom f* of the norm
    grid = pc.SampleGrid([-15.0] * 16, [15.0] * 16, [2] * 16)
    Q = battery_samples(16, 7, 25, 0.9)
    rep = pc.verify_envelope_conjugate(pc.ScaledNorm(1.0, np.zeros(16)), 1.0, grid, Q)
    assert rep.status == "verified"
    assert rep.details["interior_queries"] > 0


class _ConjugateTooLow(pc.Quadratic):
    """1/2 ||x||^2 with a closed-form conjugate 10 below the true one."""

    def conjugate(self):
        return pc.AddConst(super().conjugate(), -10.0)


def test_envelope_conjugate_boundary_query_above_claimed_sup():
    # f = x^2/2 at lam = 1: (f_lam)*(2) = 4 is attained at v = 4, outside the
    # box [-2.5, 2.5]; the ascent is clipped to 2.5, where phi = 3.4375 already
    # exceeds the claimed 4 - 10, a gap no box truncation can excuse
    grid = pc.SampleGrid([-2.5], [2.5], [2])
    rep = pc.verify_envelope_conjugate(_ConjugateTooLow(np.eye(1)), 1.0, grid, [[2.0]])
    assert rep.details["boundary_argmax"] == 1
    assert rep.status == "counterexample"
    assert rep.conclusion_residual == pytest.approx(3.4375 + 6.0)


def test_envelope_conjugate_crosses_the_ridge_in_few_steps(monkeypatch):
    # a query just inside dom f* (the unit ball) at lam = 0.5: the objective
    # rises by about 1e-6 per unit along the ray, where a fixed-step ascent
    # from a point a few units out took 5,092 steps
    calls = [0]
    prox_many = pc.ScaledNorm.prox_many

    def counted(self, lam, X):
        calls[0] += 1
        return prox_many(self, lam, X)

    monkeypatch.setattr(pc.ScaledNorm, "prox_many", counted)
    grid = pc.SampleGrid([-15.0] * 2, [15.0] * 2, [21] * 2)
    q = (1 - 1e-6) * np.array([1.0, 1.0]) / np.sqrt(2)
    rep = pc.verify_envelope_conjugate(pc.ScaledNorm(1.0, [0.0, 0.0]), 0.5, grid, q)
    assert rep.status == "verified" and rep.details["interior_queries"] == 1
    assert calls[0] <= 50


_TILT_DIRECTIONS = np.array([[0.7, 0.1, -0.7], [0.0, 1.0, 0.0], [-0.6, 0.0, 0.8]])


@pytest.mark.parametrize("f, lam, Q", [
    # the maximizer sits on box faces in several axes: steps along the
    # gradient alone zigzag across one axis and crawl along another
    (pc.IndicatorBox([-0.24, -0.6, -0.04], [1.18, 0.44, 1.55]), 0.67,
     [[1.22, 0.085, 0.018], [0.9, -0.3, 0.05], [1.3, 0.2, 0.6]]),
    # queries 1e-6 inside the edge of dom f* = {|q + a| <= 1.4}, off the
    # line through the center: a nearly flat ridge that is not straight ahead
    (pc.Tilt(pc.ScaledNorm(1.4, [-0.73, -0.4, 0.61]), [0.3, 0.03, 0.12]), 1.36,
     (1 - 1e-6) * 1.4 * _TILT_DIRECTIONS / np.linalg.norm(_TILT_DIRECTIONS, axis=1)[:, None]
     - [0.3, 0.03, 0.12]),
], ids=["box_faces", "tilted_norm_edge"])
def test_envelope_conjugate_certified_off_the_start_ray(f, lam, Q):
    grid = pc.SampleGrid([-15.0] * 3, [15.0] * 3, [21] * 3)
    rep = pc.verify_envelope_conjugate(f, lam, grid, Q)
    assert rep.status == "verified"
    assert rep.details["interior_queries"] == 3
    assert rep.details["certificate"] <= 2e-5


def test_envelope_conjugate_certifies_at_a_small_lam():
    # at lam = 1e-4 a unit step along grad phi = q - grad f_lam is 1e4 times
    # too long for its (1/lam)-Lipschitz gradient; the ascent climbs lam phi,
    # whose gradient is 1-Lipschitz at every lam
    ball = pc.IndicatorBall([0.2, 0.2, 0.2], 1.3)
    grid = pc.SampleGrid([-15.0] * 3, [15.0] * 3, [2] * 3)
    X = battery_samples(3, 1, 25, 6.0)
    Q = np.vstack([battery_samples(3, 2, 25, 1.5), X - ball.prox_many(1.0, X)])
    rep = pc.verify_envelope_conjugate(ball, 1e-4, grid, Q)
    assert rep.status == "verified" and rep.details["interior_queries"] == 50


def test_envelope_conjugate_compares_an_uncertified_query_one_way(monkeypatch):
    # an ascent that stops inside the box short of the sup (here: at half the
    # maximizer 2q of <q, v> - ||v||^2/4) certifies nothing there, so phi(v)
    # is a lower bound only and a shortfall must not read as a counterexample
    ascend = conjugation.ascend

    def stalled(grad_many, Z, Y, lo, hi):
        return 0.5 * ascend(grad_many, Z, Y, lo, hi)[0], None

    monkeypatch.setattr(conjugation, "ascend", stalled)
    grid = pc.SampleGrid([-15.0] * 2, [15.0] * 2, [2] * 2)
    Q = battery_samples(2, 2, 25, 1.5)
    rep = pc.verify_envelope_conjugate(pc.Quadratic(np.eye(2)), 1.0, grid, Q)
    assert rep.details["interior_queries"] == 0
    assert rep.status == "hypothesis_fails" and rep.conclusion_residual == 0.0


def test_ascend_bound_is_zero_at_a_box_face_maximizer():
    # u = ||y||^2 / 2: the sup of <z, y> - u(y) over the box is at clip(z),
    # where the gradient z - clip(z) points out of the box and the
    # Frank-Wolfe gap is 0, though ||F|| times the corner distance is not
    Z = np.array([[3.0, 0.5], [-4.0, 2.5], [0.2, -0.1]])
    lo, hi = np.array([-1.0, -2.0]), np.array([1.0, 2.0])
    Y, bound = conjugation.ascend(lambda Y: Y, Z, Z, lo, hi)
    assert np.array_equal(Y, np.clip(Z, lo, hi))
    assert np.array_equal(bound, np.zeros(3))


# the seed-1 queries of the reconstruct benchmark, then z = 0 and a row
# whose maximizer lies past the box face (|y*| >= |z| = 8 > 6)
ASCENT_QUERIES = np.array([
    [-0.8547867916857068, 0.0797664110263574], [1.1613424345620091, -0.14124968104364805],
    [0.44246200595435453, -0.10870701726715376], [-0.18436150078320862, -1.1541516542060641],
    [-0.6477460624095775, -0.17164594235806072], [-0.13129273625772345, 0.7696442710281607],
    [0.5812012759044367, 0.9241735832561387], [0.7539598735588834, -0.14419176618193155],
    [-0.8850848261130942, -0.08966471342484526], [0.14871184687151331, 0.13255153590238788],
    [-0.7435220925284661, -0.7295435383949421], [0.1468960635772427, -0.8679561725924134],
    [-0.5225530415358514, -0.4491681094426935], [0.9248743029302648, -0.5290981541417045],
    [0.640416897854922, 0.1626860507906172], [-0.7951042365437101, -0.14438217993361263],
    [-0.42507815783890124, 0.11103424590730301], [0.7041736633683146, 0.29089886954457855],
    [-0.34152748461229704, -0.4199220449417399], [0.36942740680668207, -0.49117675162445695],
    [-0.8672228901969207, -0.5731052148652769], [-0.0402881314606, 0.6341651819229046],
    [0.0, 0.0], [8.0, -1.0]])
# a 4-D quadratic with eigenvalues 0.01 to 100, whose rows all run to the step cap
CAPPED_WEIGHTS = [0.01, 0.21544346900318834, 4.6415888336127775, 100.0]
CAPPED_QUERIES = np.array([
    [1.4645408149224817, -2.045593690498228, -0.8787393210849093, -0.05169803501279095],
    [3.34982037956727, 3.6675998088626045, 0.20413865885154112, 0.024540226323041415],
    [0.4664850572540267, 3.865899399468961, 0.6046556183230498, -0.05317251681348912],
    [3.821748700144306, -4.14439331418035, 0.4396418978047125, -0.0346823692821026],
    [3.8834973875037377, 0.36840971226528996, -0.38342240918167453, -0.008267109020448403]])
ASCENT_CASES = {  # name: (f, Z, branches some of its rows reach)
    "shifted_quadratic": (fn.Translate(fn.Quadratic(np.eye(2)), [-0.5, 0.3]), ASCENT_QUERIES,
                          {"face"}),
    # the gradient vanishes on the ball of radius 1.5 that holds the queries
    "scaled_norm": (fn.ScaledNorm(1.5, dim=2), ASCENT_QUERIES, {"face", "flat"}),
    "tilted_norm": (fn.Tilt(fn.ScaledNorm(1.0, dim=2), [-0.3, 0.2]), ASCENT_QUERIES, {"face"}),
    "huber_1.5": (fn.Envelope(fn.ScaledNorm(1.5, dim=2), 1.0), ASCENT_QUERIES, {"face"}),
    "huber_1": (fn.Envelope(fn.ScaledNorm(1.0, dim=2), 1.0), ASCENT_QUERIES, {"face"}),
    "capped_quadratic_4d": (fn.Quadratic(np.diag(CAPPED_WEIGHTS)), CAPPED_QUERIES, {"cap"}),
}


def _reference_ascend(grad_many, Z, Y, lo, hi):
    """The ascent of ``conjugation.ascend`` written out step by step: every
    row keeps its full bookkeeping on every step, dot products run column by
    column from 0.0, and steps are clipped with np.clip. Also returns the
    branches some row took: "flat" (a doubled step), "face" (a clipped
    step) and "cap" (stopped by _MAX_STEPS)."""
    def dots(P, Q):
        s = 0.0
        for j in range(P.shape[-1]):
            s = s + P[..., j] * Q[..., j]
        return s

    Y, bound, act = np.clip(Y, lo, hi), np.full(len(Z), np.inf), np.arange(len(Z))
    z, y, F, dY, plain = Z, Y, np.zeros_like(Y), np.zeros_like(Y), np.zeros(len(Z), bool)
    branches = set()
    for k in range(conjugation._MAX_STEPS):
        Fk = z - grad_many(y)
        b = dots(Fk, np.where(Fk > 0, hi - y, lo - y))
        dF = Fk - F
        dF2 = dots(dF, dF)
        flat = dF2 == 0.0
        gamma = dots(Fk, dF) / np.where(flat, 1.0, dF2)
        gamma = np.where(plain, 0.0, np.maximum(gamma, -5.0))
        step = np.where(flat[:, None], 2.0 * dY, Fk - gamma[:, None] * (dY + dF))
        to = y + (step if k else Fk)
        new = np.clip(to, lo, hi)
        go = (b > conjugation._CERTIFIED) & np.any(new != y, axis=1)
        if k + 1 == conjugation._MAX_STEPS and go.any():
            branches.add("cap")
            go[:] = False
        Y[act[~go]], bound[act[~go]] = y[~go], b[~go]
        if not go.any():
            break
        branches |= {"flat"} if k and flat[go].any() else set()
        branches |= {"face"} if np.any(new != to) else set()
        plain = flat | np.any(new != to, axis=1)
        act, z, y, new, Fk, plain = (a[go] for a in (act, z, y, new, Fk, plain))
        F, dY, y = Fk, new - y, new
    return Y, bound, branches


@pytest.mark.parametrize("name", sorted(ASCENT_CASES))
def test_ascend_keeps_its_bits(name):
    # every end point and bound equals the written-out ascent's bit for bit
    f, Z, branches = ASCENT_CASES[name]
    lo, hi = np.full(Z.shape[1], -6.0), np.full(Z.shape[1], 6.0)
    Y, bound = conjugation.ascend(lambda X: f.prox_many(1.0, X), Z, Z.copy(), lo, hi)
    Y_ref, bound_ref, taken = _reference_ascend(lambda X: f.prox_many(1.0, X), Z, Z.copy(), lo, hi)
    assert np.array_equal(Y, Y_ref) and np.array_equal(np.signbit(Y), np.signbit(Y_ref))
    assert np.array_equal(bound, bound_ref)
    assert branches <= taken


@pytest.mark.parametrize("lam", [30.0, 300.0])
def test_envelope_conjugate_stops_ascents_held_at_a_box_face(monkeypatch, lam):
    # at a large lam the maximizers x + lam q of most queries lie beyond the
    # box: their ascents end on a face, where the gradient does not vanish,
    # and went on to the 100-step cap under a ||F|| max ||corner - y|| stop
    calls = [0]
    ascend = conjugation.ascend

    def counted(grad_many, *args):
        def grad(X):
            calls[0] += 1
            return grad_many(X)
        return ascend(grad, *args)

    monkeypatch.setattr(conjugation, "ascend", counted)
    grid = pc.SampleGrid([-15.0] * 3, [15.0] * 3, [2] * 3)
    rep = pc.verify_envelope_conjugate(pc.IndicatorBall([0.2, 0.2, 0.2], 1.3), lam, grid,
                                       battery_samples(3, 1, 50, 4.0))
    assert calls[0] <= 15  # 100 prox batches with the corner-distance stop
    assert rep.status == ("verified" if lam == 30.0 else "hypothesis_fails")


def test_envelope_conjugate_rejects_function_of_other_dimension():
    grid = pc.SampleGrid([-5.0] * 2, [5.0] * 2, [21] * 2)
    with pytest.raises(DimensionMismatch):
        pc.verify_envelope_conjugate(pc.ScaledNorm(1.0, [0.0, 0.0, 0.0]), 1.0, grid,
                                     np.zeros((4, 2)))


def test_envelope_conjugate_rejects_wrong_query_width():
    grid = pc.SampleGrid([-5.0] * 2, [5.0] * 2, [21] * 2)
    with pytest.raises(DimensionMismatch):
        pc.verify_envelope_conjugate(pc.ScaledNorm(1.0, [0.0, 0.0]), 1.0, grid,
                                     np.zeros((4, 3)))


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), INF])
def test_envelope_conjugate_rejects_a_bad_lam_before_any_arithmetic(lam):
    grid = pc.SampleGrid([-5.0] * 2, [5.0] * 2, [2] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="lam"):
            pc.verify_envelope_conjugate(pc.ScaledNorm(1.0, [0.0, 0.0]), lam, grid,
                                         [[0.2, 0.1], [-0.4, 0.3]])


def test_envelope_conjugate_runs_one_prox_batch_at_the_end_points(monkeypatch):
    # after the ascent, one prox_{lam f} batch at the end points gives both
    # f_lam(V) and the gradient bound
    f, lam = pc.ScaledNorm(1.0, [0.0, 0.0]), 0.5
    grid = pc.SampleGrid([-5.0] * 2, [5.0] * 2, [2] * 2)
    Q = battery_samples(2, 4, 25, 0.8)
    ascend, prox_many, calls = conjugation.ascend, pc.ScaledNorm.prox_many, []

    def counted_ascend(*args):
        out = ascend(*args)
        calls.append("ascended")
        return out

    def counted_prox(self, lam, X):
        calls.append(lam)
        return prox_many(self, lam, X)

    monkeypatch.setattr(conjugation, "ascend", counted_ascend)
    monkeypatch.setattr(pc.ScaledNorm, "prox_many", counted_prox)
    monkeypatch.setattr(pc.Envelope, "value_many", None)
    rep = pc.verify_envelope_conjugate(f, lam, grid, Q)
    assert rep.status == "verified"
    after = calls[calls.index("ascended") + 1:]
    assert after == [lam]


def test_envelope_conjugate_rejects_nan_query():
    grid = pc.SampleGrid([-5.0] * 2, [5.0] * 2, [21] * 2)
    with pytest.raises(ValueError, match="finite"):
        pc.verify_envelope_conjugate(pc.ScaledNorm(1.0, [0.0, 0.0]), 1.0, grid,
                                     [[0.2, 0.1], [np.nan, 0.3]])


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_table_csv_roundtrip(tmp_path):
    f = pc.IndicatorBox([0.0, 0.0], [1.0, 1.0])
    t = pc.tabulate(f, pc.SampleGrid([-1.0, -1.0], [2.0, 2.0], [7, 5]))
    path = tmp_path / "table.csv"
    pc.write_table_csv(t, str(path))
    t2 = pc.read_table_csv(str(path))
    assert np.array_equal(t.values, t2.values)
    assert np.allclose(t.grid.points(), t2.grid.points())
    assert "+inf" in path.read_text()


# ---------------------------------------------------------------------------
# score blocks
# ---------------------------------------------------------------------------

def test_conjugate_many_memory_bounded_for_many_queries():
    # 500 queries on a 201^2 table: one score block would hold 20M entries
    # (160 MB); the kernel caps each block by lattice points x queries
    import tracemalloc

    grid = pc.SampleGrid([-4.0, -4.0], [4.0, 4.0], [201, 201])
    table = pc.tabulate(pc.Envelope(pc.ScaledNorm(1.0, [0.0, 0.0]), 1.0), grid)
    Q = pc.Lcg(5).points_in_ball(500, 2, 1.5)
    grid.points()
    grid.boundary_mask()
    tracemalloc.start()
    try:
        vals, boundary = conjugate_many(table, Q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    # each query scored alone gets the same bits as in its block
    for q, v, b in zip(Q, vals, boundary):
        v1, _, b1 = conjugate_argmax(table, q)
        assert np.float64(v).tobytes() == np.float64(v1).tobytes()
        assert b == b1


_AXIS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_VALUE = st.one_of(st.sampled_from([0.0, 1.0, INF]), st.floats(-50.0, 50.0))
_COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-20.0, 20.0))


@st.composite
def _tables_and_queries(draw):
    """A 1-3-D value table with +inf entries and ties, and 1-6 queries."""
    dim = draw(st.integers(1, 3))
    lo = np.array(draw(st.lists(_AXIS, min_size=dim, max_size=dim)))
    width = np.array(draw(st.lists(st.floats(0.5, 50.0), min_size=dim, max_size=dim)))
    grid = pc.SampleGrid(lo, lo + width, draw(st.lists(st.integers(2, 5), min_size=dim,
                                                       max_size=dim)))
    values = np.array(draw(st.lists(_VALUE, min_size=grid.size, max_size=grid.size)))
    values[0] = min(values[0], 0.0)  # a finite entry
    n = draw(st.integers(1, 6))
    Q = np.array(draw(st.lists(_COORD, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    return pc.ValueTable(grid, values), Q


@settings(max_examples=200, deadline=None)
@given(_tables_and_queries())
def test_kernel_matches_the_dots_reference(case):
    # the scores of fn.dots over the lattice points minus the values, where a
    # +inf value scores -inf, and the first index of each maximum: the same
    # bits, sign of zero included
    table, Q = case
    S = fn.dots(table.grid.points()[:, None], Q[None]) - table.values[:, None]
    arg = np.argmax(S, axis=0)
    vals, got = conjugation._conjugate_kernel(table, Q)
    assert vals.tobytes() == S[arg, np.arange(len(Q))].tobytes()
    assert np.array_equal(got, arg)


def test_a_query_gets_the_same_bits_alone_and_in_any_block(monkeypatch):
    grid = pc.SampleGrid([-2.0, -1.5, -3.0], [2.5, 1.0, 3.0], [31, 17, 23])
    table = pc.tabulate(pc.Quadratic([[2.0, 0.4, 0.1], [0.4, 1.0, 0.2], [0.1, 0.2, 1.5]],
                                     [0.3, -0.1, 0.2], 0.5), grid)
    Q = pc.Lcg(9).points_in_ball(40, 3, 1.5)
    whole = conjugation._conjugate_kernel(table, Q)
    monkeypatch.setattr(conjugation, "_BLOCK_ENTRIES", 3 * grid.size)  # blocks of 3
    blocks = conjugation._conjugate_kernel(table, Q)
    alone = [conjugation._conjugate_kernel(table, q[None]) for q in Q]
    for got in [blocks, tuple(np.concatenate(a) for a in zip(*alone))]:
        assert got[0].tobytes() == whole[0].tobytes()
        assert np.array_equal(got[1], whole[1])


def test_an_overflowing_score_is_never_the_maximum_as_nan():
    # past the float range a score is inf, and inf - inf (a +inf value, or
    # terms of both signs) is NaN, which scores -inf like a +inf value
    grid = pc.SampleGrid([-2.0, -2.0], [2.0, 2.0], [5, 5])
    ball = pc.tabulate(pc.IndicatorBall([0.0, 0.0], 1.0), grid)
    quad = pc.tabulate(pc.Quadratic(np.eye(2)), grid)
    with np.errstate(over="ignore", invalid="ignore"):
        assert conjugate_argmax(ball, [1e308, 0.0]) == (1e308, 17, False)  # at (1, 0)
        assert conjugate_argmax(quad, [1e308, -1e308]) == (INF, 5, True)  # at (-1, -2)


def test_an_overflowing_query_warns_nothing():
    # conjugate --grid on the unit-ball indicator at (1e308, 0): the score
    # overflows to inf and inf - inf is NaN, both handled by the kernel, so
    # under the suite's error::RuntimeWarning filter no warning may escape
    grid = pc.SampleGrid([-2.0, -2.0], [2.0, 2.0], [5, 5])
    ball = pc.tabulate(pc.IndicatorBall([0.0, 0.0], 1.0), grid)
    vals, boundary = conjugate_many(ball, [[1e308, 0.0]])
    assert vals.tolist() == [1e308] and boundary.tolist() == [False]
