"""Grid tabulation and the numerical Legendre-Fenchel transform."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxcalc as pc
from proxcalc.conjugation import _stencil, conjugate_argmax, conjugate_many
from proxcalc.errors import DimensionMismatch

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
    with pytest.raises(DimensionMismatch):
        pc.SampleGrid([-1.0] * 4, [1.0] * 4, [3] * 4)
    with pytest.raises(ValueError):
        pc.SampleGrid([-1.0, -1.0], [1.0, 1.0], [1001, 1001])


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
    """(f, lam, query seed) in 2-D or 3-D. Every query of the battery's cloud
    (radius 1.5) stays at least 0.5 inside dom f*: at its edge the objective
    <q, v> - f_lam(v) has a nearly flat ridge, where the climb may stop
    short of the certificate (the refined value stays a lower bound)."""
    dim = draw(st.sampled_from([2, 3]))

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=dim, max_size=dim)))

    c = vec(-1.0, 1.0)
    f = draw(st.sampled_from([
        lambda: pc.ScaledNorm(draw(st.floats(2.0, 3.0)), c),
        lambda: pc.Quadratic(np.diag(vec(0.3, 2.0)), vec(-1.0, 1.0)),
        lambda: pc.IndicatorBall(c, draw(st.floats(0.3, 2.0))),
        lambda: pc.IndicatorBox(c - vec(0.1, 1.5), c + vec(0.1, 1.5)),
        lambda: pc.Tilt(pc.ScaledNorm(draw(st.floats(2.5, 3.0)), c), vec(-0.4, 0.4)),
    ]))()
    return f, draw(st.floats(0.5, 2.0)), draw(st.integers(0, 2**31))


@settings(max_examples=50, deadline=None)
@given(_closed_form_cases())
def test_envelope_conjugate_gap_within_certificate(case):
    # the battery's lattice: 21^d points over +-2.5 radius, radius 6
    f, lam, seed = case
    grid = pc.SampleGrid([-15.0] * f.dim, [15.0] * f.dim, [21] * f.dim)
    Q = pc.Lcg(seed).points_in_ball(25, f.dim, 1.5)
    rep = pc.verify_envelope_conjugate(f, lam, grid, Q, tol=2e-3)
    assert rep.details["interior_queries"] > 0
    assert rep.details["certificate"] <= 2e-5
    assert rep.conclusion_residual <= rep.details["certificate"] + 1e-9


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
    # (160 MB); the kernel caps each block by rows x queries
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
    # each query scored alone; BLAS rounds a score differently in the last
    # bit depending on the block shape, so values agree to rounding only
    for q, v, b in zip(Q, vals, boundary):
        v1, _, b1 = conjugate_argmax(table, q)
        assert v == pytest.approx(v1, rel=1e-14, abs=1e-14)
        assert b == b1


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_refine_stencil_tables_match_their_definition(dim):
    stencil, shift = _stencil(dim)
    assert all(a is b for a, b in zip(_stencil(dim), (stencil, shift)))  # built once
    assert stencil.tolist() == [list(t) for t in itertools.product((-1, 0, 1), repeat=dim)]
    code = {tuple(t): i for i, t in enumerate(stencil.tolist())}
    for j, s in enumerate(stencil):
        # after a move by s, point t of the new stencil is point t + s of the old
        want = [code.get(tuple(t + s), -1) for t in stencil]
        assert shift[j].tolist() == want
