"""Reconstruction of a convex function from its prox oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxcalc as pc
from proxcalc import conjugation, determination
from proxcalc.determination import (
    _ray_integrals,
    check_path_independence,
    validate_field,
)
from proxcalc.errors import (
    AnchorOutsideDomain,
    DimensionMismatch,
    NonConservativeField,
    OracleError,
)
from proxcalc.verify import battery_samples


def shifted_parabola_1d():
    """f(x) = (x-1)^2/2, prox = (x+1)/2, f(0) = 1/2."""
    return pc.Translate(pc.Quadratic(np.eye(1)), [-1.0])


# ---------------------------------------------------------------------------
# tilde_gradient
# ---------------------------------------------------------------------------

def test_tilde_gradient_shifted_parabola():
    oracle = pc.ProxOracle.from_function(shifted_parabola_1d())
    g = pc.tilde_gradient(oracle, [0.0], [3.0])
    assert g[0] == pytest.approx(2.0)


def test_tilde_gradient_identity_oracle():
    oracle = pc.ProxOracle(lambda x: x, dim=2, batch_query=lambda X: X)
    for x0 in ([0.0, 0.0], [1.0, -1.0]):
        g = pc.tilde_gradient(oracle, x0, [0.3, 0.4])
        assert np.allclose(g, [0.3, 0.4])


def test_tilde_gradient_norm():
    oracle = pc.ProxOracle.from_function(pc.ScaledNorm(1.0, [0.0, 0.0]))
    g = pc.tilde_gradient(oracle, [0.0, 0.0], [3.0, 4.0])
    assert np.allclose(g, [2.4, 3.2])


def test_oracle_counts_calls():
    oracle = pc.ProxOracle.from_function(pc.ScaledNorm(1.0, [0.0]))
    oracle(np.array([1.0]))
    oracle.query_many(np.zeros((5, 1)))
    assert oracle.call_count == 6


_NORM2 = pc.ScaledNorm(1.0, [0.0, 0.0])
_TABLE_IN = pc.Lcg(3).points_in_ball(40, 2, 3.0)


@pytest.mark.parametrize("make", [
    lambda: pc.ProxOracle.from_function(pc.Tilt(_NORM2, [0.3, -0.1]), lam=0.7),
    lambda: pc.ProxOracle.from_table(np.linspace(-3, 3, 13).reshape(-1, 1),
                                     np.tanh(np.linspace(-3, 3, 13)).reshape(-1, 1)),
    lambda: pc.ProxOracle.from_table(_TABLE_IN, _NORM2.prox_many(1.0, _TABLE_IN)),
    lambda: pc.ProxOracle(lambda x: _NORM2.prox_many(1.0, x[None])[0], 2),
], ids=["function", "table_1d", "table_2d", "query_only"])
def test_oracle_point_is_a_one_row_batch(make):
    oracle = make()
    for x in ([0.4, -1.3], [7.0, 0.2], [0.0, 0.0]):
        x = np.asarray(x[:oracle.dim])
        count = oracle.call_count
        y = oracle(x)
        assert oracle.call_count == count + 1
        assert y.shape == (oracle.dim,)
        assert y.tobytes() == oracle.query_many(x[None])[0].tobytes()


def test_query_only_oracle_reconstructs():
    norm = pc.ScaledNorm(1.0, [0.0])
    reports = []
    for oracle in (pc.ProxOracle(lambda x: norm.prox_many(1.0, x[None])[0], 1),
                   pc.ProxOracle.from_function(norm)):
        reports.append(pc.reconstruct(pc.ReconstructionTask(
            oracle=oracle, x0=[0.0], tilde_grid=pc.SampleGrid([-10.0], [10.0], [3]),
            query_points=[[-1.0], [2.0], [0.5]], f_at_x0=0.0)))
    by_row, batched = reports
    assert [v for _, v in by_row.recovered] == [v for _, v in batched.recovered]
    assert by_row.details["oracle_calls"] == batched.details["oracle_calls"]
    for q, v in by_row.recovered:
        assert abs(v - abs(q[0])) <= 1e-8


def test_oracle_nan_output_rejected():
    oracle = pc.ProxOracle(lambda x: x * np.nan, dim=1,
                           batch_query=lambda X: np.full(X.shape, np.nan))
    grid = pc.SampleGrid([-2.0], [2.0], [21])
    with pytest.raises(OracleError):
        pc.integrate_tilde(oracle, [0.0], grid)


def test_oracle_wrong_batch_width_rejected():
    # one output column for a 2-D oracle used to broadcast into the field
    oracle = pc.ProxOracle(lambda x: x[:1], dim=2, batch_query=lambda X: X[:, :1])
    grid = pc.SampleGrid([-2.0, -2.0], [2.0, 2.0], [11, 11])
    with pytest.raises(DimensionMismatch):
        pc.integrate_tilde(oracle, [0.0, 0.0], grid)
    with pytest.raises(DimensionMismatch):
        pc.ProxOracle(lambda x: x[:1], dim=2).query_many(np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# integrate_tilde
# ---------------------------------------------------------------------------

def test_integrate_shifted_parabola_with_pinning():
    # analytic: u(x) - u(0) = x^2/4 + x/2; min -1/4 at x=-1; with f(0)=1/2
    # the pinned table satisfies u(0) = -1/4
    oracle = pc.ProxOracle.from_function(shifted_parabola_1d())
    grid = pc.SampleGrid([-4.0], [4.0], [201])
    table, diag = pc.integrate_tilde(oracle, [0.0], grid, f_at_x0=0.5)
    xs = grid.points()[:, 0]
    expected = xs**2 / 4 + xs / 2 - 0.25
    assert np.allclose(table.values, expected, atol=1e-10)
    assert diag["pinned_constant"] == pytest.approx(-0.25, abs=1e-10)
    assert not diag["pin_min_on_boundary"]


def test_integrate_zero_field():
    # prox of the point indicator at 0: u is constant, pinned table is 0
    oracle = pc.ProxOracle.from_function(pc.IndicatorPoint([0.0]))
    grid = pc.SampleGrid([-2.0], [2.0], [41])
    table, _ = pc.integrate_tilde(oracle, [0.0], grid, f_at_x0=0.0)
    assert np.allclose(table.values, 0.0, atol=1e-12)


def test_integrate_identity_oracle():
    oracle = pc.ProxOracle(lambda x: x, dim=1, batch_query=lambda X: X)
    grid = pc.SampleGrid([-2.0], [2.0], [41])
    table, _ = pc.integrate_tilde(oracle, [0.0], grid)
    xs = grid.points()[:, 0]
    assert np.allclose(table.values, xs**2 / 2, atol=1e-12)


def test_non_monotone_field_rejected():
    oracle = pc.ProxOracle(lambda x: -x, dim=1, batch_query=lambda X: -X)
    grid = pc.SampleGrid([-2.0], [2.0], [21])
    with pytest.raises(NonConservativeField):
        pc.integrate_tilde(oracle, [0.0], grid)


def test_asymmetric_field_rejected():
    # a rotation field is monotone-ish but not a gradient
    R = np.array([[0.0, -1.0], [1.0, 0.0]])

    def rot(X):
        return X @ R.T + X

    oracle = pc.ProxOracle(lambda x: rot(x.reshape(1, -1))[0], dim=2, batch_query=rot)
    grid = pc.SampleGrid([-2.0, -2.0], [2.0, 2.0], [11, 11])
    with pytest.raises(NonConservativeField):
        pc.integrate_tilde(oracle, [0.0, 0.0], grid)


def test_expansive_field_rejected():
    # G(x) = 2x is monotone with a symmetric Jacobian, yet not firmly
    # nonexpansive, so no convex f has it as its prox map
    oracle = pc.ProxOracle(lambda x: 2.0 * x, dim=2, batch_query=lambda X: 2.0 * X)
    grid = pc.SampleGrid([-2.0, -2.0], [2.0, 2.0], [41, 41])
    with pytest.raises(NonConservativeField, match="firmly nonexpansive"):
        pc.reconstruct(pc.ReconstructionTask(oracle, [0.0, 0.0], grid, [[1.0, 0.0]]))


def test_field_validation_residuals():
    oracle = pc.ProxOracle.from_function(pc.ScaledNorm(1.0, [0.0, 0.0]))
    mono, firm, sym = validate_field(oracle, [0.0, 0.0], radius=4.0)
    assert mono <= 1e-8
    assert firm <= 1e-8  # firm nonexpansiveness of a translated prox
    assert sym <= 1e-3


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_validate_field_scores_every_row_in_one_batch(dim):
    # 2 x 40 pair rows, then 12 probes shifted both ways along each axis
    f, batches = pc.ScaledNorm(1.0, dim=dim), []

    def batch(X):
        batches.append(len(X))
        return f.prox_many(1.0, X)

    validate_field(pc.ProxOracle(None, dim, batch), np.zeros(dim), radius=4.0)
    assert batches == [80 + (24 * dim if dim >= 2 else 0)]


def test_lattice_path_gap_vanishes_for_linear_field():
    # trapezoid legs are exact for a linear field, so every axis order agrees
    oracle = pc.ProxOracle.from_function(pc.Translate(pc.Quadratic(np.eye(2)), [-0.5, 0.3]))
    grid = pc.SampleGrid([-3.0, -3.0], [3.0, 3.0], [31, 41])
    table, diag = pc.integrate_tilde(oracle, [0.0, 0.0], grid)
    P = grid.points()
    expected = np.sum(P * P, axis=1) / 4 + P @ np.array([0.25, -0.15])
    assert np.allclose(table.values, expected, atol=1e-10)
    assert diag["lattice_path_gap"] <= 1e-12


def test_path_independence_doubles_panels():
    oracle = pc.ProxOracle.from_function(pc.ScaledNorm(1.0, [0.0, 0.0]))
    probes = np.array([[3.0, 2.0], [-2.0, 3.0]])
    gap, panels = check_path_independence(oracle, [0.0, 0.0], probes, 8)
    assert gap <= 1e-4
    assert panels >= 8


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def test_reconstruct_shifted_parabola():
    f = shifted_parabola_1d()
    oracle = pc.ProxOracle.from_function(f)
    task = pc.ReconstructionTask(
        oracle, [0.0], pc.SampleGrid([-10.0], [10.0], [2001]),
        [[2.0]], f_at_x0=0.5,
    )
    rep = pc.reconstruct(task)
    assert rep.convention == "absolute"
    q, v = rep.recovered[0]
    assert v == pytest.approx(0.5, abs=1e-3)


def test_reconstruct_point_indicator_saturates():
    # recovery of a {0}-supported indicator: 0 at 0, grid-truncated blowup
    # elsewhere, flagged through the boundary-argmax counter
    oracle = pc.ProxOracle.from_function(pc.IndicatorPoint([0.0]))
    task = pc.ReconstructionTask(
        oracle, [0.0], pc.SampleGrid([-8.0], [8.0], [801]),
        [[0.0], [1.0]], f_at_x0=0.0,
    )
    rep = pc.reconstruct(task)
    assert rep.recovered[0][1] == pytest.approx(0.0, abs=1e-9)
    assert rep.recovered[1][1] > 3.0  # large positive proxy for +inf
    assert rep.boundary_argmax_warnings >= 1


def test_reconstruct_norm_1d():
    oracle = pc.ProxOracle.from_function(pc.ScaledNorm(1.0, [0.0]))
    task = pc.ReconstructionTask(
        oracle, [0.0], pc.SampleGrid([-10.0], [10.0], [2001]),
        [[-1.0], [0.0], [2.0]], f_at_x0=0.0,
    )
    rep = pc.reconstruct(task)
    expected = [1.0, 0.0, 2.0]
    for (q, v), e in zip(rep.recovered, expected):
        assert v == pytest.approx(e, abs=2e-3)


def test_reconstruct_relative_convention():
    f = pc.ScaledNorm(1.0, [0.0])
    oracle = pc.ProxOracle.from_function(f)
    task = pc.ReconstructionTask(
        oracle, [0.0], pc.SampleGrid([-10.0], [10.0], [2001]),
        [[0.0], [1.5]],
    )
    rep = pc.reconstruct(task)
    assert rep.convention == "up to additive constant"
    # differences are constant-free
    d = rep.recovered[1][1] - rep.recovered[0][1]
    assert d == pytest.approx(1.5, abs=2e-3)


def test_reconstruct_anchored_away_from_origin():
    # f(x) = ||x - 2||, anchor x0 = 2 (interior of the domain); the tilt and
    # translate devices move the anchor to the origin internally
    f = pc.ScaledNorm(1.0, [2.0])
    oracle = pc.ProxOracle.from_function(f)
    task = pc.ReconstructionTask(
        oracle, [2.0], pc.SampleGrid([-10.0], [10.0], [2001]),
        [[1.0], [2.0], [3.5]], f_at_x0=0.0,
    )
    rep = pc.reconstruct(task)
    for q, v in rep.recovered:
        assert v == pytest.approx(abs(q[0] - 2.0), abs=2e-3)


def _tilted_norm_rebuild_241(oracle):
    grid = pc.SampleGrid([-6.0, -6.0], [6.0, 6.0], [241, 241])
    queries = battery_samples(2, 29, 22, 1.2)
    return grid, pc.reconstruct(pc.ReconstructionTask(
        oracle, [0.0, 0.0], grid, queries, f_at_x0=0.0))


def test_reconstruct_2d_queries_few_oracle_rows():
    # 128 validation rows, 129 ray rows per query and for the pin, and one row
    # per active query per ascent step; a 241^2 lattice alone was 58,081
    f = pc.Tilt(pc.ScaledNorm(1.0, [0.0, 0.0]), [-0.3, 0.2])
    _, rep = _tilted_norm_rebuild_241(pc.ProxOracle.from_function(f))
    assert rep.details["oracle_calls"] <= 5000
    for q, v in rep.recovered:
        assert v == pytest.approx(pc.evaluate(f, q), abs=1e-4)


def test_reconstruct_2d_makes_few_oracle_batches():
    # three validation batches, one per ascent step, one for the ray integrals
    f = pc.Tilt(pc.ScaledNorm(1.0, [0.0, 0.0]), [-0.3, 0.2])
    batches = []

    def many(X):
        batches.append(X.shape[0])
        return f.prox_many(1.0, X)

    _, rep = _tilted_norm_rebuild_241(pc.ProxOracle(None, 2, many))
    assert len(batches) <= 3 + 100 + 1
    assert sum(batches) == rep.details["oracle_calls"]


def test_reconstruct_builds_no_lattice(monkeypatch):
    def refuse(*args):
        raise AssertionError("reconstruct built or scored a lattice")

    monkeypatch.setattr(pc.SampleGrid, "points", refuse)
    monkeypatch.setattr(conjugation, "_conjugate_kernel", refuse)
    f = pc.Tilt(pc.ScaledNorm(1.0, [0.0, 0.0]), [-0.3, 0.2])
    _, rep = _tilted_norm_rebuild_241(pc.ProxOracle.from_function(f))
    assert rep.details["certificate"] <= 1e-6


def test_reconstruct_near_the_kink():
    # the inversion of the prox stalls next to the kink of the tilted norm; the
    # ascent still stops with a value close to f and a finite certificate
    f = pc.Tilt(pc.ScaledNorm(1.0, [0.0, 0.0]), [-0.3, 0.2])
    q = 1e-3 * np.array([0.6, -0.8])
    grid = pc.SampleGrid([-6.0, -6.0], [6.0, 6.0], [241, 241])
    rep = pc.reconstruct(pc.ReconstructionTask(
        pc.ProxOracle.from_function(f), [0.0, 0.0], grid, [q], f_at_x0=0.0))
    assert rep.recovered[0][1] == pytest.approx(pc.evaluate(f, q), abs=1e-4)
    assert np.isfinite(rep.details["certificate"])
    assert rep.boundary_argmax_warnings == 0


def test_ascent_takes_no_secant_across_a_kink():
    # the prox of 1.5||.|| is 0 on the ball of radius 1.5; a secant from that
    # flat piece across its edge flung this query to the box edge, and it took
    # 11 ascent batches; the plain step after the doubling keeps it inside
    f = pc.ScaledNorm(1.5, [0.0, 0.0])
    batches = []

    def many(X):
        batches.append(X.copy())
        return f.prox_many(1.0, X)

    oracle = pc.ProxOracle(lambda x: many(x[None])[0], 2, many)
    grid = pc.SampleGrid([-6.0, -6.0], [6.0, 6.0], [2, 2])
    rep = pc.reconstruct(pc.ReconstructionTask(
        oracle, [0.0, 0.0], grid, [[0.75395987, -0.14419177]], f_at_x0=0.0))
    ascent = [X for X in batches if len(X) <= 2]  # query and pin rows
    assert len(ascent) <= 6
    assert np.all(np.abs(np.vstack(ascent)) < 6.0)
    assert rep.recovered[0][1] == pytest.approx(1.5 * np.hypot(0.75395987, 0.14419177), abs=1e-4)


@pytest.mark.parametrize("name", ["norm", "tilted norm", "huber"])
def test_reconstruct_16d_round_trip(name):
    # a two-point grid is only the box the maximizers are sought in
    z = np.zeros(16)
    f = {"norm": pc.ScaledNorm(1.0, z),
         "tilted norm": pc.Tilt(pc.ScaledNorm(1.0, z), np.linspace(-0.3, 0.2, 16)),
         "huber": pc.Envelope(pc.ScaledNorm(1.0, z), 1.0)}[name]
    grid = pc.SampleGrid([-6.0] * 16, [6.0] * 16, [2] * 16)
    queries = battery_samples(16, 29, 22, 1.2)
    rep = pc.reconstruct(pc.ReconstructionTask(
        pc.ProxOracle.from_function(f), z, grid, queries, f_at_x0=0.0))
    assert rep.boundary_argmax_warnings == 0 and not rep.pin_min_on_boundary
    for q, v in rep.recovered:
        assert v == pytest.approx(pc.evaluate(f, q), abs=2e-3)


def test_integrate_tilde_rejects_4d():
    # d! axis orders: 16! is about 2.1e13 tables
    oracle = pc.ProxOracle.from_function(pc.ScaledNorm(1.0, np.zeros(4)))
    grid = pc.SampleGrid([-1.0] * 4, [1.0] * 4, [3] * 4)
    with pytest.raises(DimensionMismatch):
        pc.integrate_tilde(oracle, np.zeros(4), grid)
    assert oracle.call_count == 0


def test_reconstruct_origin_off_lattice():
    # without f_at_x0 the table is anchored at u(0) = 0, so the recovered
    # values are f - f_1(0), f_1 the Moreau envelope; the nearest lattice
    # point to 0 is about (0.010, -0.010)
    f = pc.Translate(pc.Quadratic(np.eye(2)), [-0.5, 0.3])
    grid = pc.SampleGrid([-5.03, -4.97], [5.0, 5.0], [200, 200])
    queries = battery_samples(2, 29, 22, 1.2)
    rep = pc.reconstruct(pc.ReconstructionTask(
        pc.ProxOracle.from_function(f), [0.0, 0.0], grid, queries))
    values = np.array([v for _, v in rep.recovered])
    truth = pc.evaluate_many(f, queries)
    diffs = (values - values[0]) - (truth - truth[0])
    assert np.max(np.abs(diffs)) <= 2e-3
    shift = pc.moreau_envelope(f, 1.0, [0.0, 0.0])
    assert np.max(np.abs(values - (truth - shift))) <= 2e-3


def test_ray_integrals_exact_on_affine_field():
    # G(x) = A x + c - x0 with the oracle x -> A (x - x0) + c, so the ray
    # integral is x'Ax/2 + <c - x0, x>; Simpson is exact on the linear integrand
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    c = np.array([0.3, -0.7])
    x0 = np.array([0.25, -1.5])
    oracle = pc.ProxOracle(None, 2, lambda X: (X - x0) @ A.T + c)
    X = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, 0.0], [0.01, -0.01]])
    got = _ray_integrals(oracle, x0, X, 64)
    exact = 0.5 * np.einsum("ij,jk,ik->i", X, A, X) + X @ (c - x0)
    assert np.max(np.abs(got - exact)) <= 1e-12
    assert oracle.call_count == 129 * X.shape[0]


def test_ray_integrals_bound_their_oracle_batches(monkeypatch):
    # blocks of rows keep each row's bits; the 2,967 rows of the 22 queries
    # and the pin of a reconstruct_2d op stay one batch
    f = pc.Tilt(pc.ScaledNorm(1.5, [0.0, 0.0]), [-0.3, 0.2])
    X = battery_samples(2, 7, 50, 3.0)
    batches = []

    def many(X):
        batches.append(X.shape[0])
        return f.prox_many(1.0, X)

    expected = _ray_integrals(pc.ProxOracle(None, 2, many), np.zeros(2), X, 64)
    _ray_integrals(pc.ProxOracle(None, 2, many), np.zeros(2), X[:23], 64)
    assert batches == [129 * 50, 2967]
    batches.clear()
    monkeypatch.setattr(determination, "_RAY_BATCH", 1000)
    blocked = pc.ProxOracle(None, 2, many)
    got = _ray_integrals(blocked, np.zeros(2), X, 64)
    assert got.tobytes() == expected.tobytes()
    assert batches == [129 * 7] * 7 + [129]
    assert blocked.call_count == 129 * 50


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_reconstruction_task_rejects_a_non_finite_f_at_x0(value):
    oracle = pc.ProxOracle.from_function(pc.ScaledNorm(1.0, [0.0]))
    with pytest.raises(ValueError, match="^f_at_x0 must be finite$"):
        pc.ReconstructionTask(oracle, [0.0], pc.SampleGrid([-1.0], [1.0], [3]),
                              [[0.5]], f_at_x0=value)


def test_reconstruct_envelope_of_norm_3d():
    f = pc.Envelope(pc.ScaledNorm(1.0, [0.0, 0.0, 0.0]), 1.0)
    grid = pc.SampleGrid([-4.0] * 3, [4.0] * 3, [81] * 3)
    queries = battery_samples(3, 29, 22, 1.2)
    rep = pc.reconstruct(pc.ReconstructionTask(
        pc.ProxOracle.from_function(f), np.zeros(3), grid, queries, f_at_x0=0.0))
    assert rep.details["oracle_calls"] <= 2 * grid.size
    for q, v in rep.recovered:
        assert v == pytest.approx(pc.evaluate(f, q), abs=2e-3)


def test_reconstruction_task_rejects_quadrature_steps():
    oracle = pc.ProxOracle.from_function(pc.ScaledNorm(1.0, [0.0]))
    with pytest.raises(TypeError, match="quadrature_steps"):
        pc.ReconstructionTask(oracle, [0.0], pc.SampleGrid([-1.0], [1.0], [11]),
                              [[0.0]], quadrature_steps=64)


def test_integrate_tilde_rejects_quadrature_steps():
    oracle = pc.ProxOracle.from_function(pc.ScaledNorm(1.0, [0.0]))
    grid = pc.SampleGrid([-4.0], [4.0], [81])
    with pytest.raises(TypeError, match="quadrature_steps"):
        pc.integrate_tilde(oracle, [0.0], grid, quadrature_steps=64)
    # f_at_x0 is keyword-only: a stale positional 64 must not pin f(x0) = 64
    with pytest.raises(TypeError):
        pc.integrate_tilde(oracle, [0.0], grid, 64)
    table, diag = pc.integrate_tilde(oracle, [0.0], grid, f_at_x0=0.0)
    assert diag["pinned_constant"] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# determine_from_norm
# ---------------------------------------------------------------------------

def test_determine_reflexive():
    f = pc.ScaledNorm(1.0, [0.0, 0.0])
    X = pc.verify.battery_samples(2, 3, 60, 5.0) if hasattr(pc, "verify") else None
    from proxcalc.verify import battery_samples

    X = battery_samples(2, 3, 60, 5.0)
    rep = pc.determine_from_norm(f, f, X, x0=[0.0, 0.0])
    assert rep.status == "verified"
    assert rep.hypothesis_residual == 0.0
    assert rep.conclusion_residual == 0.0


def test_determine_constant_shift():
    from proxcalc.verify import battery_samples

    f = pc.ScaledNorm(1.0, [0.0, 0.0])
    g = pc.AddConst(f, 5.0)
    X = battery_samples(2, 3, 60, 5.0)
    rep = pc.determine_from_norm(f, g, X, x0=[0.0, 0.0])
    assert rep.status == "verified"


def test_determine_anchor_outside_domain():
    f = pc.IndicatorPoint([1.0, 0.0])
    with pytest.raises(AnchorOutsideDomain):
        pc.determine_from_norm(f, f, np.zeros((3, 2)), x0=[0.0, 0.0])


def test_determine_sharpness_example():
    # both prox norms are identically 1, yet f - g is not constant; the
    # origin variant flags the violated boundedness precondition
    from proxcalc.verify import battery_samples

    f = pc.IndicatorPoint([1.0, 0.0])
    g = pc.IndicatorPoint([0.0, 1.0])
    X = battery_samples(2, 3, 40, 5.0, extra=[np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    rep = pc.determine_from_norm(f, g, X, x0=None)
    assert rep.hypothesis_residual <= 1e-12
    assert rep.status == "precondition_violated"
    # 0 lies outside both domains, so both conjugates are unbounded below
    assert rep.details["inf_conj_f"] == rep.details["inf_conj_g"] == -np.inf
    # a report that asserts nothing carries no witnesses and no residual
    assert rep.witnesses == [] and rep.conclusion_residual == 0.0


def test_determine_witness_prints_plain_floats():
    # a hypothesis tolerance wide enough to pass unequal prox norms, so the
    # conclusion f - g = inf g* - inf f* = 0.5 is sampled and fails
    f, g = pc.Affine([1.0], 0.5), pc.Affine([0.0], 0.0)
    rep = pc.determine_from_norm(f, g, np.array([[1.0], [2.0]]), tol_h=10.0)
    assert rep.status == "counterexample"
    assert rep.witnesses[0][1] == "f=1.5 g=0.0 expected_gap=0.5"


def _constant_difference_loop(samples, fv, gv, constant, tol):
    """Per-sample reference for the constant gaps and their verdict."""
    worst = 0.0
    witnesses = []
    for x, a, b in zip(samples, fv, gv):
        fin_a, fin_b = np.isfinite(a), np.isfinite(b)
        if fin_a and fin_b:
            gap = abs((a - b) - constant)
        elif fin_a != fin_b:
            gap = float("inf")
        else:
            continue
        if gap > tol and len(witnesses) < 10:
            witnesses.append((x, f"f={float(a)!r} g={float(b)!r} "
                                 f"expected_gap={float(constant)!r}"))
        worst = max(worst, gap)
    return ("verified" if worst <= tol else "counterexample"), worst, witnesses


_EXTENDED = st.one_of(st.floats(-10.0, 10.0), st.just(float("inf")))


class _Lookup(pc.ConvexFunction):
    """1-D values read from a table at integer points; prox is the identity,
    so two lookups always satisfy the hypothesis of determine_from_norm."""

    dim = 1

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def value_many(self, X):
        return self.values[X[:, 0].astype(int) % self.values.size]

    def prox_many(self, lam, X):
        return X.copy()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_EXTENDED, _EXTENDED), min_size=1, max_size=40),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.sampled_from([1e-6, 0.5]),
       st.booleans())
def test_sampled_verdict_first_witnesses_match_per_sample_loop(pairs, f0, g0, tol, anchored):
    # sample 0 is the origin, where f and g take the finite values f0 and g0
    fv = np.array([f0] + [a for a, _ in pairs])
    gv = np.array([g0] + [b for _, b in pairs])
    samples = np.arange(fv.size, dtype=float).reshape(-1, 1)
    got = pc.determine_from_norm(_Lookup(fv), _Lookup(gv), samples,
                                 x0=[0.0] if anchored else None, tol_c=tol)
    if anchored:
        expected = _constant_difference_loop(samples, fv - f0, gv - g0, 0.0, tol)
    else:  # the constant inf g* - inf f*, with inf h* = -h(0)
        expected = _constant_difference_loop(samples, fv, gv, (0.0 - g0) - (0.0 - f0), tol)
    status, worst, witnesses = expected
    assert got.hypothesis_residual == 0.0
    assert (got.status, got.conclusion_residual) == (status, worst)
    assert [(p.tolist(), t) for p, t in got.witnesses] == [
        (p.tolist(), t) for p, t in witnesses]


# ---------------------------------------------------------------------------
# table oracles
# ---------------------------------------------------------------------------

def test_table_oracle_1d_interpolation():
    f = pc.Quadratic(np.eye(1))
    xs = np.linspace(-5, 5, 2001).reshape(-1, 1)
    ys = f.prox_many(1.0, xs)
    oracle = pc.ProxOracle.from_table(xs, ys)
    for x in (0.3, -1.7, 2.2):
        assert oracle(np.array([x]))[0] == pytest.approx(x / 2, abs=1e-9)


def test_table_oracle_2d_reconstruction():
    f = pc.Quadratic(np.eye(2))
    rng = np.random.default_rng(11)
    xs = rng.uniform(-8, 8, size=(4000, 2))
    ys = f.prox_many(1.0, xs)
    oracle = pc.ProxOracle.from_table(xs, ys)
    task = pc.ReconstructionTask(
        oracle, [0.0, 0.0], pc.SampleGrid([-5.0, -5.0], [5.0, 5.0], [81, 81]),
        [[1.0, 0.0], [0.5, 0.5]], f_at_x0=0.0,
    )
    rep = pc.reconstruct(task)
    for q, v in rep.recovered:
        truth = pc.evaluate(f, q)
        assert v == pytest.approx(truth, abs=5e-3)


@pytest.mark.parametrize("inputs, message", [
    ([[0.0], [np.nan], [1.0]], "^oracle table inputs must be finite$"),
    ([[0.0, 0.0], [1.0, np.inf], [0.0, 1.0]], "^oracle table inputs must be finite$"),
    ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], r"^oracle table inputs must span R\^2$"),
    ([[0.0, 0.0], [1.0, 0.0]], r"^oracle table inputs must span R\^2$"),
    ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
     r"^oracle table inputs must span R\^3$"),
], ids=["nan_1d", "inf_2d", "collinear_2d", "two_points_2d", "coplanar_3d"])
def test_table_oracle_rejects_bad_inputs(inputs, message):
    inputs = np.array(inputs)
    with pytest.raises(ValueError, match=message):
        pc.ProxOracle.from_table(inputs, 0.5 * np.nan_to_num(inputs, posinf=0.0))
