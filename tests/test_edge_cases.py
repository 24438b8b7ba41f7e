"""Degenerate parameters and structural edge cases across modules."""

import numpy as np
import pytest

import proxcalc as pc
from proxcalc.sets import BoxSet


def test_zero_scaled_norm_is_zero_function():
    f = pc.ScaledNorm(0.0, [0.0, 0.0])
    assert pc.evaluate(f, [3.0, 4.0]) == 0.0
    assert np.allclose(pc.prox_closed_form(f, 2.0, [3.0, 4.0]), [3.0, 4.0])
    conj = pc.conjugate_closed_form(f)
    assert isinstance(conj, pc.IndicatorPoint)
    assert pc.evaluate(conj, [0.0, 0.0]) == 0.0
    assert np.allclose(pc.minimal_selection(f, [3.0, 4.0]), [0.0, 0.0])


def test_degenerate_box_acts_like_point():
    f = pc.IndicatorBox([1.0, 2.0], [1.0, 2.0])
    assert pc.evaluate(f, [1.0, 2.0]) == 0.0
    assert pc.evaluate(f, [1.0, 2.1]) == float("inf")
    assert np.allclose(pc.prox_closed_form(f, 1.0, [5.0, -3.0]), [1.0, 2.0])
    s = pc.subdifferential(f, [1.0, 2.0])
    assert isinstance(s, BoxSet)
    assert np.all(np.isinf(s.lo)) and np.all(np.isinf(s.hi))


def test_support_subdiff_attains_value(rng):
    # elements of the subdifferential of a support function attain the sup
    # and lie in the underlying set
    C_box = pc.IndicatorBox([-1.0, -0.5], [2.0, 1.0])
    sigma = pc.SupportBox([-1.0, -0.5], [2.0, 1.0])
    for _ in range(25):
        x = rng.uniform(-3, 3, 2)
        s = pc.subdifferential(sigma, x)
        # projections of seeded points are elements of the subdifferential
        for g in (s.project(z) for z in rng.uniform(-5, 5, (5, 2))):
            assert pc.evaluate(C_box, g) == 0.0
            assert float(np.dot(g, x)) == pytest.approx(pc.evaluate(sigma, x), abs=1e-9)


def test_support_ball_subdiff_attains_value(rng):
    sigma = pc.SupportBall([0.3, -0.2], 1.5)
    ball = pc.IndicatorBall([0.3, -0.2], 1.5)
    for _ in range(25):
        x = rng.uniform(-3, 3, 2)
        if np.linalg.norm(x) < 1e-6:
            continue
        g = pc.minimal_selection(sigma, x)
        assert pc.evaluate(ball, g) == 0.0
        assert float(np.dot(g, x)) == pytest.approx(pc.evaluate(sigma, x), abs=1e-9)


def test_fenchel_young_equality_along_chains(rng):
    # f(x) + f*(g) == <g, x> whenever g is a subgradient at x, across
    # mixed combinator chains with two-way conjugate rules
    chains = [
        pc.Tilt(pc.Envelope(pc.ScaledNorm(1.0, [0.0, 0.0]), 0.7), [0.2, -0.1]),
        pc.Translate(pc.AddConst(pc.Quadratic(np.eye(2)), 1.5), [0.4, 0.0]),
        pc.AddQuadratic(pc.SupportBox([-1.0, -1.0], [1.0, 1.0]), 0.5),
    ]
    for f in chains:
        conj = pc.conjugate_closed_form(f)
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            g = pc.minimal_selection(f, x)
            lhs = pc.evaluate(f, x) + pc.evaluate(conj, g)
            assert lhs == pytest.approx(float(np.dot(g, x)), abs=1e-8)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_add_quadratic_weight_must_be_finite_and_positive(alpha):
    with pytest.raises(ValueError, match="quadratic weight must be finite and > 0"):
        pc.AddQuadratic(pc.ScaledNorm(1.0, [0.0, 0.0]), alpha)


def test_halfspace_prox_is_projection(rng):
    f = pc.IndicatorHalfspace([1.0, 2.0], 1.0)
    a = np.array([1.0, 2.0])
    for _ in range(30):
        x = rng.uniform(-4, 4, 2)
        p = pc.prox_closed_form(f, 1.0, x)
        assert float(a @ p) <= 1.0 + 1e-9
        if float(a @ x) <= 1.0:
            assert np.allclose(p, x)
        else:
            # projection leaves the tangential component unchanged
            assert float(a @ p) == pytest.approx(1.0, abs=1e-9)


def test_envelope_indices_compose(rng):
    # (f_a)_b == f_{a+b}
    f = pc.ScaledNorm(1.0, [0.0])
    nested = pc.Envelope(pc.Envelope(f, 0.4), 0.6)
    flat = pc.Envelope(f, 1.0)
    for _ in range(20):
        x = rng.uniform(-4, 4, 1)
        assert pc.evaluate(nested, x) == pytest.approx(pc.evaluate(flat, x), abs=1e-12)


def test_read_table_csv_rejects_ragged(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0.0,1.0\n0.5,2.0\n0.5,3.0\n")  # duplicate lattice coordinate
    with pytest.raises(ValueError):
        pc.read_table_csv(str(p))


def test_read_table_csv_rejects_a_repeated_point(tmp_path):
    # four rows on a 2 x 2 lattice: (0, 0) twice and (0, 1) missing
    p = tmp_path / "rep.csv"
    p.write_text("0,0,1\n0,0,2\n1,0,3\n1,1,4\n")
    with pytest.raises(ValueError, match=r"rep\.csv: lattice point \[0\.0, 0\.0\] repeats"):
        pc.read_table_csv(str(p))


@pytest.mark.parametrize("text, message", [
    ("0.0,1.0\n0.5\n", "bad.csv:2: expected 2 fields, got 1"),
    ("0.0,1.0\n\n0.5,x\n", "bad.csv:3: could not convert string to float: 'x'"),
    ("# only a comment\n", "no rows in .*bad.csv"),
])
def test_read_table_csv_errors_name_the_line(tmp_path, text, message):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match=message):
        pc.read_table_csv(str(p))


def test_read_table_csv_reads_plus_inf(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1.0,+inf\n0.0,0.5\n-1.0,inf\n")
    t = pc.read_table_csv(str(p))
    assert t.values.tolist() == [float("inf"), 0.5, float("inf")]


def test_reports_render_infinities():
    rep = pc.CheckReport("demo", "hypothesis_fails", float("inf"), 0.0, 1e-6)
    text = pc.render_reports([rep])
    assert "hypothesis_residual: +inf" in text
    csv = pc.render_reports([rep], "csv")
    assert "demo,hypothesis_fails,+inf,0.0" in csv
