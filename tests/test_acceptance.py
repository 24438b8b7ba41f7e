"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Tolerances are fixed here and nowhere else.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

import proxcalc as pc
from proxcalc.engine import numerical_prox
from proxcalc.verify import (
    battery_samples,
    check_comparison,
    check_equivalences,
    check_lipschitz,
    check_support_distance,
)

TOL_CLOSED = 1e-8
TOL_NUMERICAL = 1e-4
TOL_GRID = 2e-3
TOL_RECONSTRUCT = 2e-3


def _report(num, name, elapsed, ok=True):
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance {num} [{name}]: {status} ({elapsed:.2f} s)")


def _sample_cloud(dim, count, radius, seed):
    return battery_samples(dim, seed, count, radius)


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_moreau_decomposition():
    t0 = time.perf_counter()
    pairs = [
        pc.Quadratic(np.eye(1)),
        pc.Quadratic(np.array([[2.0, 0.4], [0.4, 1.0]]), [0.3, -0.1], 0.5),
        pc.ScaledNorm(1.0, [0.0, 0.0]),
        pc.ScaledNorm(2.0, [0.0, 0.0, 0.0]),
        pc.IndicatorBall([0.0, 0.0], 1.0),
        pc.IndicatorBox([-1.0, -1.0, -0.5], [1.0, 1.0, 0.5]),
        pc.IndicatorPoint([0.5, -0.5, 0.25]),
        pc.SupportBall([0.0, 0.0], 1.5),
    ]
    assert len(pairs) == 8
    for f in pairs:
        conj = pc.conjugate_closed_form(f)
        X = _sample_cloud(f.dim, 200, 5.0, seed=41 + f.dim)
        worst = max(pc.moreau_decomposition_residual(f, x, conj=conj) for x in X)
        assert worst <= TOL_CLOSED, f"{f!r}: residual {worst}"

    # numerical-prox route on two pairs, looser tolerance
    for f in (pc.ScaledNorm(1.0, [0.0, 0.0]),
              pc.Quadratic(np.array([[2.0, 0.4], [0.4, 1.0]]))):
        conj = pc.conjugate_closed_form(f)
        X = _sample_cloud(2, 200, 5.0, seed=43)
        for x in X:
            p = numerical_prox(f, 1.0, x).minimizer
            q = numerical_prox(conj, 1.0, x).minimizer
            assert np.linalg.norm(p + q - x) <= TOL_NUMERICAL

    dt = time.perf_counter() - t0
    assert dt < 10.0
    _report(1, "moreau decomposition", dt)


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_envelope_gradient():
    t0 = time.perf_counter()
    catalog = [
        pc.Affine([0.8, -0.6], 0.3),
        pc.Quadratic(np.array([[2.0, 0.3], [0.3, 1.0]])),
        pc.ScaledNorm(1.0, [0.0, 0.0]),
        pc.IndicatorPoint([0.5, 0.0]),
        pc.IndicatorBall([0.0, 0.0], 1.0),
        pc.IndicatorBox([-1.0, -1.0], [1.0, 1.0]),
        pc.IndicatorHalfspace([1.0, 1.0], 0.5),
        pc.SupportBall([0.0, 0.0], 1.0),
        pc.SupportBox([-1.0, -1.0], [1.0, 1.0]),
        pc.Tilt(pc.ScaledNorm(1.0, [0.0, 0.0]), [0.3, 0.2]),
        pc.Translate(pc.IndicatorBall([0.0, 0.0], 1.0), [0.4, 0.0]),
        pc.Envelope(pc.ScaledNorm(1.0, [0.0, 0.0]), 0.5),
    ]
    h = 1e-5
    for f in catalog:
        X = _sample_cloud(2, 100, 4.0, seed=57)
        for x in X:
            ga = pc.envelope_gradient(f, 1.0, x)
            gfd = np.array([
                (pc.moreau_envelope(f, 1.0, x + h * e)
                 - pc.moreau_envelope(f, 1.0, x - h * e)) / (2 * h)
                for e in np.eye(2)
            ])
            rel = np.linalg.norm(ga - gfd) / max(1.0, np.linalg.norm(ga))
            assert rel <= TOL_NUMERICAL, f"{f!r} at {x}: {rel}"
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(2, "envelope gradient", dt)


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_envelope_conjugate():
    t0 = time.perf_counter()
    grid_1d = pc.SampleGrid([-7.5], [7.5], [2001])
    queries_1d = np.linspace(-1.2, 1.2, 21)
    for f in (pc.ScaledNorm(1.0, [0.0]), pc.Quadratic(np.eye(1)),
              pc.IndicatorBox([-1.0], [1.0]), pc.IndicatorPoint([0.0])):
        rep = pc.verify_envelope_conjugate(f, 1.0, grid_1d, queries_1d, tol=TOL_GRID)
        assert rep.status == "verified", (f, rep.conclusion_residual)
        assert rep.details["interior_queries"] >= 10

    grid_2d = pc.SampleGrid([-7.5, -7.5], [7.5, 7.5], [301, 301])
    queries_2d = _sample_cloud(2, 15, 1.2, seed=5)
    for f in (pc.ScaledNorm(1.0, [0.0, 0.0]), pc.IndicatorBall([0.0, 0.0], 1.0)):
        rep = pc.verify_envelope_conjugate(f, 1.0, grid_2d, queries_2d, tol=TOL_GRID)
        assert rep.status == "verified", (f, rep.conclusion_residual)
        assert rep.details["interior_queries"] >= 5
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _report(3, "envelope conjugate identity", dt)


# -- 4 ----------------------------------------------------------------------

def _reconstruction_cases():
    one = {
        "quadratic shift": pc.Translate(pc.Quadratic(np.eye(1)), [-0.7]),
        "scaled norm": pc.ScaledNorm(1.5, [0.0]),
        "norm plus linear": pc.Tilt(pc.ScaledNorm(1.0, [0.0]), [-0.4]),
        "envelope of norm": pc.Envelope(pc.ScaledNorm(1.5, [0.0]), 1.0),
        "envelope of shifted quadratic": pc.Envelope(
            pc.Translate(pc.Quadratic(np.eye(1)), [-0.7]), 1.0),
    }
    two = {
        "quadratic shift": pc.Translate(pc.Quadratic(np.eye(2)), [-0.5, 0.3]),
        "scaled norm": pc.ScaledNorm(1.5, [0.0, 0.0]),
        "norm plus linear": pc.Tilt(pc.ScaledNorm(1.0, [0.0, 0.0]), [-0.3, 0.2]),
        "envelope of norm": pc.Envelope(pc.ScaledNorm(1.5, [0.0, 0.0]), 1.0),
    }
    return one, two


def test_criterion_4_reconstruction_round_trip():
    t_all = time.perf_counter()
    one, two = _reconstruction_cases()
    grids = {
        1: pc.SampleGrid([-10.0], [10.0], [2001]),
        2: pc.SampleGrid([-6.0, -6.0], [6.0, 6.0], [241, 241]),
    }
    for cases, dim in ((one, 1), (two, 2)):
        queries = _sample_cloud(dim, 22, 1.2, seed=29)
        for name, f in cases.items():
            t0 = time.perf_counter()
            f0 = pc.evaluate(f, np.zeros(dim))
            oracle = pc.ProxOracle.from_function(f)
            task = pc.ReconstructionTask(oracle, np.zeros(dim), grids[dim],
                                         queries, f_at_x0=f0)
            rep = pc.reconstruct(task)
            # conservativeness and firm-nonexpansiveness pre-checks
            assert rep.monotonicity_residual <= 1e-8
            assert rep.details["firm_residual"] <= 1e-8
            assert rep.gradient_symmetry_residual <= 1e-3
            for q, v in rep.recovered:
                truth = pc.evaluate(f, q) - f0
                assert abs((v - f0) - truth) <= TOL_RECONSTRUCT, (
                    name, dim, q, v, truth + f0)
            dt = time.perf_counter() - t0
            assert dt < 60.0, (name, dim, dt)
    _report(4, "reconstruction round trip", time.perf_counter() - t_all)


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_comparison_cross_product():
    t0 = time.perf_counter()
    catalog = [
        pc.Quadratic(np.eye(2)),
        pc.ScaledNorm(1.0, [0.0, 0.0]),
        pc.ScaledNorm(2.0, [0.0, 0.0]),
        pc.IndicatorBall([0.0, 0.0], 1.0),
        pc.IndicatorBall([0.0, 0.0], 2.0),
        pc.IndicatorBox([-1.0, -1.0], [1.0, 1.0]),
        pc.IndicatorPoint([0.0, 0.0]),
        pc.SupportBall([0.0, 0.0], 1.0),
        pc.Envelope(pc.ScaledNorm(1.0, [0.0, 0.0]), 1.0),
        pc.AddConst(pc.ScaledNorm(1.0, [0.0, 0.0]), 2.0),
    ]
    X = _sample_cloud(2, 200, 6.0, seed=11)
    anchor = [0.0, 0.0]
    n_pairs = 0
    n_verified = 0
    for i, f in enumerate(catalog):
        for j, g in enumerate(catalog):
            if i == j:
                continue
            rep = check_comparison(f, g, anchor, X, tol_c=1e-6)
            n_pairs += 1
            assert rep.status != "counterexample", (i, j, rep.conclusion_residual)
            if rep.status == "verified":
                n_verified += 1
                assert rep.conclusion_residual <= 1e-6
    assert n_pairs >= 25
    assert n_verified >= 5
    dt = time.perf_counter() - t0
    _report(5, f"comparison principle ({n_pairs} pairs, {n_verified} verified)", dt)


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_lipschitz_characterization():
    t0 = time.perf_counter()
    X = _sample_cloud(2, 120, 6.0, seed=19)
    Y = np.vstack([np.zeros((1, 2)), _sample_cloud(2, 11, 3.0, seed=23)])

    norm = pc.ScaledNorm(1.0, [0.0, 0.0])
    rep = check_lipschitz(norm, 1.0, X, Y)
    assert rep.status == "verified" and rep.details["consistent"]

    sq = pc.Quadratic(np.eye(2))
    rep = check_lipschitz(sq, 1.0, X, Y)
    assert rep.status == "counterexample" and rep.details["consistent"]
    x_wit = rep.witnesses[0][0]
    assert np.linalg.norm(x_wit) >= 2.0 + 1e-6

    lhats = []
    for radius in (1.0, 2.0, 4.0):
        sub = _sample_cloud(2, 80, radius, seed=31)
        lhats.append(check_lipschitz(sq, 1.0, sub, Y[:1]).details["lhat"])
    assert lhats[0] < lhats[1] < lhats[2]
    assert lhats[2] > 1.0
    dt = time.perf_counter() - t0
    _report(6, "Lipschitz characterization", dt)


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_five_way_equivalence():
    t0 = time.perf_counter()
    norm = pc.ScaledNorm(1.0, [0.0, 0.0])
    sq = pc.Quadratic(np.eye(2))
    ball = pc.IndicatorBall([0.0, 0.0], 1.0)
    sball = pc.SupportBall([0.0, 0.0], 1.0)
    env = pc.Envelope(norm, 1.0)
    pairs = [
        (norm, norm), (sq, sq), (ball, ball), (sball, sball), (env, env),
        (norm, pc.AddConst(norm, 2.0)),
        (sq, pc.AddConst(sq, 1.0)),
        (ball, pc.AddConst(ball, 3.0)),
        (norm, pc.ScaledNorm(2.0, [0.0, 0.0])),
        (sq, norm),
        (ball, pc.IndicatorBall([0.0, 0.0], 2.0)),
        (sball, pc.SupportBall([0.0, 0.0], 2.0)),
    ]
    X = _sample_cloud(2, 150, 6.0, seed=37)
    n_passing = 0
    for f, g in pairs:
        rep = check_equivalences(f, g, X)
        assert rep.status != "counterexample", rep.details["pattern"]
        if rep.status == "verified":
            n_passing += 1
            outcomes = {p.split("=")[1] for p in rep.details["pattern"]}
            outcomes.discard("skipped")
            assert len(outcomes) == 1  # all-hold or all-fail
    assert n_passing >= 10

    # sharpness example: prox norms agree, prox maps do not, and the
    # conjugates are unbounded below
    f = pc.IndicatorPoint([1.0, 0.0])
    g = pc.IndicatorPoint([0.0, 1.0])
    Xs = battery_samples(2, 37, 60, 6.0,
                         extra=[np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    rep = check_equivalences(f, g, Xs)
    assert rep.status == "precondition_violated"
    pattern = dict(p.split("=") for p in rep.details["pattern"])
    assert pattern["i_prox_norms"] == "holds"
    assert pattern["v_prox_maps"] == "fails"
    dt = time.perf_counter() - t0
    _report(7, f"five-way equivalence ({n_passing} uniform pairs)", dt)


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_support_distance():
    t0 = time.perf_counter()
    cases = [
        (pc.SupportBall([0.0, 0.0], 1.0), pc.IndicatorBall([0.0, 0.0], 1.0), 2),
        (pc.SupportBox([-1.0], [1.0]), pc.IndicatorBox([-1.0], [1.0]), 1),
        (pc.SupportBox([-1.0, -1.0], [1.0, 1.0]),
         pc.IndicatorBox([-1.0, -1.0], [1.0, 1.0]), 2),
        (pc.SupportBox([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]),
         pc.IndicatorBox([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]), 3),
        (pc.Affine([0.0, 0.0], 0.0), pc.IndicatorPoint([0.0, 0.0]), 2),
    ]
    for sigma, C, dim in cases:
        X = _sample_cloud(dim, 200, 5.0, seed=53)
        rep = check_support_distance(sigma, C, X, tol=TOL_CLOSED)
        assert rep.status == "verified", (C, rep.status)
        assert rep.hypothesis_residual <= TOL_CLOSED
    dt = time.perf_counter() - t0
    _report(8, "support-distance corollary", dt)


# -- 9 ----------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path, cli_env):
    t0 = time.perf_counter()
    spec = tmp_path / "sq.json"
    spec.write_text('{"atom": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]]}')
    blobs = []
    for name in ("r1.txt", "r2.txt"):
        out = tmp_path / name
        r = subprocess.run(
            [sys.executable, "-m", "proxcalc.cli", "verify-all",
             "--f", str(spec), "--g", str(spec), "--anchor", "0,0",
             "--seed", "7", "--out", str(out)],
            capture_output=True, env=cli_env,
        )
        assert r.returncode == 0, r.stderr.decode()
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    dt = time.perf_counter() - t0
    _report(9, "seeded determinism", dt)
