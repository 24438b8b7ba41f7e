"""Subdifferential set descriptors and the exact equality of sets_equal."""

import itertools

import numpy as np
import pytest

import proxcalc as pc
from proxcalc.errors import UnsupportedSubdifferential
from proxcalc.sets import BallSet, BoxSet, EmptySet, HalflineSet, SingletonSet, sets_equal

INF = float("inf")
TOL = 1e-8


def _ray_box(anchor, axis, sign):
    """The ray anchor + t sign e_axis, t >= 0, as a box."""
    lo, hi = np.array(anchor, dtype=float), np.array(anchor, dtype=float)
    (hi if sign > 0 else lo)[axis] = sign * INF
    return BoxSet(lo, hi)


DECIDED = [
    (BallSet([0.5], 2.0), BoxSet([-1.5], [2.5]), True),
    (BallSet([0.5], 2.0), BoxSet([-1.5], [2.4]), False),
    (HalflineSet([0.5], [2.0]), BoxSet([0.5], [INF]), True),
    (HalflineSet([0.5], [-2.0]), BoxSet([-INF], [0.5]), True),
    (HalflineSet([0.5], [2.0]), BoxSet([-INF], [0.5]), False),
    (HalflineSet([0.0], [1.0]), BoxSet([-INF], [INF]), False),
    (BoxSet([-INF, 0.0], [INF, 0.0]), HalflineSet([0.0, 0.0], [1.0, 0.0]), False),
    (BoxSet([-INF, 0.0], [0.0, 0.0]), HalflineSet([0.0, 0.0], [1.0, 0.0]), False),
    (BoxSet([0.0, 0.0], [INF, INF]), HalflineSet([0.0, 0.0], [1.0, 0.0]), False),
    (BoxSet([0.0, 0.0], [INF, 1.0]), HalflineSet([0.0, 0.0], [1.0, 0.0]), False),
    (BallSet([0.0, 0.0], 1.0), SingletonSet([0.0, 0.0]), False),
    (BallSet([0.0, 0.0], 1.0), BoxSet([-1.0, -1.0], [1.0, 1.0]), False),
    (BallSet([0.0, 0.0], 1e-9), SingletonSet([0.0, 0.0]), True),
    (BoxSet([1.0, 2.0], [1.0, 2.0 + 1e-9]), SingletonSet([1.0, 2.0]), True),
    (EmptySet(2), SingletonSet([0.0, 0.0]), False),
    (EmptySet(2), EmptySet(2), True),
]
DECIDED += [(_ray_box(anchor[:d], i, s), HalflineSet(anchor[:d], s * 2.5 * np.eye(d)[i]), True)
            for anchor in ([0.3, -0.2, 0.7],) for d in (2, 3) for i in range(d) for s in (1, -1)]
DECIDED += [(_ray_box([0.3, -0.2], 0, 1), HalflineSet([0.3, -0.2], [-1.0, 0.0]), False),
            (_ray_box([0.3, -0.2], 0, 1), HalflineSet([0.3, -0.2], [0.0, 1.0]), False),
            (_ray_box([0.3, -0.2], 0, 1), HalflineSet([0.3, -0.1], [1.0, 0.0]), False)]


@pytest.mark.parametrize("a, b, expected", DECIDED, ids=repr)
def test_sets_equal_decides_every_pair_of_kinds(a, b, expected):
    assert sets_equal(a, b, TOL) is expected
    assert sets_equal(b, a, TOL) is expected


def _support(s, u):
    """sup over s of <u, .> in extended reals; -inf on the empty set."""
    if isinstance(s, EmptySet):
        return -INF
    if isinstance(s, SingletonSet):
        return float(u @ s.point)
    if isinstance(s, BallSet):
        return float(u @ s.center + s.radius * np.linalg.norm(u))
    if isinstance(s, BoxSet):
        # a zero direction component contributes 0 whatever the bound
        return float(sum(c * (h if c > 0 else lo) for c, lo, h in zip(u, s.lo, s.hi) if c))
    return INF if u @ s.direction > 0 else float(u @ s.anchor)


def _directions(d):
    """Every nonzero direction in {-1, 0, 1}^d (the ±axes among them), scaled
    to unit length, plus 40 seeded unit vectors."""
    lattice = np.array([u for u in itertools.product((-1.0, 0.0, 1.0), repeat=d) if any(u)])
    gen = pc.Lcg(11)
    return np.vstack([lattice / np.linalg.norm(lattice, axis=1, keepdims=True),
                      [gen.unit_vector(d) for _ in range(40)]])


def _support_equal(a, b, U, tol):
    for u in U:
        sa, sb = _support(a, u), _support(b, u)
        if np.isinf(sa) or np.isinf(sb):
            if sa != sb:
                return False
        elif abs(sa - sb) > tol:
            return False
    return True


def _catalog(d):
    e1, zero, ones = np.eye(d)[0], np.zeros(d), np.ones(d)
    norm = pc.ScaledNorm(1.0, zero)
    return [
        norm,
        pc.AddConst(norm, 2.0),
        pc.ScaledNorm(2.0, zero),
        pc.Tilt(pc.Translate(norm, 0.5 * e1), 0.1 * e1),
        pc.Envelope(norm, 1.0),
        pc.Quadratic(np.eye(d)),
        pc.Affine(0.3 * ones),
        pc.SupportBall(zero, 1.0),
        pc.SupportBox(-ones, ones),
        pc.IndicatorPoint(zero),
        pc.IndicatorBall(zero, 1.0),
        pc.IndicatorBall(0.5 * e1, 1.5),
        pc.IndicatorBox(-ones, ones),
        pc.IndicatorHalfspace(e1, 1.0),
    ]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sets_equal_matches_support_functions_on_catalog_pairs(d):
    catalog = _catalog(d)
    e1 = np.eye(d)[0]
    points = [np.zeros(d), e1, -e1, 2.0 * e1, np.ones(d), -np.ones(d)]
    points += [p for f in catalog for p in pc.functions.structured_probes(f)]
    points += list(pc.Lcg(5).points_in_ball(6, d, 2.0))
    U = _directions(d)
    kinds, equal = set(), 0
    for x in points:
        sets = []
        for f in catalog:
            try:
                sets.append(pc.subdifferential(f, x))
            except UnsupportedSubdifferential:
                continue
        for a, b in itertools.product(sets, repeat=2):
            got = sets_equal(a, b, TOL)
            assert got is _support_equal(a, b, U, TOL), (x, a, b)
            kinds.add((a.kind, b.kind))
            equal += got and a.kind != b.kind
    assert equal  # some pairs of different kinds are equal sets
    assert {("ball", "singleton"), ("box", "halfline_cone")} <= kinds
