"""Seeded sample generator: determinism and geometric guarantees."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxcalc.sampling import LCG_INCREMENT, LCG_MULTIPLIER, Lcg, _states


def test_constants_documented():
    assert LCG_MULTIPLIER == 6364136223846793005
    assert LCG_INCREMENT == 1442695040888963407


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63))
def test_same_seed_same_stream(seed):
    a = Lcg(seed)
    b = Lcg(seed)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), radius=st.floats(0.5, 10.0))
def test_points_stay_in_ball(seed, radius):
    gen = Lcg(seed)
    pts = gen.points_in_ball(20, 3, radius)
    assert np.all(np.linalg.norm(pts, axis=1) <= radius + 1e-12)


def test_uniform_range():
    gen = Lcg(123)
    us = [gen.uniform(-2.0, 3.0) for _ in range(500)]
    assert min(us) >= -2.0 and max(us) <= 3.0
    assert abs(np.mean(us) - 0.5) < 0.3


def test_unit_vectors_are_unit():
    gen = Lcg(9)
    for _ in range(30):
        v = gen.unit_vector(2)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_log_radial_covers_small_radii():
    gen = Lcg(4)
    pts = gen.log_radial_points(400, 2, 1e-3, 200.0)
    norms = np.linalg.norm(pts, axis=1)
    assert norms.min() < 0.1          # hits near the origin
    assert norms.max() > 50.0         # and reaches far out
    assert np.all(norms <= 200.0 + 1e-9)


# ---------------------------------------------------------------------------
# Sample stream version 2
# ---------------------------------------------------------------------------

_MOD = 1 << 64
EPS = np.finfo(float).eps


def _open_uniform(state):
    return ((state >> 12) + 0.5) * 2.0 ** -52


def _recipe(gen, n, dim, radius_of=None):
    """The documented stream-v2 recipe, one state at a time with math's
    log1p/cos/sin: n directions, each scaled by radius_of(last uniform)."""
    m = (dim + 1) // 2
    rows = []
    for _ in range(n):
        z = []
        for _ in range(m):
            a, b = _open_uniform(gen.next_u64()), _open_uniform(gen.next_u64())
            rho = math.sqrt(-2.0 * math.log1p(-a))
            z += [rho * math.cos(2.0 * math.pi * b), rho * math.sin(2.0 * math.pi * b)]
        norm = math.sqrt(sum(c * c for c in z[:dim]))
        r = radius_of(_open_uniform(gen.next_u64())) if radius_of else 1.0
        rows.append([r * c / norm for c in z[:dim]])
    return np.array(rows).reshape(n, dim)


def _draw(kind, gen, n, dim, radius):
    """(cloud, states per point) for one of the three cloud kinds."""
    m = (dim + 1) // 2
    if kind == "ball":
        return gen.points_in_ball(n, dim, radius), 2 * m + 1
    if kind == "log_radial":
        return gen.log_radial_points(n, dim, 1e-3 * radius, radius), 2 * m + 1
    return np.array([gen.unit_vector(dim) for _ in range(n)]).reshape(n, dim), 2 * m


def _reference(kind, gen, n, dim, radius):
    if kind == "ball":
        return _recipe(gen, n, dim, lambda t: radius * t ** (1.0 / dim))
    if kind == "log_radial":
        return _recipe(gen, n, dim, lambda t: 1e-3 * radius * 1e3 ** t)
    return _recipe(gen, n, dim)


seeds = st.integers(min_value=0, max_value=2**64 - 1)
dims = st.integers(min_value=1, max_value=16)
kinds = st.sampled_from(["ball", "log_radial", "unit"])


@settings(max_examples=40, deadline=None)
@given(seed=seeds, dim=dims, kind=kinds, radius=st.floats(1e-3, 1e3),
       n=st.integers(0, 300), k=st.integers(0, 300))
@example(seed=3, dim=16, kind="ball", radius=6.0, n=5000, k=1700)
# validate_field draws its 2 x 40 pair points and, from 2-D on, 12 probes in one call
@example(seed=13, dim=1, kind="ball", radius=3.0, n=80, k=40)
@example(seed=13, dim=2, kind="ball", radius=3.0, n=92, k=80)
@example(seed=13, dim=3, kind="ball", radius=3.0, n=92, k=80)
@example(seed=13, dim=8, kind="ball", radius=3.0, n=92, k=80)
@example(seed=13, dim=16, kind="ball", radius=3.0, n=92, k=80)
def test_clouds_are_stable_across_splits(seed, dim, kind, radius, n, k):
    k = min(k, n)
    whole, split = Lcg(seed), Lcg(seed)
    head, _ = _draw(kind, split, k, dim, radius)
    tail, _ = _draw(kind, split, n - k, dim, radius)
    ref, _ = _draw(kind, whole, n, dim, radius)
    assert np.array_equal(np.vstack([head, tail]), ref)
    assert split.state == whole.state


@settings(max_examples=40, deadline=None)
@given(seed=seeds, dim=dims, kind=kinds, n=st.integers(0, 200))
def test_cloud_reads_a_fixed_stride_of_states(seed, dim, kind, n):
    gen, ref = Lcg(seed), Lcg(seed)
    P, stride = _draw(kind, gen, n, dim, 2.0)
    assert P.shape == (n, dim)
    for _ in range(n * stride):
        ref.next_u64()
    assert gen.state == ref.state


@settings(max_examples=40, deadline=None)
@given(seed=seeds, dim=dims, kind=kinds, radius=st.floats(1e-3, 1e3),
       n=st.integers(1, 40))
def test_clouds_match_scalar_recipe(seed, dim, kind, radius, n):
    # numpy's SIMD log1p/cos/sin may differ from libm in the last bit
    ours, _ = _draw(kind, Lcg(seed), n, dim, radius)
    ref = _reference(kind, Lcg(seed), n, dim, radius)
    scale = np.linalg.norm(ref, axis=1, keepdims=True)
    assert np.all(np.abs(ours - ref) <= 16 * EPS * scale)


def _state_before(target):
    """The state whose successor is target: (target - c) a^-1 mod 2^64."""
    return (target - LCG_INCREMENT) * pow(LCG_MULTIPLIER, -1, _MOD) % _MOD


@pytest.mark.parametrize("target", [0, _MOD - 1])
@pytest.mark.parametrize("dim", [1, 2, 16])
def test_extreme_states_give_finite_rows(target, dim):
    # state 0 gives the smallest uniform, 2^64 - 1 the largest: neither may
    # turn into a zero Box-Muller radius, an infinite one or a 0/0 direction
    gen = Lcg(0)
    gen.state = _state_before(target)
    assert gen.next_u64() == target
    for kind, lo, hi in (("unit", 1.0, 1.0), ("ball", 0.0, 3.0), ("log_radial", 3e-3, 3.0)):
        gen.state = _state_before(target)
        P, _ = _draw(kind, gen, 3, dim, 3.0)
        norms = np.linalg.norm(P, axis=1)
        assert np.all(np.isfinite(P))
        assert np.all((norms > 0) & (norms >= lo * (1 - 4 * EPS)) & (norms <= hi * (1 + 4 * EPS)))


@pytest.mark.parametrize("count", [1, 2, 3, 4095, 4096, 4097, 8193])
def test_jump_ahead_states_match_next_u64(count):
    for seed in (0, 7, 2**64 - 1):
        gen = Lcg(seed)
        got = _states(gen.state, count)
        assert got.dtype == np.uint64
        assert got.tolist() == [gen.next_u64() for _ in range(count)]


def test_jump_ahead_coefficients_are_a_power_and_a_geometric_sum():
    # the j-th state after 0 is C_j, and A_j is the difference of the j-th
    # states after 1 and after 0
    mod = 1 << 64
    zero, one = _states(0, 4096), _states(1, 4096)
    for j in (1, 2, 3, 1000, 4095, 4096):
        geometric = sum(pow(LCG_MULTIPLIER, i, mod) for i in range(j)) % mod
        assert int(zero[j - 1]) == LCG_INCREMENT * geometric % mod
        assert (int(one[j - 1]) - int(zero[j - 1])) % mod == pow(LCG_MULTIPLIER, j, mod)
