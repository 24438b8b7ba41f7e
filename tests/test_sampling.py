"""Seeded sample generator: determinism and geometric guarantees."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxcalc.sampling import _BLOCK, LCG_INCREMENT, LCG_MULTIPLIER, Lcg, _states


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
# Block walker against the draw-by-draw walk it replaced
# ---------------------------------------------------------------------------

class SequentialLcg(Lcg):
    """The per-draw sampling code that the block walker replaced, kept as
    the reference stream."""

    def point_in_ball(self, dim, radius):
        while True:
            p = self.point_in_cube(dim, radius)
            if np.dot(p, p) <= radius * radius:
                return p

    def unit_vector(self, dim):
        while True:
            p = self.point_in_ball(dim, 1.0)
            n = np.linalg.norm(p)
            if n > 1e-3:
                return p / n

    def points_in_ball(self, n, dim, radius):
        return np.array([self.point_in_ball(dim, radius) for _ in range(n)]).reshape(n, dim)

    def log_radial_points(self, n, dim, r_min, r_max):
        out = np.empty((n, dim))
        for i in range(n):
            r = r_min * (r_max / r_min) ** self.uniform()
            out[i] = r * self.unit_vector(dim)
        return out


def _same(ours, ref, a, b):
    assert np.array_equal(ours, ref)
    assert ours.shape == ref.shape
    assert a.state == b.state


seeds = st.integers(min_value=0, max_value=2**64 - 1)
dims = st.integers(min_value=1, max_value=6)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, dim=dims, radius=st.floats(1e-3, 1e3), n=st.integers(0, 1500))
@example(seed=3, dim=2, radius=6.0, n=4000)
@example(seed=2**64 - 1, dim=4, radius=0.5, n=1500)
def test_points_in_ball_matches_sequential_walk(seed, dim, radius, n):
    # from dim 3 on, 1500 points take more than one block of states
    a, b = Lcg(seed), SequentialLcg(seed)
    _same(a.points_in_ball(n, dim, radius), b.points_in_ball(n, dim, radius), a, b)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, dim=dims, n=st.integers(0, 1500),
       r_min=st.floats(1e-4, 1.0), span=st.floats(1.0, 1e4))
@example(seed=101, dim=2, n=10_000, r_min=1e-3, span=2e5)
@example(seed=101, dim=3, n=10_000, r_min=1e-3, span=2e5)
@example(seed=5, dim=6, n=1500, r_min=1.0, span=1.0)
def test_log_radial_points_matches_sequential_walk(seed, dim, n, r_min, span):
    a, b = Lcg(seed), SequentialLcg(seed)
    _same(a.log_radial_points(n, dim, r_min, r_min * span),
          b.log_radial_points(n, dim, r_min, r_min * span), a, b)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, dim=dims, radius=st.floats(1e-3, 1e3))
def test_single_draws_match_sequential_walk(seed, dim, radius):
    a, b = Lcg(seed), SequentialLcg(seed)
    for _ in range(3):
        _same(a.point_in_ball(dim, radius), b.point_in_ball(dim, radius), a, b)
        _same(a.unit_vector(dim), b.unit_vector(dim), a, b)
        assert a.uniform() == b.uniform()


def test_unit_vector_floor_rejects_short_draws():
    # in 1-D a first draw within 1e-3 of 0 lies in the ball but is too short
    # for a direction; both walks must reject it and draw again
    hits = 0
    for seed in range(20_000):
        if abs(Lcg(seed).uniform(-1.0, 1.0)) <= 1e-3:
            a, b = Lcg(seed), SequentialLcg(seed)
            _same(a.unit_vector(1), b.unit_vector(1), a, b)
            hits += 1
    assert hits > 0


@pytest.mark.parametrize("count", [1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
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
    zero, one = _states(0, _BLOCK), _states(1, _BLOCK)
    for j in (1, 2, 3, 1000, _BLOCK - 1, _BLOCK):
        geometric = sum(pow(LCG_MULTIPLIER, i, mod) for i in range(j)) % mod
        assert int(zero[j - 1]) == LCG_INCREMENT * geometric % mod
        assert (int(one[j - 1]) - int(zero[j - 1])) % mod == pow(LCG_MULTIPLIER, j, mod)
