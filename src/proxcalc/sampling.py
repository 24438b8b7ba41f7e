"""Seeded sample generation for verification sweeps and reports.

The generator is a 64-bit linear congruential generator with Knuth's MMIX
multiplier, so that a (command, seed) pair produces the same sample stream on
any platform and any implementation that documents the same constants.

Sample clouds follow sample stream version 2. Every point of a cloud in
dimension d reads a fixed stride of 2m states, m = ceil(d/2), plus one more
when it has a radius, so a cloud of n points takes exactly n * stride states
and the stream read for a block can be computed by jump-ahead (F. Brown,
"Random Number Generation with Arbitrary Strides", 1994):

* uniform: state s gives u = ((s >> 12) + 0.5) 2^-52, exactly, in the open
  (0, 1) (with the top 53 bits, k + 0.5 would round to 2^53 at the largest k);
* normal: the j-th pair (a, b) of a point's uniforms gives
  rho = sqrt(-2 log1p(-a)), z = (rho cos(2 pi b), rho sin(2 pi b))
  (Box and Muller, 1958); the first d of the 2m normals are kept;
* direction: z / |z| (Muller, 1959), |z|^2 summed left to right; never
  0/0 because rho > 0 and cos has no zero at a double;
* radius: the last uniform t gives r t^(1/d) for points in the ball of
  radius r, and r_min (r_max / r_min)^t for log-radial points.

No draw is rejected, so every dimension from 1 to 16 costs the same per
coordinate.
"""

from __future__ import annotations

import numpy as np

from .functions import norms

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1


def _states(state: int, count: int) -> np.ndarray:
    """The count states after state by jump-ahead: the j-th is
    a^j state + c (a^j - 1)/(a - 1) mod 2^64 (uint64 arithmetic wraps)."""
    A = np.multiply.accumulate(np.full(count, LCG_MULTIPLIER, dtype=np.uint64))
    return A * np.uint64(state) + np.uint64(LCG_INCREMENT) * (np.cumsum(A) - A + 1)


class Lcg:
    """Deterministic 64-bit linear congruential generator.

    state <- (a * state + c) mod 2^64; uniform() takes its double from the
    top 53 bits, sample clouds follow stream version 2 (see the module).
    """

    def __init__(self, seed: int):
        self.state = (int(seed) ^ 0x5DEECE66D) & _MASK64

    def next_u64(self) -> int:
        self.state = (LCG_MULTIPLIER * self.state + LCG_INCREMENT) & _MASK64
        return self.state

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = self.next_u64() >> 11  # 53 significant bits
        return lo + (hi - lo) * (u / float(1 << 53))

    def point_in_cube(self, dim: int, radius: float) -> np.ndarray:
        return np.array([self.uniform(-radius, radius) for _ in range(dim)])

    def _cloud(self, n: int, dim: int, radial: bool):
        """n unit directions and, if radial, each point's radius uniform as
        an (n, 1) column (an (n, 0) one otherwise)."""
        m = (dim + 1) // 2
        stride = 2 * m + radial
        states = _states(self.state, n * stride)
        if n:
            self.state = int(states[-1])
        U = ((states >> np.uint64(12)) + 0.5).reshape(n, stride) * 2.0 ** -52
        rho = np.sqrt(-2.0 * np.log1p(-U[:, 0:2 * m:2]))
        theta = 2.0 * np.pi * U[:, 1:2 * m:2]
        Z = np.stack((rho * np.cos(theta), rho * np.sin(theta)), axis=2)
        Z = Z.reshape(n, 2 * m)[:, :dim]
        return Z / norms(Z)[:, None], U[:, 2 * m:]

    def point_in_ball(self, dim: int, radius: float) -> np.ndarray:
        return self.points_in_ball(1, dim, radius)[0]

    def unit_vector(self, dim: int) -> np.ndarray:
        return self._cloud(1, dim, False)[0][0]

    def points_in_ball(self, n: int, dim: int, radius: float) -> np.ndarray:
        V, T = self._cloud(n, dim, True)
        return radius * T ** (1.0 / dim) * V

    # No library code calls this; perfbench/tracer.py binds it until ROADMAP item 4.
    def log_radial_points(self, n: int, dim: int, r_min: float, r_max: float) -> np.ndarray:
        """Points with log-uniform radius in [r_min, r_max], uniform direction.

        Dense near the origin, so bounded sets of any scale are hit even when
        r_max is large.
        """
        V, T = self._cloud(n, dim, True)
        return r_min * (r_max / r_min) ** T * V
