"""Seeded sample generation for verification sweeps and reports.

The generator is a 64-bit linear congruential generator with Knuth's MMIX
multiplier, so that a (command, seed) pair produces the same sample stream on
any platform and any implementation that documents the same constants.
Sample clouds read that stream in numpy blocks by jump-ahead (F. Brown,
"Random Number Generation with Arbitrary Strides", 1994), with the draws,
rejections and final state of a draw-by-draw walk.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .functions import sq_norms

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1
_BLOCK = 4096  # states per block of a walk, unless one record needs more


def _states(state: int, count: int) -> np.ndarray:
    """The count states after state by jump-ahead: the j-th is
    a^j state + c (a^j - 1)/(a - 1) mod 2^64 (uint64 arithmetic wraps)."""
    A = np.multiply.accumulate(np.full(count, LCG_MULTIPLIER, dtype=np.uint64))
    return A * np.uint64(state) + np.uint64(LCG_INCREMENT) * (np.cumsum(A) - A + 1)


class Lcg:
    """Deterministic 64-bit linear congruential generator.

    state <- (a * state + c) mod 2^64, doubles from the top 53 bits.
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

    def _walk(self, n: int, dim: int, radius: float, floor: float = -math.inf,
              lead: bool = False):
        """n records, each an optional leading uniform on [0, 1), then cube
        draws until one lies in the ball with its norm above floor: returns
        (leading uniforms, accepted points, their squared norms)."""
        # share of cube draws that land in the ball: sizes the first block
        share = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) / 2 ** dim
        out = [(np.empty(0), np.empty((0, dim)), np.empty(0))]
        size = 0
        while n:
            size = max(size, min(_BLOCK, int(1.1 * n * (lead + dim / share)) + 8 * dim))
            states = _states(self.state, size)
            U = (states >> np.uint64(11)) / float(1 << 53)
            X = -radius + 2 * radius * U
            W = as_strided(X, (X.size - dim + 1, dim), X.strides * 2, writeable=False)
            sq = sq_norms(W)  # a cube draw starts at every offset
            ok = (sq <= radius * radius) & (np.sqrt(sq) > floor)
            # first[t]: the first accepted offset among t, t + dim, ... (m if
            # none); a record starting at s ends at ends[s] = first[s + lead] + dim
            m = ok.size
            first = np.full((m // dim + 3) * dim, m)
            first[:m][ok] = np.flatnonzero(ok)
            first = np.minimum.accumulate(first.reshape(-1, dim)[::-1])[::-1].ravel()
            ends, walk, s = memoryview(first[int(lead):] + dim), [], 0
            for _ in range(n):
                s = ends[s]
                if s >= m + dim:
                    break
                walk.append(s)
            if not walk:
                size *= 2  # not one whole record in the block
                continue
            E = np.array(walk)
            self.state = int(states[E[-1] - 1])
            out.append((U[np.concatenate(([0], E[:-1]))], W[E - dim], sq[E - dim]))
            n -= E.size
        return tuple(np.concatenate(part) for part in zip(*out))

    def point_in_ball(self, dim: int, radius: float) -> np.ndarray:
        return self._walk(1, dim, radius)[1][0]

    def unit_vector(self, dim: int) -> np.ndarray:
        _, P, sq = self._walk(1, dim, 1.0, floor=1e-3)
        return P[0] / np.sqrt(sq[0])

    def points_in_ball(self, n: int, dim: int, radius: float) -> np.ndarray:
        return self._walk(n, dim, radius)[1]

    def log_radial_points(self, n: int, dim: int, r_min: float, r_max: float) -> np.ndarray:
        """Points with log-uniform radius in [r_min, r_max], uniform direction.

        Dense near the origin, so bounded sets of any scale are hit even when
        r_max is large.
        """
        T, P, sq = self._walk(n, dim, 1.0, floor=1e-3, lead=True)
        r = np.array([r_min * (r_max / r_min) ** t for t in T.tolist()])
        return r[:, None] * (P / np.sqrt(sq)[:, None])
