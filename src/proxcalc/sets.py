"""Closed convex set descriptors used for subdifferentials.

The kinds are singletons, balls, boxes, halflines (rays; normal cones
anchor them at 0) and the empty set. Every descriptor supports projection
of an arbitrary point (which gives its least-norm element) and
translation. Box bounds may be infinite, which covers orthant-style normal
cones and the full space; every other kind has finite parameters.
``sets_equal`` decides equality for every pair of kinds.
"""

from __future__ import annotations

import numpy as np

from . import functions as fn  # imports this module first; fn is read at call time
from .errors import EmptySubdifferential


class SubdiffSet:
    """Base class; concrete kinds are Singleton/Ball/Box/HalflineCone/Empty."""

    kind = "abstract"
    dim: int

    def project(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def shift(self, w: np.ndarray) -> "SubdiffSet":
        """The set translated by +w."""
        raise NotImplementedError

    def min_norm_element(self) -> np.ndarray:
        return self.project(np.zeros(self.dim))


class SingletonSet(SubdiffSet):
    kind = "singleton"

    def __init__(self, point):
        self.point = np.asarray(point, dtype=float)
        self.dim = self.point.size

    def project(self, z):
        return self.point.copy()

    def shift(self, w):
        return SingletonSet(self.point + w)

    def __repr__(self):
        return f"SingletonSet({self.point.tolist()})"


class BallSet(SubdiffSet):
    kind = "ball"

    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        if self.radius < 0:
            raise ValueError("ball radius must be >= 0")
        self.dim = self.center.size

    def project(self, z):
        d = z - self.center
        n = fn.norms(d)
        if n <= self.radius:
            return np.asarray(z, dtype=float).copy()
        return self.center + d * (self.radius / n)

    def shift(self, w):
        return BallSet(self.center + w, self.radius)

    def __repr__(self):
        return f"BallSet({self.center.tolist()}, {self.radius})"


class BoxSet(SubdiffSet):
    kind = "box"

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if np.any(self.lo > self.hi):
            raise ValueError("box needs lo <= hi componentwise")
        self.dim = self.lo.size

    def project(self, z):
        return np.clip(z, self.lo, self.hi)

    def shift(self, w):
        return BoxSet(self.lo + w, self.hi + w)

    def __repr__(self):
        return f"BoxSet({self.lo.tolist()}, {self.hi.tolist()})"


class HalflineSet(SubdiffSet):
    """Ray {anchor + t * direction : t >= 0}; normal cones use anchor 0."""

    kind = "halfline_cone"

    def __init__(self, anchor, direction):
        self.anchor = np.asarray(anchor, dtype=float)
        self.direction = np.asarray(direction, dtype=float)
        if not np.any(self.direction):
            raise ValueError("halfline needs a nonzero direction")
        self.dim = self.anchor.size

    def project(self, z):
        d = self.direction
        t = max(0.0, float(fn.dots(z - self.anchor, d) / fn.sq_norms(d)))
        return self.anchor + t * d

    def shift(self, w):
        return HalflineSet(self.anchor + w, self.direction)

    def __repr__(self):
        return f"HalflineSet({self.anchor.tolist()}, {self.direction.tolist()})"


class EmptySet(SubdiffSet):
    kind = "empty"

    def __init__(self, dim: int):
        self.dim = int(dim)

    def project(self, z):
        raise EmptySubdifferential("projection onto the empty set")

    def shift(self, w):
        return self

    def __repr__(self):
        return f"EmptySet(dim={self.dim})"


def sets_equal(a: SubdiffSet, b: SubdiffSet, tol: float = 1e-7) -> bool:
    """Whether two sets agree to within tol, decided for every pair of kinds.

    Both sets are normalized first:

    * a ball of radius <= tol is its center;
    * a box whose widths are all <= tol is its midpoint;
    * in 1-D, a ball is the box [c - r, c + r] and a halfline the box
      [a, inf) or (-inf, a];
    * in d >= 2, a box with one infinite half-axis and width <= tol on every
      other axis is a halfline.

    Normalized sets of different kinds differ.
    """
    a = _normalize(a, tol)
    b = _normalize(b, tol)
    if a.kind != b.kind or a.dim != b.dim:
        return False
    if a.kind == "empty":
        return True
    if a.kind == "singleton":
        return bool(fn.norms(a.point - b.point) <= tol)
    if a.kind == "ball":
        return bool(fn.norms(a.center - b.center) <= tol and abs(a.radius - b.radius) <= tol)
    if a.kind == "box":
        return bool(_bounds_close(a.lo, b.lo, tol) and _bounds_close(a.hi, b.hi, tol))
    da = a.direction / fn.norms(a.direction)
    db = b.direction / fn.norms(b.direction)
    return bool(fn.norms(a.anchor - b.anchor) <= tol and fn.norms(da - db) <= tol)


def _normalize(s: SubdiffSet, tol: float) -> SubdiffSet:
    if s.kind == "ball" and s.radius <= tol:
        return SingletonSet(s.center)
    if s.kind == "box" and np.all(np.isfinite(s.lo)) and np.all(s.hi - s.lo <= tol):
        return SingletonSet(0.5 * (s.lo + s.hi))
    if s.dim == 1 and s.kind == "ball":
        return BoxSet(s.center - s.radius, s.center + s.radius)
    if s.dim == 1 and s.kind == "halfline_cone":
        inf = np.full(1, np.inf)
        return BoxSet(s.anchor, inf) if s.direction[0] > 0 else BoxSet(-inf, s.anchor)
    if s.kind == "box" and s.dim >= 2:
        up, down = np.isposinf(s.hi), np.isneginf(s.lo)
        rest = ~(up | down)
        if np.sum(up) + np.sum(down) == 1 and np.all(s.hi[rest] - s.lo[rest] <= tol):
            # a ray along +-e_i from the finite bound of axis i
            anchor = np.where(rest, 0.5 * (s.lo + s.hi), np.where(up, s.lo, s.hi))
            return HalflineSet(anchor, up - down.astype(float))
    return s


def _bounds_close(u, v, tol):
    finite = np.isfinite(u) & np.isfinite(v)  # infinite bounds match only exactly
    gaps = np.abs(np.where(finite, u, 0.0) - np.where(finite, v, 0.0))
    return np.all(np.where(finite, gaps <= tol, u == v))
