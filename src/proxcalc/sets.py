"""Closed convex set descriptors used for subdifferentials.

The kinds are singletons, balls, boxes, halflines (rays; normal cones
anchor them at 0) and the empty set. Every descriptor supports projection
of an arbitrary point (which gives its least-norm element), a
support-function evaluation and translation. Box bounds may be infinite,
which covers orthant-style normal cones and the full space; every other
kind has finite parameters.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptySubdifferential

_TOL = 1e-9


class SubdiffSet:
    """Base class; concrete kinds are Singleton/Ball/Box/HalflineCone/Empty."""

    kind = "abstract"
    dim: int

    def project(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def support(self, u: np.ndarray) -> float:
        """sup over the set of <u, .>; +inf when unbounded in direction u."""
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

    def support(self, u):
        return float(np.dot(u, self.point))

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
        n = np.linalg.norm(d)
        if n <= self.radius:
            return np.asarray(z, dtype=float).copy()
        return self.center + d * (self.radius / n)

    def support(self, u):
        return float(np.dot(u, self.center) + self.radius * np.linalg.norm(u))

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

    def support(self, u):
        u = np.asarray(u, dtype=float)
        # 0 * inf must contribute 0, not nan
        terms = np.where(u > 0, u * self.hi, np.where(u < 0, u * self.lo, 0.0))
        return float(np.sum(terms))

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
        n = np.linalg.norm(self.direction)
        if n <= 0:
            raise ValueError("halfline needs a nonzero direction")
        self.dim = self.anchor.size

    def project(self, z):
        d = self.direction
        t = max(0.0, float(np.dot(z - self.anchor, d) / np.dot(d, d)))
        return self.anchor + t * d

    def support(self, u):
        if np.dot(u, self.direction) > _TOL:
            return float("inf")
        return float(np.dot(u, self.anchor))

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

    def support(self, u):
        return float("-inf")

    def shift(self, w):
        return self

    def __repr__(self):
        return f"EmptySet(dim={self.dim})"


def sets_equal(a: SubdiffSet, b: SubdiffSet, tol: float = 1e-7):
    """Structural comparison; returns True/False, or None when undecidable.

    Degenerate kinds are normalized first (a radius-0 ball is its center, a
    box with lo == hi is a point).
    """
    a = _normalize(a, tol)
    b = _normalize(b, tol)
    if a.kind != b.kind:
        if "empty" in (a.kind, b.kind):
            return False
        return None
    if a.dim != b.dim:
        return False
    if a.kind == "empty":
        return True
    if a.kind == "singleton":
        return bool(np.linalg.norm(a.point - b.point) <= tol)
    if a.kind == "ball":
        return bool(np.linalg.norm(a.center - b.center) <= tol and abs(a.radius - b.radius) <= tol)
    if a.kind == "box":
        return bool(_bounds_close(a.lo, b.lo, tol) and _bounds_close(a.hi, b.hi, tol))
    if a.kind == "halfline_cone":
        da = a.direction / np.linalg.norm(a.direction)
        db = b.direction / np.linalg.norm(b.direction)
        return bool(np.linalg.norm(a.anchor - b.anchor) <= tol and np.linalg.norm(da - db) <= tol)
    return None


def _normalize(s: SubdiffSet, tol: float) -> SubdiffSet:
    if s.kind == "ball" and s.radius <= tol:
        return SingletonSet(s.center)
    if s.kind == "box" and np.all(np.isfinite(s.lo)) and np.all(s.hi - s.lo <= tol):
        return SingletonSet(0.5 * (s.lo + s.hi))
    return s


def _bounds_close(u, v, tol):
    finite = np.isfinite(u) & np.isfinite(v)  # infinite bounds match only exactly
    gaps = np.abs(np.where(finite, u, 0.0) - np.where(finite, v, 0.0))
    return np.all(np.where(finite, gaps <= tol, u == v))
