r"""Catalog of extended-real convex functions with closed-form calculus.

Functions are trees: leaf atoms (affine, quadratic, scaled norm, indicators
and supports of points/balls/boxes/halfspaces) under chains of combinators
(tilt, translate, additive constant, Moreau envelope, additive quadratic).
Every node knows how to evaluate itself on a batch of points, and carries
closed-form rules for its Fenchel conjugate, its prox map, and its
subdifferential wherever such rules exist; ``gradient_many`` returns, in
one batch, the gradient at the points where the subdifferential is a
singleton.

Values live in R union {+inf}. +inf absorbs addition and compares as the
maximum; any arithmetic that would produce -inf or inf - inf raises.
Membership in indicator sets is tested with a 1e-9 slack so that projected
points evaluate to 0 rather than +inf.

Function objects are immutable after construction and all operations are
pure, so trees can be shared across threads without coordination.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySubdifferential,
    ExtendedRealError,
    UnsupportedConjugate,
    UnsupportedProx,
    UnsupportedSubdifferential,
)
from .sets import (
    BallSet,
    BoxSet,
    EmptySet,
    HalflineSet,
    SingletonSet,
    SubdiffSet,
)

INF = float("inf")
MAX_DIM = 16
MEMBERSHIP_TOL = 1e-9
PSD_TOL = -1e-10
RANK_TOL = 1e-10
ROUNDING = 8 * np.finfo(float).eps  # relative error allowed a computed value


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float array, checking the dimension if given."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("point coordinates must be finite")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.size}")
    return v


def as_queries(X, dim: int) -> np.ndarray:
    """Points as an (n, dim) float array: 1-D input is one point, or n
    points when dim is 1. A wrong width raises DimensionMismatch and a
    non-finite coordinate ValueError, as ``as_point`` does for one point."""
    A = np.asarray(X, dtype=float)
    if A.ndim == 1:
        A = A.reshape(1, -1) if dim > 1 else A.reshape(-1, 1)
    if A.ndim != 2 or A.shape[1] != dim:
        raise DimensionMismatch(f"expected points of dimension {dim}, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("query coordinates must be finite")
    return A


def dots(X, A):
    """<x, a> over the last axis for rows x of X and a of A, broadcast: the
    products summed from 0, left to right, one column at a time. A row gets
    the same bits alone, inside any batch and on any BLAS build; with a
    matrix M, dots(X[..., None, :], M) is X M^T."""
    s = 0.0
    for j in range(X.shape[-1]):
        s = s + X[..., j] * A[..., j]
    return s


def sq_norms(W):
    """||w||^2 for each row w of W, by ``dots``; a 1-D W is one row."""
    return dots(W, W)


def norms(W):
    return np.sqrt(sq_norms(W))


def check_scalar(name: str, value, positive: bool = True) -> float:
    """A scalar parameter as a float; NaN, infinities and values below 0
    (or at 0, when positive) raise ValueError."""
    value = float(value)
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0")
    return value


def _finite(name: str, value) -> float:
    """A scalar parameter as a float; NaN and infinities raise."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def _check_no_nan(v: np.ndarray) -> np.ndarray:
    # one reduction: the minimum is NaN if any entry is, and -inf if any entry is
    if np.size(v) and not np.min(v) > -INF:
        raise ExtendedRealError("extended-real arithmetic produced -inf or inf - inf")
    return v


class ConvexFunction:
    """Base node. Subclasses fill in the closed-form calculus they support."""

    dim: int

    def value_many(self, X: np.ndarray) -> np.ndarray:
        """Values at a batch of points, shape (n, dim) -> (n,)."""
        raise NotImplementedError

    def prox_many(self, lam: float, X: np.ndarray) -> np.ndarray:
        raise UnsupportedProx(f"no closed-form prox for {type(self).__name__}")

    def conjugate(self) -> "ConvexFunction":
        raise UnsupportedConjugate(f"no closed-form conjugate for {type(self).__name__}")

    def subdiff(self, x: np.ndarray) -> SubdiffSet:
        """{grad f(x)} where ``gradient_many`` marks x smooth; nodes with kinks
        or domain edges override this for their other points."""
        G, smooth = self.gradient_many(x.reshape(1, -1))
        if not smooth[0]:
            raise UnsupportedSubdifferential(
                f"no structured subdifferential for {type(self).__name__}"
            )
        return SingletonSet(G[0])

    def gradient_many(self, X: np.ndarray):
        """(G, smooth) over a batch: where smooth[k], subdiff(X[k]) is the
        singleton {G[k]}, which the base ``subdiff`` returns. Every product
        sums by ``dots``, so a row rounds alike alone and in a batch. Nodes
        without a batched rule mark no row smooth, and callers fall back to
        subdiff row by row."""
        return np.zeros(X.shape), np.zeros(X.shape[0], dtype=bool)

    def __call__(self, x) -> float:
        return evaluate(self, x)


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

class Affine(ConvexFunction):
    """<a, x> + c."""

    def __init__(self, a, c: float = 0.0):
        self.a = as_point(a)
        self.c = _finite("c", c)
        self.dim = _capped_dim(self.a.size)

    def value_many(self, X):
        return dots(X, self.a) + self.c

    def prox_many(self, lam, X):
        return X - lam * self.a

    def conjugate(self):
        # sup_x <y - a, x> - c: finite (and equal to -c) only at y = a
        return AddConst(IndicatorPoint(self.a), -self.c)

    def gradient_many(self, X):
        return np.tile(self.a, (X.shape[0], 1)), np.ones(X.shape[0], dtype=bool)

    def __repr__(self):
        return f"Affine({self.a.tolist()}, {self.c})"


class Quadratic(ConvexFunction):
    """(1/2) <Q x, x> + <b, x> + c with Q symmetric positive semidefinite.

    Q = U diag(w) U^T is factored once, by ``_jacobi``; the least eigenvalue
    must be at least -1e-10, and the prox is U diag(1/(1 + lam w)) U^T (x - lam b).
    """

    def __init__(self, Q, b=None, c: float = 0.0):
        self.Q = np.asarray(Q, dtype=float)
        if self.Q.ndim != 2 or self.Q.shape[0] != self.Q.shape[1]:
            raise ValueError("Q must be a square matrix")
        if not np.all(np.isfinite(self.Q)):
            raise ValueError("Q entries must be finite")
        n = self.Q.shape[0]
        self.b = as_point(b, n) if b is not None else np.zeros(n)
        self.c = _finite("c", c)
        self.dim = _capped_dim(n)
        if np.max(np.abs(self.Q - self.Q.T)) > 1e-10:
            raise ValueError("Q must be symmetric")
        self.w, self.U = _jacobi(self.Q)
        if self.w.min() < PSD_TOL:
            raise ValueError("Q is not positive semidefinite")

    def value_many(self, X):
        return 0.5 * dots(X, dots(X[:, None, :], self.Q)) + dots(X, self.b) + self.c

    def prox_many(self, lam, X):
        R = dots((X - lam * self.b)[:, None, :], self.U.T) / (1.0 + lam * self.w)
        return dots(R[:, None, :], self.U)

    def conjugate(self):
        # (1/2) <Q^+ (y-b), y-b> - c on b + range Q, +inf off it; eigenvalues
        # below RANK_TOL (relative to the largest) count as 0
        keep = self.w > RANK_TOL * max(1.0, float(np.max(np.abs(self.w))))
        if not keep.any():  # Q = 0: f is affine
            return Affine(self.b, self.c).conjugate()
        return SubspaceQuadratic(self.U[:, keep], self.w[keep], self.b, -self.c)

    def gradient_many(self, X):
        return dots(X[:, None, :], self.Q) + self.b, np.ones(X.shape[0], dtype=bool)

    def __repr__(self):
        return f"Quadratic(dim={self.dim})"


def _jacobi(Q: np.ndarray):
    """(w, U) with Q = U diag(w) U^T, U orthogonal, by cyclic Jacobi rotations
    in plain numpy (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13(4), 1992),
    the same bits on every BLAS build: sweeps rotate away each a_pq above
    eps sqrt(|a_pp a_qq|) until one rotates none, or 50 have run."""
    A, U = Q.copy(), np.eye(len(Q))
    for _ in range(50):
        start = A.copy()
        for p, q in itertools.combinations(range(len(A)), 2):
            app, aqq, apq = float(A[p, p]), float(A[q, q]), float(A[p, q])
            if abs(apq) <= np.finfo(float).eps * math.sqrt(abs(app * aqq)):
                continue
            theta = (aqq - app) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            A[p], A[q] = c * A[p] - s * A[q], s * A[p] + c * A[q]
            A[:, p], A[:, q] = A[p], A[q]
            A[p, p], A[q, q], A[p, q], A[q, p] = app - t * apq, aqq + t * apq, 0.0, 0.0
            U[:, p], U[:, q] = c * U[:, p] - s * U[:, q], s * U[:, p] + c * U[:, q]
        if np.array_equal(A, start):
            break
    return np.diag(A).copy(), U


class ScaledNorm(ConvexFunction):
    """ell * ||x - center|| with ell >= 0.

    prox_{lam f}(x) = center + (1 - lam*ell / max(||x-center||, lam*ell)) (x - center),
    the block soft-threshold.
    """

    def __init__(self, ell: float, center=None, dim: int | None = None):
        self.ell = check_scalar("ell", ell, positive=False)
        if center is None:
            if dim is None:
                raise ValueError("need center or dim")
            center = np.zeros(dim)
        self.center = as_point(center, dim)
        self.dim = _capped_dim(self.center.size)

    def value_many(self, X):
        return self.ell * norms(X - self.center)

    def prox_many(self, lam, X):
        if self.ell == 0.0:
            return X.copy()
        D = X - self.center
        thr = lam * self.ell
        scale = 1.0 - thr / np.maximum(norms(D), thr)
        return self.center + scale[:, None] * D

    def conjugate(self):
        if self.ell == 0.0:
            return IndicatorPoint(np.zeros(self.dim))
        ball = IndicatorBall(np.zeros(self.dim), self.ell)
        if np.all(self.center == 0.0):
            return ball
        # the recentered norm picks up the linear term <center, .>
        return Tilt(ball, -self.center)

    def subdiff(self, x):
        if self.ell > 0.0 and norms(x - self.center) <= MEMBERSHIP_TOL:
            return BallSet(np.zeros(self.dim), self.ell)
        return super().subdiff(x)

    def gradient_many(self, X):
        D = X - self.center
        n = norms(D)
        off = n > MEMBERSHIP_TOL
        G = np.where(off[:, None], self.ell * D / np.where(off, n, 1.0)[:, None], 0.0)
        return G, off | (self.ell == 0.0)

    def __repr__(self):
        return f"ScaledNorm({self.ell}, {self.center.tolist()})"


class IndicatorPoint(ConvexFunction):
    """0 at p, +inf elsewhere."""

    def __init__(self, p):
        self.p = as_point(p)
        self.dim = _capped_dim(self.p.size)

    def value_many(self, X):
        return np.where(norms(X - self.p) <= MEMBERSHIP_TOL, 0.0, INF)

    def prox_many(self, lam, X):
        return np.tile(self.p, (X.shape[0], 1))

    def conjugate(self):
        return Affine(self.p, 0.0)

    def subdiff(self, x):
        if norms(x - self.p) <= MEMBERSHIP_TOL:
            full = np.full(self.dim, INF)
            return BoxSet(-full, full)
        return EmptySet(self.dim)

    def __repr__(self):
        return f"IndicatorPoint({self.p.tolist()})"


class IndicatorBall(ConvexFunction):
    """0 on the closed ball B(center, radius), +inf outside."""

    def __init__(self, center, radius: float):
        self.center = as_point(center)
        self.radius = check_scalar("radius", radius)
        self.dim = _capped_dim(self.center.size)

    def value_many(self, X):
        return np.where(norms(X - self.center) <= self.radius + MEMBERSHIP_TOL, 0.0, INF)

    def prox_many(self, lam, X):
        D = X - self.center
        scale = np.minimum(1.0, self.radius / np.maximum(norms(D), 1e-300))
        return self.center + scale[:, None] * D

    def conjugate(self):
        return SupportBall(self.center, self.radius)

    def subdiff(self, x):
        n = norms(x - self.center)
        if n > self.radius + MEMBERSHIP_TOL:
            return EmptySet(self.dim)
        if n >= self.radius - MEMBERSHIP_TOL:
            return HalflineSet(np.zeros(self.dim), x - self.center)
        return SingletonSet(np.zeros(self.dim))

    def __repr__(self):
        return f"IndicatorBall({self.center.tolist()}, {self.radius})"


class IndicatorBox(ConvexFunction):
    """0 on the box [lo, hi], +inf outside."""

    def __init__(self, lo, hi):
        self.lo = as_point(lo)
        self.hi = as_point(hi, self.lo.size)
        if np.any(self.lo > self.hi):
            raise ValueError("box needs lo <= hi componentwise")
        self.dim = _capped_dim(self.lo.size)

    def value_many(self, X):
        inside = np.all(X >= self.lo - MEMBERSHIP_TOL, axis=1) & np.all(
            X <= self.hi + MEMBERSHIP_TOL, axis=1
        )
        return np.where(inside, 0.0, INF)

    def prox_many(self, lam, X):
        return np.clip(X, self.lo, self.hi)

    def conjugate(self):
        return SupportBox(self.lo, self.hi)

    def subdiff(self, x):
        if np.any(x < self.lo - MEMBERSHIP_TOL) or np.any(x > self.hi + MEMBERSHIP_TOL):
            return EmptySet(self.dim)
        # normal cone: per axis (-inf,0] at the lower face, [0,inf) at the upper
        cl = np.where(np.abs(x - self.lo) <= MEMBERSHIP_TOL, -INF, 0.0)
        ch = np.where(np.abs(x - self.hi) <= MEMBERSHIP_TOL, INF, 0.0)
        return BoxSet(cl, ch)

    def __repr__(self):
        return f"IndicatorBox({self.lo.tolist()}, {self.hi.tolist()})"


class IndicatorHalfspace(ConvexFunction):
    """0 where <a, x> <= beta, +inf elsewhere."""

    def __init__(self, a, beta: float):
        self.a = as_point(a)
        if not np.any(self.a):
            raise ValueError("halfspace normal must be nonzero")
        self.beta = _finite("beta", beta)
        self.dim = _capped_dim(self.a.size)

    def value_many(self, X):
        slack = dots(X, self.a) - self.beta
        return np.where(slack <= MEMBERSHIP_TOL * (1.0 + abs(self.beta)), 0.0, INF)

    def prox_many(self, lam, X):
        excess = np.maximum(dots(X, self.a) - self.beta, 0.0)
        return X - (excess / sq_norms(self.a))[:, None] * self.a

    def conjugate(self):
        return SupportHalfspace(self.a, self.beta)

    def subdiff(self, x):
        g = float(dots(x, self.a)) - self.beta
        tol = MEMBERSHIP_TOL * (1.0 + abs(self.beta))
        if g > tol:
            return EmptySet(self.dim)
        if g >= -tol:
            return HalflineSet(np.zeros(self.dim), self.a)
        return SingletonSet(np.zeros(self.dim))

    def __repr__(self):
        return f"IndicatorHalfspace({self.a.tolist()}, {self.beta})"


class _Support(ConvexFunction):
    """sigma_C = iota_C* for the set C of ``self.indicator``, whose constructor
    is the only check of C's parameters. The conjugate is that indicator, and
    the Moreau identity peels the prox off the projection onto C."""

    def __init__(self, indicator: ConvexFunction):
        self.indicator = indicator
        self.dim = indicator.dim

    def prox_many(self, lam, X):
        # prox_{lam sigma_C}(x) = x - lam proj_C(x / lam)
        return X - lam * self.indicator.prox_many(1.0, X / lam)

    def conjugate(self):
        return self.indicator


class SupportBall(_Support):
    """Support function of B(center, radius): <center, x> + radius * ||x||."""

    def __init__(self, center, radius: float):
        super().__init__(IndicatorBall(center, radius))
        self.center, self.radius = self.indicator.center, self.indicator.radius

    def value_many(self, X):
        return dots(X, self.center) + self.radius * norms(X)

    def subdiff(self, x):
        n = norms(x)
        if n <= MEMBERSHIP_TOL:
            return BallSet(self.center, self.radius)
        return SingletonSet(self.center + self.radius * x / n)

    def __repr__(self):
        return f"SupportBall({self.center.tolist()}, {self.radius})"


class SupportBox(_Support):
    """Support function of the box [lo, hi]: sum_i max(lo_i x_i, hi_i x_i)."""

    def __init__(self, lo, hi):
        super().__init__(IndicatorBox(lo, hi))
        self.lo, self.hi = self.indicator.lo, self.indicator.hi

    def value_many(self, X):
        return dots(X, np.where(X > 0, self.hi, self.lo))

    def subdiff(self, x):
        gl = np.where(x > MEMBERSHIP_TOL, self.hi, self.lo)
        gh = np.where(x < -MEMBERSHIP_TOL, self.lo, self.hi)
        return BoxSet(gl, gh)

    def __repr__(self):
        return f"SupportBox({self.lo.tolist()}, {self.hi.tolist()})"


class SupportHalfspace(_Support):
    """Support function of {x : <a, x> <= beta}: beta t on the ray y = t a,
    t >= 0, and +inf off it. Produced by conjugating a halfspace indicator;
    not part of the document format."""

    def __init__(self, a, beta: float):
        super().__init__(IndicatorHalfspace(a, beta))
        self.a, self.beta = self.indicator.a, self.indicator.beta

    def value_many(self, X):
        t = dots(X, self.a) / sq_norms(self.a)
        off = norms(X - t[:, None] * self.a) / (1.0 + norms(X))
        on_ray = (t >= -MEMBERSHIP_TOL) & (off <= MEMBERSHIP_TOL)
        return np.where(on_ray, self.beta * np.maximum(t, 0.0), INF)

    def __repr__(self):
        return f"SupportHalfspace({self.a.tolist()}, {self.beta})"


class SubspaceQuadratic(ConvexFunction):
    """(1/2) sum_i <u_i, y - b>^2 / w_i + c on b + span{u_i}, +inf off it,
    for orthonormal columns u_i of U and w > 0: the conjugate of a PSD
    quadratic with Q = U diag(w) U^T. Not part of the document format."""

    def __init__(self, U, w, b, c: float = 0.0):
        self.U = np.asarray(U, dtype=float)
        self.w = np.asarray(w, dtype=float)
        self.b = as_point(b)
        self.c = _finite("c", c)
        self.dim = _capped_dim(self.b.size)

    def value_many(self, X):
        D = X - self.b
        R = dots(D[:, None, :], self.U.T)
        off = norms(D - dots(R[:, None, :], self.U)) / (1.0 + norms(D))
        return np.where(off <= MEMBERSHIP_TOL, 0.5 * dots(R, R / self.w) + self.c, INF)

    def prox_many(self, lam, X):
        R = dots((X - self.b)[:, None, :], self.U.T) * (self.w / (self.w + lam))
        return self.b + dots(R[:, None, :], self.U)

    def conjugate(self):
        Q = dots((self.U * self.w)[:, None, :], self.U)
        return Quadratic(0.5 * (Q + Q.T), self.b, -self.c)

    def __repr__(self):
        return f"SubspaceQuadratic(dim={self.dim}, rank={self.w.size})"


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------

class Tilt(ConvexFunction):
    """f - <a, .>; conjugation turns a tilt into a translation and back."""

    def __init__(self, f: ConvexFunction, a):
        self.f = f
        self.a = as_point(a, f.dim)
        self.dim = f.dim

    def value_many(self, X):
        with np.errstate(over="ignore", invalid="ignore"):
            return _check_no_nan(self.f.value_many(X) - dots(X, self.a))

    def prox_many(self, lam, X):
        return self.f.prox_many(lam, X + lam * self.a)

    def conjugate(self):
        return Translate(self.f.conjugate(), self.a)

    def subdiff(self, x):
        return self.f.subdiff(x).shift(-self.a)

    def gradient_many(self, X):
        G, smooth = self.f.gradient_many(X)
        return G - self.a, smooth

    def __repr__(self):
        return f"Tilt({self.f!r}, {self.a.tolist()})"


class Translate(ConvexFunction):
    """x -> f(x + t)."""

    def __init__(self, f: ConvexFunction, t):
        self.f = f
        self.t = as_point(t, f.dim)
        self.dim = f.dim

    def value_many(self, X):
        return self.f.value_many(X + self.t)

    def prox_many(self, lam, X):
        return self.f.prox_many(lam, X + self.t) - self.t

    def conjugate(self):
        # sup_x <y,x> - f(x+t) = f*(y) - <t,y>
        return Tilt(self.f.conjugate(), self.t)

    def subdiff(self, x):
        return self.f.subdiff(x + self.t)

    def gradient_many(self, X):
        return self.f.gradient_many(X + self.t)

    def __repr__(self):
        return f"Translate({self.f!r}, {self.t.tolist()})"


class AddConst(ConvexFunction):
    """f + c; invisible to prox and subdifferentials."""

    def __init__(self, f: ConvexFunction, c: float):
        self.f = f
        self.c = _finite("c", c)
        self.dim = f.dim

    def value_many(self, X):
        return self.f.value_many(X) + self.c

    def prox_many(self, lam, X):
        return self.f.prox_many(lam, X)

    def conjugate(self):
        return AddConst(self.f.conjugate(), -self.c)

    def subdiff(self, x):
        return self.f.subdiff(x)

    def gradient_many(self, X):
        return self.f.gradient_many(X)

    def __repr__(self):
        return f"AddConst({self.f!r}, {self.c})"


class Envelope(ConvexFunction):
    r"""Moreau envelope of index lam > 0:

        f_lam(x) = min_y  f(y) + ||x - y||^2 / (2 lam),

    finite and differentiable everywhere with a (1/lam)-Lipschitz gradient
    (x - prox_{lam f}(x)) / lam. Its prox reuses the prox of the base:

        prox_{s f_lam}(x) = (lam x + s prox_{(s+lam) f}(x)) / (s + lam).
    """

    def __init__(self, f: ConvexFunction, lam: float):
        self.f = f
        self.lam = check_scalar("envelope index", lam)
        self.dim = f.dim

    def value_many(self, X):
        P = self.f.prox_many(self.lam, X)
        return _check_no_nan(self.f.value_many(P) + sq_norms(X - P) / (2.0 * self.lam))

    def prox_many(self, lam, X):
        nu = lam + self.lam
        return (self.lam * X + lam * self.f.prox_many(nu, X)) / nu

    def conjugate(self):
        # (f_lam)* = f* + (lam/2) ||.||^2
        return AddQuadratic(self.f.conjugate(), self.lam)

    def gradient_many(self, X):
        return (X - self.f.prox_many(self.lam, X)) / self.lam, np.ones(X.shape[0], dtype=bool)

    def __repr__(self):
        return f"Envelope({self.f!r}, {self.lam})"


class AddQuadratic(ConvexFunction):
    """f + (alpha/2) ||.||^2; produced by conjugating an envelope.

    Not part of the document format. Its conjugate is the envelope of f*
    with index alpha, closing the two-way rule with Envelope.
    """

    def __init__(self, f: ConvexFunction, alpha: float):
        self.f = f
        self.alpha = check_scalar("quadratic weight", alpha)
        self.dim = f.dim

    def value_many(self, X):
        return _check_no_nan(self.f.value_many(X) + 0.5 * self.alpha * sq_norms(X))

    def prox_many(self, lam, X):
        s = 1.0 + self.alpha * lam
        return self.f.prox_many(lam / s, X / s)

    def conjugate(self):
        return Envelope(self.f.conjugate(), self.alpha)

    def subdiff(self, x):
        return self.f.subdiff(x).shift(self.alpha * x)

    def gradient_many(self, X):
        G, smooth = self.f.gradient_many(X)
        return G + self.alpha * X, smooth

    def __repr__(self):
        return f"AddQuadratic({self.f!r}, {self.alpha})"


def _capped_dim(n: int) -> int:
    if not (1 <= n <= MAX_DIM):
        raise DimensionMismatch(f"dimension {n} outside 1..{MAX_DIM}")
    return n


# ---------------------------------------------------------------------------
# Module operations
# ---------------------------------------------------------------------------

def evaluate(f: ConvexFunction, x) -> float:
    """f(x) as an extended real (float, possibly +inf)."""
    p = as_point(x, f.dim)
    return float(_check_no_nan(f.value_many(p.reshape(1, -1)))[0])


def evaluate_many(f: ConvexFunction, X) -> np.ndarray:
    """Values over a batch of points, shape (n, dim) -> (n,)."""
    return _check_no_nan(f.value_many(as_queries(X, f.dim)))


def conjugate_closed_form(f: ConvexFunction) -> ConvexFunction:
    """The Fenchel conjugate as a catalog tree.

    The rule table covers every tree the document format can build; only a
    ConvexFunction subclass outside the catalog raises UnsupportedConjugate.
    """
    return f.conjugate()


def conjugate_infimum(f: ConvexFunction) -> float:
    """inf f* exactly: -f**(0) = -f(0) by Fenchel-Moreau, and -inf (f*
    unbounded below) exactly when 0 lies outside dom f."""
    return 0.0 - evaluate(f, np.zeros(f.dim))


def prox_closed_form(f: ConvexFunction, lam: float, x) -> np.ndarray:
    """Closed-form prox_{lam f}(x); raises UnsupportedProx outside the table."""
    lam = check_scalar("lam", lam)
    p = as_point(x, f.dim)
    return f.prox_many(lam, p.reshape(1, -1))[0]


def prox_many_closed_form(f: ConvexFunction, lam: float, X) -> np.ndarray:
    return f.prox_many(check_scalar("lam", lam), as_queries(X, f.dim))


def subdifferential(f: ConvexFunction, x) -> SubdiffSet:
    """The subdifferential at x as a structured closed convex set."""
    p = as_point(x, f.dim)
    return f.subdiff(p)


def minimal_selection(f: ConvexFunction, x) -> np.ndarray:
    """Least-norm element of the subdifferential at x."""
    s = subdifferential(f, x)
    if isinstance(s, EmptySet):
        raise EmptySubdifferential(f"empty subdifferential at {as_point(x).tolist()}")
    return s.min_norm_element()


def chain(f: ConvexFunction):
    """Each node from f down to its leaf atom: f first, the atom last.

    The only place that knows which nodes are combinators."""
    while True:
        yield f
        if not isinstance(f, (Tilt, Translate, AddConst, Envelope, AddQuadratic)):
            return
        f = f.f


def atom_of(f: ConvexFunction) -> ConvexFunction:
    """The leaf atom under a chain of combinators."""
    *_, atom = chain(f)
    return atom


def is_indicator_chain(f: ConvexFunction) -> bool:
    """True when f is an indicator atom under tilt/translate/constant/quadratic
    combinators only (its prox reduces to a projection)."""
    return not contains_envelope(f) and isinstance(
        atom_of(f), (IndicatorPoint, IndicatorBall, IndicatorBox, IndicatorHalfspace))


def contains_envelope(f: ConvexFunction) -> bool:
    return any(isinstance(g, Envelope) for g in chain(f))


def structured_probes(f: ConvexFunction) -> list[np.ndarray]:
    """Characteristic points of the leaf atom (centers, corners, anchors),
    mapped back through translations. Sampling sweeps mix these in so that
    small-domain indicators are probed where they are finite."""
    shift = np.zeros(f.dim)
    for g in chain(f):
        if isinstance(g, Translate):
            shift = shift - g.t
    pts: list[np.ndarray] = [np.zeros(f.dim)]
    if isinstance(g, IndicatorPoint):
        pts.append(g.p.copy())
    elif isinstance(g, (IndicatorBall, SupportBall)):
        pts.append(g.center.copy())
        e = np.zeros(f.dim)
        e[0] = g.radius
        pts.append(g.center + e)
    elif isinstance(g, (IndicatorBox, SupportBox)):
        pts.append(g.lo.copy())
        pts.append(g.hi.copy())
        pts.append(0.5 * (g.lo + g.hi))
    elif isinstance(g, (ScaledNorm,)):
        pts.append(g.center.copy())
    elif isinstance(g, IndicatorHalfspace):
        pts.append(g.beta * g.a / sq_norms(g.a))
    elif isinstance(g, SubspaceQuadratic):
        pts.append(g.b.copy())
    return [p + shift for p in pts]
