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


def _as_batch(X, dim: int) -> np.ndarray:
    A = np.asarray(X, dtype=float)
    if A.ndim == 1:
        A = A.reshape(1, -1) if dim > 1 else A.reshape(-1, 1)
    if A.ndim != 2 or A.shape[1] != dim:
        raise DimensionMismatch(f"expected points of dimension {dim}, got shape {A.shape}")
    return A


def sq_norms(W: np.ndarray) -> np.ndarray:
    """np.dot(w, w) for each row w, bit for bit (einsum and row sums round differently)."""
    return np.matmul(W[:, None, :], W[:, :, None])[:, 0, 0]


def check_lam(lam) -> float:
    """The prox parameter as a float; NaN, infinities and lam <= 0 raise."""
    return check_scalar("lam", lam)


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
        raise UnsupportedSubdifferential(
            f"no structured subdifferential for {type(self).__name__}"
        )

    def gradient_many(self, X: np.ndarray):
        """(G, smooth) over a batch: where smooth[k], subdiff(X[k]) is the
        singleton {G[k]}, bit for bit. Nodes without a batched rule mark no
        row smooth, and callers fall back to subdiff row by row."""
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
        return X @ self.a + self.c

    def prox_many(self, lam, X):
        return X - lam * self.a

    def conjugate(self):
        # sup_x <y - a, x> - c: finite (and equal to -c) only at y = a
        return AddConst(IndicatorPoint(self.a), -self.c)

    def subdiff(self, x):
        return SingletonSet(self.a)

    def gradient_many(self, X):
        return np.tile(self.a, (X.shape[0], 1)), np.ones(X.shape[0], dtype=bool)

    def __repr__(self):
        return f"Affine({self.a.tolist()}, {self.c})"


class Quadratic(ConvexFunction):
    """(1/2) <Q x, x> + <b, x> + c with Q symmetric positive semidefinite.

    Positive semidefiniteness is certified exactly: the least eigenvalue of
    Q must be at least -1e-10.
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
        if np.linalg.eigvalsh(self.Q).min() < PSD_TOL:
            raise ValueError("Q is not positive semidefinite")

    def value_many(self, X):
        return 0.5 * np.einsum("ij,jk,ik->i", X, self.Q, X) + X @ self.b + self.c

    def prox_many(self, lam, X):
        A = np.eye(self.dim) + lam * self.Q
        return np.linalg.solve(A, (X - lam * self.b).T).T

    def conjugate(self):
        # (1/2) <Q^+ (y-b), y-b> - c on b + range Q, +inf off it; eigenvalues
        # below RANK_TOL (relative to the largest) count as 0
        w, U = np.linalg.eigh(self.Q)
        keep = w > RANK_TOL * max(1.0, float(np.max(np.abs(w))))
        return SubspaceQuadratic(U[:, keep], w[keep], self.b, -self.c)

    def subdiff(self, x):
        return SingletonSet(self.Q @ x + self.b)

    def gradient_many(self, X):
        # stacked matrix-vector products round as Q @ x does; X @ Q.T does not
        G = np.matmul(self.Q, X[:, :, None])[:, :, 0] + self.b
        return G, np.ones(X.shape[0], dtype=bool)

    def __repr__(self):
        return f"Quadratic(dim={self.dim})"


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
        return self.ell * np.linalg.norm(X - self.center, axis=1)

    def prox_many(self, lam, X):
        if self.ell == 0.0:
            return X.copy()
        D = X - self.center
        n = np.linalg.norm(D, axis=1)
        thr = lam * self.ell
        scale = 1.0 - thr / np.maximum(n, thr)
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
        d = x - self.center
        n = np.linalg.norm(d)
        if n <= MEMBERSHIP_TOL:
            if self.ell == 0.0:
                return SingletonSet(np.zeros(self.dim))
            return BallSet(np.zeros(self.dim), self.ell)
        return SingletonSet(self.ell * d / n)

    def gradient_many(self, X):
        D = X - self.center
        n = np.sqrt(sq_norms(D))  # the 1-D np.linalg.norm of each row, bit for bit
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
        inside = np.linalg.norm(X - self.p, axis=1) <= MEMBERSHIP_TOL
        return np.where(inside, 0.0, INF)

    def prox_many(self, lam, X):
        return np.tile(self.p, (X.shape[0], 1))

    def conjugate(self):
        return Affine(self.p, 0.0)

    def subdiff(self, x):
        if np.linalg.norm(x - self.p) <= MEMBERSHIP_TOL:
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
        inside = np.linalg.norm(X - self.center, axis=1) <= self.radius + MEMBERSHIP_TOL
        return np.where(inside, 0.0, INF)

    def prox_many(self, lam, X):
        D = X - self.center
        n = np.linalg.norm(D, axis=1)
        scale = np.minimum(1.0, self.radius / np.maximum(n, 1e-300))
        return self.center + scale[:, None] * D

    def conjugate(self):
        return SupportBall(self.center, self.radius)

    def subdiff(self, x):
        n = np.linalg.norm(x - self.center)
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
        if np.linalg.norm(self.a) == 0:
            raise ValueError("halfspace normal must be nonzero")
        self.beta = _finite("beta", beta)
        self.dim = _capped_dim(self.a.size)

    def value_many(self, X):
        slack = X @ self.a - self.beta
        return np.where(slack <= MEMBERSHIP_TOL * (1.0 + abs(self.beta)), 0.0, INF)

    def prox_many(self, lam, X):
        excess = np.maximum(X @ self.a - self.beta, 0.0)
        return X - (excess / float(self.a @ self.a))[:, None] * self.a

    def conjugate(self):
        return SupportHalfspace(self.a, self.beta)

    def subdiff(self, x):
        g = float(np.dot(self.a, x)) - self.beta
        tol = MEMBERSHIP_TOL * (1.0 + abs(self.beta))
        if g > tol:
            return EmptySet(self.dim)
        if g >= -tol:
            return HalflineSet(np.zeros(self.dim), self.a)
        return SingletonSet(np.zeros(self.dim))

    def __repr__(self):
        return f"IndicatorHalfspace({self.a.tolist()}, {self.beta})"


class SupportBall(ConvexFunction):
    """Support function of B(center, radius): <center, x> + radius * ||x||."""

    def __init__(self, center, radius: float):
        self.center = as_point(center)
        self.radius = check_scalar("radius", radius)
        self.dim = _capped_dim(self.center.size)

    def value_many(self, X):
        return X @ self.center + self.radius * np.linalg.norm(X, axis=1)

    def prox_many(self, lam, X):
        # prox of a support function peels off the projection onto the set:
        # prox_{lam sigma_C}(x) = x - lam proj_C(x / lam)
        return X - lam * IndicatorBall(self.center, self.radius).prox_many(1.0, X / lam)

    def conjugate(self):
        return IndicatorBall(self.center, self.radius)

    def subdiff(self, x):
        n = np.linalg.norm(x)
        if n <= MEMBERSHIP_TOL:
            return BallSet(self.center, self.radius)
        return SingletonSet(self.center + self.radius * x / n)

    def __repr__(self):
        return f"SupportBall({self.center.tolist()}, {self.radius})"


class SupportBox(ConvexFunction):
    """Support function of the box [lo, hi]: sum_i max(lo_i x_i, hi_i x_i)."""

    def __init__(self, lo, hi):
        self.lo = as_point(lo)
        self.hi = as_point(hi, self.lo.size)
        if np.any(self.lo > self.hi):
            raise ValueError("box needs lo <= hi componentwise")
        self.dim = _capped_dim(self.lo.size)

    def value_many(self, X):
        return np.sum(np.maximum(X * self.lo, X * self.hi), axis=1)

    def prox_many(self, lam, X):
        return X - lam * np.clip(X / lam, self.lo, self.hi)

    def conjugate(self):
        return IndicatorBox(self.lo, self.hi)

    def subdiff(self, x):
        gl = np.where(x > MEMBERSHIP_TOL, self.hi, self.lo)
        gh = np.where(x < -MEMBERSHIP_TOL, self.lo, self.hi)
        return BoxSet(gl, gh)

    def __repr__(self):
        return f"SupportBox({self.lo.tolist()}, {self.hi.tolist()})"


class SupportHalfspace(ConvexFunction):
    """Support function of {x : <a, x> <= beta}: beta t on the ray y = t a,
    t >= 0, and +inf off it. Produced by conjugating a halfspace indicator;
    not part of the document format."""

    def __init__(self, a, beta: float):
        self.halfspace = IndicatorHalfspace(a, beta)
        self.a, self.beta, self.dim = self.halfspace.a, self.halfspace.beta, self.halfspace.dim

    def value_many(self, X):
        t = X @ self.a / float(self.a @ self.a)
        off = np.linalg.norm(X - t[:, None] * self.a, axis=1) / (1.0 + np.linalg.norm(X, axis=1))
        on_ray = (t >= -MEMBERSHIP_TOL) & (off <= MEMBERSHIP_TOL)
        return np.where(on_ray, self.beta * np.maximum(t, 0.0), INF)

    def prox_many(self, lam, X):
        # the Moreau peel, as for SupportBall: x - lam proj_H(x / lam)
        return X - lam * self.halfspace.prox_many(1.0, X / lam)

    def conjugate(self):
        return self.halfspace

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
        R = D @ self.U
        off = np.linalg.norm(D - R @ self.U.T, axis=1) / (1.0 + np.linalg.norm(D, axis=1))
        return np.where(off <= MEMBERSHIP_TOL, 0.5 * np.sum(R * R / self.w, axis=1) + self.c, INF)

    def prox_many(self, lam, X):
        return self.b + ((X - self.b) @ self.U * (self.w / (self.w + lam))) @ self.U.T

    def conjugate(self):
        Q = (self.U * self.w) @ self.U.T
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
            return _check_no_nan(self.f.value_many(X) - X @ self.a)

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


# atoms whose prox_many rounds a row differently inside a larger batch
# (np.linalg.solve with many right-hand sides, matrix-vector products), so a
# batched envelope gradient would not match subdiff bit for bit
_BATCH_ROUNDED_PROX = (Quadratic, SubspaceQuadratic, IndicatorHalfspace, SupportHalfspace)


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
        depth = sum(isinstance(g, Envelope) for g in chain(self))
        if depth >= 3:
            import warnings

            warnings.warn(
                f"envelope nesting depth {depth}: every level pays an inner solve",
                stacklevel=2,
            )

    def value_many(self, X):
        P = self.f.prox_many(self.lam, X)
        base = self.f.value_many(P)
        return _check_no_nan(
            base + np.sum((X - P) ** 2, axis=1) / (2.0 * self.lam)
        )

    def prox_many(self, lam, X):
        nu = lam + self.lam
        return (self.lam * X + lam * self.f.prox_many(nu, X)) / nu

    def conjugate(self):
        # (f_lam)* = f* + (lam/2) ||.||^2
        return AddQuadratic(self.f.conjugate(), self.lam)

    def subdiff(self, x):
        return SingletonSet(self.gradient_many(x.reshape(1, -1))[0][0])

    def gradient_many(self, X):
        # G is the gradient on every row; only the flag depends on the atom
        smooth = not isinstance(atom_of(self), _BATCH_ROUNDED_PROX)
        return (X - self.f.prox_many(self.lam, X)) / self.lam, np.full(X.shape[0], smooth)

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
        return _check_no_nan(
            self.f.value_many(X) + 0.5 * self.alpha * np.sum(X * X, axis=1)
        )

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
    return _check_no_nan(f.value_many(_as_batch(X, f.dim)))


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
    lam = check_lam(lam)
    p = as_point(x, f.dim)
    return f.prox_many(lam, p.reshape(1, -1))[0]


def prox_many_closed_form(f: ConvexFunction, lam: float, X) -> np.ndarray:
    return f.prox_many(check_lam(lam), _as_batch(X, f.dim))


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
        pts.append(g.beta * g.a / float(g.a @ g.a))
    elif isinstance(g, SubspaceQuadratic):
        pts.append(g.b.copy())
    return [p + shift for p in pts]
