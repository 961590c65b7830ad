"""Compact convex sets accessed through linear minimization.

Every geometry exposes

* ``lmo(c)``      -- a point minimizing <c, x> over the set (a vertex
  whenever the set has vertices),
* ``project(z)``  -- the Euclidean projection, for geometries with a
  closed form (boxes, balls, simplices),
* ``diameter()``  -- the exact Euclidean diameter,
* ``contains(x)`` -- feasibility test at a tolerance,
* ``sample(rng)`` -- a random feasible point, for tests and benchmarks.

Ties in linear minimization are broken deterministically: lowest-index
vertex for vertex lists, lexicographically smallest corner for boxes,
lowest-index signed basis vector for simplices and L1 balls.  A zero
direction is treated as an all-way tie.  Determinism makes iterate
traces byte-for-byte reproducible.

All values are immutable after construction and every operation is a
pure function, so sets can be shared freely across threads.  The one
state a set keeps is ``VPolytope``'s diameter: computed on the first
call and cached on the instance.  Two threads calling it at once may
each compute it; both get the same bits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

Array = np.ndarray

# Vertices whose objective values agree within this relative tolerance
# count as tied and fall through to the deterministic tie-break.
TIE_REL_TOL = 1e-12

# Points at most this far apart are one vertex; VertexSet is its only user.
# Keeps degenerate duplicate columns out of downstream feasibility programs.
DEDUP_TOL = 1e-9
# Screen radius of VertexSet.index's row-sum scan, widened for its rounding.
_NEAR_SQ = (1.000001 * DEDUP_TOL) ** 2


class GeometryError(ValueError):
    """Invalid geometry parameters or invalid operation input."""


class DimensionMismatch(GeometryError):
    """Operands live in ambient spaces of different dimension."""


class ProjectionUnsupported(GeometryError):
    """The geometry has no closed-form Euclidean projection."""


def as_vector(x, dim: int | None = None, name: str = "vector") -> Array:
    """Coerce to a finite 1-D float array, optionally checking dimension."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise GeometryError(f"{name} must be one-dimensional, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise GeometryError(f"{name} contains non-finite entries")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"{name} has dimension {v.size}, expected {dim}")
    return v


def euclidean_norm(x: Array) -> float:
    """``np.linalg.norm`` of a 1-D float array, bit for bit and without its
    Python overhead: the same BLAS dot over the same ``ravel(order="K")``,
    then ``sqrt``.  ``vdot`` skips the floating-point check that ``dot``
    makes, so a square that overflows gives ``inf`` without a warning."""
    x = x.ravel(order="K")
    return math.sqrt(np.vdot(x, x))


def _appended(buf: Array, n: int, value) -> Array:
    """``buf`` with ``value`` written at index ``n``; a full buffer doubles first."""
    if n == len(buf):
        grown = np.empty((max(2 * n, 1),) + buf.shape[1:])
        grown[:n] = buf
        buf = grown
    buf[n] = value
    return buf


class _GramScreen:
    """The float filter of both vertex-pair questions, the pairs within DEDUP_TOL
    (VertexSet) and a farthest pair (VPolytope.diameter); an exact test of the
    candidates then gives the scalar answer bit for bit.

    Scaling by the power of two 2**-e that puts the largest |coordinate| in
    [1/2, 1) and centering on row 0 give c_i in [-2, 2]**d; ``blocks`` yields
    ``sq_i + sq_j - 2 c_i.c_j`` (sq_i = c_i.c_i) for a block of rows i at a time.
    With u = 2**-53, R2 the largest sq_i and t the exact scaled distance (t**2 <
    4 d), a screen value is within E = (4 d + 7) u R2 + 3 u (t**2 + R2) + (2 d + 1)
    2**-1074 of t**2 (rounding in the matmul, norms, sums, centering and scaling;
    underflow in the products).  Both exact tests, ``euclidean_norm``'s dot and
    the diameter's row sum, round q = sum_k (p_ik - p_jk)**2 on the unscaled rows
    to within F = (d + 2) u t**2 + d 2**(-1075 - 2e) of t**2 once scaled by
    2**-2e (an ``inf`` is a q past the largest float).  So a pair the dedup test
    accepts, q <= DEDUP_TOL**2 (1 + 2.01 u), screens at most tau**2 (1 + 2.01 u)
    + E + F, tau = DEDUP_TOL 2**-e, and a pair of largest q at least M - 2 E - 2 F,
    M the largest screen value.  ``slack(t2)`` = 2**-44 (d + 4) (t2 + R2) +
    (d + 1) 2**-1072 + (d + 2) 2**min(-1074 - 2e, 3), at t2 = tau**2 or M, covers
    both: rounding stays below 8 (d + 4) u (t**2 + R2), a 64th of its first term,
    and underflow below its other two.  Where the cap at 3 binds, 8 (d + 2) exceeds
    the spread of all screen values, in (-1, 4 d + 1): every pair is a candidate.
    A larger slack is always sound; it only sends more pairs to the exact test."""

    def __init__(self, points: Array):
        self.e = math.frexp(float(np.abs(points).max(initial=0.0)))[1]
        self.c = np.ldexp(points, -self.e) - np.ldexp(points[:1], -self.e)
        self.sq = np.einsum("ij,ij->i", self.c, self.c)

    def slack(self, t2: float) -> float:
        d, r2 = self.c.shape[1], float(self.sq.max(initial=0.0))
        return (math.ldexp(d + 4, -44) * (t2 + r2) + math.ldexp(d + 1, -1072)
                + math.ldexp(d + 2, min(-1074 - 2 * self.e, 3)))

    def blocks(self):
        # (lo, screen of rows lo to hi - 1 against rows 0 to hi - 1), a block
        # small enough that its values, masks and the next Gram stay under 10 MiB.
        block = max(1, 2**19 // max(1, len(self.c)))
        for lo in range(0, len(self.c), block):
            values = self.c[lo:lo + block] @ self.c[:lo + block].T
            values *= -2.0
            values += self.sq[:lo + block]
            values += self.sq[lo:lo + block, None]
            yield lo, values


class VertexSet:
    """Distinct points in insertion order, as the ``(n, d)`` array ``rows``.

    A point that ``euclidean_norm`` puts within DEDUP_TOL of a kept row is
    that row.  A screen that keeps every such pair finds the candidates:
    a Gram screen for the points given at construction, a row-sum scan
    for each point ``index`` offers later.

    ``rows`` is a view of the first n rows of a buffer whose capacity
    doubles when full.  A new point is written past the end of every view
    already handed out, and a full buffer is copied, never overwritten, so
    a ``rows`` array taken earlier keeps its shape and bits while the store
    grows; it does not see the later rows.
    """

    def __init__(self, points: Array):
        """Keep the rows of ``points`` that duplicate no earlier kept row: each pair
        screening at most tau**2 + ``slack(tau**2)`` (tau = DEDUP_TOL 2**-e, capped
        at DEDUP_TOL 2**64 > 1e10, past every screen value) gets the exact test, in
        order, against the near rows kept so far."""
        keep = np.ones(len(points), dtype=bool)
        screen = _GramScreen(points)
        tau2 = math.ldexp(DEDUP_TOL, min(-screen.e, 64)) ** 2
        bound = tau2 + screen.slack(tau2)
        for lo, values in screen.blocks():
            near = (values <= bound) & np.tri(*values.shape, lo - 1, dtype=bool)
            for i in lo + np.flatnonzero(near.any(axis=1)):
                earlier = np.flatnonzero(near[i - lo] & keep[:values.shape[1]])
                keep[i] = all(euclidean_norm(points[i] - points[j]) > DEDUP_TOL for j in earlier)
        self._buf = self.rows = points[keep]

    def index(self, v: Array) -> int:
        """Row of the first kept point that ``v`` duplicates; appends ``v`` if none."""
        rows = self.rows
        near = (((rows - v) ** 2).sum(axis=1) <= _NEAR_SQ).nonzero()[0]
        for j in near:
            if euclidean_norm(v - rows[j]) <= DEDUP_TOL:
                return int(j)
        n = len(rows)
        self._buf = _appended(self._buf, n, v)
        self.rows = self._buf[:n + 1]
        return n

    def add(self, v: Array) -> bool:
        """Keep ``v`` unless it duplicates a kept row; True if kept."""
        n = len(self.rows)
        return self.index(v) == n


def distinct_rows(points: Array) -> Array:
    """The rows of a 2-D array that a VertexSet keeps, in order."""
    return VertexSet(points).rows


def _frozen(x, name: str) -> Array:
    v = np.array(as_vector(x, name=name), dtype=float)
    v.setflags(write=False)
    return v


def _tie_argmin(values: Array) -> int:
    """Index of the first value within TIE_REL_TOL (relative) of the minimum.

    A purely relative tolerance keeps the tie set invariant under
    positive rescaling of the objective direction, so c and 2c always
    select the same vertex.  A non-finite minimum (an objective that
    overflows, or NaN) has no minimizer to report and raises.
    """
    m = float(values.min())
    if not math.isfinite(m):
        raise GeometryError(f"non-finite minimum {m!r} in linear minimization")
    tol = TIE_REL_TOL * abs(m)
    return int((values <= m + tol).argmax())


def project_to_simplex(z: Array, scale: float = 1.0) -> Array:
    """Euclidean projection onto {x >= 0, sum(x) = scale}, along the last axis.

    Sorting-based threshold method: O(n log n) per vector and exact.
    """
    z = np.asarray(z, dtype=float)
    w = z.reshape(-1, z.shape[-1])
    r, k = w.shape
    u = np.sort(w, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - scale
    cond = u - css / np.arange(1, k + 1) > 0.0
    rho = k - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = css[np.arange(r), rho] / (rho + 1.0)
    return np.maximum(w - tau[:, None], 0.0).reshape(z.shape)


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box {lower <= x <= upper} (componentwise)."""

    lower: Array
    upper: Array

    def __post_init__(self):
        lo = _frozen(self.lower, "lower")
        up = _frozen(self.upper, "upper")
        if lo.size != up.size:
            raise DimensionMismatch("Box bounds have different dimensions")
        if lo.size == 0:
            raise GeometryError("Box dimension must be >= 1")
        if np.any(lo > up):
            raise GeometryError("Box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def dim(self) -> int:
        return self.lower.size

    def lmo(self, c) -> Array:
        c = as_vector(c, self.dim, "direction")
        # Zero coordinates tie; the lexicographically smallest corner
        # takes the lower bound there.
        return np.where(c > 0.0, self.lower, np.where(c < 0.0, self.upper, self.lower)).astype(float)

    def project(self, z) -> Array:
        z = as_vector(z, self.dim, "point")
        return np.clip(z, self.lower, self.upper)

    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = as_vector(x, self.dim, "point")
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def sample(self, rng: np.random.Generator) -> Array:
        return rng.uniform(self.lower, self.upper)


@dataclass(frozen=True, eq=False)
class Ball:
    """Euclidean ball {||x - center|| <= radius}."""

    center: Array
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen(self.center, "center"))
        object.__setattr__(self, "radius", float(self.radius))
        if self.center.size == 0:
            raise GeometryError("Ball dimension must be >= 1")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise GeometryError("Ball radius must be positive and finite")

    @property
    def dim(self) -> int:
        return self.center.size

    def lmo(self, c) -> Array:
        c = as_vector(c, self.dim, "direction")
        norm = euclidean_norm(c)
        if not 2.0 ** -511 <= norm < math.inf and np.any(c):
            # ||c||^2 overflowed or underflowed: scale c by a power of two.
            c = np.ldexp(c, -int(np.frexp(np.abs(c).max())[1]))
            norm = euclidean_norm(c)
        if norm == 0.0:
            # All-way tie: lexicographically smallest boundary point.
            v = self.center.copy()
            v[0] -= self.radius
            return v
        return self.center - (self.radius / norm) * c

    def project(self, z) -> Array:
        z = as_vector(z, self.dim, "point")
        delta = z - self.center
        norm = float(np.linalg.norm(delta))
        if norm <= self.radius:
            return z.copy()
        return self.center + (self.radius / norm) * delta

    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = as_vector(x, self.dim, "point")
        return float(np.linalg.norm(x - self.center)) <= self.radius + tol

    def sample(self, rng: np.random.Generator) -> Array:
        direction = rng.normal(size=self.dim)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            return self.center.copy()
        r = self.radius * rng.uniform() ** (1.0 / self.dim)
        return self.center + (r / norm) * direction


@dataclass(frozen=True, eq=False)
class Simplex:
    """Scaled probability simplex {x >= 0, sum(x) = scale}."""

    dimension: int
    scale: float = 1.0

    def __post_init__(self):
        # The CLI's count rule: an integer (numpy's included), never a bool.
        if isinstance(self.dimension, bool) or not isinstance(self.dimension, numbers.Integral):
            raise GeometryError(f"Simplex dimension must be an integer, got {self.dimension!r}")
        object.__setattr__(self, "dimension", int(self.dimension))
        object.__setattr__(self, "scale", float(self.scale))
        if self.dimension < 1:
            raise GeometryError("Simplex dimension must be >= 1")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise GeometryError("Simplex scale must be positive and finite")

    @property
    def dim(self) -> int:
        return self.dimension

    def lmo(self, c) -> Array:
        c = as_vector(c, self.dim, "direction")
        idx = _tie_argmin(self.scale * c)
        v = np.zeros(self.dim)
        v[idx] = self.scale
        return v

    def project(self, z) -> Array:
        z = as_vector(z, self.dim, "point")
        return project_to_simplex(z, self.scale)

    def diameter(self) -> float:
        # Distance between two distinct vertices scale*e_i, scale*e_j.
        if self.dimension == 1:
            return 0.0
        return self.scale * math.sqrt(2.0)

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = as_vector(x, self.dim, "point")
        return bool(np.all(x >= -tol) and abs(float(x.sum()) - self.scale) <= tol)

    def sample(self, rng: np.random.Generator) -> Array:
        return self.scale * rng.dirichlet(np.ones(self.dim))


@dataclass(frozen=True, eq=False)
class L1Ball:
    """L1-norm ball {||x - center||_1 <= radius}."""

    center: Array
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen(self.center, "center"))
        object.__setattr__(self, "radius", float(self.radius))
        if self.center.size == 0:
            raise GeometryError("L1Ball dimension must be >= 1")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise GeometryError("L1Ball radius must be positive and finite")

    @property
    def dim(self) -> int:
        return self.center.size

    def lmo(self, c) -> Array:
        c = as_vector(c, self.dim, "direction")
        # Vertices are center +- radius*e_i, enumerated (+e_0, -e_0, +e_1, ...).
        base = float(np.dot(c, self.center))
        values = np.empty(2 * self.dim)
        values[0::2] = base + self.radius * c
        values[1::2] = base - self.radius * c
        idx = _tie_argmin(values)
        v = self.center.copy()
        v[idx // 2] += self.radius if idx % 2 == 0 else -self.radius
        return v

    def project(self, z) -> Array:
        raise ProjectionUnsupported(
            "L1Ball has no closed-form projection here; use the LMO-based solvers"
        )

    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = as_vector(x, self.dim, "point")
        return float(np.abs(x - self.center).sum()) <= self.radius + tol

    def sample(self, rng: np.random.Generator) -> Array:
        weights = rng.dirichlet(np.ones(self.dim))
        signs = rng.choice([-1.0, 1.0], size=self.dim)
        return self.center + self.radius * rng.uniform() * signs * weights


@dataclass(frozen=True, eq=False)
class VPolytope:
    """Convex hull of an explicit, deduplicated vertex list."""

    vertices: Array

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] == 0:
            raise GeometryError("VPolytope needs a nonempty 2-D vertex array")
        if v.shape[1] == 0:
            raise GeometryError("VPolytope dimension must be >= 1")
        if not np.all(np.isfinite(v)):
            raise GeometryError("VPolytope vertices contain non-finite entries")
        arr = distinct_rows(v)
        arr.setflags(write=False)
        object.__setattr__(self, "vertices", arr)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def lmo(self, c) -> Array:
        c = as_vector(c, self.dim, "direction")
        idx = _tie_argmin(self.vertices @ c)
        return self.vertices[idx].copy()

    def project(self, z) -> Array:
        raise ProjectionUnsupported(
            "VPolytope has no closed-form projection; use the LMO-based solvers"
        )

    def diameter(self) -> float:
        """The largest vertex distance, bit for bit as the full pairwise scan
        ``sqrt(max_ij ((v_i - v_j) ** 2).sum())`` rounds it: ``inf`` where its
        squares overflow, ``0.0`` where they underflow.  Computed on the first
        call and cached on the instance, as the vertices never change; two
        threads calling it at once may each compute it, and get the same bits."""
        return self._diameter

    @cached_property
    def _diameter(self) -> float:
        """One pass over _GramScreen's blocks finds the largest screen value M, a
        second rescans the pairs within ``slack(M)`` of it, 2**17 coordinates at a
        time.  Memory: one block of at most 2**19 screen values, its candidates'
        indices and one chunk of differences, however many pairs tie."""
        v = self.vertices
        screen = _GramScreen(v)
        top = max(float(values.max()) for _, values in screen.blocks())
        floor = top - screen.slack(top)
        chunk = max(1, 2**17 // v.shape[1])
        best = 0.0
        for lo, values in screen.blocks():
            i, j = np.nonzero(values >= floor)
            for k in range(0, len(i), chunk):
                diff = v[lo + i[k:k + chunk]] - v[j[k:k + chunk]]
                best = max(best, float((diff ** 2).sum(axis=1).max()))
        return math.sqrt(best)

    def contains(self, x, tol: float = 1e-7) -> bool:
        """Whether ``hull_distance``, never below the true distance and at most
        ``2**(e - 20)`` above it (``2**e`` bounding every coordinate), is <= ``tol``."""
        x = as_vector(x, self.dim, "point")
        from .feasibility import hull_distance

        return hull_distance(self.vertices, x[None]) <= tol

    def sample(self, rng: np.random.Generator) -> Array:
        weights = rng.dirichlet(np.ones(self.vertices.shape[0]))
        return self.vertices.T @ weights


OracleSet = Union[Box, Ball, Simplex, L1Ball, VPolytope]

PROJECTABLE = (Box, Ball, Simplex)


def supports_projection(s: OracleSet) -> bool:
    return isinstance(s, PROJECTABLE)


def _same_dim(set_p: OracleSet, set_q: OracleSet) -> None:
    """Raise DimensionMismatch unless both sets live in one dimension."""
    if set_p.dim != set_q.dim:
        raise DimensionMismatch(f"sets live in dimensions {set_p.dim} and {set_q.dim}")


def support_gap(set_p: OracleSet, set_q: OracleSet, g) -> float:
    """min over x in P, y in Q of <g, x - y>, using exactly two LMO calls.

    A strictly positive value proves the sets are disjoint: the
    hyperplane normal to g separates them with that margin.
    """
    g = as_vector(g, set_p.dim, "direction")
    _same_dim(set_p, set_q)
    vp = set_p.lmo(g)
    vq = set_q.lmo(-g)
    return float(np.dot(g, vp) - np.dot(g, vq))
