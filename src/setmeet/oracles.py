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
pure function, so sets can be shared freely across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

Array = np.ndarray

# Vertices whose objective values agree within this relative tolerance
# count as tied and fall through to the deterministic tie-break.
TIE_REL_TOL = 1e-12

# Points at most this far apart are one vertex; VertexSet is its only user.
# Keeps degenerate duplicate columns out of downstream feasibility programs.
DEDUP_TOL = 1e-9
# Screen radius of VertexSet.index's row-sum scan, widened for the sum's
# rounding; VertexSet.__init__ screens with its own Gram bound.
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
        """Keep the rows of ``points`` that duplicate no earlier kept row.

        Scaling by the power of two 2**-e that puts the largest |coordinate|
        in [1/2, 1) gives s_i; centering on row 0 gives c_i = s_i - s_0, with
        coordinates in [-2, 2], so nothing overflows.  One matmul per block of
        rows gives the screen ``sq_i + sq_j - 2 c_i.c_j`` against the earlier
        rows.  With u = 2**-53, tau = DEDUP_TOL 2**-e and R2 the largest
        ``sq_i``, a pair the exact test accepts lies at a scaled distance t
        with t**2 <= tau**2 (1 + (d + 6) u).  Centering rounds relative to
        ``s_i - s_0``, which adds at most 2.01 u (t**2 + R2) to the square;
        the Gram rounding adds (4 d + 7) u R2, and underflow in the scaling
        and the products (2 d + 1) 2**-1074.  The slack
        ``2**-46 (d + 4) (tau**2 + R2) + (d + 1) 2**-1072`` is at least 32
        times the rounding terms and twice the underflow term, so a screen
        value ``<= tau**2 + slack`` keeps every such pair.  tau is capped at
        DEDUP_TOL 2**64 > 1e10, which already exceeds every screen value (all
        below 17 d): every pair is then a candidate.  Candidates get the exact
        test, in order, against the near rows kept so far, so the result is
        the scalar loop's bit for bit.
        """
        n, d = points.shape
        keep = np.ones(n, dtype=bool)
        e = math.frexp(float(np.abs(points).max(initial=0.0)))[1]
        c = np.ldexp(points, -e)
        c -= c[:1].copy()
        sq = np.einsum("ij,ij->i", c, c)
        tau2 = math.ldexp(DEDUP_TOL, min(-e, 64)) ** 2
        r2 = float(sq.max(initial=0.0))
        bound = tau2 + math.ldexp(d + 4, -46) * (tau2 + r2) + math.ldexp(d + 1, -1072)
        # Small enough that a block's screen values, its masks and the next
        # block's Gram stay under 10 MiB together.
        block = max(1, 2**19 // max(1, n))
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            gram = c[lo:hi] @ c[:hi].T
            gram *= -2.0
            gram += sq[:hi]
            gram += sq[lo:hi, None]
            near = (gram <= bound) & (np.arange(hi) < np.arange(lo, hi)[:, None])
            for i in np.flatnonzero(near.any(axis=1)):
                earlier = np.flatnonzero(near[i] & keep[:hi])
                v = points[lo + i]
                keep[lo + i] = all(
                    euclidean_norm(v - points[j]) > DEDUP_TOL for j in earlier
                )
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
        ``sqrt(max_ij ((v_i - v_j) ** 2).sum())`` rounds it, in O(m^2 + m d) memory.

        A Gram screen picks the candidate pairs. The vertices are centered on
        the first one, so no centered norm exceeds the diameter, and scaled by
        the power of two that puts the largest coordinate in [1/2, 1), so no
        screen square overflows or underflows. One matmul gives
        ``sq_i + sq_j - 2 c_i.c_j``. Its rounding, the centering's and the
        scan's own stay below ``12 (d + 4) 2**-53 R2``, R2 the largest
        ``sq_i``, plus ``(d + 2) 2**-1074`` (scaled) where the scan's squares
        are subnormal. The slack is ``2**-44 (d + 4) R2`` plus that subnormal
        term. Every pair within the slack of the screen's maximum is recomputed
        with the scan's expression on the unscaled vertices, so the result is
        the scan's: ``inf`` where its squares overflow, ``0.0`` where they
        underflow.
        """
        v = self.vertices
        c = v - v[0]
        if not np.all(np.isfinite(c)):
            return math.inf  # some v_i - v_0 overflows, and so does the scan
        e = int(np.frexp(np.abs(c).max())[1])
        c = np.ldexp(c, -e)
        sq = (c * c).sum(axis=1)
        screen = sq[:, None] + sq[None, :] - 2.0 * (c @ c.T)
        d = v.shape[1]
        # The subnormal term is capped where it already keeps every pair.
        slack = math.ldexp(d + 4, -44) * float(sq.max()) + math.ldexp(d + 2, min(-1074 - 2 * e, 3))
        i, j = np.nonzero(screen >= screen.max() - slack)
        return float(np.sqrt(((v[i] - v[j]) ** 2).sum(axis=1).max()))

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


def support_gap(set_p: OracleSet, set_q: OracleSet, g) -> float:
    """min over x in P, y in Q of <g, x - y>, using exactly two LMO calls.

    A strictly positive value proves the sets are disjoint: the
    hyperplane normal to g separates them with that margin.
    """
    g = as_vector(g, set_p.dim, "direction")
    if set_q.dim != set_p.dim:
        raise DimensionMismatch(
            f"sets live in dimensions {set_p.dim} and {set_q.dim}"
        )
    vp = set_p.lmo(g)
    vq = set_q.lmo(-g)
    return float(np.dot(g, vp) - np.dot(g, vq))
