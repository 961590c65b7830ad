"""Independent brute-force oracles and loops used to verify the package.

Everything here deliberately avoids the package's own code paths where
the point is cross-checking: support minima are analytic formulas,
vanilla Frank-Wolfe is a separate loop, gradients come from central
differences.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from setmeet import (
    Ball, Box, Disjoint, IntersectionPoint, L1Ball, Simplex, StepRule, VPolytope,
    adaptive_run, alm_run, support_gap,
)
from setmeet.instances import ADAPTIVE_INSTANCES, TWO_SET_INSTANCES
from setmeet.oracles import DEDUP_TOL


def support_min(geom, c):
    """min over the set of <c, x>, by closed form or vertex enumeration."""
    c = np.asarray(c, dtype=float)
    if isinstance(geom, Box):
        return float(np.minimum(c * geom.lower, c * geom.upper).sum())
    if isinstance(geom, Ball):
        return float(np.dot(c, geom.center)) - geom.radius * float(np.linalg.norm(c))
    if isinstance(geom, Simplex):
        return geom.scale * float(c.min())
    if isinstance(geom, L1Ball):
        return float(np.dot(c, geom.center)) - geom.radius * float(np.abs(c).max())
    if isinstance(geom, VPolytope):
        return float((geom.vertices @ c).min())
    raise TypeError(type(geom))


def brute_support_gap(set_p, set_q, g):
    """min over x in P, y in Q of <g, x - y>, without touching the LMOs."""
    return support_min(set_p, g) + support_min(set_q, -g)


def kept_margins(set_p, set_q, result):
    """min <x_t - y_t, x - y> over P x Q at each iterate of a keep_points run."""
    return [support_gap(set_p, set_q, x - y) for x, y in result.trace.points]


def kept_duals(set_p, set_q, result):
    """The dual quantity ||x_t - y_t||^2 - margin_t at each kept iterate."""
    margins = kept_margins(set_p, set_q, result)
    return [d - m for d, m in zip(result.distance_sq, margins)]


def midpoint_gap(set_p, set_q, x, y):
    """Larger distance from the midpoint (x + y) / 2 to the two sets."""
    z = 0.5 * (x + y)
    return max(
        float(np.linalg.norm(z - set_p.project(z))),
        float(np.linalg.norm(z - set_q.project(z))),
    )


def brute_vertex_argmin(vertices, c, rel_tol=1e-12):
    """Lowest index attaining the minimum inner product within tolerance."""
    values = vertices @ c
    m = float(values.min())
    for i, v in enumerate(values):
        if v <= m + rel_tol * abs(m):
            return i
    raise AssertionError("unreachable")


def vanilla_fw(geom, value, grad, start, iters):
    """Plain Frank-Wolfe with the agnostic step; mirrors nothing else."""
    x = np.array(start, dtype=float)
    rows = []
    for t in range(iters):
        g = grad(x)
        v = geom.lmo(g)
        gap = float(np.dot(g, x - v))
        gamma = 2.0 / (t + 2)
        rows.append((t, float(value(x)), gap, gamma))
        x = x + gamma * (v - x)
    return rows, x


def fd_gradient_check(problem, points, h=1e-6, rel=1e-5):
    """Central-difference check of every partial gradient at one point."""
    for i in range(problem.k):
        grad = problem.grad_block(points, i)
        for j in range(points[i].size):
            bumped = [p.copy() for p in points]
            bumped[i][j] += h
            up = problem.value(bumped)
            bumped[i][j] -= 2 * h
            down = problem.value(bumped)
            fd = (up - down) / (2 * h)
            assert abs(fd - grad[j]) <= rel * (1.0 + abs(grad[j])), (
                f"block {i} coord {j}: fd {fd} vs grad {grad[j]}"
            )


def agnostic_primal_bound(t, d_p, d_q, distance):
    """||x_t - y_t||^2 / 4 upper bound under the agnostic rule."""
    rate = 1.0 + 2.0 * np.sqrt(2.0)
    return rate * (d_p**2 + d_q**2) / (t + 2) + distance**2 / 4.0


def short_step_primal_bound(t, d_p, d_q, distance):
    """||x_t - y_t||^2 / 4 upper bound under the short-step rule."""
    c = (d_p + d_q + distance) * max(d_p, d_q) + 2.0 * (d_p**2 + d_q**2)
    return 4.0 * c / (t + 4) + distance**2 / 4.0


def primal_bound(rule, t, d_p, d_q, distance):
    if rule is StepRule.AGNOSTIC:
        return agnostic_primal_bound(t, d_p, d_q, distance)
    return short_step_primal_bound(t, d_p, d_q, distance)


def random_feasibility_program(rng):
    """Small random point lists, roughly half disjoint by construction."""
    n = int(rng.integers(1, 5))
    ku = int(rng.integers(1, 7))
    kv = int(rng.integers(1, 7))
    u = rng.uniform(-1.0, 1.0, size=(ku, n))
    v = rng.uniform(-1.0, 1.0, size=(kv, n))
    if rng.uniform() < 0.5:
        v[:, 0] += 2.5  # force separation along the first axis
    return u, v


def scaled_set(geom, k: int):
    """``geom`` scaled about the origin by 2**k, built afresh from its defining data."""
    s = 2.0 ** k
    if isinstance(geom, Box):
        return Box(geom.lower * s, geom.upper * s)
    if isinstance(geom, (Ball, L1Ball)):
        return type(geom)(geom.center * s, geom.radius * s)
    if isinstance(geom, Simplex):
        return Simplex(geom.dimension, geom.scale * s)
    return VPolytope(geom.vertices * s)


def _point_segment_distance(p, a, b):
    d = b - a
    dd = float(np.dot(d, d))
    t = 0.0 if dd == 0.0 else min(1.0, max(0.0, float(np.dot(p - a, d)) / dd))
    return float(np.linalg.norm(p - (a + t * d)))


def brute_hull_distance_2d(u, v):
    """Distance between disjoint polygons conv(u) and conv(v) in the plane.

    Some closest pair has a vertex of one polygon and a boundary point of
    the other, so the minimum over every point of one list against every
    segment between two points of the other (a point pair is a degenerate
    segment) is exact; interior segments are never closer than the hull.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return min(
        _point_segment_distance(p, a, b)
        for pts, other in ((u, v), (v, u))
        for p in pts
        for a in other
        for b in other
    )


def brute_distinct_rows(points):
    """The scalar dedup loop: kept rows in order, and per row whether it was kept."""
    kept = []
    flags = []
    for row in np.asarray(points, dtype=float):
        keep = all(float(np.linalg.norm(row - u)) > DEDUP_TOL for u in kept)
        if keep:
            kept.append(row)
        flags.append(keep)
    return np.array(kept, dtype=float), flags


def brute_diameter(vertices):
    """The full pairwise scan: an (m, m, d) difference tensor and its largest row sum."""
    diffs = vertices[:, None, :] - vertices[None, :, :]
    return float(np.sqrt((diffs ** 2).sum(axis=2).max()))


def brute_phase_one_simplex(a_eq, b_eq, *, max_pivots=100_000):
    """The scalar phase-1 simplex: Bland's rule with one Python loop per pivot step."""
    a = np.array(a_eq, dtype=float)
    b = np.array(b_eq, dtype=float)
    m, n = a.shape
    neg = b < 0.0
    a[neg] *= -1.0
    b[neg] *= -1.0

    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n:n + m] = np.eye(m)
    t[:m, -1] = b
    t[m, :n] = -a.sum(axis=0)
    t[m, -1] = -b.sum()
    basis = list(range(n, n + m))

    for _ in range(max_pivots):
        enter = -1
        for j in range(n + m):
            if t[m, j] < -1e-10:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_ratio = math.inf
        for i in range(m):
            coef = t[i, enter]
            if coef > 1e-10:
                ratio = t[i, -1] / coef
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise RuntimeError("phase-1 simplex detected an unbounded ray")
        pivot = t[leave, enter]
        t[leave, :] /= pivot
        for r in range(m + 1):
            if r != leave and t[r, enter] != 0.0:
                t[r, :] -= t[r, enter] * t[leave, :]
        basis[leave] = enter
    else:
        raise RuntimeError("phase-1 simplex exceeded the pivot limit")

    z = np.zeros(n + m)
    for i, bi in enumerate(basis):
        z[bi] = t[i, -1]
    return float(-t[m, -1]), z[:n]


class VstackStore:
    """The plain store: a copied ``np.vstack``/``np.append`` per new row,
    dedup by ``np.linalg.norm`` within DEDUP_TOL of a kept row."""

    def __init__(self, start):
        self.rows = np.array(start, dtype=float)[None]
        self.weights = np.ones(1)

    def index(self, v):
        for j, row in enumerate(self.rows):
            if float(np.linalg.norm(v - row)) <= DEDUP_TOL:
                return j
        self.rows = np.vstack([self.rows, v])
        self.weights = np.append(self.weights, 0.0)
        return len(self.rows) - 1

    def add(self, v):
        n = len(self.rows)
        return self.index(v) == n

    def step(self, vertex, gamma):
        self.weights *= 1.0 - gamma
        self.weights[self.index(vertex)] += gamma

    def combination(self):
        return self.rows.T @ self.weights


RUN_BUDGETS = (7, 50, 300)


def _digest(*parts) -> str:
    """sha256 over the shape and float64 bytes of each part."""
    h = hashlib.sha256()
    for part in parts:
        a = np.ascontiguousarray(part, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def run_digests(result) -> dict:
    """Digests of a run: trace rows and final points, both stores, the certificate."""
    trace, state, cert = result.trace, result.state, result.certificate
    rows = [
        (r.t, r.block, r.objective, r.block_gap, r.gamma, r.lmo_calls,
         math.nan if r.full_gap is None else r.full_gap)
        for r in trace.rows
    ]
    counts = (cert.lmo_calls, cert.iterations, state.lmo_calls, state.t)
    if isinstance(cert, IntersectionPoint):
        arrays = (cert.point, cert.weights_p, np.array(cert.support_p),
                  cert.weights_q, np.array(cert.support_q))
    elif isinstance(cert, Disjoint):
        arrays = (cert.direction, cert.margin)
    else:
        arrays = (cert.best_distance,)
    return {
        "trace": _digest(np.reshape(rows, (-1, 7)), *trace.final_points, trace.final_objective),
        "stores": _digest(*(a for comb in trace.combinations for a in (comb.rows, comb.weights))),
        "cert": cert.verdict + ":" + _digest(counts, *arrays),
    }


def golden_run_record() -> dict:
    """``run_digests`` of ``alm_run`` and ``adaptive_run`` on every instance-table
    entry, under both rules, at each of RUN_BUDGETS."""
    record = {}
    tables = (("two", TWO_SET_INSTANCES), ("adaptive", ADAPTIVE_INSTANCES))
    for table, instances in tables:
        for inst in instances:
            for rule in StepRule:
                for budget in RUN_BUDGETS:
                    for solver, run in (("alm", alm_run), ("adaptive", adaptive_run)):
                        key = f"{table}/{inst.name}/{rule.value}/{budget}/{solver}"
                        record[key] = run_digests(run(inst.set_p, inst.set_q, rule, budget))
    return record
