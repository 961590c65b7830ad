"""Linear feasibility over convex hulls given by point lists.

The central question: do conv(U) and conv(V) share a point?  Writing a
candidate as a convex combination on each side gives the linear program

    sum_u lam_u * u = sum_v kap_v * v,
    sum_u lam_u = 1,  sum_v kap_v = 1,  lam >= 0,  kap >= 0.

Wolfe's minimum-norm-point method runs every hull question in one loop,
``_wolfe``.  ``hull_meet`` decides this program by a meet or a strict
separating hyperplane: warm-started at the adaptive checkpoints, and
through ``solve_feasibility`` for ``setmeet feastest`` and
``epsilon_pq``.  ``hull_distance``, certified by its dual gap, answers
distance and (through ``VPolytope.contains``) membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .oracles import (
    Array, DimensionMismatch, GeometryError, VPolytope, distinct_rows, euclidean_norm,
)

# hull_distance stops once its dual gap, in coordinates scaled to [1/2, 1), is this small.
HULL_GAP_TOL = 2.0 ** -40
# hull_meet reads a meet off Wolfe's loop once ||x||, in the same coordinates, is this small.
HULL_MEET_TOL = 2.0 ** -40
# Largest residual (mismatch of the two combinations, or of a weight sum from 1) accepted
# for weights that claim a common point.
RESIDUAL_TOL = 1e-8


def _points_matrix(points, name: str, dim: int | None = None) -> Array:
    """Coerce to a nonempty finite 2-D float array, optionally of ``dim`` columns."""
    a = np.asarray(points, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2 or a.shape[0] == 0:
        raise GeometryError(f"{name} must be a nonempty list of points")
    if a.shape[1] == 0:
        raise GeometryError(f"{name} dimension must be >= 1")
    if not np.all(np.isfinite(a)):
        raise GeometryError(f"{name} contains non-finite entries")
    if dim is not None and a.shape[1] != dim:
        raise DimensionMismatch(f"point lists have dimensions {dim} and {a.shape[1]}")
    return a


@dataclass(frozen=True)
class FeasibilityProgram:
    """Candidate vertex lists for the two hulls, deduplicated."""

    u_points: Array
    v_points: Array

    def __post_init__(self):
        u = distinct_rows(_points_matrix(self.u_points, "u_points"))
        v = distinct_rows(_points_matrix(self.v_points, "v_points", u.shape[1]))
        object.__setattr__(self, "u_points", u)
        object.__setattr__(self, "v_points", v)

    @property
    def dimension(self) -> int:
        return self.u_points.shape[1]


@dataclass(frozen=True)
class FeasibleCombination:
    """Weights on each hull whose combinations meet at ``point``."""

    lam: Array
    kappa: Array
    point: Array
    residual: float


def phase_one_simplex(a_eq: Array, b_eq: Array, *, max_pivots: int = 100_000):
    """Minimize the artificial-variable sum for A z = b, z >= 0.

    Read only by perfbench's tracer: no solve path calls it.

    Returns (objective, z).  The system is feasible iff the objective is
    (numerically) zero, in which case z is a feasible basic solution.
    Entering columns follow Bland's rule (lowest index with negative
    reduced cost) and ratio-test ties leave the lowest basic index.
    Known limitation: the 1e-10 reduced-cost and 1e-12 ratio-tie
    tolerances break Bland's anti-cycling guarantee, so a degenerate
    program can cycle until ``max_pivots`` and raise RuntimeError (the
    program of a 300-vertex hull in 30-d against one point far outside
    it does).
    """
    a = np.array(a_eq, dtype=float)
    b = np.array(b_eq, dtype=float)
    m, n = a.shape
    neg = b < 0.0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # Tableau columns: structural | artificial | rhs. Objective row holds
    # reduced costs; its rhs entry holds minus the current objective.
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n:n + m] = np.eye(m)
    t[:m, -1] = b
    t[m, :n] = -a.sum(axis=0)
    t[m, -1] = -b.sum()
    basis = np.arange(n, n + m)
    outer = np.empty_like(t)

    for _ in range(max_pivots):
        negative = t[m, :n + m] < -1e-10
        enter = int(negative.argmax())
        if not negative[enter]:
            break
        # Ratio test over the rows with a positive entry, scanned in row order:
        # best_ratio drifts with each tie, so the scan's order matters.
        col = t[:m, enter]
        rows = (col > 1e-10).nonzero()[0]
        leave = -1
        best_ratio = math.inf
        for i, ratio, b_i in zip(rows.tolist(), (t[rows, -1] / col[rows]).tolist(),
                                 basis[rows].tolist()):
            if ratio < best_ratio - 1e-12 or (
                abs(ratio - best_ratio) <= 1e-12 and (leave < 0 or b_i < basis[leave])
            ):
                best_ratio = ratio
                leave = i
        if leave < 0:
            raise RuntimeError("phase-1 simplex detected an unbounded ray")
        pivot = t[leave, enter]
        t[leave, :] /= pivot
        # Rows with a zero entry stay untouched, so their -0.0 entries survive.
        hit = t[:, enter] != 0.0
        hit[leave] = False
        np.multiply(t[:, enter, None], t[leave], out=outer)
        np.subtract(t, outer, out=t, where=hit[:, None])
        basis[leave] = enter
    else:
        raise RuntimeError("phase-1 simplex exceeded the pivot limit")

    z = np.zeros(n + m)
    z[basis] = t[:m, -1]
    return float(-t[m, -1]), z[:n]


def _combination(u: Array, v: Array, lam: Array, kappa: Array) -> FeasibleCombination:
    """The common point of weights ``lam`` on ``u`` and ``kappa`` on ``v``, with its residual."""
    point_u = u.T @ lam
    point_v = v.T @ kappa
    residual = float(np.linalg.norm(point_u - point_v))
    residual = max(residual, abs(float(lam.sum()) - 1.0), abs(float(kappa.sum()) - 1.0))
    return FeasibleCombination(lam, kappa, 0.5 * (point_u + point_v), residual)


def _affine_minimizer(rows: Array, in_a: Array) -> Array:
    """Weights minimizing ||rows^T w|| with each block's weights summing to 1.

    Solves the equality-constrained least-squares KKT system, by least
    squares only when it is singular; the weights may be negative.
    ``in_a`` marks the rows of the first block.
    """
    p = rows.shape[0]
    kkt = np.zeros((p + 2, p + 2))
    kkt[:p, :p] = rows @ rows.T
    kkt[:p, p] = kkt[p, :p] = in_a
    kkt[:p, p + 1] = kkt[p + 1, :p] = ~in_a
    rhs = np.zeros(p + 2)
    rhs[p:] = 1.0
    try:
        return np.linalg.solve(kkt, rhs)[:p]
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(kkt, rhs, rcond=None)[0][:p]


def _scaled_rows(a: Array, b: Array) -> tuple[Array, int]:
    """[A; -B] times 2**-e, the power of two putting the largest coordinate in [1/2, 1)."""
    m_rows = np.vstack([a, -b])
    e = math.frexp(float(np.abs(m_rows).max()))[1]
    return np.ldexp(m_rows, -e), e


def _wolfe(m_rows: Array, ka: int, support: Array, w: Array, decide: bool):
    """Wolfe's loop on x = m_rows[support]^T w; returns (outcome, x, support, w, gap).

    Wolfe's minimum-norm-point method (fully corrective Frank-Wolfe).
    Rows below ``ka`` belong to the first list; the start's weights are
    positive and sum to 1 on each list.  Each step minimizes <x, .> over
    each list; the dual gap g = ||x||^2 - (min_a <x, a> - max_b <x, b>)
    is the sum of the two lists' shortfalls.  The step adds the
    minimizing point of the list that falls shorter and re-solves the
    weights exactly on the support; while a weight comes out negative,
    it steps back to where the first weight reaches 0 and drops that
    point.  The outcome is "certified" once g <= HULL_GAP_TOL, or with
    ``decide`` instead "meet" once ||x|| <= HULL_MEET_TOL and
    "separated" once min_a <x, a> > max_b <x, b>.  It is None when the
    minimizing point is already in the support (a stall) or after
    (|A| + |B|)(n + 2) steps.
    """
    gap = math.inf
    for _ in range(m_rows.shape[0] * (m_rows.shape[1] + 2)):
        x = w @ m_rows[support]
        if decide and euclidean_norm(x) <= HULL_MEET_TOL:
            return "meet", x, support, w, gap
        s = m_rows @ x
        i = int(np.argmin(s[:ka]))
        j = ka + int(np.argmin(s[ka:]))
        if decide and float(s[i]) + float(s[j]) > 0.0:
            return "separated", x, support, w, gap
        in_a = support < ka
        short_a = float(w[in_a] @ s[support[in_a]]) - float(s[i])
        short_b = float(w[~in_a] @ s[support[~in_a]]) - float(s[j])
        gap = short_a + short_b
        if not decide and gap <= HULL_GAP_TOL:
            return "certified", x, support, w, gap
        new = i if short_a >= short_b else j
        if new in support:
            break  # x is not its support's exact minimizer, so no step helps
        support = np.append(support, new)
        w = np.append(w, 0.0)
        y = _affine_minimizer(m_rows[support], support < ka)
        while (neg := np.flatnonzero(y < 0.0)).size:
            # Step back to where the first weight reaches 0, and drop that point.
            ratio = w[neg] / (w[neg] - y[neg])
            w = w + float(ratio.min()) * (y - w)
            w[neg[np.argmin(ratio)]] = 0.0
            support, w = support[w > 0.0], w[w > 0.0]
            y = _affine_minimizer(m_rows[support], support < ka)
        support, w = support[y > 0.0], y[y > 0.0]
    return None, x, support, w, gap


def hull_distance(a_points, b_points) -> float:
    """Distance between conv(A) and conv(B), certified by a dual gap.

    Runs ``_wolfe`` on x = A^T lam - B^T kap from the first point of
    each list, after scaling every point by the power of two 2**-e that
    puts the largest coordinate in [1/2, 1).  Once the dual gap
    g <= HULL_GAP_TOL it returns r = 2**e ||x||, the length of a segment
    between the hulls, so r >= distance.  Every difference p of hull
    points has <x, p> >= ||x||^2 - g, so
    r - distance <= min(G / r, r) <= sqrt(G) = 2**(e - 20), with
    G = 4**e HULL_GAP_TOL.  A run that stalls or reaches the step limit
    uncertified raises RuntimeError instead.  Intersecting hulls are not
    special: they return the certified r, at most 2**(e - 20).
    """
    a = _points_matrix(a_points, "a_points")
    b = _points_matrix(b_points, "b_points", a.shape[1])
    ka = a.shape[0]
    m_rows, e = _scaled_rows(a, b)
    outcome, x, _, _, gap = _wolfe(m_rows, ka, np.array([0, ka]), np.ones(2), decide=False)
    if outcome is None:
        raise RuntimeError(
            f"hull_distance stopped uncertified: dual gap {gap:.3e} exceeds {HULL_GAP_TOL:.3e}"
        )
    return math.ldexp(float(np.linalg.norm(x)), e)


class HullMeet(NamedTuple):
    """``hull_meet``'s verdict and where its loop stopped.

    ``combination`` is set on a meet and ``direction`` (a d with
    min_u <d, u> > max_v <d, v>) on a separation; neither, when there is
    no verdict.  ``weights`` lie on the rows ``support`` of [U; V], ku = |U|.
    """

    combination: FeasibleCombination | None
    direction: Array | None
    support: Array
    weights: Array
    ku: int


def hull_meet(u_points, v_points, start: HullMeet | None = None) -> HullMeet:
    """Whether conv(U) and conv(V) meet, decided by ``_wolfe``'s meet and separated exits.

    A meet's weights are read off the support and kept only if the two
    combinations, and each weight sum and 1, agree within RESIDUAL_TOL.
    A rejected meet, a stall or the step limit gives no verdict, never
    an error.  The lists are taken as given, repeated points included.
    ``start``, an earlier answer for prefixes of these lists, resumes
    the loop from its support and weights (V's indices shifted by the
    growth of U); otherwise the loop starts at the first point of each.
    """
    u = _points_matrix(u_points, "u_points")
    v = _points_matrix(v_points, "v_points", u.shape[1])
    ku = u.shape[0]
    if start is None:
        support, w = np.array([0, ku]), np.ones(2)
    else:
        support = np.where(start.support < start.ku, start.support,
                           start.support + (ku - start.ku))
        w = start.weights
    outcome, x, support, w, _ = _wolfe(_scaled_rows(u, v)[0], ku, support, w, decide=True)
    combination = direction = None
    if outcome == "meet":
        z = np.zeros(ku + v.shape[0])
        z[support] = w
        combo = _combination(u, v, z[:ku], z[ku:])
        combination = combo if combo.residual <= RESIDUAL_TOL else None
    elif outcome == "separated":
        direction = x
    return HullMeet(combination, direction, support, w, ku)


def solve_feasibility(prog: FeasibilityProgram) -> FeasibleCombination | None:
    """Weights on which the two hulls meet, or None when they are separated.

    ``hull_meet`` decides the program's lists from a cold start.  A meet
    returns its combination, residual at most RESIDUAL_TOL.  A
    separation, a direction x with min_u <x, u> > max_v <x, v> in
    rounded arithmetic, returns None.  No verdict (a stall, the step
    limit, or a meet rejected by the residual rule) raises RuntimeError.
    """
    meet = hull_meet(prog.u_points, prog.v_points)
    if meet.combination is None and meet.direction is None:
        raise RuntimeError("hull_meet reached no verdict: the loop stalled, hit its "
                           "step limit or found a meet above the residual rule")
    return meet.combination


def epsilon_pq(set_p: VPolytope, set_q: VPolytope) -> float:
    """Smallest positive distance among disjoint sub-hull pairs.

    Enumerates every nonempty subset pair of the two vertex lists, keeps
    the pairs whose hulls ``hull_meet`` separates, and returns their
    minimum hull distance.  Below this threshold, hulls of seen vertices
    are guaranteed to intersect.  Returns +inf when no disjoint pair
    exists.  A sub-hull pair that ``hull_meet`` reaches no verdict on
    raises RuntimeError (through ``solve_feasibility``).  Exponential in
    the vertex counts; guarded to 16 vertices.
    """
    u = set_p.vertices
    v = set_q.vertices
    if u.shape[0] + v.shape[0] > 16:
        raise GeometryError("epsilon_pq enumeration limited to 16 vertices total")
    best = math.inf
    for mu in range(1, 1 << u.shape[0]):
        sub_u = u[[i for i in range(u.shape[0]) if mu >> i & 1]]
        for mv in range(1, 1 << v.shape[0]):
            sub_v = v[[j for j in range(v.shape[0]) if mv >> j & 1]]
            if solve_feasibility(FeasibilityProgram(sub_u, sub_v)) is None:
                d = hull_distance(sub_u, sub_v)
                if d > 0.0:
                    best = min(best, d)
    return best
