"""Alternating projections between two projection-friendly sets.

From any starting point y_0, iterate x_{t+1} = proj_P(y_t) and
y_{t+1} = proj_Q(x_{t+1}).  With d the offset from the P-side closest
point to the Q-side closest point (zero when the sets intersect), the
residuals r_t = ||y_{t-1} - x_t - d||^2 + ||x_t - y_t + d||^2 telescope:

    (1/T) * sum_{t=1..T} r_t  <=  dist(y_0, Q_min)^2 / T,

where Q_min is the set of points of Q closest to P.  When the sets
intersect this tightens to ||x_T - y_T||^2 <= dist(y_0, P cap Q)^2 / T
and ||x_t - y_t||^2 decreases monotonically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .alm import Certificate, Undecided, intersection_point
from .cbcg import NumericsError, RateReport
from .oracles import (
    Array,
    GeometryError,
    OracleSet,
    ProjectionUnsupported,
    _same_dim,
    as_vector,
    supports_projection,
)

CONVERGED_TOL = 1e-13


@dataclass
class PocsRow:
    t: int
    x: Array
    y: Array
    residual: float
    distance_sq: float


@dataclass
class PocsTrace:
    y0: Array
    d_hat: Array
    rows: list[PocsRow] = field(default_factory=list)
    converged: bool = False


def pocs_run(
    set_p: OracleSet,
    set_q: OracleSet,
    y0,
    max_iters: int,
    d_known=None,
) -> PocsTrace:
    """Alternate projections from y0 (any point, not necessarily in Q).

    ``d_known`` is the known offset between closest points, oriented
    from the P-side closest point towards Q (so the limits satisfy
    y - x = d_known); it defaults to zero, the intersecting case.
    Stops early once consecutive y iterates agree to within 1e-13, and
    raises NumericsError when a residual or distance is not finite.
    """
    _same_dim(set_p, set_q)
    if max_iters < 1:
        raise GeometryError("max_iters must be >= 1")
    for s in (set_p, set_q):
        if not supports_projection(s):
            raise ProjectionUnsupported(
                f"{type(s).__name__} has no closed-form projection; use the LMO-based solvers"
            )
    y = as_vector(y0, set_p.dim, "y0").copy()
    d_hat = (
        np.zeros(set_p.dim)
        if d_known is None
        else as_vector(d_known, set_p.dim, "d_known").copy()
    )
    trace = PocsTrace(y0=y.copy(), d_hat=d_hat)

    for t in range(1, max_iters + 1):
        x_new = set_p.project(y)
        y_new = set_q.project(x_new)
        residual = float(
            np.dot(y - x_new - d_hat, y - x_new - d_hat)
            + np.dot(x_new - y_new + d_hat, x_new - y_new + d_hat)
        )
        diff = x_new - y_new
        distance_sq = float(np.dot(diff, diff))
        if not (np.isfinite(residual) and np.isfinite(distance_sq)):
            raise NumericsError(f"non-finite residual or distance at iteration {t}")
        trace.rows.append(PocsRow(t, x_new, y_new, residual, distance_sq))
        if float(np.linalg.norm(y_new - y)) <= CONVERGED_TOL:
            trace.converged = True
            y = y_new
            break
        y = y_new
    return trace


def pocs_certificate(set_p: OracleSet, set_q: OracleSet, trace: PocsTrace) -> Certificate:
    """The run's verdict, from its final x = proj_P(y).

    An intersection only when both sets contain x at their default
    tolerance; x is then its own convex combination on both sides.
    Anything else, however small the final gap, is undecided.
    """
    last = trace.rows[-1]
    if set_p.contains(last.x) and set_q.contains(last.x):
        return intersection_point(last.x, [1.0], [last.x], [1.0], [last.x], 0, last.t)
    return Undecided(math.sqrt(last.distance_sq), 0, last.t)


def check_pocs_rate(trace: PocsTrace, dist_y0: float) -> RateReport:
    """Check the averaged residual bound, and the gap bound when d_hat = 0,
    as the rows ``"mean residual"`` and ``"gap"``.

    ``dist_y0`` is dist(y0, Q_min), supplied analytically by the caller.
    Report-only; violations are listed, never raised.
    """
    report = RateReport()
    intersecting = bool(np.all(trace.d_hat == 0.0))
    running = 0.0
    for row in trace.rows:
        running += row.residual
        bound = dist_y0 ** 2 / row.t
        report.check("mean residual", row.t, running / row.t, bound, "iteration")
        if intersecting:
            report.check("gap", row.t, row.distance_sq, bound, "iteration")
    return report
