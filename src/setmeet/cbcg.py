"""Cyclic block-coordinate conditional gradient over a product of sets.

Minimizes a smooth convex f(x_0, ..., x_{k-1}) over P_0 x ... x P_{k-1}
touching the feasible sets only through their linear minimization
oracles.  Iteration t updates block i = t mod k:

    v   <- argmin_{x in P_i} <grad_i f(x^t), x>          (one LMO call)
    x_i <- x_i + gamma_t * (v - x_i)

with either the agnostic step gamma_t = 2 / (floor(t/k) + 2) or the
short step minimizing the per-block smoothness upper bound, clamped to
[0, 1].  Each iterate stays a convex combination of set points, tracked
as barycentric weights over the distinct points the LMO returned.

``check_rate_bounds`` compares a recorded trace against the sweep-level
convergence bounds

    agnostic:   f(x^{k s}) - f* <= 2/(s+2) * (sum_i L_i D_i^2 / 2
                                              + 2 L D sum_i D_i)
    short step: f(x^{k s}) - f* <= 4k/(s+4) * (max_i {L_i D_i^2, G_i D_i}
                                               + k L^2 D^2 / min_i L_i)

with D the product-domain diameter, plus the companion bounds on the
running minimum of the full gap (constants 6.75/(S+2) and 8k/(S+4)).
Bounds are checked from the first completed sweep on: with gamma_0 = 1
the start point is forgotten after one sweep, and the bounds do not
constrain an arbitrary start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .oracles import Array, GeometryError, OracleSet, VertexSet, _appended, as_vector

# Short-step displacements below this are treated as "already at the
# block's LMO point": step zero instead of dividing by ~0.
SHORT_STEP_GUARD = 1e-14

# A measured rate exceeding its bound by no more than this is rounding,
# not a violation (``RateReport.check``, the one rule every rate check applies).
RATE_SLACK = 1e-9


class StepRule(Enum):
    AGNOSTIC = "agnostic"
    SHORT_STEP = "short"


class InfeasibleStart(GeometryError):
    """A start point lies outside its block's feasible set."""


class NumericsError(ValueError):
    """A non-finite objective or gradient value was encountered."""


@dataclass
class BlockProblem:
    """Smooth convex objective over a product of oracle sets.

    value:       f(points) -> float
    grad_block:  partial gradient of f with respect to block i
    lipschitz:   global smoothness constant L of f
    block_lipschitz: per-block smoothness constants L_i
    """

    blocks: Sequence[OracleSet]
    value: Callable[[Sequence[Array]], float]
    grad_block: Callable[[Sequence[Array], int], Array]
    lipschitz: float
    block_lipschitz: Sequence[float]

    def __post_init__(self):
        if len(self.blocks) < 1:
            raise GeometryError("BlockProblem needs at least one block")
        if len(self.block_lipschitz) != len(self.blocks):
            raise GeometryError("one block Lipschitz constant per block required")
        if not all(l > 0 for l in self.block_lipschitz) or not self.lipschitz > 0:
            raise GeometryError("smoothness constants must be positive")

    @property
    def k(self) -> int:
        return len(self.blocks)


def distance_problem(set_p: OracleSet, set_q: OracleSet) -> BlockProblem:
    """Two-block problem f(x, y) = ||x - y||^2, the set-intersection objective."""

    def value(points: Sequence[Array]) -> float:
        d = points[0] - points[1]
        return float(np.dot(d, d))

    def grad_block(points: Sequence[Array], i: int) -> Array:
        if i == 0:
            return 2.0 * (points[0] - points[1])
        return 2.0 * (points[1] - points[0])

    return BlockProblem(
        blocks=(set_p, set_q),
        value=value,
        grad_block=grad_block,
        lipschitz=4.0,
        block_lipschitz=(2.0, 2.0),
    )


class ConvexCombination(VertexSet):
    """Barycentric bookkeeping: point ~ weights @ support, support = rows.

    Every distinct point offered is a row, a point offered at gamma = 0 at
    weight 0; a step's weight goes to the row its vertex duplicates, so
    ``combination()`` lies within DEDUP_TOL of the iterate.

    ``weights`` is a view into a doubling buffer, as ``rows`` is: a taken
    ``weights`` keeps its shape and is not touched by ``add``, but ``step``
    rescales the weights in place, and so every view of them.
    """

    def __init__(self, start: Array):
        self._buf = self.rows = np.array(start, dtype=float)[None]
        self._wbuf = self.weights = np.ones(1)

    @property
    def support(self) -> Array:
        return self.rows

    def index(self, v: Array) -> int:
        j = super().index(v)
        if j == self.weights.size:
            self._wbuf = _appended(self._wbuf, j, 0.0)
            self.weights = self._wbuf[:j + 1]
        return j

    def step(self, vertex: Array, gamma: float) -> None:
        self.weights *= 1.0 - gamma
        j = self.index(vertex)
        self.weights[j] += gamma

    def combination(self) -> Array:
        return self.rows.T @ self.weights


@dataclass
class TraceRow:
    """State and action of one engine iteration (state taken before the update)."""

    t: int
    block: int
    objective: float
    block_gap: float
    gamma: float
    lmo_calls: int
    full_gap: float | None = None


@dataclass
class IterateTrace:
    """A run's rows, final iterate and per-block stores.

    ``points``, kept on request (``keep_points``), lists the iterate at
    the start and after each update: one entry per sweep in ``alm_run``,
    one per block step in ``cbcg_run``.
    """

    rule: StepRule
    k: int
    rows: list[TraceRow] = field(default_factory=list)
    final_points: list[Array] = field(default_factory=list)
    final_objective: float = math.nan
    combinations: list[ConvexCombination] = field(default_factory=list)
    points: list[list[Array]] | None = None

    def objective_at_sweep(self, sweep: int) -> float:
        """f at the iterate starting sweep ``sweep`` (0 = the start point)."""
        t = sweep * self.k
        if t < len(self.rows):
            return self.rows[t].objective
        if t == len(self.rows):
            return self.final_objective
        raise IndexError(f"trace has {len(self.rows)} iterations, no sweep {sweep}")

    @property
    def sweeps(self) -> int:
        return len(self.rows) // self.k


def step_size(rule: StepRule, t: int, k: int, gap: float, diff_sq: float, lip_block: float) -> float:
    if rule is StepRule.AGNOSTIC:
        return 2.0 / (t // k + 2)
    if math.sqrt(diff_sq) < SHORT_STEP_GUARD:
        return 0.0
    return min(max(gap / (lip_block * diff_sq), 0.0), 1.0)


def _check_start(problem: BlockProblem, start: Sequence[Array]) -> list[Array]:
    if len(start) != problem.k:
        raise GeometryError(f"expected {problem.k} start points, got {len(start)}")
    points = []
    for i, (blk, s) in enumerate(zip(problem.blocks, start)):
        s = as_vector(s, blk.dim, f"start[{i}]")
        if not blk.contains(s, tol=1e-8):
            raise InfeasibleStart(f"start[{i}] is not in block {i}")
        points.append(s.copy())
    return points


def block_step(
    problem: BlockProblem,
    trace: IterateTrace,
    points: list[Array],
    t: int,
    objective: float,
    lmo_calls: int,
    *,
    vertex: Array | None = None,
    record_full_gap: bool = False,
) -> Array:
    """Iteration ``t`` of the engine: one step on block t mod k, in place.

    ``objective`` is f(points) as the caller measured it, and
    ``lmo_calls`` the run's count to record, this step's call included.
    A ``vertex`` the caller already holds for this block's gradient
    direction replaces the LMO call.  Appends the trace row, moves
    ``points[i]`` and its convex combination, and returns the LMO output.
    """
    i = t % trace.k
    if not math.isfinite(objective):
        raise NumericsError(f"non-finite objective at iteration {t}")
    grad = np.asarray(problem.grad_block(points, i), dtype=float)
    if grad.shape != (problem.blocks[i].dim,):
        raise GeometryError(
            f"block {i} gradient has shape {grad.shape}, expected ({problem.blocks[i].dim},)"
        )
    if not np.isfinite(grad).all():
        raise NumericsError(f"non-finite gradient at iteration {t}")
    full = full_gap(problem, points) if record_full_gap and i == 0 else None

    v = problem.blocks[i].lmo(grad) if vertex is None else vertex
    diff = points[i] - v
    gap = float(np.dot(grad, diff))
    gamma = step_size(
        trace.rule, t, trace.k, gap, float(np.dot(diff, diff)), problem.block_lipschitz[i]
    )
    trace.rows.append(TraceRow(t, i, objective, gap, gamma, lmo_calls, full))
    points[i] = points[i] + gamma * (v - points[i])
    trace.combinations[i].step(v, gamma)
    return v


def cbcg_run(
    problem: BlockProblem,
    start: Sequence[Array],
    rule: StepRule,
    max_sweeps: int,
    *,
    keep_points: bool = False,
    record_full_gap: bool = False,
) -> IterateTrace:
    """Run the cyclic engine for max_sweeps full passes over the blocks.

    One LMO call per iteration, k iterations per sweep.  With
    ``record_full_gap`` the full gap is evaluated at every sweep start
    (k extra LMO calls each, not charged to the trace counter).
    """
    if max_sweeps < 1:
        raise GeometryError("max_sweeps must be >= 1")
    points = _check_start(problem, start)
    trace = IterateTrace(rule=rule, k=problem.k)
    trace.combinations = [ConvexCombination(p) for p in points]
    if keep_points:
        trace.points = [[p.copy() for p in points]]

    for t in range(problem.k * max_sweeps):
        block_step(problem, trace, points, t, float(problem.value(points)), t + 1,
                   record_full_gap=record_full_gap)
        if keep_points:
            trace.points.append([p.copy() for p in points])

    trace.final_points = points
    trace.final_objective = float(problem.value(points))
    return trace


def full_gap(problem: BlockProblem, point: Sequence[Array]) -> float:
    """Gap sum_i max_{v in P_i} <grad_i f(point), point_i - v>; k LMO calls.

    Nonnegative everywhere, zero exactly at minimizers, and an upper
    bound on f(point) - f* by convexity.
    """
    total = 0.0
    for i, blk in enumerate(problem.blocks):
        grad = problem.grad_block(point, i)
        if not np.all(np.isfinite(grad)):
            raise NumericsError(f"non-finite gradient in block {i}")
        grad = as_vector(grad, blk.dim, "gradient")
        v = blk.lmo(grad)
        total += float(np.dot(grad, point[i] - v))
    return total


@dataclass
class BoundRow:
    step: int
    measured: float
    bound: float
    ok: bool


@dataclass
class RateReport:
    """Measured rates against their bounds, one list of rows per named bound."""

    rows: dict[str, list[BoundRow]] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    def check(self, name: str, step: int, measured: float, bound: float, where: str) -> None:
        """Record ``measured`` against ``bound`` under ``name``; a miss beyond
        ``RATE_SLACK`` adds a violation line naming the bound and ``where step``."""
        ok = measured <= bound + RATE_SLACK
        self.rows.setdefault(name, []).append(BoundRow(step, measured, bound, ok))
        if not ok:
            self.violations.append(f"{where} {step}: {name} {measured:.6e} > bound {bound:.6e}")

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def worst(self) -> float:
        """The largest ``measured - bound`` over every row; -inf with no rows."""
        return max((r.measured - r.bound for rows in self.rows.values() for r in rows),
                   default=-math.inf)


def _gradient_norm_bound(problem: BlockProblem) -> float:
    """Upper bound on ||grad f|| over the domain: L*D plus an anchor norm."""
    anchor = [blk.lmo(np.ones(blk.dim)) for blk in problem.blocks]
    grad = np.concatenate([problem.grad_block(anchor, i) for i in range(problem.k)])
    d = math.sqrt(sum(blk.diameter() ** 2 for blk in problem.blocks))
    return problem.lipschitz * d + float(np.linalg.norm(grad))


def rate_constant(problem: BlockProblem, rule: StepRule) -> float:
    """The instance constant multiplying the 1/sweep decay."""
    diams = [blk.diameter() for blk in problem.blocks]
    d = math.sqrt(sum(di ** 2 for di in diams))
    if rule is StepRule.AGNOSTIC:
        return sum(l * di ** 2 / 2.0 for l, di in zip(problem.block_lipschitz, diams)) + (
            2.0 * problem.lipschitz * d * sum(diams)
        )
    g = _gradient_norm_bound(problem)
    head = max(max(l * di ** 2, g * di) for l, di in zip(problem.block_lipschitz, diams))
    return head + problem.k * problem.lipschitz ** 2 * d ** 2 / min(problem.block_lipschitz)


def check_rate_bounds(trace: IterateTrace, problem: BlockProblem, fstar: float) -> RateReport:
    """Compare a trace against the sweep-level convergence bounds.

    Checks every completed sweep s >= 1: the primal bound on
    f(x^{k s}) - fstar, and (where the trace recorded full gaps) the
    bound on the running minimum of the gap, as the rows ``"primal"`` and
    ``"min gap"``.  Report-only; violations are listed, never raised.
    """
    c = rate_constant(problem, trace.rule)
    k = problem.k
    agnostic = trace.rule is StepRule.AGNOSTIC
    report = RateReport()
    for s in range(1, trace.sweeps + 1):
        bound = (2.0 / (s + 2) if agnostic else 4.0 * k / (s + 4)) * c
        report.check("primal", s, trace.objective_at_sweep(s) - fstar, bound, "sweep")

    best_gap = math.inf
    for s in range(1, trace.sweeps):
        row = trace.rows[k * s]
        if row.full_gap is None:
            continue
        best_gap = min(best_gap, row.full_gap)
        bound = (6.75 / (s + 2) if agnostic else 8.0 * k / (s + 4)) * c
        report.check("min gap", s, best_gap, bound, "sweep")
    return report
