"""Alternating linear minimizations between two compact convex sets.

The solver minimizes f(x, y) = ||x - y||^2 over P x Q touching the sets
only through linear minimization.  One iteration makes two LMO calls,
the second against the already-updated x:

    u <- argmin_{x' in P} <x - y, x'>;   x <- x + gamma_1 (u - x)
    v <- argmin_{y' in Q} <y - x, y'>;   y <- y + gamma_2 (v - y)

This is the two-block case of the cyclic engine in ``cbcg`` by
construction: each iteration is two of its block steps on
f(x, y) = ||x - y||^2, so the trace rows and step rules are the
engine's.  Step rules: agnostic gamma = 2/(t+2), or the short step
gamma_1 = min{<x - y, x - u> / ||x - u||^2, 1} (and symmetrically for
gamma_2), clamped to [0, 1].

With RATE_CONSTANT = 1 + 2*sqrt(2), the midpoints z_t = (x_t + y_t)/2
satisfy, under the agnostic rule,

    max{dist(z_t, P)^2, dist(z_t, Q)^2}
        <= ||x_t - y_t||^2 / 4
        <= RATE_CONSTANT * (D_P^2 + D_Q^2) / (t + 2) + dist(P, Q)^2 / 4,

and the running minimum over 1 <= t <= T of the dual quantity
||x_t - y_t||^2 - min_{x in P, y in Q} <x_t - y_t, x - y> is at most
6.75 * RATE_CONSTANT * (D_P^2 + D_Q^2) / (T + 2).  Those inequalities
power two disjointness certificates:

* parameterized: ||x_t - y_t||^2 exceeding the rule's threshold at
  iteration t is impossible when the sets intersect, so exceeding it
  proves P and Q disjoint (requires diameter bounds);
* parameter-free: a direction g = x_t - y_t with
  min_{x in P, y in Q} <g, x - y> > 0 separates the sets strictly; the
  margin is checkable with two LMO calls and needs no constants.

The adaptive variant interleaves those checks at iterations t = 2^k and
additionally tries to recover an exact intersection point over all
vertices the LMOs have returned so far: ``feasibility.hull_meet`` runs
Wolfe's minimum-norm-point method on the two stores, warm-started from
the previous checkpoint's support, and one such decision is charged as
one LMO call.

Both solvers run one loop, and their traces differ in two columns only,
both pinned by ``perfbench/golden.json`` until a benchmark change
re-records it: ``alm_run``'s ``lmo_calls`` column leaves out the two
start calls that its certificate counts, where ``adaptive_run``'s counts
them; and ``alm_run``'s even rows carry <x - y, x - y> where
``adaptive_run``'s carry ||x - y|| squared, which may differ in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .cbcg import (
    ConvexCombination,
    IterateTrace,
    StepRule,
    _check_start,
    block_step,
    distance_problem,
)
from .feasibility import hull_meet
from .feasibility import solve_feasibility  # noqa: F401  (read only by perfbench's tracer)
from .oracles import (
    Array,
    DimensionMismatch,
    GeometryError,
    OracleSet,
    euclidean_norm,
    support_gap,
)

RATE_CONSTANT = 1.0 + 2.0 * math.sqrt(2.0)

# Iterates closer than this are numerically in contact: the LMO
# direction is zero and further steps carry no information.
CONTACT_TOL = 1e-12


@dataclass
class AlmState:
    """Solver state after ``t`` completed iterations.

    ``seen_p``/``seen_q`` are ``comb_x.support``/``comb_y.support``: the
    distinct rows among the start point and every LMO output, checkpoint
    probes included, in the order first seen (see ``ConvexCombination``).
    ``lmo_calls`` counts every oracle call charged to the run, including
    the two initialization calls when no start was supplied.
    """

    set_p: OracleSet
    set_q: OracleSet
    x: Array
    y: Array
    t: int
    seen_p: Array
    seen_q: Array
    lmo_calls: int
    comb_x: ConvexCombination
    comb_y: ConvexCombination


@dataclass(frozen=True)
class IntersectionPoint:
    """A common point, witnessed as convex combinations on both sides.

    On contact the supports are the run's stores, zero-weight rows
    included, and each combination lies within DEDUP_TOL of ``point``.
    """

    point: Array
    weights_p: Array
    support_p: list[Array]
    weights_q: Array
    support_q: list[Array]
    lmo_calls: int
    iterations: int

    verdict = "intersection"


@dataclass(frozen=True)
class Disjoint:
    """A separating direction with strictly positive margin."""

    direction: Array
    margin: float
    lmo_calls: int
    iterations: int

    verdict = "disjoint"


@dataclass(frozen=True)
class Undecided:
    best_distance: float
    lmo_calls: int
    iterations: int

    verdict = "undecided"


Certificate = Union[IntersectionPoint, Disjoint, Undecided]


class AlmResult(NamedTuple):
    """A run of either solver: the verdict it reached, its trace and final state."""

    certificate: Certificate
    trace: IterateTrace
    state: AlmState

    @property
    def distance_sq(self) -> list[float]:
        """||x_t - y_t||^2 at every iterate, the final one included."""
        return [row.objective for row in self.trace.rows[::2]] + [self.trace.final_objective]


def default_start(set_p: OracleSet, set_q: OracleSet) -> tuple[Array, Array]:
    """Deterministic feasible starts: LMO along the all-ones direction."""
    ones = np.ones(set_p.dim)
    return set_p.lmo(ones), set_q.lmo(-ones)


def _add_seen(comb: ConvexCombination, vertex: Array) -> bool:
    """Offer a checkpoint probe to its block's store at weight 0; True if new."""
    return comb.add(vertex)


def _alternate(set_p, set_q, rule, max_iters, start, adaptive, *,
               keep_points=False, stop_on_contact=True) -> AlmResult:
    """The alternating loop behind ``alm_run`` and ``adaptive_run``.

    Iteration t steps x, then y against the new x: the engine's block
    steps on the distance objective, trace rows 2t and 2t + 1.  Contact
    is tested before each sweep and after the last.  With ``adaptive``
    a checkpoint follows the sweeps t = 2^k; without it the run ends on
    the separation test.
    """
    if set_p.dim != set_q.dim:
        raise DimensionMismatch(
            f"sets live in dimensions {set_p.dim} and {set_q.dim}"
        )
    if max_iters < 1:
        raise GeometryError("max_iters must be >= 1")
    problem = distance_problem(set_p, set_q)
    if start is None:
        points, calls = list(default_start(set_p, set_q)), 2
    else:
        points, calls = _check_start(problem, start), 0
    # alm_run's lmo_calls column leaves out the start calls; adaptive_run's counts them.
    column_base = 0 if adaptive else calls
    trace = IterateTrace(rule=rule, k=2)
    trace.combinations = [ConvexCombination(p) for p in points]
    comb_x, comb_y = trace.combinations
    if keep_points:
        trace.points = [[p.copy() for p in points]]

    u: Array | None = None  # a checkpoint's LMO output along x - y, the next first call
    meet = None  # the previous checkpoint's hull_meet answer, its warm start
    decided_size = -1
    diameters: tuple[float, float] | None = None  # measured once a margin may certify
    best_dsq = math.inf
    certificate: Certificate | None = None
    contact = False
    for t in range(max_iters + 1):
        d = points[0] - points[1]
        dsq = float(np.vdot(d, d))
        dist = math.sqrt(dsq)
        best_dsq = min(best_dsq, dsq)
        if stop_on_contact and dist <= CONTACT_TOL:
            contact = True
            break
        if t == max_iters:
            break
        # adaptive_run's even rows carry ||d|| squared, alm_run's <d, d>.
        objective = dist * dist if adaptive else dsq
        if u is None:
            calls += 1
        block_step(problem, trace, points, 2 * t, objective, calls - column_base, vertex=u)
        calls += 1
        block_step(problem, trace, points, 2 * t + 1, problem.value(points),
                   calls - column_base)
        u = None
        if keep_points:
            trace.points.append([p.copy() for p in points])

        if adaptive and t >= 1 and t & (t - 1) == 0:
            g = points[0] - points[1]
            u, b = set_p.lmo(g), set_q.lmo(-g)
            calls += 2
            _add_seen(comb_x, u)
            _add_seen(comb_y, b)
            margin = float(np.dot(g, u) - np.dot(g, b))
            if margin > MARGIN_FLOOR:
                diameters = diameters or (set_p.diameter(), set_q.diameter())
                if separates(g, margin, *diameters):
                    certificate = Disjoint(g.copy(), margin, calls, t + 1)
                    break
            if len(comb_x.rows) + len(comb_y.rows) != decided_size:
                decided_size = len(comb_x.rows) + len(comb_y.rows)
                calls += 1
                meet = hull_meet(comb_x.rows, comb_y.rows, meet)
                combo = meet.combination
                if combo is not None:
                    certificate = intersection_point(
                        combo.point, combo.lam, comb_x.rows, combo.kappa, comb_y.rows,
                        calls, t + 1,
                    )
                    break

    trace.final_points = points
    trace.final_objective = problem.value(points)
    state = AlmState(
        set_p=set_p, set_q=set_q, x=points[0], y=points[1], t=len(trace.rows) // 2,
        seen_p=comb_x.rows, seen_q=comb_y.rows, lmo_calls=calls,
        comb_x=comb_x, comb_y=comb_y,
    )
    if contact:  # x as the combination of each block's store
        certificate = intersection_point(points[0], comb_x.weights, comb_x.rows,
                                         comb_y.weights, comb_y.rows, calls, state.t)
    elif not adaptive:  # alm_run decides after its last sweep; adaptive_run at checkpoints
        certificate = certify_disjoint_free(state)
    return AlmResult(certificate or Undecided(math.sqrt(best_dsq), calls, state.t), trace, state)


def alm_run(
    set_p: OracleSet,
    set_q: OracleSet,
    rule: StepRule,
    max_iters: int,
    start: tuple[Array, Array] | None = None,
    *,
    keep_points: bool = False,
    stop_on_contact: bool = True,
) -> AlmResult:
    """Run the alternating solver for up to ``max_iters`` iterations, then decide.

    The verdict: contact (tested before each sweep and after the last,
    and stopped on when ``stop_on_contact`` is set) gives an
    intersection point over the stores; otherwise the separation test
    at the final direction (``certify_disjoint_free``, two uncharged LMO
    calls) gives a disjointness certificate; otherwise the run is
    undecided at its smallest gap.  With ``keep_points`` the trace holds
    every iterate, from which per-iterate probes such as
    ``support_gap`` along x_t - y_t can be read off.
    """
    return _alternate(set_p, set_q, rule, max_iters, start, False,
                      keep_points=keep_points, stop_on_contact=stop_on_contact)


def dual_quantity(state: AlmState) -> float:
    """||x - y||^2 - min_{x' in P, y' in Q} <x - y, x' - y'>; two LMO calls.

    Always nonnegative, and an upper bound on ||x - y||^2 - dist(P, Q)^2.
    """
    d = state.x - state.y
    return float(np.dot(d, d)) - support_gap(state.set_p, state.set_q, d)


def disjointness_threshold(t: int, d_p: float, d_q: float, rule: StepRule) -> float:
    """Largest ||x_t - y_t||^2 consistent with intersecting sets at iteration t."""
    if not (d_p > 0.0 and d_q > 0.0):
        raise GeometryError("diameters must be positive")
    if rule is StepRule.AGNOSTIC:
        return 4.0 * RATE_CONSTANT * (d_p ** 2 + d_q ** 2) / (t + 2)
    return 16.0 / (t + 4) * ((d_p + d_q) * max(d_p, d_q) + 2.0 * (d_p ** 2 + d_q ** 2))


def threshold_exceeded(dist_sq: float, t: int, d_p: float, d_q: float, rule: StepRule) -> bool:
    """Strict comparison against the rule's threshold; equality does not certify."""
    return dist_sq > disjointness_threshold(t, d_p, d_q, rule)


def certify_disjoint_parameterized(
    state: AlmState, d_p: float, d_q: float, rule: StepRule
) -> bool:
    """True only if the iterate gap provably exceeds any intersecting run.

    Sound: a True answer implies P and Q are disjoint, provided d_p and
    d_q upper-bound the true diameters and ``rule`` matches the run.
    """
    d = state.x - state.y
    return threshold_exceeded(float(np.dot(d, d)), state.t, d_p, d_q, rule)


def certificate_tolerance(gap_norm: float, d_p: float, d_q: float) -> float:
    """Scale-aware guard for strict positivity of the separation margin.

    Never below MARGIN_FLOOR = 1e-10, its value at zero norm and diameters,
    since ``gap_norm * (d_p + d_q)`` is nonnegative (or NaN, which no margin
    beats).
    """
    return 1e-10 * (1.0 + gap_norm * (d_p + d_q))


MARGIN_FLOOR = certificate_tolerance(0.0, 0.0, 0.0)


def separates(g: Array, margin: float, d_p: float, d_q: float) -> bool:
    """The separation test: ``margin`` = min_{x in P, y in Q} <g, x - y> beats
    rounding noise, so the hyperplane normal to g separates P and Q.

    False for every margin at or below MARGIN_FLOOR, whatever the diameters,
    so a caller may skip measuring them until a margin exceeds it.
    """
    return margin > certificate_tolerance(euclidean_norm(g), d_p, d_q)


def certify_disjoint_free(state: AlmState) -> Disjoint | None:
    """Parameter-free certificate from the current direction x - y.

    Computes m = min_{x in P, y in Q} <x_t - y_t, x - y> with two LMO
    calls; m > 0 (beyond rounding noise) proves the sets disjoint.
    """
    g = state.x - state.y
    m = support_gap(state.set_p, state.set_q, g)
    if m > MARGIN_FLOOR and separates(g, m, state.set_p.diameter(), state.set_q.diameter()):
        return Disjoint(g.copy(), m, state.lmo_calls, state.t)
    return None


def intersection_point(point, weights_p, rows_p, weights_q, rows_q,
                       lmo_calls: int, iterations: int) -> IntersectionPoint:
    """Every ``IntersectionPoint`` is built here, owning copies of its arrays.

    ``point`` is the witnessed common point; ``weights_p`` over ``rows_p``
    and ``weights_q`` over ``rows_q`` recombine to it on each side.
    """
    return IntersectionPoint(
        point=np.array(point, dtype=float),
        weights_p=np.array(weights_p, dtype=float),
        support_p=[np.array(s, dtype=float) for s in rows_p],
        weights_q=np.array(weights_q, dtype=float),
        support_q=[np.array(s, dtype=float) for s in rows_q],
        lmo_calls=lmo_calls,
        iterations=iterations,
    )


def adaptive_run(
    set_p: OracleSet,
    set_q: OracleSet,
    rule: StepRule,
    max_iters: int,
    start: tuple[Array, Array] | None = None,
) -> AlmResult:
    """Adaptive solver: alternate, and at t = 2^k test both certificates.

    At each checkpoint the separation margin is probed first (two LMO
    calls, one of which is reused as the next iteration's first call);
    if it does not certify disjointness and the stores have grown,
    ``hull_meet`` decides whether the hulls of the two stores meet,
    resuming from the previous checkpoint's support (charged as one LMO
    call).  A meet yields an exact common point; a separation, a stall
    or its step limit lets the run go on.  Runs on any geometry; the
    hull route is exact for polytopes.
    """
    return _alternate(set_p, set_q, rule, max_iters, start, True)
