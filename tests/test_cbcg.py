import dataclasses
import math

import numpy as np
import pytest

from setmeet import (
    Ball,
    BlockProblem,
    Box,
    InfeasibleStart,
    IterateTrace,
    NumericsError,
    Simplex,
    StepRule,
    TraceRow,
    VPolytope,
    cbcg_run,
    check_rate_bounds,
    distance_problem,
    full_gap,
)
from setmeet.instances import block_instances
from helpers import fd_gradient_check, vanilla_fw


def quadratic_problem(blocks, targets, lipschitz=2.0):
    cs = [np.asarray(c, dtype=float) for c in targets]

    def value(points):
        return float(sum(np.dot(p - c, p - c) for p, c in zip(points, cs)))

    def grad_block(points, i):
        return 2.0 * (points[i] - cs[i])

    return BlockProblem(blocks, value, grad_block, lipschitz, [2.0] * len(blocks))


def simplex_center_problem():
    return quadratic_problem([Simplex(3, 1.0)], [(1 / 3, 1 / 3, 1 / 3)])


class TestRun:
    def test_one_dimensional_hand_trace(self):
        problem = quadratic_problem([Box([0.0], [1.0])], [(0.0,)])
        trace = cbcg_run(problem, [np.array([1.0])], StepRule.AGNOSTIC, 5)
        first = trace.rows[0]
        assert first.objective == 1.0
        assert first.gamma == 1.0
        assert first.block_gap == 2.0
        for row in trace.rows[1:]:
            assert row.objective == 0.0
        assert trace.final_objective == 0.0

    def test_k1_matches_vanilla_frank_wolfe_exactly(self):
        problem = simplex_center_problem()
        start = np.array([1.0, 0.0, 0.0])
        trace = cbcg_run(problem, [start], StepRule.AGNOSTIC, 80)
        rows, final = vanilla_fw(
            problem.blocks[0],
            lambda x: problem.value([x]),
            lambda x: problem.grad_block([x], 0),
            start,
            80,
        )
        assert len(rows) == len(trace.rows)
        for (t, obj, gap, gamma), row in zip(rows, trace.rows):
            assert row.t == t
            assert row.objective == obj
            assert row.block_gap == gap
            assert row.gamma == gamma
        assert np.array_equal(trace.final_points[0], final)

    def test_k1_simplex_rate(self):
        problem = simplex_center_problem()
        trace = cbcg_run(problem, [np.array([1.0, 0.0, 0.0])], StepRule.AGNOSTIC, 200)
        for s in range(trace.sweeps + 1):
            assert trace.objective_at_sweep(s) <= 8.0 * 2.0 / (s + 2)

    def test_lmo_call_accounting(self):
        problem = quadratic_problem([Box([0, 0], [1, 1]), Ball([0, 0], 1.0)], [(2, 2), (0, 3)])
        trace = cbcg_run(problem, [np.zeros(2), np.zeros(2)], StepRule.AGNOSTIC, 10)
        assert [row.lmo_calls for row in trace.rows] == list(range(1, 21))

    def test_infeasible_start_rejected(self):
        problem = simplex_center_problem()
        with pytest.raises(InfeasibleStart):
            cbcg_run(problem, [np.array([1.0, 1.0, 1.0])], StepRule.AGNOSTIC, 5)

    def test_nonfinite_objective_reports_iteration(self):
        def value(points):
            return math.nan

        def grad_block(points, i):
            return np.zeros(2)

        problem = BlockProblem([Box([0, 0], [1, 1])], value, grad_block, 1.0, [1.0])
        with pytest.raises(NumericsError, match="iteration 0"):
            cbcg_run(problem, [np.zeros(2)], StepRule.AGNOSTIC, 3)

    def test_short_step_monotone(self):
        for inst in block_instances():
            starts = [np.array(s, dtype=float) for s in inst.start]
            trace = cbcg_run(inst.problem, starts, StepRule.SHORT_STEP, 40)
            objectives = [row.objective for row in trace.rows] + [trace.final_objective]
            for a, b in zip(objectives, objectives[1:]):
                assert b <= a + 1e-12

    def test_barycentric_weights_stay_convex(self):
        poly = VPolytope([[0, 0], [3, 0], [0, 3], [2, 2]])
        problem = quadratic_problem([poly], [(1.0, 1.2)])
        trace = cbcg_run(problem, [np.array([0.0, 0.0])], StepRule.AGNOSTIC, 200)
        comb = trace.combinations[0]
        weights = np.array(comb.weights)
        assert weights.min() >= 0.0
        assert weights.max() <= 1.0
        assert float(weights.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(comb.combination(), trace.final_points[0], atol=1e-12)

    def test_iterates_stay_feasible(self):
        for inst in block_instances():
            starts = [np.array(s, dtype=float) for s in inst.start]
            trace = cbcg_run(inst.problem, starts, StepRule.AGNOSTIC, 30, keep_points=True)
            for points in trace.points[:: 7]:
                for blk, p in zip(inst.problem.blocks, points):
                    assert blk.contains(p, tol=1e-8)


class TestFullGap:
    def test_zero_at_minimizer(self):
        problem = simplex_center_problem()
        center = np.array([1 / 3, 1 / 3, 1 / 3])
        assert full_gap(problem, [center]) == pytest.approx(0.0, abs=1e-9)

    def test_two_block_brute_force_over_corners(self):
        problem = distance_problem(Box([0, 0], [1, 1]), Box([0, 0], [1, 1]))
        x = np.array([0.0, 0.0])
        y = np.array([1.0, 1.0])
        corners = [np.array([a, b], dtype=float) for a in (0, 1) for b in (0, 1)]
        gx = 2.0 * (x - y)
        gy = 2.0 * (y - x)
        brute = max(np.dot(gx, x - u) for u in corners) + max(
            np.dot(gy, y - v) for v in corners
        )
        assert full_gap(problem, [x, y]) == pytest.approx(brute)
        assert brute == pytest.approx(8.0)

    def test_nonfinite_gradient_is_a_numerics_error(self):
        problem = BlockProblem(
            [Box([0, 0], [1, 1])], lambda pts: 0.0, lambda pts, i: np.array([math.nan, 0.0]),
            1.0, [1.0],
        )
        with pytest.raises(NumericsError, match="non-finite gradient in block 0"):
            full_gap(problem, [np.zeros(2)])

    def test_linear_objective_zero_at_lmo_point(self):
        c = np.array([1.0, -2.0])
        poly = VPolytope([[0, 0], [1, 0], [0, 1]])

        problem = BlockProblem(
            [poly],
            lambda pts: float(np.dot(c, pts[0])),
            lambda pts, i: c,
            1.0,
            [1.0],
        )
        assert full_gap(problem, [poly.lmo(c)]) == pytest.approx(0.0, abs=1e-12)

    def test_dominates_primal_gap(self):
        for inst in block_instances():
            starts = [np.array(s, dtype=float) for s in inst.start]
            trace = cbcg_run(inst.problem, starts, StepRule.AGNOSTIC, 25, keep_points=True)
            for points in trace.points[:: 5]:
                gap = full_gap(inst.problem, points)
                assert gap >= inst.problem.value(points) - inst.fstar - 1e-9


class TestRateBounds:
    def test_simplex_instance_passes(self):
        problem = simplex_center_problem()
        trace = cbcg_run(
            problem, [np.array([1.0, 0.0, 0.0])], StepRule.AGNOSTIC, 150,
            record_full_gap=True,
        )
        report = check_rate_bounds(trace, problem, 0.0)
        assert report.passed
        assert len(report.rows["primal"]) == 150
        assert report.rows["min gap"]

    def test_fabricated_violation_is_flagged(self):
        problem = simplex_center_problem()
        trace = IterateTrace(rule=StepRule.AGNOSTIC, k=1)
        trace.rows = [TraceRow(t, 0, 50.0, 1.0, 0.5, t + 1) for t in range(4)]
        trace.final_objective = 50.0
        report = check_rate_bounds(trace, problem, 0.0)
        assert not report.passed
        assert any("primal" in v for v in report.violations)

    def test_two_block_short_step_bound(self):
        # Distance objective between unit boxes, constants k=2, L=2, L_i=2.
        problem = dataclasses.replace(
            distance_problem(Box([0, 0], [1, 1]), Box([0, 0], [1, 1])), lipschitz=2.0
        )
        trace = cbcg_run(
            problem,
            [np.array([0.0, 0.0]), np.array([1.0, 1.0])],
            StepRule.SHORT_STEP,
            100,
            record_full_gap=True,
        )
        report = check_rate_bounds(trace, problem, 0.0)
        assert report.passed

    def test_all_block_instances_pass_both_rules(self):
        for inst in block_instances():
            for rule in (StepRule.AGNOSTIC, StepRule.SHORT_STEP):
                starts = [np.array(s, dtype=float) for s in inst.start]
                trace = cbcg_run(inst.problem, starts, rule, inst.sweeps,
                                 record_full_gap=True)
                report = check_rate_bounds(trace, inst.problem, inst.fstar)
                assert report.passed, (inst.name, rule, report.violations[:3])


class TestGradients:
    def test_finite_differences_on_all_instances(self):
        rng = np.random.default_rng(41)
        for inst in block_instances():
            for _ in range(50):
                points = [blk.sample(rng) for blk in inst.problem.blocks]
                fd_gradient_check(inst.problem, points)
