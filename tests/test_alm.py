import collections
import math

import numpy as np
import pytest

from setmeet import (
    AlmResult,
    Ball,
    Box,
    Disjoint,
    GeometryError,
    IntersectionPoint,
    L1Ball,
    RATE_CONSTANT,
    Simplex,
    StepRule,
    Undecided,
    VPolytope,
    adaptive_run,
    alm_run,
    cbcg_run,
    certify_disjoint_free,
    certify_disjoint_parameterized,
    default_start,
    disjointness_threshold,
    distance_problem,
    dual_quantity,
    support_gap,
    threshold_exceeded,
)
from setmeet.instances import ADAPTIVE_INSTANCES, TWO_SET_INSTANCES
from setmeet.oracles import DEDUP_TOL
from helpers import (
    brute_support_gap, kept_duals, kept_margins, midpoint_gap, primal_bound, scaled_set,
)

RULES = [StepRule.AGNOSTIC, StepRule.SHORT_STEP]

SEG_P = VPolytope([[0, 0], [0, 1]])
SEG_Q = VPolytope([[2, 0], [2, 1]])


class TestRun:
    def test_unit_box_hand_trace(self):
        box = Box([0, 0], [1, 1])
        result = alm_run(
            box, box, StepRule.AGNOSTIC, 40,
            start=(np.array([0.0, 0.0]), np.array([1.0, 1.0])),
            keep_points=True,
        )
        # gamma_0 = 1: the first oracle call pulls x onto the (1,1)
        # corner, then the zero direction tie-breaks to (0,0) for y.
        r0, r1 = result.trace.rows[0], result.trace.rows[1]
        assert r0.gamma == 1.0 and r1.gamma == 1.0
        x1, y1 = result.trace.points[1]
        assert np.array_equal(x1, [1.0, 1.0])
        assert np.array_equal(y1, [0.0, 0.0])
        assert result.distance_sq[0] == 2.0
        assert result.distance_sq[1] == 2.0
        assert result.distance_sq[-1] <= 1e-2
        d_p = d_q = box.diameter()
        for t, dsq in enumerate(result.distance_sq):
            assert dsq / 4.0 <= primal_bound(StepRule.AGNOSTIC, t, d_p, d_q, 0.0) + 1e-9

    def test_disjoint_balls_converge_to_distance(self):
        p, q = Ball([0, 0], 1.0), Ball([3, 0], 1.0)
        result = alm_run(p, q, StepRule.AGNOSTIC, 3000)
        assert result.distance_sq[-1] == pytest.approx(1.0, abs=1e-3)
        for t, dsq in enumerate(result.distance_sq):
            assert dsq / 4.0 <= primal_bound(StepRule.AGNOSTIC, t, 2.0, 2.0, 1.0) + 1e-9

    def test_singleton_contact(self):
        point = VPolytope([[5.0, 5.0]])
        result = alm_run(point, point, StepRule.AGNOSTIC, 10)
        assert isinstance(result.certificate, IntersectionPoint)
        assert result.distance_sq == [0.0]
        assert np.array_equal(result.state.x, [5.0, 5.0])

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: r.value)
    def test_matches_two_block_engine_row_for_row(self, rule):
        p = Box([0, 0], [1, 1])
        q = Box([0, 0], [1, 1])
        start = (np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        result = alm_run(p, q, rule, 60, start=start, stop_on_contact=False)
        trace = cbcg_run(distance_problem(p, q), list(start), rule, 60)
        assert len(result.trace.rows) == len(trace.rows)
        for mine, theirs in zip(result.trace.rows, trace.rows):
            assert mine == theirs
        assert np.array_equal(result.trace.final_points[0], trace.final_points[0])
        assert np.array_equal(result.trace.final_points[1], trace.final_points[1])

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: r.value)
    def test_engine_equivalence_on_mixed_geometry(self, rule):
        p = VPolytope([[0, 0], [2, 0], [0, 2]])
        q = Ball([3, 1], 0.5)
        start = default_start(p, q)
        result = alm_run(p, q, rule, 80, start=start, stop_on_contact=False)
        trace = cbcg_run(distance_problem(p, q), list(start), rule, 80)
        for mine, theirs in zip(result.trace.rows, trace.rows):
            assert mine == theirs

    def test_default_start_deterministic(self):
        p, q = Ball([0, 0], 1.0), Ball([3, 0], 1.0)
        a = alm_run(p, q, StepRule.AGNOSTIC, 5)
        b = alm_run(p, q, StepRule.AGNOSTIC, 5)
        assert a.distance_sq == b.distance_sq
        assert a.state.lmo_calls == b.state.lmo_calls == 2 + 10

    def test_infeasible_start_rejected(self):
        with pytest.raises(GeometryError):
            alm_run(
                Box([0, 0], [1, 1]), Box([0, 0], [1, 1]), StepRule.AGNOSTIC, 5,
                start=(np.array([2.0, 2.0]), np.array([0.0, 0.0])),
            )

    def test_midpoint_within_half_gap(self):
        p, q = Ball([0, 0], 1.0), Box([1.5, -1], [3, 1])
        result = alm_run(p, q, StepRule.SHORT_STEP, 200, keep_points=True)
        gaps = [midpoint_gap(p, q, x, y) for x, y in result.trace.points]
        for dsq, mid in zip(result.distance_sq, gaps):
            assert mid <= math.sqrt(dsq) / 2.0 + 1e-12

    def test_seen_vertices_cover_iterates(self):
        p = VPolytope([[0, 0], [2, 0], [0, 2]])
        q = VPolytope([[1, 1], [3, 1]])
        result = alm_run(p, q, StepRule.AGNOSTIC, 50)
        x = result.state.comb_x.combination()
        assert np.allclose(x, result.state.x, atol=1e-12)
        weights = np.array(result.state.comb_x.weights)
        assert weights.min() >= 0.0 and float(weights.sum()) == pytest.approx(1.0, abs=1e-12)


class TestRecord:
    def test_default_run_charges_every_oracle_call(self, monkeypatch):
        # The run's own 2 + 2 * 500 calls, plus the two of the closing
        # separation test; no per-iterate probe and no projection.
        counts = {"lmo": 0, "project": 0}
        for name in counts:
            method = getattr(Ball, name)

            def counted(self, z, _method=method, _name=name):
                counts[_name] += 1
                return _method(self, z)

            monkeypatch.setattr(Ball, name, counted)
        result = alm_run(Ball([0, 0], 1), Ball([3, 0], 1), StepRule.SHORT_STEP, 500)
        assert result.state.lmo_calls == 1002
        assert counts == {"lmo": 1002 + 2, "project": 0}
        assert isinstance(result.certificate, Disjoint)

    @pytest.mark.parametrize("run", [alm_run, adaptive_run], ids=lambda run: run.__name__)
    def test_diameters_only_when_a_margin_can_certify(self, monkeypatch, run):
        # Below the 1e-10 floor no margin separates, so only disjoint runs
        # measure diameters, each set's at most once.
        counts = collections.Counter()
        for cls in (Box, Ball, Simplex, L1Ball, VPolytope):
            def counted(self, _method=cls.diameter):
                counts[id(self)] += 1
                return _method(self)

            monkeypatch.setattr(cls, "diameter", counted)
        cases = [(inst.set_p, inst.set_q, inst.intersecting) for inst in TWO_SET_INSTANCES]
        cases += [(inst.set_p, inst.set_q, True) for inst in ADAPTIVE_INSTANCES]
        for set_p, set_q, intersecting in cases:
            for rule in RULES:
                counts.clear()
                result = run(set_p, set_q, rule, 300)
                per_set = [counts[id(set_p)], counts[id(set_q)]]
                assert sum(counts.values()) == sum(per_set)
                if intersecting:
                    assert per_set == [0, 0]
                else:
                    assert isinstance(result.certificate, Disjoint)
                    assert max(per_set) <= 1

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: r.value)
    @pytest.mark.parametrize("inst", TWO_SET_INSTANCES, ids=lambda inst: inst.name)
    def test_distance_sq_is_the_kept_iterates_gap(self, inst, rule):
        result = alm_run(inst.set_p, inst.set_q, rule, 50, keep_points=True)
        assert len(result.distance_sq) == len(result.trace.points)
        for dsq, (x, y) in zip(result.distance_sq, result.trace.points):
            assert dsq == float(np.dot(x - y, x - y))

    def test_verdicts(self):
        assert isinstance(alm_run(SEG_P, SEG_Q, StepRule.AGNOSTIC, 60).certificate, Disjoint)
        result = alm_run(Ball([0, 0], 1.0), Ball([2.05, 0], 1.0), StepRule.AGNOSTIC, 1)
        cert = result.certificate
        assert isinstance(cert, Undecided)
        assert cert.best_distance == math.sqrt(min(result.distance_sq)) > 0.05
        point = VPolytope([[5.0, 5.0]])
        cert = alm_run(point, point, StepRule.AGNOSTIC, 10).certificate
        assert isinstance(cert, IntersectionPoint)
        assert cert.iterations == 0 and cert.lmo_calls == 2
        assert np.array_equal(np.array(cert.support_p).T @ cert.weights_p, cert.point)


class TestDualQuantity:
    def test_contact_state_equals_negated_support_gap(self):
        box = Box([0, 0], [1, 1])
        result = alm_run(box, box, StepRule.AGNOSTIC, 3)
        state = result.state
        state.x = state.y = np.array([0.5, 0.5])
        value = dual_quantity(state)
        assert value == pytest.approx(-support_gap(box, box, np.zeros(2)), abs=1e-12)
        assert value >= 0.0

    def test_optimal_pair_on_separated_segments(self):
        result = alm_run(SEG_P, SEG_Q, StepRule.AGNOSTIC, 2)
        state = result.state
        state.x = np.array([0.0, 0.5])
        state.y = np.array([2.0, 0.5])
        assert dual_quantity(state) == pytest.approx(0.0, abs=1e-12)

    def test_running_min_obeys_dual_rate(self):
        p, q = Box([0, 0], [2, 2]), Box([1, 1], [3, 3])
        result = alm_run(p, q, StepRule.AGNOSTIC, 1000, keep_points=True)
        d_sum = p.diameter() ** 2 + q.diameter() ** 2
        duals = kept_duals(p, q, result)
        for big_t in (10, 100, 1000):
            available = duals[1 : min(big_t, len(duals) - 1) + 1]
            assert min(available) <= 6.75 * RATE_CONSTANT * d_sum / (big_t + 2) + 1e-9


class TestParameterizedCertificate:
    def test_intersecting_boxes_never_fire(self):
        p, q = Box([0, 0], [2, 2]), Box([1, 1], [3, 3])
        result = alm_run(p, q, StepRule.AGNOSTIC, 500)
        d_p, d_q = p.diameter(), q.diameter()
        for t, dsq in enumerate(result.distance_sq):
            assert not threshold_exceeded(dsq, t, d_p, d_q, StepRule.AGNOSTIC)
        assert not certify_disjoint_parameterized(result.state, d_p, d_q, StepRule.AGNOSTIC)

    def test_separated_balls_fire_within_budget(self):
        p, q = Ball([0, 0], 1.0), Ball([3, 0], 1.0)
        budget_calls = 8.0 * RATE_CONSTANT * 8.0 / 1.0  # about 245
        result = alm_run(p, q, StepRule.AGNOSTIC, 130)
        fired = [
            2 * t
            for t, dsq in enumerate(result.distance_sq)
            if threshold_exceeded(dsq, t, 2.0, 2.0, StepRule.AGNOSTIC)
        ]
        assert fired and fired[0] <= budget_calls

    def test_equality_does_not_certify(self):
        thr = disjointness_threshold(7, 1.5, 2.0, StepRule.AGNOSTIC)
        assert not threshold_exceeded(thr, 7, 1.5, 2.0, StepRule.AGNOSTIC)
        thr = disjointness_threshold(7, 1.5, 2.0, StepRule.SHORT_STEP)
        assert not threshold_exceeded(thr, 7, 1.5, 2.0, StepRule.SHORT_STEP)

    def test_rejects_bad_diameters(self):
        with pytest.raises(GeometryError):
            disjointness_threshold(3, 0.0, 1.0, StepRule.AGNOSTIC)

    def test_short_step_soundness_on_intersecting_sets(self):
        p, q = Ball([0, 0], 1.0), Ball([1, 0], 1.0)
        result = alm_run(p, q, StepRule.SHORT_STEP, 300)
        for t, dsq in enumerate(result.distance_sq):
            assert not threshold_exceeded(dsq, t, 2.0, 2.0, StepRule.SHORT_STEP)


class TestFreeCertificate:
    def test_separated_segments_margin(self):
        result = alm_run(SEG_P, SEG_Q, StepRule.AGNOSTIC, 60)
        cert = certify_disjoint_free(result.state)
        assert isinstance(cert, Disjoint)
        assert cert.margin == pytest.approx(4.0, rel=0.2)
        # Independent soundness check against analytic support functions.
        assert brute_support_gap(SEG_P, SEG_Q, cert.direction) > 0.0

    def test_contact_direction_gives_nothing(self):
        box = Box([0, 0], [1, 1])
        result = alm_run(box, box, StepRule.AGNOSTIC, 3)
        state = result.state
        state.x = state.y = np.array([0.25, 0.75])
        assert certify_disjoint_free(state) is None

    def test_intersecting_sets_never_certify(self):
        p, q = Ball([0, 0], 1.0), Box([0, -2], [3, 2])
        result = alm_run(p, q, StepRule.AGNOSTIC, 200, keep_points=True)
        margin = kept_margins(p, q, result)
        for t in range(len(margin)):
            assert margin[t] <= 1e-12


class TestAdaptive:
    def test_triangle_segment_recovers_touch_point(self):
        cert = adaptive_run(
            VPolytope([[0, 0], [2, 0], [0, 2]]),
            VPolytope([[1, 1], [3, 1]]),
            StepRule.AGNOSTIC,
            200,
        ).certificate
        assert isinstance(cert, IntersectionPoint)
        assert np.allclose(cert.point, [1.0, 1.0], atol=1e-7)
        # Certificate invariants: valid convex combinations on both sides.
        for weights, support in (
            (cert.weights_p, cert.support_p),
            (cert.weights_q, cert.support_q),
        ):
            assert weights.min() >= -1e-10
            assert float(weights.sum()) == pytest.approx(1.0, abs=1e-9)
            recombined = np.array(support).T @ weights
            assert np.linalg.norm(recombined - cert.point) <= 1e-7

    def test_disjoint_segments_within_budget(self):
        budget = 16.0 * RATE_CONSTANT * (1.0 + 1.0) * (2.0**2) / (2.0**4)
        cert = adaptive_run(SEG_P, SEG_Q, StepRule.AGNOSTIC, 500).certificate
        assert isinstance(cert, Disjoint)
        assert cert.lmo_calls <= budget
        assert brute_support_gap(SEG_P, SEG_Q, cert.direction) == pytest.approx(
            cert.margin, abs=1e-9
        )

    def test_identical_singletons_immediate(self):
        point = VPolytope([[5.0, 5.0]])
        cert = adaptive_run(point, point, StepRule.AGNOSTIC, 50).certificate
        assert isinstance(cert, IntersectionPoint)
        assert np.array_equal(cert.point, [5.0, 5.0])
        assert cert.iterations == 0

    def test_budget_exhaustion_is_undecided(self):
        # One iteration is too few for any 2^k checkpoint to run.
        cert = adaptive_run(
            Ball([0, 0], 1.0), Ball([2.1, 0], 1.0), StepRule.AGNOSTIC, 1
        ).certificate
        assert isinstance(cert, Undecided)
        assert cert.best_distance > 0.0

    def test_lp_point_verified_by_membership(self):
        p = VPolytope([[0, 0], [2, 0], [2, 2], [0, 2]])
        q = VPolytope([[1, 1], [3, 1], [3, 3], [1, 3]])
        cert = adaptive_run(p, q, StepRule.AGNOSTIC, 500).certificate
        assert isinstance(cert, IntersectionPoint)
        assert p.contains(cert.point, tol=1e-9)
        assert q.contains(cert.point, tol=1e-9)

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: r.value)
    def test_ball_geometries_also_certify(self, rule):
        cert = adaptive_run(Ball([0, 0], 1.0), Ball([3, 0], 1.0), rule, 2000).certificate
        assert isinstance(cert, Disjoint)
        assert brute_support_gap(Ball([0, 0], 1.0), Ball([3, 0], 1.0), cert.direction) > 0.0

    def test_trace_counter_strictly_increasing(self):
        _cert, trace, _state = adaptive_run(SEG_P, SEG_Q, StepRule.AGNOSTIC, 200)
        calls = [row.lmo_calls for row in trace.rows]
        assert all(b > a for a, b in zip(calls, calls[1:]))


@pytest.mark.parametrize("run", [alm_run, adaptive_run], ids=lambda f: f.__name__)
@pytest.mark.parametrize("sets", [
    (VPolytope([[0, 0], [2, 0], [0, 2]]), VPolytope([[1, 1], [3, 1]])),
    (SEG_P, SEG_Q),
], ids=["intersecting", "disjoint"])
def test_both_solvers_return_an_alm_result(run, sets):
    result = run(*sets, StepRule.AGNOSTIC, 200)
    assert isinstance(result, AlmResult)
    cert, trace, state = result
    assert cert is result.certificate and trace is result.trace and state is result.state
    assert result[2] is result.state and result.certificate is result[0]
    assert result.distance_sq[-1] == trace.final_objective


class TestShortStepBound:
    def test_primal_bound_on_full_suite(self):
        from setmeet.instances import TWO_SET_INSTANCES

        for inst in TWO_SET_INSTANCES:
            result = alm_run(inst.set_p, inst.set_q, StepRule.SHORT_STEP, 400)
            d_p, d_q = inst.set_p.diameter(), inst.set_q.diameter()
            for t, dsq in enumerate(result.distance_sq):
                assert dsq / 4.0 <= primal_bound(
                    StepRule.SHORT_STEP, t, d_p, d_q, inst.distance
                ) + 1e-9, (inst.name, t)


class TestSeenVertexRecovery:
    def test_feasible_once_gap_below_subhull_threshold(self):
        # Once ||x_t - y_t|| drops below the smallest disjoint sub-hull
        # distance, the hulls of the seen vertices must intersect.
        from setmeet import epsilon_pq, solve_feasibility
        from setmeet.feasibility import FeasibilityProgram

        rng = np.random.default_rng(51)
        checked = 0
        for trial in range(10):
            p = VPolytope(rng.uniform(-1, 1, size=(3, 2)))
            q = VPolytope(rng.uniform(-1, 1, size=(3, 2)))
            eps = epsilon_pq(p, q)
            if math.isinf(eps):
                continue
            probe = alm_run(p, q, StepRule.AGNOSTIC, 400)
            t_star = next(
                (t for t, dsq in enumerate(probe.distance_sq) if math.sqrt(dsq) < eps),
                None,
            )
            if t_star is None or t_star == 0:
                continue
            replay = alm_run(p, q, StepRule.AGNOSTIC, t_star)
            combo = solve_feasibility(
                FeasibilityProgram(np.array(replay.state.seen_p),
                                   np.array(replay.state.seen_q))
            )
            assert combo is not None, trial
            checked += 1
        assert checked >= 4


@pytest.mark.parametrize("k", [22, 28])
def test_large_scales_raise_nothing(k):
    """Every instance scaled by 2**k: no error and no false verdict, under both rules.

    When the phase-1 simplex decided checkpoints, its 1e-8 residual check
    raised RuntimeError('feasible basis with residual ...') on 1 of these
    30 runs at 2**22 (ball-box-overlap, agnostic) and on 4 at 2**28
    (ball-ball-overlap and ball-box-overlap, both rules).  Wolfe's
    decider raises on none.  At 2**28 five intersecting runs end
    undecided instead (box-box-touch, ball-ball-overlap and tri-seg-touch
    agnostic, ball-box-overlap both rules): the residual bound is
    absolute, so a meet read off at that scale is rejected.
    """
    for inst in TWO_SET_INSTANCES:
        p, q = scaled_set(inst.set_p, k), scaled_set(inst.set_q, k)
        truth = "intersection" if inst.intersecting else "disjoint"
        for rule in RULES:
            verdict = adaptive_run(p, q, rule, 300).certificate.verdict
            assert verdict in (truth, "undecided"), (inst.name, rule)


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.value)
@pytest.mark.parametrize("inst", TWO_SET_INSTANCES, ids=lambda inst: inst.name)
def test_adaptive_run_is_alm_run_plus_checkpoints(inst, rule):
    """Until it stops, the adaptive run takes alm_run's steps.

    The lmo_calls column differs (the adaptive count includes the start
    calls, the checkpoint probes and one call per hull_meet decision),
    and even rows carry the objective as ||x - y|| squared rather than
    <x - y, x - y>.
    """
    _cert, trace, _state = adaptive_run(inst.set_p, inst.set_q, rule, 300)
    plain = alm_run(inst.set_p, inst.set_q, rule, 300).trace
    assert len(trace.rows) <= len(plain.rows)
    for mine, theirs in zip(trace.rows, plain.rows):
        assert (mine.t, mine.block, mine.block_gap, mine.gamma) == (
            theirs.t, theirs.block, theirs.block_gap, theirs.gamma
        )
        if mine.block == 1:
            assert mine.objective == theirs.objective
        else:
            assert mine.objective == pytest.approx(theirs.objective, rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("run", [alm_run, adaptive_run], ids=lambda run: run.__name__)
@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.value)
@pytest.mark.parametrize("inst", TWO_SET_INSTANCES, ids=lambda inst: inst.name)
def test_explicit_default_start_is_the_default_run(inst, rule, run):
    """Handing the run default_start's points gives the default run bit for bit.

    Only the two start calls move: a supplied start is not charged, so the
    certificate and the state count two calls fewer, and so does
    adaptive_run's lmo_calls column, which counts the start; alm_run's
    column leaves the start out either way.
    """
    def rows(trace, shift=0):
        return np.array([(r.t, r.block, r.objective, r.block_gap, r.gamma, r.lmo_calls + shift)
                         for r in trace.rows]).tobytes()

    p, q = inst.set_p, inst.set_q
    default = run(p, q, rule, 300)
    given = run(p, q, rule, 300, start=default_start(p, q))
    assert rows(given.trace, 2 if run is adaptive_run else 0) == rows(default.trace)
    for mine, theirs in zip(given.trace.final_points, default.trace.final_points):
        assert mine.tobytes() == theirs.tobytes()
    assert given.certificate.verdict == default.certificate.verdict
    assert given.certificate.iterations == default.certificate.iterations
    assert given.certificate.lmo_calls == default.certificate.lmo_calls - 2
    assert given.state.lmo_calls == default.state.lmo_calls - 2


@pytest.mark.parametrize("runner", ["alm_run", "adaptive_run"])
@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.value)
@pytest.mark.parametrize("inst", TWO_SET_INSTANCES, ids=lambda inst: inst.name)
def test_combination_is_the_seen_store(inst, rule, runner):
    """Each block keeps one store: its seen rows, weighted to the iterate."""
    if runner == "alm_run":
        state = alm_run(inst.set_p, inst.set_q, rule, 300).state
    else:
        state = adaptive_run(inst.set_p, inst.set_q, rule, 300)[2]
    for comb, seen, point in ((state.comb_x, state.seen_p, state.x),
                              (state.comb_y, state.seen_q, state.y)):
        assert np.array_equal(np.array(comb.support), seen)
        weights = np.array(comb.weights)
        assert weights.min() >= 0.0
        assert float(weights.sum()) == pytest.approx(1.0, abs=1e-12)
        miss = float(np.linalg.norm(comb.combination() - point))
        assert miss <= DEDUP_TOL + 1e-12 * (1.0 + float(np.linalg.norm(point)))


def test_contact_reached_by_the_last_sweep_is_an_intersection():
    result = alm_run(Box([0, 0], [2, 2]), Box([1, 1], [3, 3]), StepRule.AGNOSTIC, 4)
    cert = result.certificate
    assert isinstance(cert, IntersectionPoint)
    assert (cert.iterations, cert.lmo_calls) == (4, 10)
    assert np.array_equal(cert.point, result.state.x)


@pytest.mark.parametrize("runner", ["alm_run", "adaptive_run"])
def test_budget_ending_at_contact_gives_the_same_certificate(runner):
    """Rerun at the iteration a budget-300 run stopped on, it reaches the same verdict."""
    def run(inst, rule, budget):
        if runner == "alm_run":
            return alm_run(inst.set_p, inst.set_q, rule, budget).certificate
        return adaptive_run(inst.set_p, inst.set_q, rule, budget)[0]

    checked = 0
    for inst in TWO_SET_INSTANCES:
        for rule in RULES:
            cert = run(inst, rule, 300)
            if not isinstance(cert, IntersectionPoint) or cert.iterations == 0:
                continue
            again = run(inst, rule, cert.iterations)
            where = (inst.name, rule.value)
            assert isinstance(again, IntersectionPoint), where
            assert (again.iterations, again.lmo_calls) == (cert.iterations, cert.lmo_calls), where
            for mine, theirs in ((again.point, cert.point),
                                 (again.weights_p, cert.weights_p),
                                 (again.weights_q, cert.weights_q),
                                 (again.support_p, cert.support_p),
                                 (again.support_q, cert.support_q)):
                assert np.array_equal(np.asarray(mine), np.asarray(theirs)), where
            checked += 1
    assert checked >= 8
