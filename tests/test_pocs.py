import numpy as np
import pytest

from setmeet import (
    Ball,
    Box,
    GeometryError,
    ProjectionUnsupported,
    Simplex,
    VPolytope,
    check_pocs_rate,
    pocs_certificate,
    pocs_run,
)
from setmeet.instances import POCS_INSTANCES


def run_instance(inst, max_iters=400):
    return pocs_run(
        inst.set_p,
        inst.set_q,
        np.array(inst.y0, dtype=float),
        max_iters,
        d_known=None if inst.d_hat is None else np.array(inst.d_hat),
    )


class TestRun:
    def test_separated_balls_collinear_limit(self):
        trace = pocs_run(
            Ball([0, 0], 1.0), Ball([3, 0], 1.0), np.array([3.0, 0.0]), 100,
            d_known=np.array([1.0, 0.0]),
        )
        last = trace.rows[-1]
        assert np.allclose(last.x, [1.0, 0.0], atol=1e-12)
        assert np.allclose(last.y, [2.0, 0.0], atol=1e-12)
        # Offset between the limits points from the P side to the Q side.
        assert np.allclose(last.y - last.x, trace.d_hat, atol=1e-12)

    def test_overlapping_balls_reach_intersection(self):
        p, q = Ball([0, 0], 1.0), Ball([1, 0], 1.0)
        trace = pocs_run(p, q, np.array([1.0, 1.0]), 4000)
        last = trace.rows[-1]
        assert last.distance_sq <= 1e-12
        assert p.contains(last.x, tol=1e-6)
        assert q.contains(last.x, tol=1e-6)

    def test_start_inside_intersection_is_fixed_point(self):
        p, q = Box([0, 0], [2, 2]), Box([1, 1], [3, 3])
        trace = pocs_run(p, q, np.array([1.5, 1.5]), 50)
        assert trace.converged
        assert len(trace.rows) == 1
        assert trace.rows[0].residual == 0.0
        assert trace.rows[0].distance_sq == 0.0

    def test_rejects_an_empty_budget(self):
        with pytest.raises(GeometryError, match="max_iters"):
            pocs_run(Ball([0, 0], 1.0), Ball([1, 0], 1.0), np.zeros(2), 0)

    def test_unsupported_geometry_redirects(self):
        with pytest.raises(ProjectionUnsupported, match="LMO-based"):
            pocs_run(
                VPolytope([[0, 0], [1, 0]]), Box([0, 0], [1, 1]),
                np.array([0.0, 0.0]), 10,
            )

    def test_iterates_feasible(self):
        for inst in POCS_INSTANCES:
            trace = run_instance(inst, 50)
            for row in trace.rows:
                assert inst.set_p.contains(row.x, tol=1e-9)
                assert inst.set_q.contains(row.y, tol=1e-9)


class TestCertificate:
    def test_intersection_is_its_own_combination(self):
        # A thin lens: the run ends with x != y, and x in both balls.
        p, q = Ball([0, 0], 1.0), Ball([1.99, 0], 1.0)
        trace = pocs_run(p, q, np.array([1.0, 2.0]), 1000)
        assert not np.array_equal(trace.rows[-1].x, trace.rows[-1].y)
        cert = pocs_certificate(p, q, trace)
        assert cert.verdict == "intersection"
        assert p.contains(cert.point) and q.contains(cert.point)
        for weights, support in ((cert.weights_p, cert.support_p),
                                 (cert.weights_q, cert.support_q)):
            assert np.array_equal(np.array(support).T @ weights, cert.point)


class TestRateBounds:
    @pytest.mark.parametrize("inst", POCS_INSTANCES, ids=lambda i: i.name)
    def test_instance_bounds_hold(self, inst):
        trace = run_instance(inst)
        report = check_pocs_rate(trace, inst.dist_y0)
        assert report.passed, report.violations[:3]
        assert report.rows["mean residual"]
        if inst.intersecting:
            assert report.rows["gap"]

    def test_close_start_between_separated_balls(self):
        # y0 = (2.5, 0) sits at distance 0.5 from Q_min = {(2, 0)}.
        trace = pocs_run(
            Ball([0, 0], 1.0), Ball([3, 0], 1.0), np.array([2.5, 0.0]), 200,
            d_known=np.array([1.0, 0.0]),
        )
        report = check_pocs_rate(trace, 0.5)
        assert report.passed

    def test_trivial_start_in_intersection(self):
        p, q = Box([0, 0], [2, 2]), Box([1, 1], [3, 3])
        trace = pocs_run(p, q, np.array([1.5, 1.5]), 20)
        report = check_pocs_rate(trace, 0.0)
        assert report.passed
        assert report.rows["mean residual"][0].measured == 0.0

    def test_fabricated_violation_flagged(self):
        p, q = Box([0, 0], [2, 2]), Box([1, 1], [3, 3])
        trace = pocs_run(p, q, np.array([0.0, 0.0]), 20)
        report = check_pocs_rate(trace, 0.0)  # lie: claim zero start distance
        assert not report.passed


class TestTraceProperties:
    @pytest.mark.parametrize("inst", POCS_INSTANCES, ids=lambda i: i.name)
    def test_projection_inequality_along_trace(self, inst):
        trace = run_instance(inst, 80)
        for geom in (inst.set_p, inst.set_q):
            for row in trace.rows:
                x, y = row.x, row.y
                px, py = geom.project(x), geom.project(y)
                lhs = np.dot(x - y, x - y)
                rhs = np.dot(px - py, px - py) + np.dot(
                    x - px - y + py, x - px - y + py
                )
                assert lhs >= rhs - 1e-9

    def test_min_distance_inequality_along_traces(self):
        # <x - y, d> >= dist(P, Q)^2 for feasible pairs, with d the
        # closest-point offset.
        for inst in POCS_INSTANCES:
            if inst.d_hat is None:
                continue
            d = -np.array(inst.d_hat)  # offset from Q towards P is -d_hat
            dist_sq = float(np.dot(d, d))
            trace = run_instance(inst, 80)
            for row in trace.rows:
                assert np.dot(row.x - row.y, d) >= dist_sq - 1e-9

    def test_monotone_distance_to_q_min(self):
        for inst in POCS_INSTANCES:
            z2 = np.array(inst.q_min_point, dtype=float)
            trace = run_instance(inst, 120)
            dists = [float(np.linalg.norm(trace.y0 - z2))]
            dists += [float(np.linalg.norm(row.y - z2)) for row in trace.rows]
            for a, b in zip(dists, dists[1:]):
                assert b <= a + 1e-12

    def test_gap_monotone_when_intersecting(self):
        for inst in POCS_INSTANCES:
            if not inst.intersecting:
                continue
            trace = run_instance(inst, 200)
            gaps = [row.distance_sq for row in trace.rows]
            for a, b in zip(gaps, gaps[1:]):
                assert b <= a + 1e-12
