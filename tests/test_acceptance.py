"""End-to-end acceptance: the convergence bounds, certificate budgets,
and exact equivalences the library promises, one check per test, with
one printed summary line each (run with -s to see them).
"""

import math

import numpy as np

from setmeet import (
    IntersectionPoint,
    RATE_CONSTANT,
    StepRule,
    adaptive_run,
    alm_run,
    cbcg_run,
    certificate_tolerance,
    check_pocs_rate,
    check_rate_bounds,
    distance_problem,
    epsilon_pq,
    hull_distance,
    pocs_run,
    solve_feasibility,
    threshold_exceeded,
)
from setmeet.feasibility import FeasibilityProgram
from setmeet.instances import (
    ADAPTIVE_INSTANCES,
    POCS_INSTANCES,
    TWO_SET_INSTANCES,
    block_instances,
)
from helpers import (
    brute_support_gap,
    brute_vertex_argmin,
    fd_gradient_check,
    highs_feasible,
    kept_duals,
    kept_margins,
    random_feasibility_program,
    vanilla_fw,
)

SLACK = 1e-9


def _diams(inst):
    return inst.set_p.diameter(), inst.set_q.diameter()


def _report(ok, label, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_01_agnostic_primal_bound():
    worst = -math.inf
    assert len(TWO_SET_INSTANCES) >= 12
    for inst in TWO_SET_INSTANCES:
        d_p, d_q = _diams(inst)
        result = alm_run(inst.set_p, inst.set_q, StepRule.AGNOSTIC, 300)
        for t, dsq in enumerate(result.distance_sq):
            bound = RATE_CONSTANT * (d_p**2 + d_q**2) / (t + 2) + inst.distance**2 / 4.0
            worst = max(worst, dsq / 4.0 - bound)
    _report(
        worst <= SLACK,
        "[1] agnostic primal bound",
        f"{len(TWO_SET_INSTANCES)} instances, every iterate, worst slack {worst:.3e}",
    )


def test_02_dual_bound_running_min():
    worst = -math.inf
    checked = 0
    for inst in TWO_SET_INSTANCES:
        if not inst.intersecting:
            continue
        d_p, d_q = _diams(inst)
        d_sum = d_p**2 + d_q**2
        result = alm_run(inst.set_p, inst.set_q, StepRule.AGNOSTIC, 1000, keep_points=True)
        duals = kept_duals(inst.set_p, inst.set_q, result)
        for big_t in (10, 100, 1000):
            upto = min(big_t, len(duals) - 1)
            measured = min(duals[1 : upto + 1])
            bound = 6.75 * RATE_CONSTANT * d_sum / (big_t + 2)
            worst = max(worst, measured - bound)
            checked += 1
    _report(
        worst <= SLACK,
        "[2] dual quantity running-min bound",
        f"{checked} (instance, T) pairs, worst slack {worst:.3e}",
    )


def test_03_parameterized_certificate_budget():
    lines = []
    ok = True
    for inst in TWO_SET_INSTANCES:
        if inst.intersecting:
            continue
        d_p, d_q = _diams(inst)
        budget = 8.0 * RATE_CONSTANT * (d_p**2 + d_q**2) / inst.distance**2
        result = alm_run(inst.set_p, inst.set_q, StepRule.AGNOSTIC, int(budget / 2) + 2)
        fired = next(
            (
                2 * t
                for t, dsq in enumerate(result.distance_sq)
                if threshold_exceeded(dsq, t, d_p, d_q, StepRule.AGNOSTIC)
            ),
            None,
        )
        ok = ok and fired is not None and fired <= budget
        lines.append(f"{inst.name}={fired}/{budget:.0f}")
    _report(ok, "[3] parameterized certificate budget", "calls " + ", ".join(lines))


def test_04_free_certificate_budget_and_soundness():
    ok = True
    lines = []
    for inst in TWO_SET_INSTANCES:
        if inst.intersecting:
            continue
        d_p, d_q = _diams(inst)
        d_sum = d_p**2 + d_q**2
        # Separation holds at every t beyond theta; the call budget is 2*theta.
        theta = 4.0 * RATE_CONSTANT * d_sum * (d_p + d_q) ** 2 / inst.distance**4
        budget = 2.0 * theta
        iters = int(theta) + 20
        result = alm_run(inst.set_p, inst.set_q, StepRule.AGNOSTIC, iters, keep_points=True)
        first = None
        for t, margin in enumerate(kept_margins(inst.set_p, inst.set_q, result)):
            guard = certificate_tolerance(math.sqrt(result.distance_sq[t]), d_p, d_q)
            certifies = margin > guard
            if certifies:
                if first is None:
                    first = 2 * t
                # Every emitted certificate re-verified by analytic supports.
                x_t, y_t = result.trace.points[t]
                ok = ok and brute_support_gap(inst.set_p, inst.set_q, x_t - y_t) > 0.0
            elif t > theta:
                ok = False  # completeness: must certify at every late iterate
        ok = ok and first is not None and first <= budget
        lines.append(f"{inst.name}={first}/{budget:.0f}")
    _report(
        ok,
        "[4] parameter-free certificate budget, soundness, completeness",
        "first cert calls " + ", ".join(lines),
    )


def test_05_adaptive_recovery_budget():
    ok = True
    lines = []
    assert len(ADAPTIVE_INSTANCES) >= 6
    for inst in ADAPTIVE_INSTANCES:
        eps = epsilon_pq(inst.set_p, inst.set_q)
        d_p, d_q = inst.set_p.diameter(), inst.set_q.diameter()
        budget = (
            math.inf
            if math.isinf(eps)
            else 16.0 * RATE_CONSTANT * (d_p**2 + d_q**2) / eps**2
        )
        cert = adaptive_run(inst.set_p, inst.set_q, StepRule.AGNOSTIC, 20_000).certificate
        good = (
            isinstance(cert, IntersectionPoint)
            and cert.lmo_calls <= budget
            and inst.set_p.contains(cert.point, tol=1e-9)
            and inst.set_q.contains(cert.point, tol=1e-9)
        )
        ok = ok and good
        lines.append(f"{inst.name}={cert.lmo_calls}/{budget:.0f}")
    _report(ok, "[5] adaptive exact recovery budget", "calls " + ", ".join(lines))


def test_06_pocs_rates():
    ok = True
    assert len(POCS_INSTANCES) >= 6
    worst = -math.inf
    for inst in POCS_INSTANCES:
        trace = pocs_run(
            inst.set_p, inst.set_q, np.array(inst.y0, dtype=float), 400,
            d_known=None if inst.d_hat is None else np.array(inst.d_hat),
        )
        report = check_pocs_rate(trace, inst.dist_y0)
        ok = ok and report.passed
        for row in report.residual_rows + report.intersect_rows:
            worst = max(worst, row.measured - row.bound)
        if inst.intersecting:
            gaps = [row.distance_sq for row in trace.rows]
            ok = ok and all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    _report(
        ok,
        "[6] alternating projection rates",
        f"{len(POCS_INSTANCES)} instances, worst slack {worst:.3e}",
    )


def test_07_block_rate_bounds():
    ok = True
    ks = set()
    for inst in block_instances():
        ks.add(inst.problem.k)
        for rule in (StepRule.AGNOSTIC, StepRule.SHORT_STEP):
            starts = [np.array(s, dtype=float) for s in inst.start]
            trace = cbcg_run(inst.problem, starts, rule, inst.sweeps,
                             record_full_gap=True)
            report = check_rate_bounds(trace, inst.problem, inst.fstar)
            ok = ok and report.passed and report.dual_rows
    ok = ok and ks == {1, 2, 3}
    _report(ok, "[7] block-coordinate rate bounds", f"k in {sorted(ks)}, both step rules")


def test_08_oracle_equivalence():
    from setmeet import BlockProblem, Simplex, VPolytope, default_start

    # Generic engine at k = 1 is vanilla Frank-Wolfe, bit for bit.
    simplex = Simplex(3, 1.0)
    center = np.array([1 / 3, 1 / 3, 1 / 3])
    one_block = BlockProblem(
        [simplex],
        lambda pts: float(np.dot(pts[0] - center, pts[0] - center)),
        lambda pts, i: 2.0 * (pts[0] - center),
        2.0,
        [2.0],
    )
    start = np.array([1.0, 0.0, 0.0])
    trace = cbcg_run(one_block, [start], StepRule.AGNOSTIC, 100)
    rows, final = vanilla_fw(
        simplex,
        lambda x: float(np.dot(x - center, x - center)),
        lambda x: 2.0 * (x - center),
        start,
        100,
    )
    fw_exact = all(
        row.t == t and row.objective == obj and row.block_gap == gap and row.gamma == gamma
        for (t, obj, gap, gamma), row in zip(rows, trace.rows)
    ) and np.array_equal(trace.final_points[0], final)

    # Two-set solver equals the two-block engine row for row, both rules.
    pairwise_exact = True
    for inst in TWO_SET_INSTANCES:
        for rule in (StepRule.AGNOSTIC, StepRule.SHORT_STEP):
            start2 = default_start(inst.set_p, inst.set_q)
            mine = alm_run(inst.set_p, inst.set_q, rule, 50, start=start2,
                           stop_on_contact=False)
            theirs = cbcg_run(
                distance_problem(inst.set_p, inst.set_q), list(start2), rule, 50
            )
            pairwise_exact = pairwise_exact and len(mine.trace.rows) == len(
                theirs.rows
            ) and all(a == b for a, b in zip(mine.trace.rows, theirs.rows))

    # Vertex-list LMO equals brute-force enumeration on 1000 directions.
    rng = np.random.default_rng(73)
    poly = VPolytope(rng.normal(size=(11, 4)))
    brute_exact = True
    for _ in range(1000):
        c = rng.normal(size=4)
        idx = brute_vertex_argmin(poly.vertices, c)
        brute_exact = brute_exact and np.array_equal(poly.lmo(c), poly.vertices[idx])

    ok = fw_exact and pairwise_exact and brute_exact
    _report(
        ok,
        "[8] oracle equivalences",
        f"vanilla-FW={fw_exact}, two-block={pairwise_exact}, vertex-brute={brute_exact}",
    )


def test_09_numerical_hygiene():
    # Gradient checks on every block problem used in the suite.
    rng = np.random.default_rng(97)
    for inst in block_instances():
        for _ in range(50):
            points = [blk.sample(rng) for blk in inst.problem.blocks]
            fd_gradient_check(inst.problem, points)

    # Projection inequality on the projection-friendly geometries.
    from setmeet import Ball, Box, Simplex

    proj_ok = True
    for geom in (Box([0, -1], [2, 1]), Ball([0.5, 0.5], 1.5), Simplex(4, 2.0)):
        for _ in range(200):
            x = rng.uniform(-3, 3, size=geom.dim)
            y = rng.uniform(-3, 3, size=geom.dim)
            px, py = geom.project(x), geom.project(y)
            lhs = np.dot(x - y, x - y)
            rhs = np.dot(px - py, px - py) + np.dot(x - px - y + py, x - px - y + py)
            proj_ok = proj_ok and lhs >= rhs - 1e-9

    # Minimal-distance inequality along projection traces with known offsets.
    min_dist_ok = True
    for inst in POCS_INSTANCES:
        if inst.d_hat is None:
            continue
        d = -np.array(inst.d_hat)
        dist_sq = float(np.dot(d, d))
        trace = pocs_run(inst.set_p, inst.set_q, np.array(inst.y0, dtype=float), 80,
                         d_known=np.array(inst.d_hat))
        for row in trace.rows:
            min_dist_ok = min_dist_ok and np.dot(row.x - row.y, d) >= dist_sq - 1e-9

    # solve_feasibility agrees with HiGHS and with the hull-distance route on 200 programs.
    rng2 = np.random.default_rng(20240817)
    lp_ok = True
    for _ in range(200):
        u, v = random_feasibility_program(rng2)
        feasible = solve_feasibility(FeasibilityProgram(u, v)) is not None
        distance = hull_distance(u, v)
        lp_ok = lp_ok and feasible == highs_feasible(u, v) == (distance <= 1e-6)

    ok = proj_ok and min_dist_ok and lp_ok
    _report(
        ok,
        "[9] numerical hygiene",
        f"gradients ok, projection={proj_ok}, min-dist={min_dist_ok}, lp-vs-hull={lp_ok}",
    )
