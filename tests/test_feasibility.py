import collections
import hashlib
import itertools
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import setmeet
from setmeet import (
    DimensionMismatch,
    FeasibilityProgram,
    GeometryError,
    StepRule,
    VPolytope,
    adaptive_run,
    epsilon_pq,
    hull_distance,
    hull_meet,
    phase_one_simplex,
    solve_feasibility,
)
from setmeet import alm, feasibility
from setmeet.cli import main
from setmeet.feasibility import RESIDUAL_TOL
from setmeet.instances import ADAPTIVE_INSTANCES
from helpers import (
    _digest, brute_hull_distance_2d, brute_phase_one_simplex, highs_feasible,
    random_feasibility_program,
)
from test_cli import SEG_LEFT, SEG_RIGHT, write_spec

REPO = Path(__file__).parents[1]

TRIANGLE = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
SEGMENT = np.array([[1.0, 1.0], [3.0, 1.0]])


class TestSolveFeasibility:
    def test_triangle_segment_meet_at_edge(self):
        combo = solve_feasibility(FeasibilityProgram(TRIANGLE, SEGMENT))
        assert combo is not None
        # The hulls meet only at (1, 1) = 0.5*(2,0) + 0.5*(0,2).
        assert np.allclose(combo.point, [1.0, 1.0], atol=1e-7)
        assert combo.residual <= 1e-8

    def test_distinct_singletons_infeasible(self):
        assert solve_feasibility(FeasibilityProgram([[0.0, 0.0]], [[1.0, 0.0]])) is None

    def test_identical_singletons(self):
        combo = solve_feasibility(FeasibilityProgram([[5.0, 5.0]], [[5.0, 5.0]]))
        assert combo is not None
        assert combo.lam == pytest.approx([1.0])
        assert combo.kappa == pytest.approx([1.0])

    def test_weights_form_valid_combinations(self):
        combo = solve_feasibility(FeasibilityProgram(TRIANGLE, SEGMENT))
        for w in (combo.lam, combo.kappa):
            assert w.min() >= -1e-10
            assert float(w.sum()) == pytest.approx(1.0, abs=1e-9)
        pu = TRIANGLE.T @ combo.lam
        pv = SEGMENT.T @ combo.kappa
        assert np.linalg.norm(pu - pv) <= 1e-7

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            FeasibilityProgram([[0.0, 0.0]], [[1.0, 0.0, 0.0]])

    def test_disjoint_hulls_whose_spans_meet(self):
        prog = FeasibilityProgram([[0.0, 0.0], [1.0, 0.0]], [[2.0, 0.0]])
        assert solve_feasibility(prog) is None

    # hull-lp programs (seed: name) that the phase-1 simplex, when it decided
    # them, rejected with residuals of 1.8e-8 to 0.27.
    SIMPLEX_REJECTED = {6: "n100.feasible1", 7: "n100.feasible6", 10: "n100.feasible5",
                        15: "n400.feasible1", 18: "n100.feasible7"}

    def test_feasible_hull_lp_programs_pass_the_bench_checks(self, monkeypatch, tmp_path):
        # The workload's check runs perfbench.checks.check_combination on the answer.
        monkeypatch.syspath_prepend(str(REPO))
        from perfbench import workloads

        for seed, name in self.SIMPLEX_REJECTED.items():
            batch = workloads.build(setmeet, "hull-lp", seed, "full", tmp_path)
            solve = next(s for s in batch if s.name == name)
            outcome = solve.check(solve.call())
            assert (outcome.verdict, outcome.problems) == ("intersection", []), (seed, name)

    def test_far_point_of_a_large_polytope_is_separated_quickly(self):
        # The phase-1 simplex cycled on this program until its pivot limit.
        poly = VPolytope(np.random.default_rng(0).normal(size=(300, 30)))
        prog = FeasibilityProgram(poly.vertices, [3.0 * poly.vertices[0]])
        start = time.perf_counter()
        assert solve_feasibility(prog) is None
        assert time.perf_counter() - start < 2.0

    def test_near_misses_meet_separate_or_raise(self):
        """Hulls 1e-12 to 1e-6 apart: a meet within RESIDUAL_TOL, None with
        hull_meet's separating direction, or a RuntimeError naming hull_meet.

        The direction's margin min_u <x, u> - max_v <x, v> is computed
        exactly.  Wolfe's separated exit compares rounded products with no
        margin, so one draw's direction separates only up to their rounding.
        """
        rng = np.random.default_rng(0)
        outcomes = collections.Counter()
        for _ in range(1000):
            prog = FeasibilityProgram(*_near_miss_pair(rng))
            u, v = prog.u_points, prog.v_points
            try:
                combo = solve_feasibility(prog)
            except RuntimeError as exc:
                assert "hull_meet" in str(exc)
                outcomes["raise"] += 1
                continue
            if combo is None:
                x = hull_meet(u, v).direction
                assert x is not None
                margin = _exact_margin(u, v, x)
                if margin > 0:
                    outcomes["separated"] += 1
                else:
                    rounding = (u.shape[1] + 2) * 2.0 ** -52 * (
                        (np.abs(u) @ np.abs(x)).max() + (np.abs(v) @ np.abs(x)).max())
                    assert -margin <= rounding
                    outcomes["separated within rounding"] += 1
            else:
                assert combo.residual <= RESIDUAL_TOL
                outcomes["meet"] += 1
        assert outcomes == {"meet": 44, "separated": 908, "separated within rounding": 1,
                            "raise": 47}

    def test_agrees_with_scipy_linprog(self):
        """solve_feasibility's verdict against HiGHS on the raw program.

        HiGHS runs at 1e-10 tolerances, so a near miss counts only where
        hull_meet separates the hulls by a slab wider than 1e-8.
        """
        pytest.importorskip("scipy.optimize")
        counted = dict.fromkeys(HULL_PROGRAM_KINDS, 0)
        for kind, prog in _hull_programs(72, 150):
            u, v = prog.u_points, prog.v_points
            if kind == "near-miss":
                x = hull_meet(u, v).direction
                if x is None or _slab_width(u, v, x) <= 1e-8:
                    continue
            assert (solve_feasibility(prog) is not None) == highs_feasible(u, v), (kind, prog)
            counted[kind] += 1
        assert counted == {**dict.fromkeys(HULL_PROGRAM_KINDS, 150), "near-miss": 41}

    def test_phase_one_objective_zero_iff_feasible(self):
        # x = 1, solvable: objective 0.  x = 1 and x = 2, not solvable.
        obj, _ = phase_one_simplex(np.array([[1.0]]), np.array([1.0]))
        assert obj == pytest.approx(0.0, abs=1e-9)
        obj, _ = phase_one_simplex(np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
        assert obj > 1e-9


def _phase_one_programs():
    """Seeded phase-1 inputs: feasible, infeasible and degenerate."""
    rng = np.random.default_rng(8)
    programs = []
    for k in range(120):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 16))
        if k % 2:
            # Small integers: many exact ties in the ratio test.
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
        else:
            a = rng.normal(size=(m, n))
        z = rng.uniform(0.0, 1.0, size=n) * (rng.uniform(size=n) < 0.5)
        feasible = a @ z
        programs += [
            (a, feasible),
            (a, rng.normal(size=m)),
            (np.hstack([a, a[:, rng.integers(0, n, size=n)]]), feasible),
            (a, np.zeros(m)),
            (a, np.where(rng.uniform(size=m) < 0.5, 0.0, -np.abs(feasible))),
            # Signed zeros: a row update by a zero multiple would flip -0.0.
            (rng.choice([-1.0, -0.0, 0.0, 1.0], size=(m, n)), rng.choice([-0.0, 0.0, 1.0], size=m)),
        ]
    # Hull-intersection programs as solve_feasibility builds them.
    for _ in range(60):
        u, v = random_feasibility_program(rng)
        a = np.vstack([np.hstack([u.T, -v.T]),
                       np.hstack([np.ones(len(u)), np.zeros(len(v))]),
                       np.hstack([np.zeros(len(u)), np.ones(len(v))])])
        programs.append((a, np.r_[np.zeros(u.shape[1]), 1.0, 1.0]))
    return programs


def _phase_one_outcome(solver, a, b, **kw):
    try:
        objective, z = solver(a, b, **kw)
    except RuntimeError as exc:
        return str(exc)
    return np.float64(objective).tobytes() + z.tobytes()


def test_phase_one_matches_the_scalar_pivots_bitwise():
    for i, (a, b) in enumerate(_phase_one_programs()):
        expected = _phase_one_outcome(brute_phase_one_simplex, a, b)
        assert isinstance(expected, bytes), i
        assert _phase_one_outcome(phase_one_simplex, a, b) == expected, i


def test_phase_one_pivot_limit_matches_the_scalar_pivots():
    for i, (a, b) in enumerate(_phase_one_programs()[:40]):
        for limit in range(12):
            expected = _phase_one_outcome(brute_phase_one_simplex, a, b, max_pivots=limit)
            got = _phase_one_outcome(phase_one_simplex, a, b, max_pivots=limit)
            assert got == expected, (i, limit)
            if isinstance(expected, bytes):
                break
        else:
            pytest.fail(f"program {i} needs more than 11 pivots")
    with pytest.raises(RuntimeError, match="phase-1 simplex exceeded the pivot limit"):
        phase_one_simplex(TRIANGLE.T, np.array([5.0, 5.0]), max_pivots=1)


def _intersecting_pair(rng):
    """Two point lists whose hulls share a point by construction."""
    d = int(rng.integers(1, 9))
    u = rng.normal(size=(int(rng.integers(1, 11)), d))
    v = rng.normal(size=(int(rng.integers(1, 11)), d))
    common = u.T @ rng.dirichlet(np.ones(len(u)))
    return u, v + (common - v.T @ rng.dirichlet(np.ones(len(v))))


def _near_miss_pair(rng):
    """Hulls touching at one point, then pulled apart by 1e-12 to 1e-6.

    conv(u) lies in {n.x <= 0} and conv(v) in {n.x >= delta}, with the
    touching point on both boundaries, so the hulls are delta apart.
    Few points per side leave the affine spans disjoint in most draws.
    """
    d = int(rng.integers(2, 9))
    normal = rng.normal(size=d)
    normal /= np.linalg.norm(normal)
    u = rng.normal(size=(int(rng.integers(1, d + 2)), d))
    u -= (u @ normal).max() * normal
    v = rng.normal(size=(int(rng.integers(1, d + 2)), d))
    v -= (v @ normal).min() * normal
    v[int(rng.integers(len(v)))] = u[int(np.argmax(u @ normal))]
    return u, v + 10.0 ** rng.uniform(-12.0, -6.0) * normal


def _integer_pair(rng):
    """Small-integer point lists: repeated points and exact degeneracy."""
    d = int(rng.integers(1, 5))
    return (rng.integers(-2, 3, size=(int(rng.integers(1, 7)), d)).astype(float),
            rng.integers(-2, 3, size=(int(rng.integers(1, 7)), d)).astype(float))


HULL_PROGRAM_KINDS = {
    "intersecting": _intersecting_pair,
    "near-miss": _near_miss_pair,
    "separated": random_feasibility_program,
    "integer": _integer_pair,
}


def _hull_programs(seed, per_kind):
    rng = np.random.default_rng(seed)
    for kind, draw in HULL_PROGRAM_KINDS.items():
        for _ in range(per_kind):
            yield kind, FeasibilityProgram(*draw(rng))


def _exact_margin(u, v, x):
    """min_u <x, u> - max_v <x, v> in exact rational arithmetic."""
    xs = [Fraction(t) for t in x.tolist()]
    u_dots, v_dots = ([sum(Fraction(a) * b for a, b in zip(row, xs)) for row in rows.tolist()]
                      for rows in (u, v))
    return min(u_dots) - max(v_dots)


def _slab_width(u, v, x):
    """Width of the slab {min_u <x, u> >= <x, .> >= max_v <x, v>} between the lists."""
    return ((u @ x).min() - (v @ x).max()) / np.linalg.norm(x)


def _polytope_pair(rng, d, offset):
    p = VPolytope(rng.normal(size=(6 * d, d)))
    q = VPolytope(rng.normal(size=(6 * d, d)) + offset * rng.normal(size=d))
    return p, q


# (verdict, lmo_calls, iterations) of the six runs of each (d, rule) below, as
# recorded while the checkpoint LP (screen and simplex) still decided them.
CHECKPOINT_RUNS = {
    (5, "agnostic"): [("intersection", 19, 5), ("intersection", 29, 9), ("intersection", 19, 5),
                      ("disjoint", 273, 129), ("disjoint", 12, 3), ("disjoint", 146, 65)],
    (5, "short"): [("intersection", 13, 3), ("intersection", 19, 5), ("intersection", 13, 3),
                   ("disjoint", 27, 9), ("disjoint", 12, 3), ("disjoint", 18, 5)],
    (8, "agnostic"): [("intersection", 19, 5), ("intersection", 19, 5), ("intersection", 29, 9),
                      ("disjoint", 80, 33), ("disjoint", 17, 5), ("disjoint", 8, 2)],
    (8, "short"): [("intersection", 19, 5), ("intersection", 19, 5), ("intersection", 19, 5),
                   ("disjoint", 46, 17), ("disjoint", 8, 2), ("disjoint", 8, 2)],
}


# sha256 of TestHullMeet.test_answers_bit_for_bit's answers, recorded before
# _wolfe kept its support's rows across steps.
HULL_MEET_DIGEST = "0e6710faf3952b36be6b45306f9215e2f9e59590c2046d225057c04ba2646d5d"


def _refuse(*args, **kwargs):
    raise AssertionError("a package path reached phase_one_simplex")


@pytest.mark.parametrize("rule", [StepRule.AGNOSTIC, StepRule.SHORT_STEP], ids=lambda r: r.value)
@pytest.mark.parametrize("d", [5, 8])
def test_screen_leaves_adaptive_runs_bit_for_bit(monkeypatch, d, rule):
    """Checkpoints never reach the simplex, and every run stops where, and
    with the verdict and LMO count, it did under the LP."""
    rng = np.random.default_rng(100 + d)
    pairs = [_polytope_pair(rng, d, offset) for offset in (0.3, 0.6, 1.0, 1.5, 2.0, 3.0)]
    monkeypatch.setattr(feasibility, "phase_one_simplex", _refuse)
    certs = [adaptive_run(p, q, rule, 512).certificate for p, q in pairs]
    got = [(cert.verdict, cert.lmo_calls, cert.iterations) for cert in certs]
    assert got == CHECKPOINT_RUNS[d, rule.value]


def _counted(monkeypatch, module, name, calls):
    inner = getattr(module, name)

    def wrapper(*args, **kw):
        calls[name] += 1
        return inner(*args, **kw)

    monkeypatch.setattr(module, name, wrapper)


def test_adaptive_checkpoints_pivot_less_often_than_they_solve(monkeypatch):
    # Checkpoints never pivot: hull_meet decides each of them.
    calls = {"hull_meet": 0, "phase_one_simplex": 0}
    _counted(monkeypatch, alm, "hull_meet", calls)
    _counted(monkeypatch, feasibility, "phase_one_simplex", calls)
    p, q = _polytope_pair(np.random.default_rng(5), 8, 0.3)
    adaptive_run(p, q, StepRule.AGNOSTIC, 512)
    assert calls["phase_one_simplex"] == 0 < calls["hull_meet"]


def test_no_package_path_reaches_the_simplex(monkeypatch, tmp_path):
    # phase_one_simplex stays only as a name perfbench's tracer wraps.
    monkeypatch.setattr(feasibility, "phase_one_simplex", _refuse)
    assert main(["feastest", str(write_spec(tmp_path, name="meet.json"))]) == 0
    path = write_spec(tmp_path, name="apart.json", set_p=SEG_LEFT, set_q=SEG_RIGHT)
    assert main(["feastest", str(path)]) == 1
    for inst in ADAPTIVE_INSTANCES:
        epsilon_pq(inst.set_p, inst.set_q)
    for kind, prog in _hull_programs(71, 50):
        try:
            solve_feasibility(prog)
        except RuntimeError as exc:  # a near miss may end without a verdict
            assert kind == "near-miss" and "hull_meet" in str(exc)


def _shifted_apart(kind, prog):
    """A "separated" draw whose second list was shifted past the first along axis 0."""
    u, v = prog.u_points, prog.v_points
    return kind == "separated" and v[:, 0].min() > u[:, 0].max()


def _check_answer(u, v, answer):
    """A meet's weights recombine to one point; a separation's direction separates."""
    assert answer.combination is None or answer.direction is None
    if answer.combination is not None:
        lam, kappa = answer.combination.lam, answer.combination.kappa
        assert lam.min() >= 0.0 and kappa.min() >= 0.0
        assert abs(lam.sum() - 1.0) <= 1e-8 and abs(kappa.sum() - 1.0) <= 1e-8
        assert np.linalg.norm(u.T @ lam - v.T @ kappa) <= 1e-8
    if answer.direction is not None:
        x = answer.direction
        assert (u @ x).min() > (v @ x).max()


class TestHullMeet:
    def test_answers_agree_with_scipy_linprog(self):
        pytest.importorskip("scipy.optimize")
        answered = dict.fromkeys(HULL_PROGRAM_KINDS, 0)
        separated = dict.fromkeys(HULL_PROGRAM_KINDS, 0)
        for kind, prog in _hull_programs(73, 150):
            answer = hull_meet(prog.u_points, prog.v_points)
            _check_answer(prog.u_points, prog.v_points, answer)
            if answer.combination is not None:
                assert highs_feasible(prog.u_points, prog.v_points), (kind, prog)
                assert not _shifted_apart(kind, prog), (kind, prog)
            if answer.direction is not None:
                assert kind != "intersecting", prog
                x = answer.direction
                # HiGHS's 1e-10 tolerances cannot see a thinner slab between the hulls.
                if _slab_width(prog.u_points, prog.v_points, x) > 1e-8:
                    assert not highs_feasible(prog.u_points, prog.v_points), (kind, prog)
                    separated[kind] += 1
            answered[kind] += answer.combination is not None or answer.direction is not None
        # Left without a verdict: four near misses 4e-12 to 3e-10 apart, where the loop stalls.
        assert answered == {**dict.fromkeys(HULL_PROGRAM_KINDS, 150), "near-miss": 146}
        assert all(separated[kind] > 0 for kind in ("near-miss", "separated", "integer"))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=1, max_size=6),
        st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=1, max_size=6),
    )))
    def test_integer_lists_answer_as_the_lp_does(self, lists):
        # Repeated points and exact degeneracy, without deduplication.
        u, v = (np.array(points, dtype=float) for points in lists)
        answer = hull_meet(u, v)
        _check_answer(u, v, answer)
        assert (answer.combination is not None) == (
            solve_feasibility(FeasibilityProgram(u, v)) is not None)
        assert (answer.combination is not None) == highs_feasible(u, v)
        assert answer.combination is not None or answer.direction is not None

    def test_warm_start_decides_as_a_cold_start_in_fewer_solves(self, monkeypatch):
        rng = np.random.default_rng(2024)
        p = VPolytope(rng.normal(size=(200, 20)))
        q = VPolytope(rng.normal(size=(200, 20)) + 0.5 * rng.normal(size=20))
        checkpoints = []
        decide = feasibility.hull_meet

        def captured(u, v, start=None):
            answer = decide(u, v, start)
            checkpoints.append((u.copy(), v.copy(), answer))
            return answer

        monkeypatch.setattr(alm, "hull_meet", captured)
        solves = {"_affine_minimizer": 0}
        _counted(monkeypatch, feasibility, "_affine_minimizer", solves)
        assert adaptive_run(p, q, StepRule.AGNOSTIC, 100_000).certificate.verdict == "intersection"
        warm, solves["_affine_minimizer"] = solves["_affine_minimizer"], 0

        def verdict(answer):
            return answer.combination is not None, answer.direction is not None

        for u, v, answer in checkpoints:
            assert verdict(decide(u, v)) == verdict(answer)
        assert len(checkpoints) > 1
        assert warm < solves["_affine_minimizer"]

    def test_answers_bit_for_bit(self, monkeypatch):
        # Cold starts on every kind of draw, and chains warm-started on growing
        # prefixes as the adaptive checkpoints are, against a recorded digest.
        step_backs = collections.Counter()
        solve = feasibility._affine_minimizer

        def watched(rows, in_a):
            y = solve(rows, in_a)
            step_backs[bool((y < 0.0).any())] += 1
            return y

        monkeypatch.setattr(feasibility, "_affine_minimizer", watched)

        def parts(answer):
            combo = answer.combination
            yield from (answer.support, answer.weights, answer.ku)
            yield from ([] if combo is None else
                        [combo.lam, combo.kappa, combo.point, combo.residual])
            yield [] if answer.direction is None else answer.direction

        digests = []
        for _, prog in _hull_programs(79, 40):
            u, v = prog.u_points, prog.v_points
            try:
                distance = hull_distance(u, v)
            except RuntimeError:  # a near miss may stall uncertified
                distance = math.nan
            digests.append(_digest(*parts(hull_meet(u, v)), distance))
        rng = np.random.default_rng(83)
        for d, offset in ((3, 0.5), (8, 1.0), (20, 0.3), (20, 4.0)):
            u = rng.normal(size=(60, d))
            v = rng.normal(size=(60, d)) + offset * rng.normal(size=d)
            answer = None
            for k in range(2, 61, 2):
                answer = hull_meet(u[:k], v[:k + 1 - k % 4], answer)
                digests.append(_digest(*parts(answer)))
        assert step_backs[True] > 0  # the draws reach the step-back loop
        assert hashlib.sha256("".join(digests).encode()).hexdigest() == HULL_MEET_DIGEST


class TestHullDistance:
    def test_parallel_segments(self):
        d = hull_distance([[0, 0], [1, 0]], [[0, 1], [1, 1]])
        assert d == pytest.approx(1.0, abs=1e-7)

    def test_identical_lists(self):
        assert hull_distance(TRIANGLE, TRIANGLE) == 0.0

    def test_point_to_point(self):
        assert hull_distance([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(5.0)

    def test_point_to_segment(self):
        d = hull_distance([[0.0, 0.0]], [[1.0, -1.0], [1.0, 1.0]])
        assert d == pytest.approx(1.0, abs=1e-7)

    def test_intersecting_hulls_measure_near_zero(self):
        # Intersecting hulls come out (numerically) zero from Wolfe's method alone.
        d = hull_distance(TRIANGLE, SEGMENT)
        assert d <= 1e-6

    def test_obtuse_faces(self):
        # Closest pair is an interior edge point against a vertex.
        a = [[0.0, 0.0], [4.0, 0.0]]
        b = [[2.0, 1.0], [5.0, 3.0]]
        assert hull_distance(a, b) == pytest.approx(1.0, abs=1e-7)

    def test_agreement_with_lp_on_random_programs(self):
        rng = np.random.default_rng(20240817)
        feasible_seen = infeasible_seen = 0
        for _ in range(200):
            u, v = random_feasibility_program(rng)
            feasible = solve_feasibility(FeasibilityProgram(u, v)) is not None
            assert feasible == highs_feasible(u, v)
            distance = hull_distance(u, v)
            if feasible:
                feasible_seen += 1
                assert distance <= 1e-6
            else:
                infeasible_seen += 1
                assert distance > 1e-6
        assert feasible_seen >= 30 and infeasible_seen >= 30


    def test_matches_brute_force_on_disjoint_polygons(self):
        # Normal clouds shifted along x, distances 0.41859 and 1.69506 first.
        pairs = []
        for seed, k in ((26, 10), (2, 6)):
            rng = np.random.default_rng(seed)
            pairs.append((rng.normal(size=(k, 2)), rng.normal(size=(k, 2)) + [3.0, 0.0]))
        rng = np.random.default_rng(9)
        for _ in range(100):
            u = rng.normal(size=(int(rng.integers(1, 12)), 2))
            v = rng.normal(size=(int(rng.integers(1, 12)), 2))
            # Disjoint by construction: v starts right of every point of u.
            v[:, 0] += u[:, 0].max() - v[:, 0].min() + rng.uniform(0.01, 2.0)
            pairs.append((u, v))
        for u, v in pairs:
            assert hull_distance(u, v) == pytest.approx(brute_hull_distance_2d(u, v), abs=1e-12)

    def test_uncertified_distance_raises(self, monkeypatch):
        monkeypatch.setattr(feasibility, "HULL_GAP_TOL", -1.0)
        with pytest.raises(RuntimeError, match="uncertified"):
            hull_distance(TRIANGLE, SEGMENT + [3.0, 0.0])

    def test_power_of_two_scaling_is_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            u, v = random_feasibility_program(rng)
            k = int(rng.integers(-60, 61))
            d = hull_distance(u, v)
            scaled = hull_distance(np.ldexp(u, k), np.ldexp(v, k))
            assert scaled == math.ldexp(d, k)


class TestEpsilon:
    def test_parallel_segments_strip(self):
        eps = epsilon_pq(
            VPolytope([[0, 0], [1, 0]]), VPolytope([[0, 1], [1, 1]])
        )
        assert eps == pytest.approx(1.0, abs=1e-7)

    def test_identical_singletons_sentinel(self):
        assert math.isinf(epsilon_pq(VPolytope([[0.0, 0.0]]), VPolytope([[0.0, 0.0]])))

    def test_enumeration_cross_check(self):
        p = VPolytope([[0.0, 0.0], [4.0, 0.0]])
        q = VPolytope([[1.0, 1.0], [3.0, 1.0], [2.0, -1.0]])
        eps = epsilon_pq(p, q)
        # Re-enumerate here, pair by pair; solve_feasibility decides which pairs are disjoint.
        best = math.inf
        pk, qk = p.vertices.shape[0], q.vertices.shape[0]
        for mu in range(1, 1 << pk):
            sub_u = p.vertices[[i for i in range(pk) if mu >> i & 1]]
            for mv in range(1, 1 << qk):
                sub_v = q.vertices[[j for j in range(qk) if mv >> j & 1]]
                if solve_feasibility(FeasibilityProgram(sub_u, sub_v)) is None:
                    best = min(best, hull_distance(sub_u, sub_v))
        assert eps == pytest.approx(best, abs=1e-9)

    def test_soundness_every_disjoint_pair_at_least_eps(self):
        p = VPolytope([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        q = VPolytope([[1.0, 1.0], [3.0, 1.0]])
        eps = epsilon_pq(p, q)
        pk, qk = p.vertices.shape[0], q.vertices.shape[0]
        for mu in range(1, 1 << pk):
            sub_u = p.vertices[[i for i in range(pk) if mu >> i & 1]]
            for mv in range(1, 1 << qk):
                sub_v = q.vertices[[j for j in range(qk) if mv >> j & 1]]
                if solve_feasibility(FeasibilityProgram(sub_u, sub_v)) is None:
                    assert hull_distance(sub_u, sub_v) >= eps - 1e-9

    def test_size_guard(self):
        big = VPolytope(np.random.default_rng(0).normal(size=(9, 2)))
        other = VPolytope(np.random.default_rng(1).normal(size=(8, 2)))
        with pytest.raises(GeometryError):
            epsilon_pq(big, other)


def test_zero_dimension_point_lists_rejected():
    for call in (hull_distance, hull_meet, FeasibilityProgram):
        with pytest.raises(GeometryError, match="dimension must be >= 1"):
            call(np.zeros((2, 0)), np.zeros((1, 0)))


class TestMembership:
    def test_boundary_point(self):
        assert VPolytope(TRIANGLE).contains([1.0, 1.0], tol=1e-9)

    def test_outside_point(self):
        assert not VPolytope(TRIANGLE).contains([2.0, 2.0], tol=1e-9)

    def test_vertex(self):
        assert VPolytope(TRIANGLE).contains([0.0, 2.0], tol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            VPolytope(TRIANGLE).contains([1.0, 1.0, 1.0], tol=1e-9)

    def test_tolerance_means_distance_at_every_scale(self):
        # Points 1e-6 and 1e-5 beyond the vertex extreme along a unit c lie at
        # least that far outside; vertices and convex combinations lie inside.
        rng = np.random.default_rng(10)
        for scale, tol in itertools.product((1.0, 1e2, 1e3, 1e4), (1e-7, 1e-8)):
            for _ in range(20):
                d = int(rng.integers(2, 7))
                poly = VPolytope(scale * rng.normal(size=(int(rng.integers(d + 1, 4 * d)), d)))
                v = poly.vertices
                c = rng.normal(size=d)
                c /= np.linalg.norm(c)
                far = v[int(np.argmax(v @ c))]
                for delta in (1e-6, 1e-5):
                    assert not poly.contains(far + delta * c, tol=tol), (scale, delta)
                for i in rng.choice(len(v), size=3):
                    assert poly.contains(v[i], tol=tol), scale
                for w in rng.dirichlet(np.ones(len(v)), size=3):
                    assert poly.contains(v.T @ w, tol=tol), scale

    def test_far_point_of_a_large_polytope_answers_quickly(self):
        # The phase-1 LP of this point cycles to its pivot limit.
        poly = VPolytope(np.random.default_rng(0).normal(size=(300, 30)))
        start = time.perf_counter()
        assert not poly.contains(3.0 * poly.vertices[0])
        assert time.perf_counter() - start < 2.0

    def test_near_miss_answers_at_its_distance(self):
        # Draw 14: a point 1.1e-7 outside a 4-vertex hull in 3-d, whose
        # phase-1 LP ends with a residual above the feasibility check's.
        rng = np.random.default_rng(2)
        for _ in range(15):
            u, v = _near_miss_pair(rng)
        poly = VPolytope(u)
        assert not poly.contains(v[0], tol=1e-7)
        assert poly.contains(v[0], tol=2e-7)

    def test_answers_without_the_lp(self, monkeypatch):
        def fail(program):
            raise AssertionError("membership solved an LP")

        monkeypatch.setattr(feasibility, "solve_feasibility", fail)
        poly = VPolytope(TRIANGLE)
        assert poly.contains([0.5, 0.5]) and poly.contains([0.0, 2.0])
        assert not poly.contains([2.0, 2.0])
