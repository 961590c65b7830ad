"""The benchmark's three workloads, generated from the workload seed.

Every workload is a fixed batch of solves, run closed loop by one
caller: each solve starts when the previous one returns.  ``build``
makes the batch (this is the timed set-up); each ``Solve`` has a timed
``call`` and an untimed ``check`` that compares the verdict with the
truth known by construction and re-checks the certificate with
``checks``.  Solves call the package through its module attributes
(``setmeet.alm.adaptive_run``, not a name bound at import) so that a
traced run sees them.

Why these three (measured shares are in ``WORKLOADS.md``):

* ``cli-long-runs``: ``setmeet solve`` on continuous pairs run to a
  budget, where barycentric bookkeeping, seen-vertex dedup and trace
  writing dominate and LPs and diameters are nearly absent.
* ``polytope-adaptive``: library ``adaptive_run`` on V-polytope pairs
  of fixed shape placed by the seed, where diameters, growing checkpoint LPs and m x d LMO matvecs
  dominate and solves take only tens of iterations.
* ``hull-lp``: library ``solve_feasibility`` on one large program per
  call, where program dedup and simplex pivoting dominate and nothing
  from ``alm`` or ``cbcg`` runs.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import checks

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())

# Radius of the rotated cross-polytope placed around a construction's
# common point; it guarantees the point lies inside each hull.
CROSS_RADIUS = 0.3
# Distance by which each overlapping cloud's bulk is pushed away from
# the common point, so the hulls overlap only near it.
OVERLAP_SHIFT = 1.0
# Share of points replaced by near-duplicates (well inside DEDUP_TOL).
NEAR_DUP_SHARE = 0.05
NEAR_DUP_NOISE = 1e-11


@dataclass
class Outcome:
    verdict: str
    lmo_calls: int
    work: int  # units of work behind us_per_iter: iterations, or input points
    problems: list[str] = field(default_factory=list)
    digest: str = ""  # must repeat exactly from pass to pass


@dataclass
class Solve:
    name: str
    size: str | None  # "small" | "large" | None: which side of iter_cost_growth
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


VERDICTS = ("intersection", "disjoint", "undecided")


def truth_problems(verdict: str, intersecting: bool) -> list[str]:
    if verdict == "intersection" and not intersecting:
        return ["intersection claimed for sets that are disjoint by construction"]
    if verdict == "disjoint" and intersecting:
        return ["disjointness claimed for sets that intersect by construction"]
    if verdict not in VERDICTS:
        return [f"unknown verdict {verdict!r}"]
    return []


# ---------------------------------------------------------------- generators


def _unit(rng, d: int) -> np.ndarray:
    w = rng.normal(size=d)
    return w / np.linalg.norm(w)


def _rotation(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def cloud_around(rng, z: np.ndarray, m: int) -> np.ndarray:
    """m points whose hull contains z: the first 2d rows are a rotated
    cross-polytope around z (z is their average), the rest Gaussian
    points pushed off to one side."""
    d = z.size
    rot = _rotation(rng, d)
    cross = np.vstack([rot, -rot]) * CROSS_RADIUS
    bulk = rng.normal(size=(m - 2 * d, d)) + OVERLAP_SHIFT * _unit(rng, d)
    return z + np.vstack([cross, bulk])


def shuffled(rng, pts: np.ndarray) -> np.ndarray:
    return pts[rng.permutation(pts.shape[0])]


def cloud_beyond(rng, w: np.ndarray, m: int, offset: float) -> np.ndarray:
    """m Gaussian points with min <w, x> equal to ``offset`` (w a unit vector)."""
    pts = rng.normal(size=(m, w.size))
    return pts + (offset - float((pts @ w).min())) * w


def with_near_duplicates(rng, pts: np.ndarray, fixed: int = 0) -> tuple[np.ndarray, int]:
    """Replace a share of points, never the first ``fixed`` rows, by
    copies of other points moved by ~1e-11.

    Returns the points and how many distinct ones remain; the noise is
    far inside DEDUP_TOL and far below the spacing of distinct points.
    """
    m = pts.shape[0]
    k = int(NEAR_DUP_SHARE * m)
    out = pts.copy()
    targets = fixed + rng.permutation(m - fixed)[:k]
    sources = rng.choice(np.setdiff1d(np.arange(m), targets), size=k, replace=False)
    noise = rng.normal(size=(k, pts.shape[1]))
    noise *= NEAR_DUP_NOISE / np.linalg.norm(noise, axis=1, keepdims=True)
    out[targets] = pts[sources] + noise
    return out, m - k


# ------------------------------------------------------------- cli-long-runs

# The continuous pairs of the package's instance table, fixed so that
# their trace CSVs can be compared with digests recorded in golden.json.
FIXED_PAIRS = {
    "ball-ball-gap": ({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                      {"kind": "ball", "center": [3.0, 0.0], "radius": 1.0}, False),
    "ball-ball-overlap": ({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                          {"kind": "ball", "center": [1.0, 0.0], "radius": 1.0}, True),
    "l1-ball-gap": ({"kind": "l1ball", "center": [0.0, 0.0], "radius": 1.0},
                    {"kind": "ball", "center": [4.0, 0.0], "radius": 1.0}, False),
    "box-ball-gap": ({"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
                     {"kind": "ball", "center": [3.0, 0.0], "radius": 1.0}, False),
}
PROJECTABLE = ("ball-ball-gap", "ball-ball-overlap", "box-ball-gap", "ball-pair-hd")
CLI_SIZES = {
    # budgets 4x apart; dimension of the seeded ball pair
    "full": {"budgets": (50, 200), "dim": 10},
    "tiny": {"budgets": (16, 64), "dim": 4},
}
# A pocs intersection point may sit this far outside the second set.
POCS_POINT_TOL = 1e-6 + 1e-9


def seeded_ball_pair(rng, d: int):
    """Two overlapping unit balls in d dimensions, centres 1.4 apart in a
    random direction: nearly every LMO output is new.  Only the position
    and direction are random, so the work hardly depends on the seed."""
    cp = rng.normal(size=d)
    cq = cp + 1.4 * _unit(rng, d)
    return ({"kind": "ball", "center": cp.tolist(), "radius": 1.0},
            {"kind": "ball", "center": cq.tolist(), "radius": 1.0}, True)


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli_solve(setmeet, workdir: Path, pair: str, geoms, algorithm: str, budget: int,
               size: str | None, sink) -> Solve:
    geom_p, geom_q, intersecting = geoms
    stem = f"{pair}.{algorithm}.{budget}"
    spec_path = workdir / f"{stem}.json"
    csv_path = workdir / f"{stem}.csv"
    cert_path = workdir / f"{stem}.cert.json"
    spec_path.write_text(json.dumps({
        "dimension": len(geom_p.get("center", geom_p.get("lower"))),
        "set_p": geom_p,
        "set_q": geom_q,
        "algorithm": algorithm,
        "step_rule": "agnostic",
        "max_iters": budget,
        "seed": 0,
        "output": str(csv_path),
    }))
    argv = ["solve", str(spec_path)]

    def call():
        with redirect_stdout(sink):
            return setmeet.cli.main(argv)

    def check(rc) -> Outcome:
        cert = json.loads(cert_path.read_text())
        verdict = cert["verdict"]
        problems = truth_problems(verdict, intersecting)
        expected_rc = {"intersection": 0, "disjoint": 1}.get(verdict, 2)
        if rc != expected_rc:
            problems.append(f"exit code {rc} for verdict {verdict}")
        if verdict == "disjoint":
            problems += checks.check_disjoint(geom_p, geom_q, cert["direction"], cert["margin"])
        elif verdict == "intersection":
            tol = POCS_POINT_TOL if algorithm == "pocs" else 1e-7
            problems += checks.check_point_in_sets(geom_p, geom_q, cert["point"], tol)
        digest = _sha(csv_path)
        golden = GOLDEN.get(stem)
        if pair in FIXED_PAIRS and digest != golden:
            problems.append(f"trace digest {digest} != recorded {golden}")
        if algorithm == "cbcg" and csv_path.read_bytes() != (
            workdir / f"{pair}.alm.{budget}.csv"
        ).read_bytes():
            problems.append("cbcg trace CSV differs from the alm trace CSV")
        return Outcome(verdict, int(cert["lmo_calls"]), int(cert["iterations"]), problems, digest)

    return Solve(stem, size, call, check)


def cli_long_runs(setmeet, rng, size: str, workdir: Path) -> list[Solve]:
    cfg = CLI_SIZES[size]
    small, large = cfg["budgets"]
    pairs = dict(FIXED_PAIRS)
    pairs["ball-pair-hd"] = seeded_ball_pair(rng, cfg["dim"])
    sink = io.StringIO()
    batch = []
    for pair, geoms in pairs.items():
        for budget, label in ((small, "small"), (large, "large")):
            for algorithm in ("alm", "cbcg"):
                batch.append(_cli_solve(setmeet, workdir, pair, geoms, algorithm, budget,
                                        label, sink))
        if pair in PROJECTABLE:
            batch.append(_cli_solve(setmeet, workdir, pair, geoms, "pocs", large, None, sink))
    batch.append(_cli_solve(setmeet, workdir, "ball-ball-overlap", pairs["ball-ball-overlap"],
                            "alm-adaptive", large, None, sink))
    return batch


# --------------------------------------------------------- polytope-adaptive

POLY_SIZES = {
    # (d, m): overlapping clouds, left clouds, right clouds at a small
    # margin, right clouds at a clear margin.  Pairs: every two
    # overlapping clouds, and every left cloud with every right cloud.
    "full": {(20, 200): (4, 2, 1, 1), (30, 300): (4, 2, 1, 1)},
    "tiny": {(5, 20): (2, 1, 1, 1), (8, 40): (2, 1, 1, 1)},
}
SMALL_MARGIN = 0.2
CLEAR_MARGIN = 1.0
ADAPTIVE_BUDGET = 100_000
# The clouds' shapes come from this fixed seed; the workload seed moves
# them rigidly (see ``polytope_adaptive``).
POLY_SHAPE_SEED = 2212_02933


def ones_fixing_rotation(rng, d: int) -> np.ndarray:
    """A random orthogonal map that leaves the all-ones direction fixed."""
    e = np.ones(d) / np.sqrt(d)
    basis, _ = np.linalg.qr(np.column_stack([e, rng.normal(size=(d, d - 1))]))
    rest = basis[:, 1:]
    return np.outer(e, e) + rest @ _rotation(rng, d - 1) @ rest.T


def _adaptive_solve(setmeet, name, size, p, q, verts_p, verts_q, intersecting, rule) -> Solve:
    def call():
        return setmeet.alm.adaptive_run(p, q, rule, ADAPTIVE_BUDGET)

    def check(raw) -> Outcome:
        cert, trace, _state = raw
        problems = truth_problems(cert.verdict, intersecting)
        if cert.verdict == "disjoint":
            problems += checks.check_disjoint(
                {"kind": "vpolytope", "vertices": verts_p},
                {"kind": "vpolytope", "vertices": verts_q},
                cert.direction, cert.margin,
            )
        elif cert.verdict == "intersection":
            problems += checks.check_combination(
                cert.point, cert.weights_p, cert.support_p, cert.weights_q, cert.support_q,
                verts_p, verts_q,
            )
        iterations = len(trace.rows) // 2
        digest = f"{cert.verdict}:{cert.lmo_calls}:{iterations}:{trace.final_objective!r}"
        # The iteration count to a verdict depends on the instance, so the
        # unit of work here is an input vertex, as in hull-lp.
        work = len(verts_p) + len(verts_q)
        return Outcome(cert.verdict, int(cert.lmo_calls), work, problems, digest)

    return Solve(name, size, call, check)


def polytope_adaptive(setmeet, rng, size: str, workdir: Path) -> list[Solve]:
    """V-polytope pairs whose shapes are fixed and whose placement is seeded.

    Which checkpoint (t = 16 or 32) finds a common point, and how long a
    small-margin pair runs, depend strongly on the clouds' shapes: drawn
    afresh from each seed, the batch's LMO count spread by 14% between
    seeds.  So the shapes come from ``POLY_SHAPE_SEED``, and the workload
    seed picks an orthogonal map fixing the all-ones direction (the
    direction of ``adaptive_run``'s default start), a translation and the
    vertex order.  Every coordinate differs between seeds, but verdicts,
    iteration counts and LMO counts do not; the LPs' pivoting may.
    """
    VPolytope = setmeet.oracles.VPolytope
    rules = (setmeet.cbcg.StepRule.AGNOSTIC, setmeet.cbcg.StepRule.SHORT_STEP)
    sizes = POLY_SIZES[size]
    shapes = np.random.default_rng(POLY_SHAPE_SEED)
    batch = []
    for label, ((d, m), (n_over, n_left, n_small, n_clear)) in zip(("small", "large"),
                                                                   sizes.items()):
        rot, shift = ones_fixing_rotation(rng, d), rng.normal(size=d)

        def placed(pts):
            return shuffled(rng, pts @ rot.T + shift)

        z = shapes.normal(size=d)
        over = [placed(cloud_around(shapes, z, m)) for _ in range(n_over)]
        w = _unit(shapes, d)
        left = [placed(-cloud_beyond(shapes, w, m, SMALL_MARGIN / 2)) for _ in range(n_left)]
        right = [(placed(cloud_beyond(shapes, w, m, SMALL_MARGIN / 2)), "small")
                 for _ in range(n_small)]
        right += [(placed(cloud_beyond(shapes, w, m, CLEAR_MARGIN - SMALL_MARGIN / 2)), "clear")
                  for _ in range(n_clear)]
        pairs = [(f"overlap{i}{j}", over[i], over[j], True)
                 for i in range(n_over) for j in range(i + 1, n_over)]
        pairs += [(f"{kind}{i}{j}", left[i], r, False)
                  for i in range(n_left) for j, (r, kind) in enumerate(right)]
        polys: dict[int, Any] = {}
        for name, a, b, intersecting in pairs:
            p = polys.setdefault(id(a), VPolytope(a))
            q = polys.setdefault(id(b), VPolytope(b))
            for rule in rules:
                batch.append(_adaptive_solve(setmeet, f"d{d}m{m}.{name}.{rule.value}", label,
                                             p, q, a, b, intersecting, rule))
    return batch


# ------------------------------------------------------------------ hull-lp

HULL_SIZES = {
    # points per side: (feasible programs, infeasible programs)
    "full": {"dim": 30, "counts": {100: (10, 10), 400: (2, 2)}},
    "tiny": {"dim": 6, "counts": {20: (2, 2), 40: (1, 1)}},
}
HULL_MARGIN = 0.2


def _hull_solve(setmeet, name, size, u, v, distinct, intersecting) -> Solve:
    feas = setmeet.feasibility

    def call():
        prog = feas.FeasibilityProgram(u, v)
        return prog, feas.solve_feasibility(prog)

    def check(raw) -> Outcome:
        prog, combo = raw
        verdict = "disjoint" if combo is None else "intersection"
        problems = truth_problems(verdict, intersecting)
        kept = prog.u_points.shape[0] + prog.v_points.shape[0]
        if kept != distinct:
            problems.append(f"dedup kept {kept} points, {distinct} are distinct")
        problems += checks.check_rows_from(prog.u_points, u)
        problems += checks.check_rows_from(prog.v_points, v)
        if combo is not None:
            problems += checks.check_combination(
                combo.point, combo.lam, prog.u_points, combo.kappa, prog.v_points,
                prog.u_points, prog.v_points,
            )
        digest = f"{verdict}:{kept}:{'' if combo is None else combo.point.tobytes().hex()[:16]}"
        # One LP solve is charged as one oracle call, as adaptive_run does.
        return Outcome(verdict, 1, u.shape[0] + v.shape[0], problems, digest)

    return Solve(name, size, call, check)


def hull_lp(setmeet, rng, size: str, workdir: Path) -> list[Solve]:
    cfg = HULL_SIZES[size]
    d = cfg["dim"]
    batch = []
    for label, (n, (n_feas, n_infeas)) in zip(("small", "large"), cfg["counts"].items()):
        for i in range(n_feas + n_infeas):
            intersecting = i < n_feas
            if intersecting:
                z = rng.normal(size=d)
                u, du = with_near_duplicates(rng, cloud_around(rng, z, n), fixed=2 * d)
                v, dv = with_near_duplicates(rng, cloud_around(rng, z, n), fixed=2 * d)
            else:
                w = _unit(rng, d)
                u, du = with_near_duplicates(rng, -cloud_beyond(rng, w, n, HULL_MARGIN / 2))
                v, dv = with_near_duplicates(rng, cloud_beyond(rng, w, n, HULL_MARGIN / 2))
            u, v = shuffled(rng, u), shuffled(rng, v)
            kind = "feasible" if intersecting else "infeasible"
            batch.append(_hull_solve(setmeet, f"n{n}.{kind}{i}", label, u, v, du + dv,
                                     intersecting))
    return batch


WORKLOADS = {
    "cli-long-runs": cli_long_runs,
    "polytope-adaptive": polytope_adaptive,
    "hull-lp": hull_lp,
}


def build(setmeet, name: str, seed: int, size: str, workdir: Path) -> list[Solve]:
    """The workload's batch; the same seed always gives the same inputs."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    return WORKLOADS[name](setmeet, rng, size, workdir)

