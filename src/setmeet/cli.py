"""Command-line driver: solve problem files, probe oracles, run benches.

Problem files are JSON:

    {
      "dimension": 2,
      "set_p": {"kind": "box", "lower": [0, 0], "upper": [1, 1]},
      "set_q": {"kind": "ball", "center": [3, 0], "radius": 1.0},
      "algorithm": "alm",            // alm | alm-adaptive | pocs | cbcg (= alm)
      "step_rule": "agnostic",       // agnostic | short
      "max_iters": 1000,
      "output": "trace.csv"
    }

Exit codes: 0 intersection point found, 1 disjointness certified,
2 undecided at the iteration budget, 3 any error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import alm, instances
from .cbcg import IterateTrace, RateReport, StepRule, cbcg_run, check_rate_bounds
from .feasibility import FeasibilityProgram, epsilon_pq, solve_feasibility
from .oracles import (
    Ball,
    Box,
    L1Ball,
    OracleSet,
    Simplex,
    VPolytope,
    support_gap,
    supports_projection,
)
from .pocs import check_pocs_rate, pocs_certificate, pocs_run

EXIT_INTERSECTION = 0
EXIT_DISJOINT = 1
EXIT_UNDECIDED = 2
EXIT_ERROR = 3


class SpecError(ValueError):
    """Problem-file validation error, naming the offending field."""


@dataclass
class ProblemSpec:
    dimension: int
    set_p: OracleSet
    set_q: OracleSet
    algorithm: str
    step_rule: StepRule
    max_iters: int
    output: str


def _field(obj: dict, name: str, where: str):
    if name not in obj:
        raise SpecError(f"{where}.{name}: missing required field")
    return obj[name]


def _positive_int(value, name: str) -> int:
    """A count field: an integer >= 1, and neither a boolean nor a float."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SpecError(f"{name}: must be an integer >= 1, got {value!r}")
    return value


# Each geometry field's rank: a number, a flat list or a list of lists.
_RANKS = {"radius": 0, "scale": 0, "center": 1, "lower": 1, "upper": 1, "vertices": 2}
_RANK_NAMES = ("a number", "a list of numbers", "a list of lists of numbers")


def _numbers(obj: dict, name: str, where: str):
    """A geometry field: finite JSON numbers nested to the field's rank, no
    boolean or string that numpy would read as one, and no ragged list."""
    value = _field(obj, name, where)
    stack = [value]
    while stack:
        x = stack.pop()
        if isinstance(x, list):
            stack.extend(reversed(x))
        elif (isinstance(x, bool) or not isinstance(x, (int, float))
              or not abs(x) <= sys.float_info.max):
            raise SpecError(f"{where}: {name} must hold finite JSON numbers, got {x!r}")
    try:
        rank = np.array(value, dtype=float).ndim
    except ValueError:
        raise SpecError(f"{where}: {name} must be a rectangular list of numbers") from None
    if rank != _RANKS[name]:
        raise SpecError(f"{where}: {name} must be {_RANK_NAMES[_RANKS[name]]}, got {value!r}")
    return value


def _geometry(obj, dimension: int, where: str) -> OracleSet:
    if not isinstance(obj, dict):
        raise SpecError(f"{where}: expected an object with a 'kind' tag")
    kind = _field(obj, "kind", where)
    try:
        if kind == "box":
            geom = Box(_numbers(obj, "lower", where), _numbers(obj, "upper", where))
        elif kind == "ball":
            geom = Ball(_numbers(obj, "center", where), _numbers(obj, "radius", where))
        elif kind == "simplex":
            size = _positive_int(_field(obj, "dimension", where), f"{where}.dimension")
            geom = Simplex(size, _numbers(obj, "scale", where) if "scale" in obj else 1.0)
        elif kind == "l1ball":
            geom = L1Ball(_numbers(obj, "center", where), _numbers(obj, "radius", where))
        elif kind == "vpolytope":
            geom = VPolytope(_numbers(obj, "vertices", where))
        else:
            raise SpecError(f"{where}.kind: unknown geometry kind {kind!r}")
    except SpecError:
        raise
    except (ValueError, TypeError) as exc:
        raise SpecError(f"{where}: {exc}") from exc
    if geom.dim != dimension:
        raise SpecError(f"{where}: geometry dimension {geom.dim} != dimension {dimension}")
    return geom


def parse_problem_spec(path) -> ProblemSpec:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise SpecError(f"{path}: top level must be an object")

    dimension = _positive_int(_field(raw, "dimension", "spec"), "spec.dimension")
    algorithm = raw.get("algorithm", "alm")
    if algorithm not in ("alm", "alm-adaptive", "pocs", "cbcg"):
        raise SpecError(f"spec.algorithm: unknown algorithm {algorithm!r}")
    rule_name = raw.get("step_rule", "agnostic")
    try:
        rule = StepRule(rule_name)
    except ValueError:
        raise SpecError(f"spec.step_rule: must be 'agnostic' or 'short', got {rule_name!r}")
    max_iters = _positive_int(raw.get("max_iters", 1000), "spec.max_iters")
    output = raw.get("output", "trace.csv")
    if not isinstance(output, str):
        raise SpecError(f"spec.output: must be a path string, got {output!r}")

    return ProblemSpec(
        dimension=dimension,
        set_p=_geometry(_field(raw, "set_p", "spec"), dimension, "spec.set_p"),
        set_q=_geometry(_field(raw, "set_q", "spec"), dimension, "spec.set_q"),
        algorithm=algorithm,
        step_rule=rule,
        max_iters=max_iters,
        output=output,
    )


def write_trace_csv(trace: IterateTrace, path) -> None:
    lines = ["t,block,objective,block_gap,full_gap,gamma,lmo_calls"]
    for row in trace.rows:
        full = "" if row.full_gap is None else repr(row.full_gap)
        lines.append(
            f"{row.t},{row.block},{row.objective!r},{row.block_gap!r},{full},"
            f"{row.gamma!r},{row.lmo_calls}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_pocs_csv(trace, path) -> None:
    lines = ["t,distance_sq,residual"]
    for row in trace.rows:
        lines.append(f"{row.t},{row.distance_sq!r},{row.residual!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def certificate_json(cert: alm.Certificate) -> dict:
    out = {"verdict": cert.verdict, "lmo_calls": cert.lmo_calls, "iterations": cert.iterations}
    if isinstance(cert, alm.IntersectionPoint):
        out["point"] = [float(v) for v in cert.point]
    elif isinstance(cert, alm.Disjoint):
        out["direction"] = [float(v) for v in cert.direction]
        out["margin"] = cert.margin
    else:
        out["best_distance"] = cert.best_distance
    return out


def _certificate_path(output: str) -> Path:
    p = Path(output)
    return p.with_name(p.stem + ".cert.json")


def run_from_spec(path, *, max_iters: int | None = None, rule: str | None = None,
                  out: str | None = None) -> int:
    """Execute a problem file; writes the trace CSV and certificate JSON."""
    spec = parse_problem_spec(path)
    if max_iters is not None:
        spec.max_iters = _positive_int(max_iters, "--max-iters")
    if rule is not None:
        spec.step_rule = StepRule(rule)
    if out is not None:
        spec.output = out
    out_path = Path(spec.output)

    if spec.algorithm == "pocs":
        if not (supports_projection(spec.set_p) and supports_projection(spec.set_q)):
            raise SpecError(
                "spec.algorithm: pocs needs closed-form projections on both sets "
                "(box, ball, simplex); use alm or alm-adaptive for this geometry"
            )
        y0 = np.zeros(spec.dimension)
        trace = pocs_run(spec.set_p, spec.set_q, y0, spec.max_iters)
        write_pocs_csv(trace, out_path)
        cert: alm.Certificate = pocs_certificate(spec.set_p, spec.set_q, trace)
    else:
        # alm and cbcg name the same run: alm_run is the engine's two-block
        # case on the distance objective.  Both solvers return an AlmResult.
        run = alm.adaptive_run if spec.algorithm == "alm-adaptive" else alm.alm_run
        cert, trace, _state = run(spec.set_p, spec.set_q, spec.step_rule, spec.max_iters)
        write_trace_csv(trace, out_path)

    cert_path = _certificate_path(spec.output)
    cert_json = json.dumps(certificate_json(cert), sort_keys=True, indent=2, allow_nan=False)
    cert_path.write_text(cert_json + "\n")
    print(f"{cert.verdict}: trace -> {out_path}, certificate -> {cert_path}")
    return {"intersection": EXIT_INTERSECTION, "disjoint": EXIT_DISJOINT}.get(
        cert.verdict, EXIT_UNDECIDED
    )


def _bench_rates() -> int:
    reports: list[tuple[str, str, RateReport]] = []
    for pinst in instances.POCS_INSTANCES:
        trace = pocs_run(
            pinst.set_p, pinst.set_q, np.array(pinst.y0, dtype=float), 400,
            d_known=None if pinst.d_hat is None else np.array(pinst.d_hat),
        )
        reports.append((pinst.name, "pocs", check_pocs_rate(trace, pinst.dist_y0)))
    for inst in instances.block_instances():
        for rule in (StepRule.AGNOSTIC, StepRule.SHORT_STEP):
            starts = [np.array(s, dtype=float) for s in inst.start]
            trace = cbcg_run(inst.problem, starts, rule, inst.sweeps, record_full_gap=True)
            reports.append((inst.name, rule.value,
                            check_rate_bounds(trace, inst.problem, inst.fstar)))
    for inst in instances.TWO_SET_INSTANCES:
        result = alm.alm_run(inst.set_p, inst.set_q, StepRule.AGNOSTIC, 300)
        d_p, d_q = inst.set_p.diameter(), inst.set_q.diameter()
        report = RateReport()
        for t, dsq in enumerate(result.distance_sq):
            bound = alm.RATE_CONSTANT * (d_p ** 2 + d_q ** 2) / (t + 2) + inst.distance ** 2 / 4.0
            report.check("primal", t, dsq / 4.0, bound, "iteration")
        reports.append((inst.name, "agnostic", report))
    print(f"{'instance':<24} {'rule':<10} {'worst slack':>14} status")
    for name, rule, report in reports:
        print(f"{name:<24} {rule:<10} {report.worst:>14.3e} "
              f"{'ok' if report.passed else 'VIOLATED'}")
    return sum(not report.passed for _, _, report in reports)


def _bench_certificates() -> int:
    failures = 0
    print(f"{'instance':<24} {'fire calls':>10} {'budget':>10} {'cert calls':>10} {'budget':>10} status")
    for inst in instances.TWO_SET_INSTANCES:
        if inst.intersecting:
            continue
        d_p, d_q = inst.set_p.diameter(), inst.set_q.diameter()
        dsq_sum = d_p ** 2 + d_q ** 2
        budget_param = 8.0 * alm.RATE_CONSTANT * dsq_sum / inst.distance ** 2
        budget_free = budget_param * (d_p + d_q) ** 2 / inst.distance ** 2
        iters = int(budget_free / 2) + 2
        result = alm.alm_run(inst.set_p, inst.set_q, StepRule.AGNOSTIC, iters,
                             keep_points=True)
        fire = cert = None
        for t, ((x, y), dsq) in enumerate(zip(result.trace.points, result.distance_sq)):
            if fire is None and alm.threshold_exceeded(dsq, t, d_p, d_q, StepRule.AGNOSTIC):
                fire = 2 * t
            g = x - y
            if cert is None and alm.separates(g, support_gap(inst.set_p, inst.set_q, g), d_p, d_q):
                cert = 2 * t
        ok = fire is not None and fire <= budget_param and cert is not None and cert <= budget_free
        failures += 0 if ok else 1
        print(
            f"{inst.name:<24} {fire if fire is not None else -1:>10} {budget_param:>10.1f} "
            f"{cert if cert is not None else -1:>10} {budget_free:>10.1f} {'ok' if ok else 'VIOLATED'}"
        )
    return failures


def _bench_adaptive() -> int:
    failures = 0
    print(f"{'instance':<24} {'verdict':<14} {'calls':>6} {'budget':>10} status")
    for inst in instances.ADAPTIVE_INSTANCES:
        eps = epsilon_pq(inst.set_p, inst.set_q)
        d_p, d_q = inst.set_p.diameter(), inst.set_q.diameter()
        budget = (
            math.inf
            if math.isinf(eps)
            else 16.0 * alm.RATE_CONSTANT * (d_p ** 2 + d_q ** 2) / eps ** 2
        )
        cert = alm.adaptive_run(inst.set_p, inst.set_q, StepRule.AGNOSTIC, 10_000).certificate
        ok = isinstance(cert, alm.IntersectionPoint) and cert.lmo_calls <= budget
        if ok:
            ok = inst.set_p.contains(cert.point) and inst.set_q.contains(cert.point)
        failures += 0 if ok else 1
        print(
            f"{inst.name:<24} {cert.verdict:<14} {cert.lmo_calls:>6} {budget:>10.1f} "
            f"{'ok' if ok else 'VIOLATED'}"
        )
    return failures


def _bench_pocs_vs_alm() -> int:
    """Oracle calls to reach ||x - y||^2 within 1e-4 of dist^2, per method."""
    failures = 0
    print(f"{'instance':<24} {'projections':>12} {'lmo calls':>10}")
    for inst in instances.TWO_SET_INSTANCES:
        if not (supports_projection(inst.set_p) and supports_projection(inst.set_q)):
            continue
        target = inst.distance ** 2 + 1e-4
        y0 = np.zeros(inst.set_p.dim)
        ptrace = pocs_run(inst.set_p, inst.set_q, y0, 20_000)
        proj = next((2 * r.t for r in ptrace.rows if r.distance_sq <= target), -1)
        result = alm.alm_run(inst.set_p, inst.set_q, StepRule.SHORT_STEP, 20_000)
        calls = next((2 * t for t, d in enumerate(result.distance_sq) if d <= target), -1)
        if proj < 0 or calls < 0:
            failures += 1
        print(f"{inst.name:<24} {proj:>12} {calls:>10}")
    return failures


def bench(suite: str) -> int:
    suites = {
        "rates": _bench_rates,
        "certificates": _bench_certificates,
        "adaptive": _bench_adaptive,
        "pocs-vs-alm": _bench_pocs_vs_alm,
    }
    if suite not in suites:
        raise SpecError(
            f"unknown bench suite {suite!r}; choose from {', '.join(sorted(suites))}"
        )
    failures = suites[suite]()
    print(f"suite {suite}: {'all ok' if failures == 0 else f'{failures} violation(s)'}")
    return 0 if failures == 0 else 1


def feastest(path) -> int:
    """Hull-intersection feasibility for a spec with two vpolytope sets."""
    spec = parse_problem_spec(path)
    if not isinstance(spec.set_p, VPolytope) or not isinstance(spec.set_q, VPolytope):
        raise SpecError("feastest requires both set_p and set_q to be vpolytope")
    combo = solve_feasibility(FeasibilityProgram(spec.set_p.vertices, spec.set_q.vertices))
    if combo is None:
        print("infeasible: the vertex hulls do not intersect")
        return EXIT_DISJOINT
    print(f"feasible: point {combo.point.tolist()} (residual {combo.residual:.2e})")
    return EXIT_INTERSECTION


def lmo_probe(path, direction: str) -> int:
    spec = parse_problem_spec(path)
    try:
        c = np.array([float(v) for v in direction.split(",")], dtype=float)
    except ValueError as exc:
        raise SpecError(f"--direction: expected comma-separated floats ({exc})") from exc
    for name, geom in (("set_p", spec.set_p), ("set_q", spec.set_q)):
        v = geom.lmo(c)
        print(f"{name}: lmo = {v.tolist()}, value = {float(np.dot(c, v))!r}")
    print(f"support_gap = {support_gap(spec.set_p, spec.set_q, c)!r}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 3, not argparse's 2
        raise SpecError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="setmeet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the algorithm named in a problem file")
    solve.add_argument("spec", help="path to a problem JSON file")
    solve.add_argument("--max-iters", type=int, default=None)
    solve.add_argument("--rule", choices=["agnostic", "short"], default=None)
    solve.add_argument("--out", default=None, help="trace CSV path override")

    benchp = sub.add_parser("bench", help="run a benchmark suite")
    benchp.add_argument("suite", help="rates | certificates | adaptive | pocs-vs-alm")

    feast = sub.add_parser("feastest", help="hull-intersection feasibility test")
    feast.add_argument("spec")

    probe = sub.add_parser("lmo", help="probe both oracles along a direction")
    probe.add_argument("spec")
    probe.add_argument(
        "--direction",
        required=True,
        help="comma-separated floats; use --direction=-1,0 for leading minus",
    )
    return parser


# Overflow ends a command in an error (exit 3); numpy's warnings would precede its line.
@np.errstate(over="ignore", invalid="ignore")
def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return run_from_spec(
                args.spec, max_iters=args.max_iters, rule=args.rule, out=args.out
            )
        if args.command == "bench":
            return bench(args.suite)
        if args.command == "feastest":
            return feastest(args.spec)
        if args.command == "lmo":
            return lmo_probe(args.spec, args.direction)
        raise SpecError(f"unknown command {args.command!r}")
    except (ValueError, RuntimeError, OSError) as exc:  # every package error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
