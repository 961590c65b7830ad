import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
import warnings
from pathlib import Path

import numpy as np
import pytest

import setmeet
from setmeet import (
    Ball, Box, L1Ball, Simplex, VPolytope, support_gap, supports_projection,
)
from setmeet.cli import main, parse_problem_spec
from setmeet.instances import TWO_SET_INSTANCES
from helpers import golden_run_record

TRI_P = {"kind": "vpolytope", "vertices": [[0, 0], [2, 0], [0, 2]]}
SEG_TOUCH = {"kind": "vpolytope", "vertices": [[1, 1], [3, 1]]}
SEG_LEFT = {"kind": "vpolytope", "vertices": [[0, 0], [0, 1]]}
SEG_RIGHT = {"kind": "vpolytope", "vertices": [[2, 0], [2, 1]]}


def write_spec(tmp_path, name="problem.json", **overrides):
    spec = {
        "dimension": 2,
        "set_p": TRI_P,
        "set_q": SEG_TOUCH,
        "algorithm": "alm-adaptive",
        "step_rule": "agnostic",
        "max_iters": 500,
        "seed": 0,
        "output": str(tmp_path / "trace.csv"),
    }
    spec.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return path


class TestSolve:
    def test_intersecting_polytopes_exit_zero(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        assert main(["solve", str(path)]) == 0
        cert = json.loads((tmp_path / "trace.cert.json").read_text())
        assert cert["verdict"] == "intersection"
        assert np.allclose(cert["point"], [1.0, 1.0], atol=1e-7)
        # Certificate re-validates against the geometry.
        assert VPolytope(TRI_P["vertices"]).contains(cert["point"], tol=1e-9)
        assert VPolytope(SEG_TOUCH["vertices"]).contains(cert["point"], tol=1e-9)

    def test_disjoint_segments_exit_one(self, tmp_path):
        path = write_spec(tmp_path, set_p=SEG_LEFT, set_q=SEG_RIGHT)
        assert main(["solve", str(path)]) == 1
        cert = json.loads((tmp_path / "trace.cert.json").read_text())
        assert cert["verdict"] == "disjoint"
        assert cert["margin"] > 0.0
        gap = support_gap(
            VPolytope(SEG_LEFT["vertices"]),
            VPolytope(SEG_RIGHT["vertices"]),
            np.array(cert["direction"]),
        )
        assert gap == pytest.approx(cert["margin"], abs=1e-9)

    def test_budget_exhaustion_exit_two(self, tmp_path):
        path = write_spec(
            tmp_path,
            set_p={"kind": "ball", "center": [0, 0], "radius": 1.0},
            set_q={"kind": "ball", "center": [2.05, 0], "radius": 1.0},
            algorithm="alm",
            max_iters=1,
        )
        assert main(["solve", str(path)]) == 2
        cert = json.loads((tmp_path / "trace.cert.json").read_text())
        assert cert["verdict"] == "undecided"

    def test_trace_round_trip(self, tmp_path):
        path = write_spec(tmp_path, algorithm="alm", max_iters=40,
                          set_q={"kind": "box", "lower": [1, 1], "upper": [3, 3]})
        main(["solve", str(path)])
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "t,block,objective,block_gap,full_gap,gamma,lmo_calls"
        assert len(lines) - 1 == 2 * 40
        last = lines[-1].split(",")
        assert int(last[0]) == 79 and int(last[6]) == 80

    def test_deterministic_output(self, tmp_path):
        path = write_spec(tmp_path, algorithm="alm", max_iters=60)
        main(["solve", str(path)])
        first = (tmp_path / "trace.csv").read_bytes()
        main(["solve", str(path)])
        assert (tmp_path / "trace.csv").read_bytes() == first

    def test_flag_overrides(self, tmp_path):
        path = write_spec(tmp_path, algorithm="alm", max_iters=500)
        out = tmp_path / "other.csv"
        assert main(["solve", str(path), "--max-iters", "7", "--rule", "short",
                     "--out", str(out)]) in (0, 2)
        lines = out.read_text().strip().splitlines()
        assert len(lines) - 1 == 14

    def test_pocs_algorithm(self, tmp_path):
        path = write_spec(
            tmp_path,
            set_p={"kind": "box", "lower": [0, 0], "upper": [2, 2]},
            set_q={"kind": "box", "lower": [1, 1], "upper": [3, 3]},
            algorithm="pocs",
            max_iters=200,
        )
        assert main(["solve", str(path)]) == 0
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "t,distance_sq,residual"

    def test_pocs_near_miss_is_undecided(self, tmp_path):
        # Disjoint by 5e-7: a small final gap is not a common point.
        path = write_spec(
            tmp_path,
            set_p={"kind": "ball", "center": [0, 0], "radius": 1.0},
            set_q={"kind": "ball", "center": [2.0000005, 0], "radius": 1.0},
            algorithm="pocs",
            max_iters=1000,
        )
        assert main(["solve", str(path)]) == 2
        cert = json.loads((tmp_path / "trace.cert.json").read_text())
        assert cert["verdict"] == "undecided"

    def test_cbcg_algorithm(self, tmp_path):
        # Plain runs only report an intersection on exact contact, so an
        # overlapping pair ends undecided; the trace is still written.
        path = write_spec(
            tmp_path,
            set_p={"kind": "simplex", "dimension": 2, "scale": 1.0},
            set_q={"kind": "box", "lower": [0, 0], "upper": [1, 1]},
            algorithm="cbcg",
            max_iters=50,
        )
        assert main(["solve", str(path)]) == 2
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 2 * 50

    def test_cbcg_algorithm_disjoint_exit(self, tmp_path):
        path = write_spec(tmp_path, set_p=SEG_LEFT, set_q=SEG_RIGHT,
                          algorithm="cbcg", max_iters=60)
        assert main(["solve", str(path)]) == 1


class TestErrors:
    def test_malformed_spec_names_field(self, tmp_path, capsys):
        path = write_spec(tmp_path, set_p={"kind": "box", "lower": [0, 0]})
        assert main(["solve", str(path)]) == 3
        assert "set_p.upper" in capsys.readouterr().err

    def test_unknown_geometry_kind(self, tmp_path, capsys):
        path = write_spec(tmp_path, set_q={"kind": "torus"})
        assert main(["solve", str(path)]) == 3
        assert "set_q.kind" in capsys.readouterr().err

    def test_pocs_on_vpolytope_clear_message(self, tmp_path, capsys):
        path = write_spec(tmp_path, algorithm="pocs")
        assert main(["solve", str(path)]) == 3
        err = capsys.readouterr().err
        assert "pocs" in err and "alm" in err

    def test_dimension_mismatch_named(self, tmp_path, capsys):
        path = write_spec(tmp_path, dimension=3)
        assert main(["solve", str(path)]) == 3
        assert "set_p" in capsys.readouterr().err

    def test_unreadable_path(self, tmp_path):
        assert main(["solve", str(tmp_path / "missing.json")]) == 3

    def test_unknown_suite(self, capsys):
        assert main(["bench", "nope"]) == 3
        assert "unknown bench suite" in capsys.readouterr().err

    def test_bad_usage_exits_three(self):
        assert main(["frobnicate"]) == 3

    def test_parse_rejects_bad_rule(self, tmp_path):
        path = write_spec(tmp_path, step_rule="fastest")
        assert main(["solve", str(path)]) == 3

    def test_non_string_output_exits_three(self, tmp_path, capsys):
        path = write_spec(tmp_path, output=5)
        assert main(["solve", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: spec.output")

    @pytest.mark.parametrize("field", ["dimension", "max_iters"])
    def test_boolean_count_exits_three(self, tmp_path, capsys, field):
        # One-dimensional sets, so that `true` read as 1 would run.
        fields = {"dimension": 1, "max_iters": 5, field: True}
        path = write_spec(
            tmp_path, algorithm="alm", **fields,
            set_p={"kind": "ball", "center": [0], "radius": 1.0},
            set_q={"kind": "ball", "center": [3], "radius": 1.0},
        )
        assert main(["solve", str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"error: spec.{field}")

    def test_fractional_simplex_dimension_exits_three(self, tmp_path, capsys):
        path = write_spec(tmp_path, algorithm="alm",
                          set_p={"kind": "simplex", "dimension": 2.7, "scale": 1.0})
        assert main(["solve", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: spec.set_p.dimension")

    @pytest.mark.parametrize("set_p", [
        {"kind": "ball", "center": [0, 0], "radius": "abc"},
        {"kind": "vpolytope", "vertices": [[0, 0], [1]]},
        {"kind": "simplex", "dimension": 2, "scale": "x"},
    ], ids=["radius", "vertices", "scale"])
    def test_malformed_geometry_names_its_field(self, tmp_path, capsys, set_p):
        path = write_spec(tmp_path, algorithm="alm", set_p=set_p)
        assert main(["solve", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: spec.set_p:")

    def test_zero_max_iters_override_exits_three(self, tmp_path, capsys):
        path = write_spec(
            tmp_path,
            set_p={"kind": "box", "lower": [0, 0], "upper": [2, 2]},
            set_q={"kind": "box", "lower": [1, 1], "upper": [3, 3]},
            algorithm="pocs",
        )
        assert main(["solve", str(path), "--max-iters", "0"]) == 3
        assert capsys.readouterr().err.startswith("error: --max-iters")


class TestProbes:
    def test_lmo_probe(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        assert main(["lmo", str(path), "--direction", "1,1"]) == 0
        out = capsys.readouterr().out
        assert "set_p: lmo = [0.0, 0.0]" in out
        assert "support_gap" in out

    def test_feastest_feasible(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        assert main(["feastest", str(path)]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_feastest_infeasible(self, tmp_path):
        path = write_spec(tmp_path, set_p=SEG_LEFT, set_q=SEG_RIGHT)
        assert main(["feastest", str(path)]) == 1

    def test_feastest_requires_polytopes(self, tmp_path):
        path = write_spec(tmp_path, set_p={"kind": "ball", "center": [0, 0], "radius": 1})
        assert main(["feastest", str(path)]) == 3

    def test_feastest_without_a_verdict_exits_three(self, tmp_path, monkeypatch, capsys):
        def undecided(u_points, v_points, start=None):
            return setmeet.HullMeet(None, None, np.array([0, len(u_points)]), np.ones(2),
                                    len(u_points))

        monkeypatch.setattr(setmeet.feasibility, "hull_meet", undecided)
        assert main(["feastest", str(write_spec(tmp_path))]) == 3
        assert capsys.readouterr().err.startswith("error: hull_meet reached no verdict")


GOLDEN_BENCH = Path(__file__).with_name("golden_bench.json")
BENCH_SUITES = ("rates", "certificates", "adaptive", "pocs-vs-alm")


def bench_digest(suite: str) -> tuple[int, str, str]:
    """Exit code, stdout and the stdout's sha256 of `setmeet bench <suite>`."""
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(["bench", suite])
    return rc, out.getvalue(), hashlib.sha256(out.getvalue().encode()).hexdigest()


def run_bench(suite: str) -> str:
    # The tables themselves are pinned: every row, not only the verdict line.
    rc, out, digest = bench_digest(suite)
    assert rc == 0
    assert digest == json.loads(GOLDEN_BENCH.read_text())[suite], out
    return out


class TestBench:
    def test_pocs_vs_alm_table(self):
        out = run_bench("pocs-vs-alm")
        assert "projections" in out and "all ok" in out

    def test_certificates_suite(self):
        assert "all ok" in run_bench("certificates")

    def test_rates_suite(self):
        assert "all ok" in run_bench("rates")

    def test_adaptive_suite(self):
        assert "all ok" in run_bench("adaptive")


def test_parse_problem_spec_fields(tmp_path):
    path = write_spec(tmp_path, max_iters=77)
    spec = parse_problem_spec(path)
    assert spec.max_iters == 77
    assert spec.algorithm == "alm-adaptive"
    assert spec.set_p.dim == 2


BIG_BALLS = {
    "set_p": {"kind": "ball", "center": [1e300, 0], "radius": 1.0},
    "set_q": {"kind": "ball", "center": [-1e300, 0], "radius": 1.0},
}


@pytest.mark.parametrize("algorithm", ["alm", "alm-adaptive", "cbcg"])
def test_numerics_error_exits_three(tmp_path, capsys, algorithm):
    # ||x - y||^2 overflows: an error, never the disjoint verdict's exit 1.
    path = write_spec(tmp_path, algorithm=algorithm, max_iters=10, **BIG_BALLS)
    with np.errstate(over="ignore"):
        assert main(["solve", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: non-finite")


@pytest.mark.parametrize("algorithm", ["alm", "alm-adaptive", "cbcg", "pocs", "lmo"])
def test_overflow_prints_only_the_error_line(tmp_path, capsys, algorithm):
    # No numpy overflow warning ahead of the error, and pocs does not report
    # the overflowed run as undecided.  The lmo probe's objective overflows.
    if algorithm == "lmo":
        huge = {"kind": "vpolytope", "vertices": [[1e308, 0], [-1e308, 0]]}
        argv = ["lmo", str(write_spec(tmp_path, set_p=huge, set_q=huge)), "--direction", "10,0"]
    else:
        path = write_spec(tmp_path, algorithm=algorithm, max_iters=10, **BIG_BALLS)
        argv = ["solve", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite ") and err.count("\n") == 1, err


def test_lp_runtime_error_exits_three(tmp_path, capsys, monkeypatch):
    # A RuntimeError from the checkpoint decider, as alm calls it, exits 3 with its message.
    def fail(u_points, v_points, start=None):
        raise RuntimeError("checkpoint decider failed")

    monkeypatch.setattr("setmeet.alm.hull_meet", fail)
    path = write_spec(tmp_path)
    assert main(["solve", str(path)]) == 3
    assert "error: checkpoint decider failed" in capsys.readouterr().err


def geometry_json(geom) -> dict:
    if isinstance(geom, Box):
        return {"kind": "box", "lower": geom.lower.tolist(), "upper": geom.upper.tolist()}
    if isinstance(geom, (Ball, L1Ball)):
        kind = "ball" if isinstance(geom, Ball) else "l1ball"
        return {"kind": kind, "center": geom.center.tolist(), "radius": geom.radius}
    if isinstance(geom, Simplex):
        return {"kind": "simplex", "dimension": geom.dimension, "scale": geom.scale}
    return {"kind": "vpolytope", "vertices": geom.vertices.tolist()}


@pytest.mark.parametrize("rule", ["agnostic", "short"])
@pytest.mark.parametrize("inst", TWO_SET_INSTANCES, ids=lambda inst: inst.name)
def test_cbcg_solve_equals_alm_solve(tmp_path, inst, rule):
    # Byte for byte, runs that stop on exact contact included.
    outputs = {}
    for algorithm in ("alm", "cbcg"):
        csv = tmp_path / f"{algorithm}.csv"
        path = write_spec(
            tmp_path, name=f"{algorithm}.json", dimension=inst.set_p.dim,
            set_p=geometry_json(inst.set_p), set_q=geometry_json(inst.set_q),
            algorithm=algorithm, step_rule=rule, max_iters=300, output=str(csv),
        )
        rc = main(["solve", str(path)])
        cert = tmp_path / f"{algorithm}.cert.json"
        outputs[algorithm] = (rc, csv.read_bytes(), cert.read_bytes())
    assert outputs["cbcg"] == outputs["alm"]


GOLDEN_SOLVE = Path(__file__).with_name("golden_solve.json")
RULE_NAMES = ("agnostic", "short")


def solve_digests(tmp_path, inst, rule) -> dict:
    """Exit code and sha256 of the trace CSV and certificate JSON per algorithm."""
    algorithms = ["alm", "alm-adaptive"]
    if supports_projection(inst.set_p) and supports_projection(inst.set_q):
        algorithms.append("pocs")
    out = {}
    for algorithm in algorithms:
        csv = tmp_path / f"{algorithm}.csv"
        path = write_spec(
            tmp_path, name=f"{algorithm}.json", dimension=inst.set_p.dim,
            set_p=geometry_json(inst.set_p), set_q=geometry_json(inst.set_q),
            algorithm=algorithm, step_rule=rule, max_iters=300, output=str(csv),
        )
        rc = main(["solve", str(path)])
        cert = tmp_path / f"{algorithm}.cert.json"
        out[f"{inst.name}/{rule}/{algorithm}"] = {
            "exit": rc,
            "csv": hashlib.sha256(csv.read_bytes()).hexdigest(),
            "cert": hashlib.sha256(cert.read_bytes()).hexdigest(),
        }
    return out


@pytest.mark.parametrize("rule", RULE_NAMES)
@pytest.mark.parametrize("inst", TWO_SET_INSTANCES, ids=lambda inst: inst.name)
def test_solve_outputs_match_golden(tmp_path, inst, rule):
    # The behaviour contract: `setmeet solve` writes these bytes and exit codes.
    golden = json.loads(GOLDEN_SOLVE.read_text())
    got = solve_digests(tmp_path, inst, rule)
    assert got == {key: golden[key] for key in got}


PERFBENCH = Path(__file__).parents[1] / "perfbench"
PERFBENCH_GOLDEN = PERFBENCH / "golden.json"


def perfbench_digests(tmp_path: Path) -> dict:
    """sha256 of the trace CSV at every key the benchmark pins, each at its
    recorded budget, from the spec its cli-long-runs workload writes for
    that pair.  Needs the repository root on sys.path."""
    from perfbench.workloads import FIXED_PAIRS

    got = {}
    for key in json.loads(PERFBENCH_GOLDEN.read_text()):
        pair, algorithm, budget = key.rsplit(".", 2)
        geom_p, geom_q, _intersecting = FIXED_PAIRS[pair]
        dimension = len(geom_p.get("center", geom_p.get("lower")))
        csv = tmp_path / f"{key}.csv"
        path = write_spec(
            tmp_path, name=f"{key}.json", dimension=dimension, set_p=geom_p, set_q=geom_q, algorithm=algorithm, step_rule="agnostic",
            max_iters=int(budget), output=str(csv),
        )
        with redirect_stdout(io.StringIO()):
            main(["solve", str(path)])
        got[key] = hashlib.sha256(csv.read_bytes()).hexdigest()
    return got


def test_solve_outputs_match_perfbench_golden(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH.parent))
    assert perfbench_digests(tmp_path) == json.loads(PERFBENCH_GOLDEN.read_text())


@pytest.mark.parametrize("solver", ["alm_run", "adaptive_run"])
def test_tracer_books_each_run_under_its_own_solver(monkeypatch, solver):
    # One span per run, named for the solver called: the shared loop is not
    # reached through the other public solver, whose span would then count
    # the same time twice, and the final stores are counted once.
    monkeypatch.syspath_prepend(str(PERFBENCH.parent))
    from perfbench.tracer import Tracer

    other = "adaptive_run" if solver == "alm_run" else "alm_run"
    for inst in TWO_SET_INSTANCES:
        tracer = Tracer()
        with tracer.installed(setmeet):
            state = getattr(setmeet.alm, solver)(inst.set_p, inst.set_q,
                                                 setmeet.StepRule.AGNOSTIC, 50).state
        names = [span[0] for span in tracer.spans]
        assert names.count(f"alm.{solver}") == 1 and f"alm.{other}" not in names, inst.name
        assert tracer.counters["alm.seen_final"] == len(state.seen_p) + len(state.seen_q)


@pytest.mark.parametrize("dropped", [None, ("alm", "solve_feasibility"), ("alm", "_add_seen"),
                                     ("feasibility", "phase_one_simplex")])
def test_tracer_wrap_points_resolve(monkeypatch, dropped):
    # perfbench's tracer finds what it wraps by name; each name must resolve,
    # and losing one of them fails here rather than only in a traced bench run.
    monkeypatch.syspath_prepend(str(PERFBENCH.parent))
    from perfbench.tracer import _wrap_points

    if dropped is not None:
        module, attr = dropped
        monkeypatch.delattr(f"setmeet.{module}.{attr}")

    def resolve():
        for owner, attr, *_hooks in _wrap_points(setmeet):
            assert callable(getattr(owner, attr)), (owner, attr)

    if dropped is None:
        resolve()
    else:
        with pytest.raises(AttributeError):
            resolve()


GOLDEN_RUNS = Path(__file__).with_name("golden_runs.json")


def test_runs_match_golden():
    # Library runs bit for bit: trace rows, final points, the stores'
    # rows and weights, and every certificate array.
    assert golden_run_record() == json.loads(GOLDEN_RUNS.read_text())


def compare_golden(path: Path, record: dict, write: bool, what: str) -> int:
    """Print the entries of ``record`` that differ from ``path``; rewrite it if ``write``."""
    golden = json.loads(path.read_text())
    changed = sorted(key for key in golden.keys() | record.keys()
                     if golden.get(key) != record.get(key))
    for key in changed:
        old, new = (json.dumps(d.get(key), sort_keys=True) for d in (golden, record))
        print(f"{key}: {old} -> {new}")
    if write:
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(record)} {what} to {path.name}")
        return 0
    print(f"{len(changed)} of {len(record)} {what} differ")
    return len(changed)


def main_record(argv: list[str]) -> int:
    """Compare `setmeet solve`, `setmeet bench`, the library runs and the
    benchmark's trace digests with their goldens; with --write, rewrite the
    first three.  perfbench/golden.json is only compared, never written."""
    sys.path.insert(0, str(PERFBENCH.parent))
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        record = {}
        for inst in TWO_SET_INSTANCES:
            for rule in RULE_NAMES:
                record.update(solve_digests(Path(tmp), inst, rule))
        perfbench = perfbench_digests(Path(tmp))
    benches = {suite: bench_digest(suite)[2] for suite in BENCH_SUITES}
    write = "--write" in argv
    changed = compare_golden(GOLDEN_SOLVE, record, write, "entries")
    changed += compare_golden(GOLDEN_BENCH, benches, write, "bench suites")
    changed += compare_golden(GOLDEN_RUNS, golden_run_record(), write, "library runs")
    changed += compare_golden(PERFBENCH_GOLDEN, perfbench, False, "perfbench digests")
    return 1 if changed else 0


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_cli.py [--write]
    # Lists the solve entries, bench suites, library runs and perfbench trace
    # digests that differ, old -> new; --write re-records the first three
    # files and leaves perfbench/golden.json to a benchmark change.
    sys.exit(main_record(sys.argv[1:]))
