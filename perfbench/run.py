"""Benchmark entry point: time to verdict end to end, or the per-layer split.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-long-runs --seed 1 --seconds 50 --trace 0

``--trace 0`` runs untraced passes over the batch until they have
taken ``--seconds`` and at least ``MIN_PASSES`` were made, setting the
batch up again between passes several times over the run (``setup_s``
is the median set-up), and reports the end-to-end metrics, with times
scaled to a reference machine speed (see ``calibration``).
``--trace 1`` sets up once under the tracer, then alternates untraced
and traced passes and reports the per-layer metrics, including the
tracing overhead.  Every solve's
verdict and certificate are checked after its pass, outside the timed
region.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` under the current directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# numpy links a threaded OpenBLAS; one thread keeps timings steady on a
# small machine.  This must happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np  # noqa: E402

from perfbench import calibration, workloads  # noqa: E402
from perfbench.tracer import LAYERS, Tracer  # noqa: E402

# Each solve's time is its median over the passes, so a run needs a few.
MIN_PASSES = 3
# Latency percentiles over the solves of the batch (25 or 40 of them).
PERCENTILES = (50, 75)
# Set the batch up at least SETUP_REPEATS times, spread over the run:
# again after a pass whenever set-ups have taken less than SETUP_SHARE
# of the time measured, so a cheap set-up is repeated after every pass.
# Short-term noise (file-system writes, a busy neighbour) then moves the
# median less than it moves back-to-back repetitions.  No more set-ups
# after SETUP_MAX_S once SETUP_REPEATS were made, and no more passes
# after HARD_STOP_S, so that a run always ends well inside its time limit.
SETUP_REPEATS = 3
SETUP_SHARE = 0.2
SETUP_MAX_S = 30.0
HARD_STOP_S = 100.0
OUT_DIR = ".perfbench_out"


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def load_package(root: Path):
    src = root / "src"
    if not (src / "setmeet" / "__init__.py").is_file():
        raise BenchError(f"no package source at {src / 'setmeet'}; run from a checkout root")
    sys.path.insert(0, str(src))
    import setmeet
    import setmeet.cli  # noqa: F401  (the CLI module is not imported by the package)

    if Path(setmeet.__file__).resolve().parent != (src / "setmeet").resolve():
        raise BenchError(f"setmeet was imported from {setmeet.__file__}, not from {src}")
    return setmeet


# ---------------------------------------------------------------- passes


class Pass:
    """One closed-loop pass over the batch: timings, then checked outcomes."""

    def __init__(self, batch, tracer: Tracer | None = None):
        self.names = [solve.name for solve in batch]
        self.durations: list[float] = []
        if tracer is None:
            raws = self._run(batch)
        else:
            with tracer.region("bench.pass"):
                raws = self._run(batch, tracer)
        self.outcomes = [self._check(solve, raw) for solve, raw in zip(batch, raws)]

    def _run(self, batch, tracer: Tracer | None = None) -> list:
        raws = []
        start = time.perf_counter()
        for i, solve in enumerate(batch):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    raws.append(solve.call())
                else:
                    with tracer.region("bench.solve", i):
                        raws.append(solve.call())
            except Exception as exc:  # a raising solve is a failed solve, not a crash
                raws.append(exc)
            self.durations.append(time.perf_counter() - t0)
        self.wall = time.perf_counter() - start
        return raws

    @staticmethod
    def _check(solve, raw) -> workloads.Outcome:
        if isinstance(raw, Exception):
            return workloads.Outcome("error", 0, 0, [f"raised {type(raw).__name__}: {raw}"])
        try:
            return solve.check(raw)
        except Exception as exc:
            return workloads.Outcome("error", 0, 0, [f"check raised {type(exc).__name__}: {exc}"])


def mark_repeats(passes: list[Pass]) -> None:
    """A solve whose digest or LMO count changes between passes has failed."""
    first = passes[0].outcomes
    for p in passes[1:]:
        for ref, out in zip(first, p.outcomes):
            if (out.digest, out.lmo_calls) != (ref.digest, ref.lmo_calls):
                out.problems.append("result changed between passes of the same inputs")


def setups_done(setup_times: list[float]) -> bool:
    return len(setup_times) >= SETUP_REPEATS


def setup_due(setup_times: list[float], measured: float, seconds: float) -> bool:
    if setups_done(setup_times) and sum(setup_times) >= SETUP_MAX_S:
        return False
    if measured >= seconds and not setups_done(setup_times):
        return True
    return sum(setup_times) < SETUP_SHARE * measured


def measure(batch, seconds: float, min_passes: int, tracer: Tracer | None = None,
            setmeet=None, build=None, setup_times: list[float] | None = None):
    """Run passes until they have taken ``seconds`` and enough were made.

    With ``build``, which appends its time to ``setup_times``, the batch
    is set up again between passes (see SETUP_SHARE); the inputs are the
    same every time.  With a tracer, passes alternate untraced and
    traced (the tracer is installed only for traced passes).  The
    calibration kernel is timed before and after every untraced pass,
    on the pass's CPU.  Returns (untraced, traced, traced summaries,
    kernel times).
    """
    untraced: list[Pass] = []
    traced: list[Pass] = []
    summaries = []
    kernel_times: list[float] = []
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    start = time.perf_counter()
    measured = 0.0
    try:
        while True:
            # Successive passes run on successive CPUs: a neighbour slowing
            # one core then cannot slow every repetition of a solve.
            os.sched_setaffinity(0, {cpus[len(untraced) % len(cpus)]})
            kernel_times.append(calibration.timed())
            untraced.append(Pass(batch))
            kernel_times.append(calibration.timed())
            if tracer is not None:
                tracer.reset()
                with tracer.installed(setmeet):
                    p = Pass(batch, tracer)
                traced.append(p)
                summaries.append((tracer.summary(), dict(tracer.counters)))
            measured += sum(p.wall for p in (untraced[-1], *traced[-1:]))
            if build is not None and setup_due(setup_times, measured, seconds):
                batch = build()
            if time.perf_counter() - start >= HARD_STOP_S or (
                    measured >= seconds and len(untraced) >= min_passes
                    and (build is None or setups_done(setup_times))):
                return untraced, traced, summaries, kernel_times
    finally:
        os.sched_setaffinity(0, allowed)


# --------------------------------------------------------------- metrics


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counts_digest(p: Pass) -> str:
    """Digest of every solve's verdict, LMO count and trace digest."""
    text = "\n".join(f"{n} {o.verdict} {o.lmo_calls} {o.digest}"
                     for n, o in zip(p.names, p.outcomes))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outcome_counts(passes: list[Pass]) -> tuple[int, int, int, list[str]]:
    attempted = failed = undecided = 0
    problems: list[str] = []
    for p in passes:
        for solve_name, out in zip(p.names, p.outcomes):
            attempted += 1
            undecided += out.verdict == "undecided"
            if out.problems:
                failed += 1
                problems.append(f"{solve_name}: {'; '.join(out.problems)}")
    return attempted, failed, undecided, problems


def typical_times(passes: list[Pass]) -> list[float]:
    """Each solve's median time over the passes."""
    return [statistics.median(ds) for ds in zip(*(p.durations for p in passes))]


def end_to_end(batch, passes: list[Pass], setup_times: list[float],
               kernel_times: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced passes, and their raw times.

    Each solve's time is its median over the passes, and the set-up's
    its median over the set-ups.  On a shared machine the same solve
    runs 1.3-2x slower for seconds to minutes at a time, which can
    outlast a run, so both are scaled to the reference speed by the
    calibration kernel's median time over the run (see ``calibration``).
    A pass's time is the sum of its solves' times, and the latency
    percentiles are taken over them.
    """
    scale = calibration.REFERENCE_S / statistics.median(kernel_times)
    typical = [scale * t for t in typical_times(passes)]
    work = [o.work for o in passes[0].outcomes]

    def us_per_work(size: str) -> float:
        chosen = [i for i, s in enumerate(batch) if s.size == size]
        return 1e6 * ratio(sum(typical[i] for i in chosen), sum(work[i] for i in chosen))

    attempted, failed, _, _ = outcome_counts(passes)
    decided = sum(o.verdict in ("intersection", "disjoint") for p in passes for o in p.outcomes)
    large = us_per_work("large")
    values = {
        "wall_s": sum(typical),
        "solves_per_s": len(batch) / sum(typical),
        "us_per_iter": large,
        "iter_cost_growth": ratio(large, us_per_work("small")),
        "lmo_calls": sum(o.lmo_calls for o in passes[0].outcomes),
        "verified_frac": 1.0 - ratio(failed, attempted),
        "decided_frac": ratio(decided, attempted),
        "setup_s": scale * statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for q in PERCENTILES:
        values[f"solve_ms.p{q}"] = 1e3 * float(np.percentile(typical, q))
    raw = {
        "wall_s": values["wall_s"] / scale,
        "setup_s": statistics.median(setup_times),
        "calibration_ms": 1e3 * statistics.median(kernel_times),
    }
    return values, raw


# Counts that must repeat exactly from traced pass to traced pass.
EXACT_COUNTS = (
    "oracles.lmo.calls", "cbcg.step.calls", "cbcg.support_final", "alm.seen_final",
    "alm.lp_attempts", "feasibility.phase_one_simplex.cols", "cli.trace_bytes",
)


def per_pass_layers(summary: dict, counters: dict, wall: float) -> dict:
    calls, total, own = summary["calls"], summary["total"], summary["self"]

    def prefixed(stat, prefix):
        return sum(v for k, v in stat.items() if k.startswith(prefix))

    c = counters.get
    simplex_calls = calls["feasibility.phase_one_simplex"]
    m = {f"{layer}.self_s": summary["layer_self"][layer] for layer in LAYERS}
    m.update({
        "cbcg.step.calls": calls["cbcg.step"],
        "cbcg.step.s": total["cbcg.step"],
        "cbcg.support_final": c("cbcg.support_final", 0),
        "cbcg.cbcg_run.s": total["cbcg.cbcg_run"],
        "alm.alm_run.self_s": own["alm.alm_run"],
        "alm.adaptive_run.self_s": own["alm.adaptive_run"],
        "alm.seen_final": c("alm.seen_final", 0),
        "alm.seen_kept_frac": ratio(c("alm.seen_kept", 0), c("alm.seen_offered", 0)),
        "alm.support_gap.calls": calls["alm.support_gap"],
        "alm.support_gap.s": total["alm.support_gap"],
        "alm.certify_disjoint_free.s": total["alm.certify_disjoint_free"],
        "alm.lp_attempts": c("alm.lp_attempts", 0),
        "alm.lp_useful_frac": ratio(c("alm.lp_feasible", 0), c("alm.lp_attempts", 0)),
        "oracles.lmo.calls": prefixed(calls, "oracles.lmo."),
        "oracles.lmo.s": prefixed(total, "oracles.lmo."),
        "oracles.diameter.s": total["oracles.diameter"],
        "oracles.project.calls": calls["oracles.project"],
        "oracles.project.s": total["oracles.project"],
        "pocs.pocs_run.s": total["pocs.pocs_run"],
        "feasibility.program_init.s": total["feasibility.program_init"],
        "feasibility.program_init.kept_frac": ratio(
            c("feasibility.program_init.rows_kept", 0), c("feasibility.program_init.rows_in", 0)),
        "feasibility.phase_one_simplex.calls": simplex_calls,
        "feasibility.phase_one_simplex.s": total["feasibility.phase_one_simplex"],
        "feasibility.phase_one_simplex.cols_mean": ratio(
            c("feasibility.phase_one_simplex.cols", 0), simplex_calls),
        "feasibility.solve_feasibility.calls": calls["feasibility.solve_feasibility"],
        "feasibility.solve_feasibility.feasible_frac": ratio(
            c("feasibility.solve_feasibility.feasible", 0), calls["feasibility.solve_feasibility"]),
        "cli.parse_problem_spec.s": total["cli.parse_problem_spec"],
        "cli.write_trace_csv.s": total["cli.write_trace_csv"],
        "cli.trace_bytes": c("cli.trace_bytes", 0),
        "cli.certificate_json.s": total["cli.certificate_json"],
        "trace.spans": sum(calls.values()),
        "trace.self_sum_frac": ratio(sum(summary["layer_self"].values()), wall),
    })
    for kind in ("ball", "box", "l1ball", "vpolytope"):
        m[f"oracles.lmo.{kind}.calls"] = calls[f"oracles.lmo.{kind}"]
        m[f"oracles.lmo.{kind}.s"] = total[f"oracles.lmo.{kind}"]
    m["feasibility.phase_one_simplex.cols"] = c("feasibility.phase_one_simplex.cols", 0)
    return m


def per_layer(untraced: list[Pass], traced: list[Pass], summaries, setup_summary,
              setup_counters, kernel_times: list[float]) -> tuple[dict, list[str]]:
    """Medians over traced passes; exact counts must agree between passes."""
    per_pass = [per_pass_layers(s, c, p.wall) for (s, c), p in zip(summaries, traced)]
    flags = [f"count {k} changed between traced passes: {[pp[k] for pp in per_pass]}"
             for k in EXACT_COUNTS if len({pp[k] for pp in per_pass}) > 1]
    metrics = {k: statistics.median(pp[k] for pp in per_pass) for k in per_pass[0]}
    del metrics["feasibility.phase_one_simplex.cols"]
    metrics["oracles.vpolytope_init.s"] = setup_summary["total"]["oracles.vpolytope_init"]
    metrics["oracles.vpolytope_init.kept_frac"] = ratio(
        setup_counters.get("oracles.vpolytope_init.rows_kept", 0),
        setup_counters.get("oracles.vpolytope_init.rows_in", 0))
    # Pass times as wall_s defines them, so that the overhead is not noise.
    metrics["trace.wall_s"] = sum(typical_times(traced))
    metrics["trace.untraced_wall_s"] = sum(typical_times(untraced))
    metrics["trace_overhead_frac"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1.0
    metrics["bench.calibration_ms"] = 1e3 * statistics.median(kernel_times)
    attempted, failed, undecided, _ = outcome_counts(untraced + traced)
    metrics["failed_frac"] = ratio(failed, attempted)
    metrics["undecided_frac"] = ratio(undecided, attempted)
    return metrics, flags


# ------------------------------------------------------------------ main

def declared_units(root: Path, section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run(args, root: Path) -> dict:
    setmeet = load_package(root)
    workdir = root / OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    min_passes = MIN_PASSES if args.size == "full" else 1
    try:
        if not args.trace:
            setup_times: list[float] = []

            def build():
                # Each set-up writes new problem files into a new directory:
                # overwriting the previous ones took 2.5x as long, and
                # varied more, on ext4.
                n = len(setup_times)
                shutil.rmtree(workdir / f"setup{n - 1}", ignore_errors=True)
                t0 = time.perf_counter()
                target = workdir / f"setup{n}"
                target.mkdir()
                batch = workloads.build(setmeet, args.workload, args.seed, args.size, target)
                setup_times.append(time.perf_counter() - t0)
                return batch

            batch = build()
            passes, _, _, kernel_times = measure(batch, args.seconds, min_passes, build=build,
                                                 setup_times=setup_times)
            mark_repeats(passes)
            values, raw = end_to_end(batch, passes, setup_times, kernel_times)
            attempted, failed, _, problems = outcome_counts(passes)
            print(f"# {args.workload} seed {args.seed}: {len(passes)} passes of {len(batch)} "
                  f"solves; times are each solve's median of {len(passes)}; "
                  f"{len(setup_times)} set-ups")
            print(f"# exact counts digest {counts_digest(passes[0])} "
                  "(equal for every run of this seed and program)")
            print("# raw, before scaling to the reference speed: "
                  + ", ".join(f"{k} = {v!r}" for k, v in raw.items()))
        else:
            tracer = Tracer()
            with tracer.installed(setmeet), tracer.region("bench.setup"):
                batch = workloads.build(setmeet, args.workload, args.seed, args.size, workdir)
            setup_summary, setup_counters = tracer.summary(), dict(tracer.counters)
            spans_path = root / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            spans_path.unlink(missing_ok=True)
            tracer.dump(spans_path, "setup")
            untraced, traced, summaries, kernel_times = measure(batch, args.seconds, min_passes,
                                                                tracer, setmeet)
            tracer.dump(spans_path, "pass")
            mark_repeats(untraced + traced)
            metrics, flags = per_layer(untraced, traced, summaries, setup_summary,
                                       setup_counters, kernel_times)
            values = metrics
            attempted, failed, _, problems = outcome_counts(untraced + traced)
            problems += flags
            failed += len(flags)
            print(f"# {args.workload} seed {args.seed}: {len(untraced)} untraced and "
                  f"{len(traced)} traced passes; spans in {spans_path.relative_to(root)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    units = declared_units(root, "per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are computed "
                           "but not declared in BENCHMARK.json, or the reverse")
    for name in sorted(values):
        print(f"# {name} = {values[name]!r} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in sorted(values)},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: minute inputs, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args, Path.cwd())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
