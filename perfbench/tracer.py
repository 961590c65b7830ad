"""Spans around the package's public functions, recorded from outside.

``Tracer.installed()`` replaces each traced function, at the name its
callers look it up by, with a wrapper that records a span (name, start,
end, parent span, solve id) in memory; leaving the block puts the
originals back, so untraced passes run the unmodified code.  A span's
layer is the module prefix of its name (``alm``, ``cbcg``, ``cli``,
``feasibility``, ``oracles``, ``pocs``, or ``bench`` for the harness's
own pass and solve spans).  Self time is a span's duration minus the
durations of its direct children, so the self times of all spans in a
pass add up to the pass's root span.
"""

from __future__ import annotations

import gzip
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("bench", "cli", "alm", "cbcg", "pocs", "feasibility", "oracles")


def _rows(points) -> int:
    a = np.asarray(points)
    return 1 if a.ndim == 1 else a.shape[0]


def _count_supports(counters: Counter, combinations) -> None:
    counters["cbcg.support_final"] += sum(len(c.support) for c in combinations)


def _count_state(counters: Counter, state) -> None:
    counters["alm.seen_final"] += len(state.seen_p) + len(state.seen_q)
    _count_supports(counters, (state.comb_x, state.comb_y))


def _wrap_points(setmeet):
    """(owner, attribute, span name, pre hook, post hook) for every traced call.

    Hooks receive the counters, the call's arguments and (post only)
    its result, and count work where it happens.  A span name of None
    counts calls without recording a span.
    """
    alm, cbcg, cli = setmeet.alm, setmeet.cbcg, setmeet.cli
    feas, oracles, pocs = setmeet.feasibility, setmeet.oracles, setmeet.pocs

    def vpoly_pre(c, args, kwargs):
        c["oracles.vpolytope_init.rows_in"] += _rows(args[0].vertices)

    def vpoly_post(c, args, kwargs, result):
        c["oracles.vpolytope_init.rows_kept"] += args[0].vertices.shape[0]

    def program_pre(c, args, kwargs):
        c["feasibility.program_init.rows_in"] += _rows(args[0].u_points) + _rows(args[0].v_points)

    def program_post(c, args, kwargs, result):
        prog = args[0]
        c["feasibility.program_init.rows_kept"] += prog.u_points.shape[0] + prog.v_points.shape[0]

    def simplex_pre(c, args, kwargs):
        c["feasibility.phase_one_simplex.cols"] += np.shape(args[0])[1]

    def feasible_post(c, args, kwargs, result):
        c["feasibility.solve_feasibility.feasible"] += result is not None

    def lp_post(c, args, kwargs, result):
        feasible_post(c, args, kwargs, result)
        c["alm.lp_attempts"] += 1
        c["alm.lp_feasible"] += result is not None

    def seen_post(c, args, kwargs, result):
        c["alm.seen_offered"] += 1
        c["alm.seen_kept"] += bool(result)

    def alm_post(c, args, kwargs, result):
        _count_state(c, result.state)

    def adaptive_post(c, args, kwargs, result):
        _count_state(c, result[2])

    def cbcg_post(c, args, kwargs, result):
        _count_supports(c, result.combinations)

    def csv_post(c, args, kwargs, result):
        c["cli.trace_bytes"] += os.path.getsize(args[1])

    points = [
        (cli, "parse_problem_spec", "cli.parse_problem_spec", None, None),
        (cli, "write_trace_csv", "cli.write_trace_csv", None, csv_post),
        (cli, "write_pocs_csv", "cli.write_pocs_csv", None, csv_post),
        (cli, "certificate_json", "cli.certificate_json", None, None),
        (cli, "cbcg_run", "cbcg.cbcg_run", None, cbcg_post),
        (cbcg, "cbcg_run", "cbcg.cbcg_run", None, cbcg_post),
        (cbcg.ConvexCombination, "step", "cbcg.step", None, None),
        (cli, "pocs_run", "pocs.pocs_run", None, None),
        (pocs, "pocs_run", "pocs.pocs_run", None, None),
        (alm, "alm_run", "alm.alm_run", None, alm_post),
        (alm, "adaptive_run", "alm.adaptive_run", None, adaptive_post),
        (alm, "support_gap", "alm.support_gap", None, None),
        (alm, "certify_disjoint_free", "alm.certify_disjoint_free", None, None),
        (alm, "solve_feasibility", "feasibility.solve_feasibility", None, lp_post),
        (alm, "_add_seen", None, None, seen_post),
        (feas, "solve_feasibility", "feasibility.solve_feasibility", None, feasible_post),
        (feas, "phase_one_simplex", "feasibility.phase_one_simplex", simplex_pre, None),
        (feas.FeasibilityProgram, "__post_init__", "feasibility.program_init",
         program_pre, program_post),
        (oracles.VPolytope, "__post_init__", "oracles.vpolytope_init", vpoly_pre, vpoly_post),
    ]
    for cls in (oracles.Box, oracles.Ball, oracles.Simplex, oracles.L1Ball, oracles.VPolytope):
        kind = cls.__name__.lower()
        points.append((cls, "lmo", f"oracles.lmo.{kind}", None, None))
        points.append((cls, "diameter", "oracles.diameter", None, None))
    for cls in (oracles.Box, oracles.Ball, oracles.Simplex):
        points.append((cls, "project", "oracles.project", None, None))
    return points


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.solve = -1
        self.counters: Counter = Counter()

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.solve = -1
        self.counters = Counter()

    def _wrap(self, name, fn, pre, post):
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer.counters, args, kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                spans, stack = tracer.spans, tracer.stack
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (name, start, end, parent, tracer.solve)
            if post is not None:
                post(tracer.counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, setmeet):
        """Trace every wrap point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, pre, post in _wrap_points(setmeet):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, pre, post))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def region(self, name: str, solve: int = -1):
        """A span recorded by the harness itself (pass, solve, setup)."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        previous, self.solve = self.solve, solve
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.solve = previous
            self.spans[idx] = (name, start, end, parent, solve)

    def summary(self) -> dict:
        """Calls, total seconds and self seconds per span name and per layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[i]
            layer_self[name.split(".", 1)[0]] += dur - child[i]
        return {"calls": calls, "total": total, "self": own, "layer_self": layer_self}

    def dump(self, path, label: str) -> None:
        """Append the recorded spans to a gzip CSV (times in ns from the first span)."""
        if not self.spans:
            return
        t0 = min(s[1] for s in self.spans)
        new = not os.path.exists(path)
        with gzip.open(path, "at", encoding="ascii") as out:
            if new:
                out.write("label,span,parent,solve,name,start_ns,end_ns\n")
            for i, (name, start, end, parent, solve) in enumerate(self.spans):
                out.write(
                    f"{label},{i},{parent},{solve},{name},"
                    f"{round((start - t0) * 1e9)},{round((end - t0) * 1e9)}\n"
                )
