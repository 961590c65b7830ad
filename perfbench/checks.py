"""Certificate re-checks that use none of the package's own code.

Geometries are the plain problem-file dictionaries the benchmark
generated (``{"kind": "ball", "center": [...], "radius": r}`` and so
on), so a defect in the package's oracles cannot also hide in the check.
Support minima are closed forms or vertex enumerations, as in
``tests/helpers.py``.  Every function returns a list of problems; an
empty list means the certificate holds.
"""

from __future__ import annotations

import numpy as np

# Relative slack for comparing a reported margin with the recomputed one.
MARGIN_REL_TOL = 1e-9
# Absolute slack for barycentric weights and their sums; the package
# itself accepts an LP solution whose sums are off by up to 1e-8.
WEIGHT_TOL = 1e-8
# Distance, relative to the point scale, at which two combinations meet.
MEET_TOL = 1e-8


def support_min(geom: dict, c) -> float:
    """min over the set of <c, x>, by closed form or vertex enumeration."""
    c = np.asarray(c, dtype=float)
    kind = geom["kind"]
    if kind == "box":
        lo, up = np.asarray(geom["lower"], float), np.asarray(geom["upper"], float)
        return float(np.minimum(c * lo, c * up).sum())
    if kind == "ball":
        return float(c @ np.asarray(geom["center"], float)) - geom["radius"] * float(
            np.sqrt(c @ c)
        )
    if kind == "l1ball":
        return float(c @ np.asarray(geom["center"], float)) - geom["radius"] * float(
            np.abs(c).max()
        )
    if kind == "vpolytope":
        return float((np.asarray(geom["vertices"], float) @ c).min())
    raise ValueError(f"no support formula for {kind!r}")


def distance_outside(geom: dict, x) -> float:
    """How far ``x`` lies outside a box, ball or L1 ball (0 when inside)."""
    x = np.asarray(x, dtype=float)
    kind = geom["kind"]
    if kind == "box":
        lo, up = np.asarray(geom["lower"], float), np.asarray(geom["upper"], float)
        return float(np.sqrt((np.maximum(lo - x, 0.0) ** 2 + np.maximum(x - up, 0.0) ** 2).sum()))
    if kind == "ball":
        off = x - np.asarray(geom["center"], float)
        return max(float(np.sqrt(off @ off)) - geom["radius"], 0.0)
    if kind == "l1ball":
        # The L1 excess bounds the Euclidean distance from above.
        return max(float(np.abs(x - np.asarray(geom["center"], float)).sum()) - geom["radius"], 0.0)
    raise ValueError(f"no membership formula for {kind!r}")


def check_disjoint(geom_p: dict, geom_q: dict, direction, margin: float) -> list[str]:
    """A separating direction must have a positive, correctly reported margin."""
    g = np.asarray(direction, dtype=float)
    brute = support_min(geom_p, g) + support_min(geom_q, -g)
    problems = []
    if not brute > 0.0:
        problems.append(f"recomputed margin {brute!r} is not positive")
    scale = 1.0 + abs(brute) + float(np.abs(g).sum())
    if abs(brute - margin) > MARGIN_REL_TOL * scale:
        problems.append(f"reported margin {margin!r} != recomputed {brute!r}")
    return problems


def check_point_in_sets(geom_p: dict, geom_q: dict, point, tol: float) -> list[str]:
    """A reported common point must lie in both closed-form sets."""
    problems = []
    for name, geom in (("P", geom_p), ("Q", geom_q)):
        out = distance_outside(geom, point)
        if out > tol:
            problems.append(f"point lies {out:.3e} outside {name}")
    return problems


def _rows_missing(rows, pool) -> int:
    """Number of ``rows`` that are not (to rounding) a row of ``pool``."""
    rows = np.asarray(rows, dtype=float).reshape(-1, pool.shape[1])
    tol = 1e-12 * (1.0 + float(np.abs(pool).max()))
    missing = 0
    for start in range(0, rows.shape[0], 64):
        chunk = rows[start:start + 64]
        gap = np.abs(chunk[:, None, :] - pool[None, :, :]).max(axis=2).min(axis=1)
        missing += int((gap > tol).sum())
    return missing


def check_combination(point, weights_p, support_p, weights_q, support_q,
                      vertices_p, vertices_q) -> list[str]:
    """Both convex combinations must be valid, use set points, and meet at ``point``."""
    problems = []
    point = np.asarray(point, dtype=float)
    scale = 1.0 + float(np.abs(point).max())
    sides = (("P", weights_p, support_p, vertices_p), ("Q", weights_q, support_q, vertices_q))
    combos = []
    for name, weights, support, vertices in sides:
        w = np.asarray(weights, dtype=float)
        s = np.asarray(support, dtype=float).reshape(w.size, -1)
        if w.min() < -WEIGHT_TOL:
            problems.append(f"{name}: negative weight {w.min()!r}")
        if abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
            problems.append(f"{name}: weights sum to {float(w.sum())!r}")
        missing = _rows_missing(s, np.asarray(vertices, dtype=float))
        if missing:
            problems.append(f"{name}: {missing} support points are not vertices of the set")
        combos.append(s.T @ w)
    if float(np.linalg.norm(combos[0] - combos[1])) > MEET_TOL * scale:
        problems.append("the two combinations do not meet")
    if float(np.linalg.norm(0.5 * (combos[0] + combos[1]) - point)) > MEET_TOL * scale:
        problems.append("reported point differs from the combinations")
    return problems


def check_rows_from(kept, given) -> list[str]:
    """Deduplicated points must be points of the input list."""
    missing = _rows_missing(kept, np.asarray(given, dtype=float))
    return [f"{missing} kept points are not input points"] if missing else []
