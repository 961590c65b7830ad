"""A fixed kernel that measures how fast this machine runs right now.

On a shared host the same code runs 1.3-2x slower for minutes at a
time while other tenants load the cores, so two runs of the same
program can differ by more than any bound worth setting.  The harness
times this kernel (no setmeet code: interpreter work and small NumPy
work, the mix a solve is made of) before and after every pass, and
scales its end-to-end times by ``REFERENCE_S`` / the kernel's median
time: a time is reported as it would read at the speed where the
kernel takes ``REFERENCE_S``.
A change to the program moves the scaled times exactly as it moves the
raw ones; a change in the machine's speed moves both the times and the
kernel.  Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's time on the 2-core Xeon virtual machine the
# benchmark was written on, with its neighbours quiet.
REFERENCE_S = 0.017

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.normal(size=(40, 40))
_POINTS = _RNG.normal(size=(200, 20))


def kernel() -> float:
    table: dict[int, float] = {}
    out: list[float] = []
    acc = 0.0
    for i in range(30_000):
        key = (i * 7919) % 10_007
        table[key] = table.get(key, 0.0) + 0.5 * i
        out.append(acc)
        acc += 1e-3 * i
    x = np.ones(40)
    for _ in range(1_500):
        x = _MATRIX @ x
        x /= np.abs(x).max()
    diffs = _POINTS[:, None, :] - _POINTS[None, :, :]
    return acc + float(x.sum()) + float(np.sqrt((diffs ** 2).sum(axis=2)).max())


def timed() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
