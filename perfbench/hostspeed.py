"""The host's current speed, from a fixed reference kernel.

The benchmark shares its machine with other tenants, and their load changes
how fast the same code runs, by up to 2x within a minute and 2-3x over
hours on the 2-vCPU VM the benchmark was tuned on.  Process CPU time slows
down just as much, so it is no way out.  The same work, timed minutes
apart, is then not comparable.  So the measuring process times
:func:`reference_kernel` between its runs, and each host time it reports is
scaled by ``NOMINAL_S / (time of the reference kernel around that run)``:
host seconds on a host that runs the reference kernel in
:data:`NOMINAL_S`.

The kernel mixes what the simulator's host time is made of: interpreted
Python (dict and list traffic, float arithmetic) and numpy (gathers,
ufuncs, ``np.add.at``, ``bincount``, sorts), each once on a working set
that fits in a core's own caches and once on tens of megabytes accessed at
random.  The large half matters: other tenants slow the simulator mostly
through the shared caches and memory, and a kernel with only a small
working set slowed down about half as much as the simulator did.  The
kernel is fixed, and it uses nothing under ``src/``: a change to the
simulator must not change the yardstick it is measured with.
"""

from __future__ import annotations

from functools import lru_cache
from time import perf_counter

import numpy as np

#: the reference host's time for the kernel: a fixed scale, chosen so that
#: scaled times read as seconds on a 2 GHz x86-64 vCPU (CPython 3.11,
#: numpy) under moderate load, where the kernel took 0.1-0.2 s
NOMINAL_S = 0.15
#: slices the kernel is cut into (see :func:`reference_kernel`)
SLICES = 4

_SMALL = 4096
_SMALL_INDEX = (np.arange(_SMALL, dtype=np.int64) * 2_654_435_761) % _SMALL
#: elements of the large numpy arrays (4 MiB per float64 array)
_LARGE = 1 << 19
#: entries of the large dict, and of the large list of small lists
_TABLE = 1 << 17
_ROWS = 1 << 16


@lru_cache(maxsize=None)
def _large_data():
    """The large working set, built once per process on first use (so a
    process that never times the kernel never holds it)."""
    rng = np.random.default_rng(0)
    return {
        "index": rng.permutation(_LARGE),
        "table": {i: float(i) for i in range(_TABLE)},
        "rows": [[float(i), i, str(i)] for i in range(_ROWS)],
        "keys": rng.integers(0, _TABLE, 10_000).tolist(),
    }


def _python_small(rounds: int) -> float:
    table = {}
    acc = 0.0
    out = []
    for i in range(rounds):
        key = (i * 7) & 1023
        acc = acc * 0.5 + table.get(key, 1.0)
        table[i & 1023] = acc
        if i & 15 == 0:
            out.append(abs(acc))
    return acc + max(out)


def _python_large() -> float:
    data = _large_data()
    table, rows = data["table"], data["rows"]
    acc = 0.0
    for key in data["keys"]:
        acc += table[key] * 0.5 + rows[key & (_ROWS - 1)][0]
        table[key] = acc * 1e-9
    return acc


def _numpy_small(rounds: int) -> float:
    values = np.linspace(0.0, 1.0, _SMALL)
    counts = np.zeros(_SMALL)
    for _ in range(rounds):
        gathered = values[_SMALL_INDEX]
        np.add.at(counts, _SMALL_INDEX[:1024], 1.0)
        values = np.minimum(gathered * 1.0001 + counts * 1e-9, 1e6)
        values[np.argsort(values[:512], kind="stable")] += 0.0
    return float(values.sum())


def _numpy_large() -> float:
    index = _large_data()["index"]
    values = np.linspace(0.0, 1.0, _LARGE)
    counts = np.bincount(index[: _LARGE // 4], minlength=_LARGE)
    return float(np.minimum(values[index] * 1.0001 + counts * 1e-9, 1e6).sum())


def reference_kernel() -> float:
    """Host seconds of one run of the reference kernel.

    It runs in :data:`SLICES` slices, each with all four parts, so one
    short stall shifts only part of the time.
    """
    _large_data()
    start = perf_counter()
    for _ in range(SLICES):
        _python_small(15_000)
        _python_large()
        _numpy_small(50)
        _numpy_large()
    return perf_counter() - start
