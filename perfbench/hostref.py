"""Host-speed reference: a fixed job that does not touch ``oneshot``.

The benchmark's host is shared, and its speed drifts by tens of percent over
minutes; child CPU time drifts as much as wall time, so the drift is the
processor's speed, not lost time slices.  Each run times this fixed job
between its operations and scales its timings by ``NOMINAL_S / median probe
time``: the reported figures are those of a host running the reference at
its nominal speed.  The job mixes interpreter work, small-array numpy calls,
cache-resident arithmetic, random gathers and object churn, like the
workloads do.  The program under test never runs inside it, so a change to
the program moves the scaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

#: median probe time on the reference host (2-vCPU Intel Xeon VM, Python
#: 3.11.7, numpy 2.4.6); only the ratio to it matters, and it is never
#: re-measured
NOMINAL_S = 0.056

_SMALL = np.linspace(0.0, 1.0, 64)
_MEDIUM = np.linspace(0.0, 1.0, 32_768)
_GATHER = np.random.default_rng(0).random(1 << 20)  # 8 MB
_INDEX = np.random.default_rng(1).integers(0, 1 << 20, 1 << 18)
_KEYS = [f"k{i}" for i in range(50_000)]


def probe() -> float:
    """Seconds taken by the fixed reference job."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += (i * i) % 7
    a = _SMALL
    for _ in range(1_000):
        a = np.sqrt(a * a + 1.0) - 0.5
    b = _MEDIUM
    for _ in range(100):
        b = np.cumsum(b[::-1]) * 1e-5
    # random gathers and object churn: the part that tracks memory latency,
    # which moves the workloads (imports above all) more than arithmetic
    total = 0.0
    for _ in range(8):
        total += float(np.take(_GATHER, _INDEX).sum())
    table = {key: (key, len(key)) for key in _KEYS}
    sorted(table.values(), key=lambda kv: kv[0][::-1])
    return time.perf_counter() - t0
