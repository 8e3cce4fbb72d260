"""Machine-speed probe that turns wall seconds into reference seconds.

On a shared virtual machine, CPU speed changes in phases that last from
seconds to minutes. The same work can take 1.6 times longer in a slow phase.
Those phases are longer than a run, so a median over the repetitions in one
run still follows them. The probe is a fixed kernel with the package's
instruction mix: 144-wide complex matvecs, small numpy reductions, a small
Hermitian eigensolve and interpreted Python arithmetic. The benchmark times
the probe right before and right after each timed region. It then reports
the region's wall time multiplied by REFERENCE_S over the mean of those two
probe times, which gives seconds on a machine where the probe takes
REFERENCE_S. The package never runs inside the probe, so a slower package
still shows in full.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# probe time in a fast phase of the 2-vCPU Xeon VM used to set up the
# benchmark, so that reference seconds read close to wall seconds there
REFERENCE_S = 0.2

_RNG = np.random.default_rng(20091)
_M = (_RNG.standard_normal((144, 144))
      + 1j * _RNG.standard_normal((144, 144))) / 24.0
_H = _RNG.standard_normal((12, 12))
_H = _H + _H.T
_V0 = _RNG.standard_normal(144) + 0j


def probe(rounds: int = 8000) -> float:
    """Wall seconds of one pass of the fixed kernel."""
    v = _V0.copy()
    acc = 0.0
    t0 = perf_counter()
    for k in range(rounds):
        v = _M @ v
        v /= np.abs(v).max()
        acc += abs(complex(v[::13].sum()))
        if k % 4 == 0:
            acc += float(np.linalg.eigvalsh(_H)[0])
        for j in range(40):
            acc += (j * 0.5) % 3.0
    elapsed = perf_counter() - t0
    if not np.isfinite(acc):
        raise ArithmeticError("probe kernel diverged")
    return elapsed


def reference_seconds(wall: list[float], probes: list[float]) -> list[float]:
    """Scale wall[i] by the probes just before (i) and after (i + 1) it."""
    if len(probes) != len(wall) + 1:
        raise ValueError("need one probe before each region and one after")
    return [w * 2.0 * REFERENCE_S / (probes[i] + probes[i + 1])
            for i, w in enumerate(wall)]
