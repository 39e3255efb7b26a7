"""Host-speed calibration, interleaved with the measured work.

On a shared VM the same Python work runs up to ~30% faster or slower from
one minute to the next, in the measured process itself (a calibration
process on the other vCPU did not see it).  So the process doing the work
also times a fixed slice of pure-Python work (dict churn, a heap, a small
JSON encode) every so often: between simulation steps, or on the portal
server's event loop.  The median slice time over the nominal one is the
run's speed factor.  Times are reported divided by it and rates
multiplied by it, in units of the reference speed, so runs made while
the host ran at different speeds agree.  Every run prints the factor and
its raw figures above its result line.
"""

from __future__ import annotations

import heapq
import json
import statistics
import time
from typing import List

#: Median seconds of one slice at the reference speed (a 2-vCPU VM).
NOMINAL_SLICE_S = 0.0005

_DOC = [[f"pid-{i}", f"pid-{i % 7}", i * 0.37] for i in range(40)]

#: Metrics that are times (divided by the factor) and rates (multiplied).
TIMES = ("setup_s", "p50_ms", "p99_ms", "cpu_us_per_op", "wall_s")
RATES = ("throughput_ops",)


def work_slice() -> None:
    counts = {}
    heap: List[tuple] = []
    for i in range(300):
        counts[i % 31] = counts.get(i % 31, 0) + i
        heapq.heappush(heap, ((i * 7919) % 1009, i))
    while heap:
        heapq.heappop(heap)
    json.dumps(_DOC)


class Calibrator:
    """Times slices on request; knows how much wall and CPU they used."""

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.slices: List[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._last = time.perf_counter()

    def run_slice(self) -> None:
        cpu = time.process_time()
        start = time.perf_counter()
        work_slice()
        end = time.perf_counter()
        self.slices.append(end - start)
        self.spent_s += end - start
        self.spent_cpu_s += time.process_time() - cpu
        self._last = end

    def due(self) -> bool:
        return time.perf_counter() - self._last >= self.every_s


def speed_factor(slices: List[float]) -> float:
    """How much slower than the reference the host ran (>1: slower)."""
    if len(slices) < 10:
        raise RuntimeError(f"only {len(slices)} calibration slices were run")
    return statistics.median(slices) / NOMINAL_SLICE_S


def normalize(result: dict, factor: float) -> dict:
    """Put a run's timings in reference-speed units; keep the raw ones."""
    result["raw"] = {name: result[name] for name in TIMES + RATES}
    result["speed_factor"] = factor
    for name in TIMES:
        result[name] /= factor
    for name in RATES:
        result[name] *= factor
    return result
