"""The swarm workload: the Pando field test, timed and checked.

``swarm-fieldtest`` runs the field test of Figs. 11/12: a native and a
P4P swarm on one flow network, with flash-crowd arrivals.  A run
simulates ``INPUTS_PER_RUN`` inputs drawn from the seed, in whole cycles
until the measuring time is over.

Run as a script, ``python3 perfbench/swarm_work.py setup <seed>`` builds
one input's topology, routing and population in a fresh process and
exits: the benchmark times it as the workload's set-up.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from calib import Calibrator, normalize, speed_factor  # noqa: E402
from portal_load import percentile  # noqa: E402

FIELD_CLIENTS = 500
INPUTS_PER_RUN = 5
SETUPS = 3


def input_seeds(seed: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2 ** 31) for _ in range(INPUTS_PER_RUN)]


def field_config(rng_seed: int):
    from repro.simulator.fieldtest import FieldTestConfig

    # The compressed six-day timeline of the repository's figure benchmarks.
    return FieldTestConfig(
        n_clients=FIELD_CLIENTS, days=6, day_seconds=300.0, rng_seed=rng_seed
    )


def field_setup(rng_seed: int):
    from repro.simulator.fieldtest import FieldTest

    return FieldTest(field_config(rng_seed))


def field_simulate(rng_seed: int) -> Tuple[float, float, int, List[str], Any]:
    """One field test: (wall seconds, CPU seconds, block transfers,
    problems, per-scheme Fig. 12a / Table 3 sums)."""
    from repro.simulator.fieldtest import EXTERNAL_PID

    field_test = field_setup(rng_seed)
    config = field_test.config
    cpu0, started = time.process_time(), time.perf_counter()
    report = field_test.run()
    wall, cpu = time.perf_counter() - started, time.process_time() - cpu0

    def downlink(pid: str) -> float:
        if pid == EXTERNAL_PID:
            return config.external_mbps[1]
        if field_test.classes.get(pid) == "fttp":
            return config.fttp_mbps[1]
        return config.dsl_mbps[1]

    problems: List[str] = []
    outcomes = {"native": report.native, "p4p": report.p4p}
    for label, outcome in outcomes.items():
        result = outcome.result
        down = {
            peer: downlink(pid) for peer, pid in result.peer_pids.items() if peer >= 0
        }
        problems += checks.check_swarm(
            label, down, config.file_mbit, result.completion_times,
            result.total_payload_mbit, result.tracker_hook_failures,
        )
    n_blocks = round(config.file_mbit / config.block_mbit)
    blocks = sum(len(o.result.completion_times) for o in outcomes.values()) * n_blocks
    # Fig. 12a / Table 3 sums, pooled over the run's inputs by the caller.
    figures = {
        label: (o.intra_isp_backbone_mbit, o.intra_isp_payload_mbit,
                o.ledger.intra_same_metro, o.ledger.intra_total)
        for label, o in outcomes.items()
    }
    return wall, cpu, blocks, problems, figures


def check_pooled_fieldtest(figures: List[Dict[str, Tuple[float, ...]]]) -> List[str]:
    """Fig. 12a / Table 3 over the traffic of every field test of a run.

    At 500 clients one input in about thirty has P4P's same-metro share
    below native's; pooled over the run's inputs the property
    holds with a wide margin.
    """
    pooled = {
        label: [sum(f[label][i] for f in figures) for i in range(4)]
        for label in ("native", "p4p")
    }
    return checks.check_fieldtest(
        {label: v[0] / v[1] for label, v in pooled.items()},
        {label: v[2] / v[3] * 100.0 for label, v in pooled.items()},
    )


# -- measuring -------------------------------------------------------------


class StepClock:
    """Timestamps each step of the simulation loop, and calibrates.

    The simulation loop calls ``EventEngine.run_timers_until`` once per
    loop step, so the gaps between its calls are one step: the latency of
    one unit of simulation progress.  Steps are timed in thread CPU time.
    The simulation runs on this one thread and waits on nothing, so that
    is its wall time minus the time the host took the vCPU away: on a
    shared VM those stalls (5-50 ms, several a second in busy periods)
    decided the 99th percentile of wall-clock steps.  A swarm's
    ``prepare`` starts a new series; a series' first step counts in the
    simulation's wall time but not among the step latencies.  Between two
    steps, every ``every_s`` seconds, the calibrator runs a slice; its
    time is kept out of the steps and reported as ``spent_s``.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        from repro.simulator.engine import EventEngine
        from repro.simulator.swarm import SwarmSimulation

        self.series: List[List[float]] = []
        self.calibrator = calibrator
        self._restore = [
            (EventEngine, "run_timers_until", EventEngine.run_timers_until),
            (SwarmSimulation, "prepare", SwarmSimulation.prepare),
        ]
        series = self.series
        run_timers_until = EventEngine.run_timers_until
        prepare = SwarmSimulation.prepare
        clock = time.thread_time

        def timed_run_timers_until(engine, until):
            marks = series[-1]
            if calibrator.due():
                # The step ends here; the next one starts after the slice.
                marks.append(clock())
                calibrator.run_slice()
                marks.append(None)
            marks.append(clock())
            return run_timers_until(engine, until)

        def timed_prepare(swarm):
            series.append([])
            return prepare(swarm)

        EventEngine.run_timers_until = timed_run_timers_until
        SwarmSimulation.prepare = timed_prepare

    def close(self) -> None:
        for owner, attr, original in self._restore:
            setattr(owner, attr, original)

    def steps(self) -> List[float]:
        steps = []
        for marks in self.series:
            gaps = [
                b - a for a, b in zip(marks, marks[1:]) if a is not None and b is not None
            ]
            steps += gaps[1:]
        return steps


def measure_setup(seed: int) -> float:
    """Seconds for a fresh process to import the simulator and build one
    input's topology, routing and population."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.join(HERE, "swarm_work.py"), "setup", str(seed)],
        cwd=ROOT, check=True, timeout=120,
    )
    return time.perf_counter() - started


def run(seed: int, seconds: float) -> Dict[str, Any]:
    """Simulate whole cycles of the seed's inputs for about ``seconds``."""
    seeds = input_seeds(seed)
    setups = [measure_setup(seeds[0]) for _ in range(SETUPS)]
    calibrator = Calibrator(every_s=0.05)
    result = _simulate_cycles(seeds, seconds, calibrator)
    result["problems"] += check_pooled_fieldtest(list(result.pop("digests").values()))
    result["setup_s"] = statistics.median(setups)
    return normalize(result, speed_factor(calibrator.slices))


def _simulate_cycles(seeds: List[int], seconds: float, calibrator: Calibrator) -> Dict[str, Any]:
    walls: Dict[int, List[float]] = {s: [] for s in seeds}
    digests: Dict[int, Any] = {}
    problems: List[str] = []
    blocks = 0
    attempted = 0
    step_latencies: List[float] = []
    cpu = 0.0
    started = time.perf_counter()
    # Whole cycles over the inputs; a cycle that would end past the
    # measuring time is not started, but the first always runs.
    while attempted == 0 or (
        (time.perf_counter() - started) * (1 + len(seeds) / attempted) <= seconds
    ):
        for rng_seed in seeds:
            clock = StepClock(calibrator)
            spent, spent_cpu = calibrator.spent_s, calibrator.spent_cpu_s
            try:
                wall, used, done, found, digest = field_simulate(rng_seed)
            finally:
                clock.close()
            wall -= calibrator.spent_s - spent
            used -= calibrator.spent_cpu_s - spent_cpu
            step_latencies += clock.steps()
            attempted += 1
            walls[rng_seed].append(wall)
            blocks += done
            cpu += used
            problems += found
            if digests.setdefault(rng_seed, digest) != digest:
                problems.append(f"input {rng_seed}: a repeated simulation gave other outputs")
    step_latencies.sort()
    total_wall = sum(sum(w) for w in walls.values())
    return {
        "attempted": attempted,
        "failed": 0,
        "problems": problems,
        "digests": digests,
        "throughput_ops": blocks / total_wall,
        "p50_ms": percentile(step_latencies, 0.50) * 1e3,
        "p99_ms": percentile(step_latencies, 0.99) * 1e3,
        "cpu_us_per_op": cpu / blocks * 1e6,
        "wall_s": statistics.mean(statistics.median(w) for w in walls.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# -- traced run ------------------------------------------------------------


def install_spans(recorder) -> None:
    """Wrap the simulator's layers: swarm run loop, flow engine, event
    heap and peer selection."""
    from repro.apptracker import selection
    from repro.simulator.engine import EventEngine
    from repro.simulator.multiswarm import MultiSwarmSimulation
    from repro.simulator.swarm import SwarmSimulation
    from repro.simulator.tcp import FlowNetwork

    recorder.wrap(SwarmSimulation, "run", "swarm.run")
    recorder.wrap(MultiSwarmSimulation, "run", "swarm.run")
    recorder.wrap(FlowNetwork, "next_completion", "tcp.solve")
    recorder.wrap(FlowNetwork, "advance", "tcp.solve")
    # The value of a pop is the number of block transfers it completed.
    recorder.wrap(FlowNetwork, "pop_finished", "tcp.solve",
                  value=lambda args, result: len(result))
    recorder.count(FlowNetwork, "start_flow", "tcp.flows")
    recorder.wrap(EventEngine, "run_timers_until", "engine.timers")
    recorder.wrap(EventEngine, "peek_time", "engine.timers")
    # Timer callbacks are swarm protocol work (joins, departures) run
    # from inside the event heap; a span of their own keeps them out of
    # the heap's self time.
    schedule = EventEngine.schedule
    spanned = recorder.spanned
    recorder.patch(
        EventEngine, "schedule",
        lambda engine, delay, callback: schedule(
            engine, delay, spanned(callback, "swarm.callback")
        ),
    )
    for cls in (
        selection.RandomSelection, selection.DelayLocalizedSelection,
        selection.P4PSelection, selection.WeightedSelection, selection.PerAsSelector,
    ):
        recorder.wrap(cls, "select", "selection.select")


def traced(seed: int) -> Dict[str, Any]:
    """One input simulated untraced, traced, and untraced again: the
    per-layer split, and the tracing overhead against the untraced mean."""
    from spans import SpanRecorder, SpanStats

    rng_seed = input_seeds(seed)[0]
    plain_wall, _, _, problems, digest = field_simulate(rng_seed)
    recorder = SpanRecorder()
    install_spans(recorder)
    try:
        wall, _, _, found, traced_digest = field_simulate(rng_seed)
    finally:
        recorder.unwrap_all()
    plain_again, _, _, more, _ = field_simulate(rng_seed)
    problems += more
    problems += found
    if traced_digest != digest:
        problems.append("the traced simulation gave other outputs")
    stats = SpanStats(recorder.spans)
    return {
        "attempted": 3,
        "failed": 0,
        "problems": problems,
        "swarm.block_s": stats.self_s("swarm.run") + stats.self_s("swarm.callback"),
        "tcp.solve_s": stats.total_s("tcp.solve"),
        "tcp.solve_calls": stats.n("tcp.solve"),
        "engine.timers_s": stats.self_s("engine.timers"),
        "selection.select_s": stats.self_s("selection.select"),
        "swarm.blocks": stats.value.get("tcp.solve", 0.0),
        "tcp.flows": recorder.counts["tcp.flows"],
        "trace.overhead_ratio": 2 * wall / (plain_wall + plain_again),
    }


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "setup":
        sys.exit(f"usage: {sys.argv[0]} setup SEED")
    field_setup(int(sys.argv[2]))
