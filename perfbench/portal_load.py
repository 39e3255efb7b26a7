"""The portal workload: a closed-loop generator against a server process.

The generator is this process, one asyncio thread with two connections;
the server (``portal_server.py``) runs in a process of its own.  Both
run on one CPU (see ``share_one_cpu``).  Each connection keeps ``WINDOW`` requests outstanding
and sends the next one as each answer arrives, because appTrackers are
callers that wait for replies.  The window sets which group of slow
requests the 99th percentile falls in: each full collection of the
server's garbage collector (40-60 ms, about three a second) holds up
every request in flight.  With four per connection those were about 1.3%
of requests, so a round's p99 fell inside or outside that group by the
round; with eight, about 2.7%, it falls inside.  With sixteen, the
median latency fell into one of two modes per run (about 5 or 20 ms), as
small requests queued behind full-mesh answers or did not.  Requests
come from the load generator's seeded schedule (``build_schedule``,
arrival times ignored); each connection serves its half of the round
over and over, in a new seeded order each pass, until the measuring
time is over.  Every
``UPDATE_EVERY`` answers the server takes the next price update, so
every round of requests meets the same number of new price versions
however fast the host runs.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import statistics
import struct
import subprocess
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import checks
from calib import normalize, speed_factor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CONNECTIONS = 2
WINDOW = 8
#: Requests in one round of the mix; each connection cycles its half.
ROUND_REQUESTS = 1000
#: Answers between two price updates: five a round, about every 100 ms
#: at the reference speed.
UPDATE_EVERY = 200
#: Share of view reads that fetch the full mesh; the rest ask for 1-6 PIDs.
FULL_SHARE = 0.03
VIEW_METHODS = ("get_pdistances", "get_alto_costmap")
#: Every n-th view read and cost map is kept and checked after the run.
SAMPLE_EVERY = 8
#: At most this many full-mesh answers are kept for checking.
FULL_SAMPLES = 40
SETUPS = 3
_HEADER = struct.Struct(">I")

def _server_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class ServerProcess:
    """One ``portal_server.py`` child, driven over its stdin."""

    def __init__(self, seed: int, spans_path: Optional[str] = None) -> None:
        command = [sys.executable, os.path.join(HERE, "portal_server.py"), "--seed", str(seed)]
        if spans_path:
            command += ["--spans", spans_path]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=_server_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "ready":
            self.kill()
            raise RuntimeError(f"portal server failed to start: {line!r}")
        self.address = ("127.0.0.1", int(line[1]))

    def _ask(self, command: str) -> str:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline()

    def cpu(self) -> float:
        answer = self._ask("cpu").split()
        return float(answer[1])

    def update(self) -> None:
        answer = self._ask("update")
        if answer != "ok\n":
            raise RuntimeError(f"price update failed: {answer[:200]!r}")

    def quit(self) -> Dict[str, Any]:
        answer = self._ask("quit")
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        if not answer.startswith("done "):
            raise RuntimeError(f"portal server ended badly: {answer[:200]!r}")
        return json.loads(answer[5:])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)


# -- wire helpers ----------------------------------------------------------


def frame(method: str, params: Dict[str, Any]) -> bytes:
    payload = json.dumps({"method": method, "params": params}, separators=(",", ":")).encode()
    return _HEADER.pack(len(payload)) + payload


async def read_frame(reader: asyncio.StreamReader) -> bytes:
    (length,) = _HEADER.unpack(await reader.readexactly(_HEADER.size))
    return await reader.readexactly(length)


async def first_answer(address: Tuple[str, int], request: bytes) -> Dict[str, Any]:
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(request)
        await writer.drain()
        return json.loads(await read_frame(reader))
    finally:
        writer.close()
        await writer.wait_closed()


# -- the closed loop -------------------------------------------------------


@dataclass
class Op:
    method: str
    pids: Optional[List[str]]
    frame: bytes


@dataclass
class LoopResult:
    latencies: List[float] = field(default_factory=list)
    completed_at: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    samples: List[Tuple[Op, bytes]] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    client_cpu: float = 0.0
    #: Server CPU seconds read as each round of requests completed.
    round_cpu: List[Any] = field(default_factory=list)
    updates: List[Any] = field(default_factory=list)
    on_round: Any = None
    on_update: Any = None


def schedule_ops(seed: int, pid_pool: Sequence[str]) -> List[List[Op]]:
    """One round of the seeded request mix, split over the connections.

    Requests are drawn in order from the load generator's default mix
    (``build_schedule``); the round keeps each draw until its kind --
    method, and full mesh or PID subset for view reads -- has its exact
    share, so every seed serves the same composition and only the PID
    subsets and the order differ.
    """
    from repro.workloads.loadgen import DEFAULT_MIX, LoadSpec, build_schedule

    quota: Dict[Tuple[str, bool], int] = {}
    for method, weight in DEFAULT_MIX:
        count = round(ROUND_REQUESTS * weight)
        if method in VIEW_METHODS:
            full = round(count * FULL_SHARE)
            quota[(method, True)] = full
            quota[(method, False)] = count - full
        else:
            quota[(method, False)] = count
    # Full-mesh draws come from the share of unrestricted view reads; the
    # schedule is drawn with a generous restricted share and cut to quota.
    spec = LoadSpec(
        connections=1, rate=1000.0, duration=4 * ROUND_REQUESTS / 1000.0, seed=seed,
        pids_fraction=0.5, pids_max=6,
        pid_pool=tuple(pid_pool),
    )
    chosen: List[Op] = []
    for request in build_schedule(spec):
        pids = request.params.get("pids")
        kind = (request.method, request.method in VIEW_METHODS and pids is None)
        if quota.get(kind, 0) > 0:
            quota[kind] -= 1
            chosen.append(Op(request.method, pids, frame(request.method, request.params)))
    if any(quota.values()):
        raise RuntimeError(f"schedule too short to fill the round: {quota}")
    return [chosen[index::CONNECTIONS] for index in range(CONNECTIONS)]


async def _connection(
    address, ops: List[Op], rng: random.Random, deadline: float, policy: Any, out: LoopResult
) -> None:
    reader, writer = await asyncio.open_connection(*address)
    clock = time.perf_counter
    inflight: deque = deque()
    position = 0
    order: List[Op] = []
    versions: List[int] = []
    view_reads = 0
    full_kept = 0

    def send() -> None:
        nonlocal position, order
        if position % len(ops) == 0:
            order = rng.sample(ops, len(ops))
        op = order[position % len(ops)]
        position += 1
        writer.write(op.frame)
        inflight.append((clock(), op))
        out.attempted += 1

    try:
        for _ in range(WINDOW):
            send()
        while inflight:
            payload = await read_frame(reader)
            now = clock()
            sent, op = inflight.popleft()
            out.latencies.append(now - sent)
            out.completed_at.append(now)
            if len(out.latencies) % ROUND_REQUESTS == 0:
                out.on_round()
            if len(out.latencies) % UPDATE_EVERY == 0:
                out.on_update()
            if now < deadline:
                send()
            if not payload.startswith(b'{"result":'):
                out.failed += 1
                if len(out.problems) < 5:
                    out.problems.append(f"{op.method}: {payload[:160]!r}")
                continue
            if op.method == "get_version":
                versions.append(json.loads(payload)["result"]["version"])
            elif op.method == "get_policy":
                out.problems += checks.check_policy(json.loads(payload)["result"], policy)
            else:
                view_reads += 1
                if view_reads % SAMPLE_EVERY == 0:
                    if op.pids is not None:
                        out.samples.append((op, payload))
                    elif full_kept < FULL_SAMPLES:
                        full_kept += 1
                        out.samples.append((op, payload))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    out.problems += checks.check_versions(versions)


async def closed_loop(address, per_connection: List[List[Op]], seed: int, seconds: float,
                      policy, server: "ServerProcess") -> LoopResult:
    """Run the loop for ``seconds``.  The server's CPU time is read each
    time a round of requests completes, and a price update is asked for
    every ``UPDATE_EVERY`` answers: both blocking calls, made in order on
    one helper thread."""
    out = LoopResult()
    loop = asyncio.get_running_loop()
    with ThreadPoolExecutor(max_workers=1) as probe:
        out.on_round = lambda: out.round_cpu.append(loop.run_in_executor(probe, server.cpu))
        out.on_update = lambda: out.updates.append(loop.run_in_executor(probe, server.update))
        cpu0 = time.process_time()
        out.started = time.perf_counter()
        deadline = out.started + seconds
        await asyncio.gather(*(
            _connection(address, ops, random.Random(seed * CONNECTIONS + index),
                        deadline, policy, out)
            for index, ops in enumerate(per_connection) if ops
        ))
        out.ended = time.perf_counter()
        out.client_cpu = time.process_time() - cpu0
        out.round_cpu = list(await asyncio.gather(*out.round_cpu))
        await asyncio.gather(*out.updates)
    return out


# -- one measured phase ----------------------------------------------------


def share_one_cpu() -> None:
    """Keep this process, and the server processes it starts, on one CPU.

    The host takes a vCPU away for 5-50 ms at a time, up to dozens of
    times a second in busy periods, and a stall of either process stops
    the closed loop.  On one vCPU only that vCPU's stalls count: in one
    busy period, runs on one vCPU served 1,440-1,610 requests a second
    against 880-1,000 for the same seeds spread over two.  The generator
    costs about an eighth of the server's CPU time.  Children and threads
    inherit the mask, so this must run before the server and the helper
    threads are started.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of sorted values."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def measure_setup(seed: int, probe: bytes) -> float:
    """Seconds from spawning the server to its first served view read."""
    server = ServerProcess(seed)
    try:
        answer = asyncio.run(first_answer(server.address, probe))
        elapsed = time.perf_counter() - server.started
        if "result" not in answer:
            raise RuntimeError(f"first view read failed: {answer}")
    finally:
        server.quit()
    return elapsed


def run_phase(seed: int, seconds: float, spans_path: Optional[str] = None) -> Dict[str, Any]:
    """Serve the workload for ``seconds``; return measurements and checks."""
    from portal_server import bench_topology

    topology = bench_topology()
    per_connection = schedule_ops(seed, topology.aggregation_pids)
    server = ServerProcess(seed, spans_path)
    try:
        policy = asyncio.run(first_answer(server.address, frame("get_policy", {})))["result"]
        cpu0 = server.cpu()
        loop = asyncio.run(
            closed_loop(server.address, per_connection, seed, seconds, policy, server)
        )
        cpu1 = server.cpu()
        record = server.quit()
    except BaseException:
        server.kill()
        raise
    reference = checks.PriceReference(topology, record["links"], record["published"])
    problems = list(loop.problems) + reference.route_problems[:3]
    for op, payload in loop.samples:
        result = json.loads(payload)["result"]
        if op.method == "get_pdistances":
            problems += checks.check_view(result, op.pids, reference)
        else:
            problems += checks.check_costmap(result, op.pids, reference)
    # Per-round figures, medians over the rounds: a round is one exact
    # pass of the mix with five price updates, so rounds differ only by
    # the order of their requests and by noise, and a stall of the
    # machine moves one round, not the run.
    completed = len(loop.latencies)
    walls, p50s, p99s, cpus = [], [], [], []
    for j in range(1, len(loop.round_cpu)):
        # The round between the j-th and (j+1)-th round marks; the part
        # before the first mark is the ramp-up and is left out.
        lo, hi = j * ROUND_REQUESTS, (j + 1) * ROUND_REQUESTS
        walls.append(loop.completed_at[hi - 1] - loop.completed_at[lo - 1])
        cpus.append(loop.round_cpu[j] - loop.round_cpu[j - 1])
        ordered = sorted(loop.latencies[lo:hi])
        p50s.append(percentile(ordered, 0.50))
        p99s.append(percentile(ordered, 0.99))
    if not walls:
        raise RuntimeError(f"only {completed} requests completed: too few for two rounds")
    wall = statistics.median(walls)
    window = loop.ended - loop.started
    return {
        "attempted": loop.attempted,
        "failed": loop.failed + (loop.attempted - completed),
        "problems": problems,
        "completed": completed,
        "throughput_ops": ROUND_REQUESTS / wall,
        "p50_ms": statistics.median(p50s) * 1e3,
        "p99_ms": statistics.median(p99s) * 1e3,
        "cpu_us_per_op": statistics.median(cpus) / ROUND_REQUESTS * 1e6,
        "wall_s": wall,
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
        "calibration": record["calibration"],
        "server_cpu_s": cpu1 - cpu0,
        "gen_cpu_share": loop.client_cpu / window,
    }


def run(seed: int, seconds: float) -> Dict[str, Any]:
    from portal_server import bench_topology

    share_one_cpu()
    probe = frame("get_pdistances", {"pids": [bench_topology().aggregation_pids[0]]})
    setups = [measure_setup(seed, probe) for _ in range(SETUPS)]
    result = run_phase(seed, seconds)
    result["setup_s"] = statistics.median(setups)
    return normalize(result, speed_factor(result.pop("calibration")))


def traced(seed: int, seconds: float, spans_path: str) -> Dict[str, Any]:
    """Half the time untraced, half with the server's layers traced."""
    from spans import SpanStats, load

    share_one_cpu()
    plain = run_phase(seed, seconds / 2)
    traced_phase = run_phase(seed, seconds / 2, spans_path)
    spans = load(spans_path)
    stats = SpanStats(spans)
    # Aggregation and price updates off the event loop, for the residual.
    background_s = sum(
        end - start for _, parent, name, start, end, _ in spans
        if parent == 0 and name in ("views.publish", "itracker.price_update")
    ) / 1e9
    published_versions = {
        value for _, _, name, _, _, value in spans if name == "views.publish"
    }
    completed = traced_phase["completed"]
    residual_s = (
        traced_phase["server_cpu_s"] - stats.total_s("dispatch")
        - stats.total_s("protocol.encode") - background_s
    )
    updates = stats.n("itracker.price_update")
    return {
        "attempted": plain["attempted"] + traced_phase["attempted"],
        "failed": plain["failed"] + traced_phase["failed"],
        "problems": plain["problems"] + traced_phase["problems"],
        "protocol.encode_us": stats.mean_us("protocol.encode"),
        "protocol.encode_bytes": stats.mean_value("protocol.encode"),
        "protocol.wire_us": stats.mean_us("protocol.wire"),
        "dispatch.self_us": stats.mean_self_us("dispatch"),
        "dispatch.count": stats.n("dispatch"),
        "views.slice_us": stats.mean_us("views.slice"),
        "views.publish_ms": stats.mean_us("views.publish") / 1e3,
        "views.publishes_per_version": (
            stats.n("views.publish") / len(published_versions) if published_versions else 0.0
        ),
        "itracker.price_update_ms": stats.mean_us("itracker.price_update") / 1e3,
        "itracker.price_updates": updates,
        "aserver.residual_us": residual_s / completed * 1e6,
        "gen.cpu_share": plain["gen_cpu_share"],
        "trace.overhead_ratio": traced_phase["cpu_us_per_op"] / plain["cpu_us_per_op"],
    }
