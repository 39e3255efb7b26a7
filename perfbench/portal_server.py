"""The portal under test, in a process of its own.

Usage (from the repository root)::

    python3 perfbench/portal_server.py --seed N [--spans PATH]

Serves one ``AsyncPortalServer`` (one worker, default telemetry and SLOs,
overload control off) over the 80-PoP synthetic ISP on an ephemeral port
and prints ``ready <port>``.  The iTracker is DYNAMIC: it takes price
updates from a seeded load sequence through ``ITracker.observe_loads``,
the call the swarm tracker hook makes, and the link prices of every
version it publishes are recorded.

The parent drives it over stdin, one command a line:

* ``cpu``    -- answers ``cpu <seconds>``, this process's CPU time so far;
* ``update`` -- applies the next price update and answers ``ok``;
* ``quit``   -- stops the server and answers ``done <json>`` with the
  link order, every published price version and the peak RSS, then exits.

With ``--spans`` the protocol, dispatch, view and iTracker layers are
wrapped with span recorders and the spans are written to that path at
exit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.core.itracker import ITracker  # noqa: E402
from repro.core.pdistance import uniform_pid_map  # noqa: E402
from repro.network.generators import US_METROS, synthetic_isp  # noqa: E402

from calib import Calibrator  # noqa: E402

#: Seconds between calibration slices on the serving loop.
CALIBRATE_EVERY_S = 0.2


def bench_topology():
    """The 80-PoP topology of ``benchmarks/test_perf_portal.py``."""
    return synthetic_isp(
        name="BENCH", n_pops=80, metros=US_METROS, n_hubs=12,
        as_number=65000, seed=9,
    )


def install_spans(recorder) -> None:
    from repro.portal import protocol
    from repro.portal.dispatch import PortalDispatcher
    from repro.portal.views import ViewPublisher

    recorder.wrap(protocol, "encode_frame", "protocol.encode",
                  value=lambda args, result: len(result))
    recorder.wrap(protocol, "pdistance_to_wire", "protocol.wire")
    recorder.wrap(PortalDispatcher, "dispatch", "dispatch")
    recorder.wrap(
        ViewPublisher, "view",
        lambda args: "views.full" if len(args) < 2 or args[1] is None
        else "views.slice",
    )
    # The value is the price version when the aggregation finished; the
    # number of distinct values is the number of versions published.
    recorder.wrap(ITracker, "view_snapshot", "views.publish",
                  value=lambda args, result: args[0].version)
    recorder.wrap(ITracker, "observe_loads", "itracker.price_update")


class PriceChurn:
    """Seeded price updates, every published version recorded."""

    def __init__(self, itracker: ITracker, seed: int) -> None:
        self.itracker = itracker
        self.rng = random.Random(seed)
        self.links = list(itracker.topology.links)
        self.capacity = [itracker.topology.links[key].capacity for key in self.links]
        self.published = [self._record()]

    def _record(self):
        prices = self.itracker.link_prices
        return [self.itracker.version, [float(prices[key]) for key in self.links]]

    def _loads(self):
        return {
            key: capacity * 0.9 * self.rng.random()
            for key, capacity in zip(self.links, self.capacity)
        }

    def update(self) -> None:
        self.itracker.observe_loads(self._loads())
        self.published.append(self._record())


def start_calibration(server, calibrator) -> None:
    """Time a calibration slice on the serving event loop every
    ``CALIBRATE_EVERY_S``: between two callbacks, so it measures the
    speed the requests were served at.  The loop is the server's one
    worker's (a private attribute: the server offers no hook)."""
    loop = server._workers[0].loop

    def tick() -> None:
        calibrator.run_slice()
        loop.call_later(CALIBRATE_EVERY_S, tick)

    loop.call_soon_threadsafe(loop.call_later, CALIBRATE_EVERY_S, tick)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    recorder = None
    if args.spans:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        install_spans(recorder)

    from repro.portal.aserver import AsyncPortalServer

    topology = bench_topology()
    itracker = ITracker(topology=topology, pid_map=uniform_pid_map(topology))
    server = AsyncPortalServer(itracker, workers=1)
    churn = PriceChurn(itracker, args.seed)
    calibrator = Calibrator(every_s=CALIBRATE_EVERY_S)
    start_calibration(server, calibrator)
    print(f"ready {server.address[1]}", flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "cpu":
                print(f"cpu {time.process_time()!r}", flush=True)
            elif command == "update":
                churn.update()
                print("ok", flush=True)
            elif command == "quit":
                break
    finally:
        server.close()
    if recorder is not None:
        recorder.unwrap_all()
        recorder.dump(args.spans)
    document = {
        "links": [list(key) for key in churn.links],
        "published": churn.published,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calibration": calibrator.slices,
    }
    print("done " + json.dumps(document, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
