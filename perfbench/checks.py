"""Output checks, computed apart from the program.

Every check returns a list of problems (empty when the output is right),
so the self-test can feed each one a planted wrong output and require a
non-empty answer.

Portal views are checked against p-distances the benchmark aggregates
itself: for every published price version, the sum of that version's
link prices along each PID pair's route.  The routes come from the
network layer's routing table and are checked here to be shortest paths
by the benchmark's own Dijkstra; nothing of ``repro.core.pdistance`` is
used.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-9


def _shortest_weights(topology, src: str) -> Dict[str, float]:
    out: Dict[str, List[Tuple[str, float]]] = {}
    for (a, b), link in topology.links.items():
        out.setdefault(a, []).append((b, link.ospf_weight))
    dist = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for nxt, weight in out.get(node, ()):
            cand = d + weight
            if cand < dist.get(nxt, math.inf):
                dist[nxt] = cand
                heapq.heappush(heap, (cand, nxt))
    return dist


class PriceReference:
    """P-distances of every published price version, aggregated apart.

    ``links`` is the link order of the price vectors; ``published`` is a
    list of ``[version, prices]`` pairs as the server recorded them.
    """

    def __init__(
        self,
        topology,
        links: Sequence[Sequence[str]],
        published: Sequence[Sequence[Any]],
    ) -> None:
        from repro.network.routing import RoutingTable

        routing = RoutingTable.build(topology)
        self.pids = list(topology.aggregation_pids)
        link_index = {tuple(key): i for i, key in enumerate(links)}
        self.pair_index: Dict[Tuple[str, str], int] = {}
        incidence = np.zeros((len(self.pids) ** 2, len(links)))
        self.route_problems: List[str] = []
        for src in self.pids:
            shortest = _shortest_weights(topology, src)
            for dst in self.pids:
                row = len(self.pair_index)
                self.pair_index[(src, dst)] = row
                if src == dst:
                    continue
                route = routing.route(src, dst)
                at = src
                weight = 0.0
                for key in route:
                    if key[0] != at:
                        self.route_problems.append(f"route {src}->{dst} is not a path")
                    at = key[1]
                    weight += topology.links[key].ospf_weight
                    incidence[row, link_index[tuple(key)]] += 1.0
                if at != dst or not math.isclose(
                    weight, shortest[dst], rel_tol=REL_TOL, abs_tol=ABS_TOL
                ):
                    self.route_problems.append(
                        f"route {src}->{dst} is not a shortest path"
                    )
        self.versions = [int(version) for version, _ in published]
        prices = np.array([list(map(float, p)) for _, p in published]).T
        #: pair x version matrix of p-distances.
        self.table = incidence @ prices

    def matching_versions(self, entries: Sequence[Tuple[str, str, float]]) -> np.ndarray:
        """Boolean mask of the versions that agree with every entry."""
        rows = [self.pair_index.get((src, dst)) for src, dst, _ in entries]
        if None in rows:
            return np.zeros(len(self.versions), dtype=bool)
        expected = self.table[rows]
        values = np.array([float(value) for _, _, value in entries])[:, None]
        close = np.abs(expected - values) <= ABS_TOL + REL_TOL * np.abs(expected)
        return close.all(axis=0)


def _expected_pids(requested: Optional[Sequence[str]], all_pids: Sequence[str]):
    return set(all_pids) if requested is None else set(requested)


def check_view(
    result: Mapping[str, Any],
    requested: Optional[Sequence[str]],
    reference: PriceReference,
) -> List[str]:
    """A ``get_pdistances`` result: the requested PIDs exactly, every
    ordered pair once, and every distance equal to one published version."""
    expected = _expected_pids(requested, reference.pids)
    pids = list(result.get("pids", ()))
    if set(pids) != expected or len(pids) != len(expected):
        return [f"view holds PIDs {sorted(pids)[:8]}..., requested {sorted(expected)[:8]}..."]
    entries = [tuple(entry) for entry in result.get("distances", ())]
    pairs = {(src, dst) for src, dst, _ in entries}
    if len(entries) != len(expected) ** 2 or pairs != {
        (a, b) for a in expected for b in expected
    }:
        return [f"view has {len(entries)} entries for {len(expected)} PIDs"]
    return _match(entries, reference, "view")


def check_costmap(
    result: Mapping[str, Any],
    requested: Optional[Sequence[str]],
    reference: PriceReference,
) -> List[str]:
    """An ALTO cost map: rows and columns are exactly the requested PIDs
    and every cost equals the p-distance of one published version."""
    expected = _expected_pids(requested, reference.pids)
    cost_map = result.get("cost-map", {})
    if set(cost_map) != expected or any(set(row) != expected for row in cost_map.values()):
        return [f"cost map rows {sorted(cost_map)[:8]}..., requested {sorted(expected)[:8]}..."]
    entries = [
        (src, dst, value) for src, row in cost_map.items() for dst, value in row.items()
    ]
    return _match(entries, reference, "cost map")


def _match(entries, reference: PriceReference, what: str) -> List[str]:
    for src, dst, value in entries:
        if src == dst and value != 0.0:
            return [f"{what}: intra-PID distance {src} is {value}, expected 0"]
    if not reference.matching_versions(entries).any():
        return [f"{what} over {len(entries)} entries matches no published price version"]
    return []


def check_policy(result: Any, expected: Any) -> List[str]:
    return [] if result == expected else ["get_policy differs from the start document"]


def check_versions(versions: Sequence[int]) -> List[str]:
    """``get_version`` answers on one connection, in order."""
    for before, after in zip(versions, versions[1:]):
        if after < before:
            return [f"get_version went back from {before} to {after}"]
    return []


# -- swarm -----------------------------------------------------------------


def check_swarm(
    label: str,
    down_mbps: Mapping[int, float],
    file_mbit: float,
    completion_times: Mapping[int, float],
    total_payload_mbit: float,
    hook_failures: int,
) -> List[str]:
    """One swarm's outcome: everyone finished, payload adds up, nobody
    beat their access downlink, and the iTracker hook never failed."""
    problems = []
    missing = set(down_mbps) - set(completion_times)
    if missing:
        problems.append(f"{label}: {len(missing)} peers never completed")
    if set(completion_times) - set(down_mbps):
        problems.append(f"{label}: completions for unknown peers")
    expected = len(down_mbps) * file_mbit
    if not math.isclose(total_payload_mbit, expected, rel_tol=1e-12):
        problems.append(f"{label}: payload {total_payload_mbit} Mbit, expected {expected}")
    for peer, duration in completion_times.items():
        floor = file_mbit / down_mbps.get(peer, math.inf)
        if duration < floor - 1e-6:
            problems.append(
                f"{label}: peer {peer} finished in {duration:.3f}s, "
                f"faster than its downlink allows ({floor:.3f}s)"
            )
            break
    if hook_failures:
        problems.append(f"{label}: {hook_failures} tracker hook failures")
    return problems


def check_fieldtest(unit_bdp: Mapping[str, float], localization: Mapping[str, float]) -> List[str]:
    """Fig. 12a / Table 3: P4P lowers the unit BDP and raises the share
    of same-metro traffic against native Pando."""
    problems = []
    if not unit_bdp["p4p"] < unit_bdp["native"]:
        problems.append(
            f"fig12a: p4p unit BDP {unit_bdp['p4p']:.3f} not below native {unit_bdp['native']:.3f}"
        )
    if not localization["p4p"] > localization["native"]:
        problems.append(
            f"table3: p4p localization {localization['p4p']:.1f}% not above "
            f"native {localization['native']:.1f}%"
        )
    return problems
