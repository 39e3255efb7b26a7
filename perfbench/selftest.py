"""Self-test of the output checks: each must pass a right output and
reject a planted wrong one.

Usage, from the repository root::

    python3 perfbench/selftest.py

Right outputs come from the program itself, in-process and small: a
portal dispatcher answering view, cost-map, policy and version requests
without sockets, and a 40-peer swarm on the Abilene topology of Fig. 7.
The field-test property check is fed figures measured at benchmark
scale.  Exits 1 if any
check accepts a wrong output or rejects a right one.
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402

FAILURES = []


def expect(name: str, problems, wrong: bool) -> None:
    ok = bool(problems) == wrong
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {problems[0] if problems else 'accepted'}")
    if not ok:
        FAILURES.append(name)


def wire(document):
    return json.loads(json.dumps(document))


def portal_checks() -> None:
    from portal_server import bench_topology
    from repro.core.itracker import ITracker
    from repro.network.routing import RoutingTable
    from repro.observability import NULL_TELEMETRY
    from repro.portal.dispatch import PortalDispatcher

    topology = bench_topology()
    itracker = ITracker(topology=topology, telemetry=NULL_TELEMETRY)
    links = list(topology.links)

    def record():
        prices = itracker.link_prices
        return [itracker.version, [float(prices[key]) for key in links]]

    dispatcher = PortalDispatcher(itracker, telemetry=NULL_TELEMETRY)

    def ask(method, **params):
        return wire(dispatcher.dispatch({"method": method, "params": params}))["result"]

    pids = list(topology.aggregation_pids)
    subset = pids[3:8]
    old_view = ask("get_pdistances", pids=subset)
    published = [record()]
    itracker.observe_loads({key: 0.8 * topology.links[key].capacity for key in links[::3]})
    published.append(record())
    reference = checks.PriceReference(topology, links, published)
    expect("routes are shortest paths", reference.route_problems, wrong=False)

    view = ask("get_pdistances", pids=subset)
    full = ask("get_pdistances")
    costmap = ask("get_alto_costmap", pids=subset)
    expect("subset view of the new version", checks.check_view(view, subset, reference), False)
    expect("subset view of the old version", checks.check_view(old_view, subset, reference), False)
    expect("full view", checks.check_view(full, None, reference), False)
    expect("ALTO cost map", checks.check_costmap(costmap, subset, reference), False)

    bad = copy.deepcopy(view)
    bad["distances"][3][2] += 0.001
    expect("one perturbed distance", checks.check_view(bad, subset, reference), True)
    bad = copy.deepcopy(full)
    bad["distances"][4321][2] += 1e-6
    expect("one perturbed distance in the full mesh", checks.check_view(bad, None, reference), True)
    bad = copy.deepcopy(view)
    bad["distances"] = [
        new if index % 2 else old
        for index, (old, new) in enumerate(zip(old_view["distances"], view["distances"]))
    ]
    expect("entries from two versions", checks.check_view(bad, subset, reference), True)
    bad = copy.deepcopy(view)
    dropped = bad["pids"].pop()
    bad["distances"] = [e for e in bad["distances"] if dropped not in e[:2]]
    expect("a requested PID missing", checks.check_view(bad, subset, reference), True)
    expect("a PID not requested", checks.check_view(view, subset[:-1], reference), True)
    bad = copy.deepcopy(view)
    bad["distances"].pop()
    expect("a pair missing", checks.check_view(bad, subset, reference), True)
    bad = copy.deepcopy(view)
    for entry in bad["distances"]:
        if entry[0] == entry[1]:
            entry[2] = 1.0
            break
    expect("a non-zero intra-PID distance", checks.check_view(bad, subset, reference), True)
    bad = copy.deepcopy(costmap)
    bad["cost-map"][subset[0]][subset[1]] += 0.001
    expect("one perturbed ALTO cost", checks.check_costmap(bad, subset, reference), True)
    bad = copy.deepcopy(costmap)
    del bad["cost-map"][subset[2]]
    expect("an ALTO row missing", checks.check_costmap(bad, subset, reference), True)

    policy = ask("get_policy")
    expect("policy document", checks.check_policy(ask("get_policy"), policy), False)
    bad = copy.deepcopy(policy)
    bad["thresholds"]["heavy_usage"] += 0.1
    expect("a changed policy", checks.check_policy(bad, policy), True)
    expect("versions in order", checks.check_versions([0, 0, 1, 3, 3]), False)
    expect("a version going back", checks.check_versions([0, 2, 1]), True)

    # A routing table with one detour: the reference must notice.
    route = RoutingTable.route
    src, dst = pids[0], pids[1]
    detour = route(RoutingTable.build(topology), src, pids[40]) + route(
        RoutingTable.build(topology), pids[40], dst
    )
    RoutingTable.route = lambda table, a, b: detour if (a, b) == (src, dst) else route(table, a, b)
    try:
        detoured = checks.PriceReference(topology, links, published)
    finally:
        RoutingTable.route = route
    expect("a route that is not shortest", detoured.route_problems, True)


def swarm_checks() -> None:
    from repro.experiments.comparison import make_population, run_scheme
    from repro.experiments.fig6_internet import ABILENE_POPULATION, abilene_internet_topology
    from repro.experiments.fig7_fig8_sweep import sweep_config
    from repro.network.routing import RoutingTable

    topology = abilene_internet_topology(background_mlu=0.9)
    config = sweep_config(40, rng_seed=5)
    config.placement_weights = ABILENE_POPULATION
    result = run_scheme(topology, RoutingTable.build(topology), config, "p4p").result
    peers, _ = make_population(topology, config)
    down = {peer.peer_id: config.access_down_mbps for peer in peers}
    args = (down, config.file_mbit, result.completion_times, result.total_payload_mbit, 0)

    expect("40-peer swarm", checks.check_swarm("p4p", *args), False)
    missing = dict(result.completion_times)
    missing.pop(next(iter(missing)))
    expect("a peer that never completed",
           checks.check_swarm("p4p", down, args[1], missing, args[3], 0), True)
    expect("payload not peers x file size",
           checks.check_swarm("p4p", down, args[1], args[2], args[3] - args[1], 0), True)
    fast = dict(result.completion_times)
    fast[next(iter(fast))] = config.file_mbit / config.access_down_mbps * 0.9
    expect("a download faster than its downlink",
           checks.check_swarm("p4p", down, args[1], fast, args[3], 0), True)
    expect("a tracker hook failure",
           checks.check_swarm("p4p", down, args[1], args[2], args[3], 1), True)

    # Field-test figures measured at benchmark scale.
    bdp = {"native": 2.63, "p4p": 1.97}
    local = {"native": 17.9, "p4p": 26.0}
    expect("Fig. 12a / Table 3 figures", checks.check_fieldtest(bdp, local), False)
    expect("field test with the schemes swapped", checks.check_fieldtest(
        {"native": 1.97, "p4p": 2.63}, {"native": 26.0, "p4p": 17.9}), True)
    expect("field test with localization swapped",
           checks.check_fieldtest(bdp, {"native": 26.0, "p4p": 17.9}), True)

    # Pooled over a run's inputs: (backbone Mbit, payload Mbit, same-metro
    # Mbit, internal Mbit) per scheme; one input alone may miss Table 3.
    from swarm_work import check_pooled_fieldtest

    good = {"native": (263.0, 100.0, 17.9, 100.0), "p4p": (197.0, 100.0, 26.0, 100.0)}
    unlucky = {"native": (260.0, 100.0, 19.2, 100.0), "p4p": (220.0, 100.0, 17.6, 100.0)}
    expect("pooled field test with one unlucky input",
           check_pooled_fieldtest([good, good, unlucky]), False)
    expect("pooled field test with the schemes swapped", check_pooled_fieldtest(
        [{"native": f["p4p"], "p4p": f["native"]} for f in (good, good, unlucky)]), True)


if __name__ == "__main__":
    portal_checks()
    swarm_checks()
    print(f"{len(FAILURES)} self-test failures" if FAILURES else "every check passed its self-test")
    sys.exit(1 if FAILURES else 0)
