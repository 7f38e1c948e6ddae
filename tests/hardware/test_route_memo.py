"""Tests: memoized route kinds answer exactly what a fresh Dijkstra does.

``Topology.addressable``/``coherent`` sit on the placement and transfer
paths, so their route kinds are memoized under the same invalidation as
``route()``.  These tests pin the memo to an independent shortest-path
computation, before and after link-state faults.
"""

import networkx as nx
import pytest

from repro.hardware import Cluster, NoRouteError
from repro.hardware.presets import available
from repro.hardware.spec import ADDRESSABLE_LINK_KINDS, COHERENT_LINK_KINDS
from repro.sim.faults import FaultKind


def fresh_kinds(topology, src, dst):
    """Link kinds on the live latency-minimal path; None without one."""
    if src == dst:
        return []
    try:
        path = nx.shortest_path(
            topology.graph, src, dst,
            weight=lambda a, b, data: (
                data["link"].latency + 1e-9 if data["link"].up else None
            ),
        )
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None
    return [topology.graph.edges[u, v]["kind"] for u, v in zip(path, path[1:])]


def memo_answers(topology, src, dst):
    try:
        kinds = topology.route_kinds(src, dst)
    except NoRouteError:
        kinds = None
    return kinds, topology.addressable(src, dst), topology.coherent(src, dst)


def fresh_answers(topology, src, dst):
    kinds = fresh_kinds(topology, src, dst)
    if kinds is None:
        return None, False, False
    return (
        kinds,
        all(k in ADDRESSABLE_LINK_KINDS for k in kinds),
        all(k in COHERENT_LINK_KINDS for k in kinds),
    )


def assert_memo_matches(cluster):
    topology = cluster.topology
    answers = {}
    for src in sorted(cluster.compute):
        for dst in sorted(cluster.memory):
            expected = fresh_answers(topology, src, dst)
            # Twice: the first call fills the memo, the second reads it.
            assert memo_answers(topology, src, dst) == expected
            assert memo_answers(topology, src, dst) == expected
            answers[src, dst] = expected
    return answers


@pytest.mark.parametrize("preset", available())
def test_memo_equals_fresh_dijkstra_on_every_preset(preset):
    cluster = Cluster.preset(preset)
    answers = assert_memo_matches(cluster)
    assert any(addressable for _, addressable, _ in answers.values())


def test_missing_route_is_neither_addressable_nor_coherent():
    topology = Cluster.preset("pooled-rack").topology
    topology.add_node("ghost", role="memory")
    assert not topology.addressable("cpu1", "ghost")
    assert not topology.coherent("cpu1", "ghost")
    assert not topology.addressable("cpu1", "nowhere")
    with pytest.raises(NoRouteError):
        topology.route_kinds("cpu1", "ghost")


@pytest.mark.parametrize("downed, partitioned", [
    ("plane-a", False),  # traffic reroutes over plane-b
    ("plane", True),  # both planes down: the pool is unreachable
])
def test_memo_follows_link_down_and_up(downed, partitioned):
    cluster = Cluster.preset("dual-plane-rack")
    healthy = assert_memo_matches(cluster)
    names = [link.name for link in cluster.topology.links()
             if downed in link.name]
    for name in names:
        cluster.faults.inject_now(FaultKind.LINK_DOWN, name)
    degraded = assert_memo_matches(cluster)
    assert any(kinds is None for kinds, _, _ in degraded.values()) == partitioned
    for name in names:
        cluster.faults.inject_now(FaultKind.LINK_UP, name)
    assert assert_memo_matches(cluster) == healthy
