"""The table builders and the channel-dependency graph against plain
reference implementations.

The builders compile routes per destination *switch* over an adjacency
built once per call, and the dependency graph reads dense route rows.
The references below do the obvious thing instead — one BFS per
destination node straight off the topology, and every dependency
enumerated through ``ports_for`` — so any drift in a table entry, a
tie-break, the ``avoid_links`` handling or a dependency shows up as an
inequality.  Fabrics are small; the ``chaos`` profile draws many more
examples than tier-1.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.deadlock import channel_dependency_graph
from repro.noc.routing import (
    RoutingError,
    build_multipath_tables,
    build_shortest_path_tables,
    build_updown_tables,
    paper_routing,
)
from repro.noc.topology import (
    fully_connected,
    mesh,
    paper_topology,
    ring,
    spidergon,
    star,
    torus,
    tree,
)

#: Every topology factory, at sizes that keep one example cheap.
_fabrics = st.one_of(
    st.builds(
        mesh,
        st.integers(1, 4),
        st.integers(1, 4),
        nodes_per_switch=st.integers(1, 2),
    ),
    st.builds(torus, st.integers(3, 4), st.integers(3, 4)),
    st.builds(ring, st.integers(3, 7), nodes_per_switch=st.integers(1, 2)),
    st.builds(star, st.integers(1, 5)),
    st.builds(spidergon, st.sampled_from([4, 6, 8])),
    st.builds(tree, st.integers(2, 3), st.integers(1, 3)),
    st.builds(fully_connected, st.integers(2, 4)),
    st.builds(paper_topology),
)

TIER1 = settings(max_examples=30, deadline=None)
LONG = settings(max_examples=300, deadline=None)


# ----------------------------------------------------------------------
# Plain references
# ----------------------------------------------------------------------
def _links(topo, s, avoid):
    """``(port, target)`` of every surviving switch link out of ``s``."""
    return [
        (port, ep.target)
        for port, ep in enumerate(topo.switch_outputs[s])
        if ep.kind == "switch" and (s, ep.target) not in avoid
    ]


def _bfs(topo, start, avoid, reverse):
    """Hop counts to (``reverse``) or from ``start``; -1 = unreachable."""
    dist = [-1] * topo.n_switches
    dist[start] = 0
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for a in range(topo.n_switches):
            for _port, b in _links(topo, a, avoid):
                p, q = (a, b) if reverse else (b, a)
                if q == s and dist[p] < 0:
                    dist[p] = dist[s] + 1
                    queue.append(p)
    return dist


def reference_minimal(topo, destinations, avoid, max_paths):
    """Per destination node: BFS, then the minimal next hops in port
    order (``max_paths=None`` -> only the lowest port, as an int)."""
    tables = {s: {} for s in range(topo.n_switches)}
    for dst in destinations:
        dst_switch = topo.switch_of_node(dst)
        dist = _bfs(topo, dst_switch, avoid, reverse=True)
        for s in range(topo.n_switches):
            if s == dst_switch:
                port = topo.output_port_to_node(s, dst)
                tables[s][dst] = port if max_paths is None else [port]
            elif dist[s] > 0:
                ports = [
                    port
                    for port, t in _links(topo, s, avoid)
                    if dist[t] == dist[s] - 1
                ]
                tables[s][dst] = (
                    ports[0] if max_paths is None else ports[:max_paths]
                )
    return tables


def reference_updown(topo, destinations, avoid, root=0):
    """Per destination node: rank switches by (level, id), descend on a
    shortest down-only path, else climb to the cheapest up neighbour."""
    n = topo.n_switches
    level = _bfs(topo, root, avoid, reverse=False)
    ranked = [s for s in range(n) if level[s] >= 0]
    if len(ranked) < n and not avoid:
        raise RoutingError("not connected")

    def rank(s):
        return (level[s], s)

    def is_up(s, t):
        return rank(t) < rank(s)

    tables = {s: {} for s in range(n)}
    for dst in destinations:
        dst_switch = topo.switch_of_node(dst)
        if level[dst_switch] < 0:
            continue
        down = [-1] * n
        down[dst_switch] = 0
        changed = True
        while changed:  # Bellman-Ford over down links
            changed = False
            for s in ranked:
                for _port, t in _links(topo, s, avoid):
                    if not is_up(s, t) and down[t] >= 0:
                        if down[s] < 0 or down[t] + 1 < down[s]:
                            down[s] = down[t] + 1
                            changed = True
        cost = [-1] * n
        for s in sorted(ranked, key=rank):
            if down[s] >= 0:
                cost[s] = down[s]
                continue
            ups = [
                cost[t] + 1
                for _port, t in _links(topo, s, avoid)
                if is_up(s, t) and cost[t] >= 0
            ]
            if ups:
                cost[s] = min(ups)
            elif not avoid:
                raise RoutingError("no up link")
        for s in ranked:
            if s == dst_switch:
                tables[s][dst] = topo.output_port_to_node(s, dst)
            elif down[s] > 0:
                tables[s][dst] = min(
                    port
                    for port, t in _links(topo, s, avoid)
                    if not is_up(s, t) and down[t] == down[s] - 1
                )
            elif cost[s] >= 0:
                candidates = [
                    (cost[t], port)
                    for port, t in _links(topo, s, avoid)
                    if is_up(s, t) and cost[t] >= 0
                ]
                tables[s][dst] = min(candidates)[1]
    return tables


def reference_dependencies(topo, routing, destinations):
    """Every ``(s, t) -> (t, u)`` the routing's candidate ports allow."""
    graph = {}
    for dst in destinations:
        for s in range(topo.n_switches):
            for port in routing.ports_for(s, dst):
                ep = topo.switch_outputs[s][port]
                if ep.kind != "switch":
                    continue
                t = ep.target
                for port2 in routing.ports_for(t, dst):
                    ep2 = topo.switch_outputs[t][port2]
                    if ep2.kind == "switch":
                        graph.setdefault((s, t), set()).add((t, ep2.target))
    return graph


# ----------------------------------------------------------------------
# Drawing a case
# ----------------------------------------------------------------------
def _draw_case(data):
    """A fabric, an avoided-link subset (possibly disconnecting) and a
    destination list (``None`` = every node)."""
    topo = data.draw(_fabrics)
    pairs = sorted({(a, b) for a, b, _delay in topo.switch_edges()})
    avoid = frozenset()
    if pairs and data.draw(st.booleans()):
        avoid = frozenset(
            data.draw(st.lists(st.sampled_from(pairs), unique=True))
        )
    destinations = None
    if data.draw(st.booleans()):
        destinations = data.draw(
            st.lists(
                st.integers(0, topo.n_nodes - 1),
                min_size=1,
                max_size=topo.n_nodes,
                unique=True,
            )
        )
    return topo, avoid, destinations


def _same_outcome(build, reference):
    """Both raise :class:`RoutingError`, or both return equal tables."""
    try:
        expected = reference()
    except RoutingError:
        with pytest.raises(RoutingError):
            build()
        return None
    routing = build()
    assert routing.tables == expected
    return routing


def check_builders(data):
    topo, avoid, destinations = _draw_case(data)
    dests = range(topo.n_nodes) if destinations is None else destinations
    shortest = _same_outcome(
        lambda: build_shortest_path_tables(topo, destinations, avoid),
        lambda: reference_minimal(topo, dests, avoid, None),
    )
    max_paths = data.draw(st.integers(1, 4))
    multipath = _same_outcome(
        lambda: build_multipath_tables(
            topo, destinations, max_paths=max_paths, avoid_links=avoid
        ),
        lambda: reference_minimal(topo, dests, avoid, max_paths),
    )
    root = data.draw(st.integers(0, topo.n_switches - 1))
    updown = _same_outcome(
        lambda: build_updown_tables(topo, destinations, root, avoid),
        lambda: reference_updown(topo, dests, avoid, root),
    )
    for routing in (shortest, multipath, updown):
        if routing is not None:
            assert channel_dependency_graph(
                topo, routing, destinations
            ) == reference_dependencies(topo, routing, dests)


@given(data=st.data())
@TIER1
def test_builders_and_dependencies_match_references(data):
    check_builders(data)


@pytest.mark.chaos
@given(data=st.data())
@LONG
def test_builders_and_dependencies_match_references_long(data):
    check_builders(data)


@pytest.mark.parametrize("case", ["overlap", "disjoint", "split"])
def test_paper_routing_dependencies_match_reference(case):
    """Paper tables are partial (most entries missing) and ``split`` is
    multipath: both go through the ``ports_for`` fallback."""
    topo = paper_topology()
    routing = paper_routing(topo, case)
    for destinations in (range(topo.n_nodes), [7], [4, 5, 6, 7], [9]):
        assert channel_dependency_graph(
            topo, routing, destinations
        ) == reference_dependencies(topo, routing, destinations)
