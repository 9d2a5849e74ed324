"""Routing deadlock analysis.

Wormhole switching deadlocks when the *channel dependency graph* (CDG)
of a routing function contains a cycle (Dally & Seitz): a packet
holding channel A while waiting for channel B creates the dependency
A -> B, and a cyclic chain of such dependencies can stall forever.

The emulation platform loads routing tables at initialisation time
(software!), so a bad table can deadlock the emulated NoC without any
hardware bug.  This module builds the CDG of any
:class:`~repro.noc.routing.RoutingFunction` over a topology and checks
it for cycles, so the platform-initialisation step can refuse unsafe
tables before a multi-hour emulation hangs.

A *channel* here is a directed inter-switch link ``(a, b)``; injection
and ejection channels cannot participate in cycles (sources hold
nothing upstream, sinks always drain) and are excluded.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.noc.routing import RoutingFunction, compile_dense_route_table
from repro.noc.topology import Topology

Channel = Tuple[int, int]  # directed switch pair (a, b)


class DeadlockError(RuntimeError):
    """Raised by :func:`assert_deadlock_free` when a cycle exists."""


def channel_dependency_graph(
    topology: Topology,
    routing: RoutingFunction,
    destinations: Optional[Sequence[int]] = None,
) -> Dict[Channel, Set[Channel]]:
    """All channel dependencies the routing function can create.

    For every destination and every switch, each input channel that a
    packet toward that destination can occupy depends on every output
    channel the routing function may pick next.  Multi-path functions
    contribute all their candidate ports.

    The routes are read from the dense per-switch rows the network
    compiles (:func:`~repro.noc.routing.compile_dense_route_table`);
    only entries those rows leave open — multipath candidates and
    missing routes — ask :meth:`RoutingFunction.ports_for`.  Each
    destination then costs one pass over its column of next switches
    (switch ids, -1 for an ejection).
    """
    n_sw = topology.n_switches
    n_nodes = topology.n_nodes
    if destinations is None:
        destinations = range(n_nodes)
    # Downstream switch of every output port; -1 marks an ejection
    # port, which ends the chain.
    downstream = [
        {
            port: ep.target if ep.kind == "switch" else -1
            for port, ep in enumerate(outs)
        }
        for outs in topology.switch_outputs
    ]
    # Next switch per (switch, destination node); None where the dense
    # row leaves the route open (or the routing does not compile).
    hops = []
    for s in range(n_sw):
        row = compile_dense_route_table(routing, s, n_nodes)
        hops.append(list(map(downstream[s].get, row or [None] * n_nodes)))
    # One next-switch column per destination; the trailing -1 makes
    # ``column[-1]`` (what follows an ejection) an ejection too.
    columns = list(zip(*hops, [-1] * n_nodes))
    open_column = (None,) * n_sw
    switches = range(n_sw)
    # Dependencies ``(s, t, u)`` — channel (s, t) then (t, u) — in the
    # order they are first met; those with an ejection are dropped
    # below.
    dependencies: Dict[Tuple[int, int, int], None] = {}
    for dst in destinations:
        column = columns[dst] if 0 <= dst < n_nodes else open_column
        if None not in column:
            dependencies.update(
                zip(
                    zip(switches, column, map(column.__getitem__, column)),
                    repeat(None),
                )
            )
            continue
        # Open entries list the next switch of every candidate port.
        nexts = [
            ((t,) if t >= 0 else ())
            if t is not None
            else tuple(
                downstream[s][port]
                for port in routing.ports_for(s, dst)
                if downstream[s][port] >= 0
            )
            for s, t in zip(switches, column)
        ]
        dependencies.update(
            ((s, t, u), None)
            for s in switches
            for t in nexts[s]
            for u in nexts[t]
        )
    graph: Dict[Channel, Set[Channel]] = {}
    for s, t, u in dependencies:
        if t >= 0 and u >= 0:
            graph.setdefault((s, t), set()).add((t, u))
    return graph


def find_dependency_cycle(
    graph: Dict[Channel, Set[Channel]]
) -> Optional[List[Channel]]:
    """One cycle of the dependency graph, or ``None`` if acyclic.

    Iterative DFS with colouring; returns the cycle as a channel list
    ``[c0, c1, ..., c0]`` for diagnostics.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[Channel, int] = {c: WHITE for c in graph}
    parent: Dict[Channel, Optional[Channel]] = {}

    for root in graph:
        if colour[root] != WHITE:
            continue
        stack: List[Tuple[Channel, Iterable[Channel]]] = [
            (root, iter(graph.get(root, ())))
        ]
        colour[root] = GREY
        parent[root] = None
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child not in colour:
                    colour[child] = WHITE
                if colour[child] == WHITE:
                    colour[child] = GREY
                    parent[child] = node
                    stack.append((child, iter(graph.get(child, ()))))
                    advanced = True
                    break
                if colour[child] == GREY:
                    # Found a back edge: unwind the cycle.
                    if child == node:  # self-dependency
                        return [node, node]
                    cycle = [child, node]
                    walk = parent[node]
                    while walk is not None and walk != child:
                        cycle.append(walk)
                        walk = parent[walk]
                    cycle.append(child)
                    cycle.reverse()
                    return cycle
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None


def is_deadlock_free(
    topology: Topology,
    routing: RoutingFunction,
    destinations: Optional[Sequence[int]] = None,
) -> bool:
    """True when the routing function's CDG is acyclic."""
    graph = channel_dependency_graph(topology, routing, destinations)
    return find_dependency_cycle(graph) is None


def assert_deadlock_free(
    topology: Topology,
    routing: RoutingFunction,
    destinations: Optional[Sequence[int]] = None,
) -> None:
    """Raise :class:`DeadlockError` naming a cycle if one exists."""
    graph = channel_dependency_graph(topology, routing, destinations)
    cycle = find_dependency_cycle(graph)
    if cycle is not None:
        pretty = " -> ".join(f"{a}->{b}" for a, b in cycle)
        raise DeadlockError(
            f"routing can deadlock: channel dependency cycle"
            f" [{pretty}]"
        )
