"""Routing functions.

The emulated switches route per packet: when a HEAD flit reaches the
head of an input buffer, the switch consults its routing function to
pick an output port; BODY and TAIL flits follow the wormhole channel the
head opened.  Routing is table-based in the hardware platform (the
processor writes the tables through the configuration bus), so the
primary implementations here are :class:`TableRouting` and its
multi-path variant, plus builders that fill tables from a topology
(shortest path, equal-cost multi-path) and the explicit route cases of
the paper's experimental setup (:func:`paper_routing`).
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.noc.flit import Flit
from repro.noc.topology import (
    PAPER_FLOWS,
    Topology,
    TopologyError,
    paper_flow_pairs,
)


class RoutingError(RuntimeError):
    """Raised when no route exists for a (switch, destination) pair."""


def compile_dense_route_table(
    routing: "RoutingFunction", switch_id: int, n_nodes: int
) -> Optional[List[Optional[int]]]:
    """Compile one switch's routes into a dense ``dst -> port`` array.

    The per-hop routing decision of a table-based function is two dict
    lookups plus exception handling; the network compiles it once at
    platform build into a plain list the traverse indexes directly.
    Entries stay ``None`` — falling back to
    :meth:`RoutingFunction.output_port` per head flit — when the
    decision is not a single static port: multipath candidates (the
    per-packet hash must keep choosing) and missing destinations (the
    fallback raises the proper :class:`RoutingError`).  Routing
    functions that cannot enumerate their ports (no ``ports_for``)
    compile to ``None``: the switch then routes every head through the
    function, exactly as before compilation.  Plain tables compile
    directly: one dict row becomes one list.
    """
    if isinstance(routing, TableRouting):
        row = routing.tables.get(switch_id)
        if row is None:
            return [None] * n_nodes
        return list(map(row.get, range(n_nodes)))
    try:
        table: List[Optional[int]] = [None] * n_nodes
        for dst in range(n_nodes):
            ports = routing.ports_for(switch_id, dst)
            if len(ports) == 1:
                table[dst] = ports[0]
        return table
    except NotImplementedError:
        return None


def _mix(value: int) -> int:
    """A small integer hash (splitmix-style) for per-packet path choice."""
    value = (value ^ (value >> 16)) * 0x45D9F3B & 0xFFFFFFFF
    value = (value ^ (value >> 16)) * 0x45D9F3B & 0xFFFFFFFF
    return (value ^ (value >> 16)) & 0xFFFFFFFF


class RoutingFunction:
    """Base class: map (switch, head flit) to an output port index."""

    def output_port(self, switch: int, flit: Flit) -> int:
        raise NotImplementedError

    def ports_for(self, switch: int, dst: int) -> List[int]:
        """All output ports this function may pick for ``dst`` at ``switch``.

        Used by validation and by the FPGA cost model (routing-table
        width).  The base implementation reports a single port obtained
        from a probe flit, which subclasses override when they hold real
        tables.
        """
        raise NotImplementedError


class TableRouting(RoutingFunction):
    """Deterministic table-based routing.

    ``tables[switch][dst_node]`` is the output port index to take at
    ``switch`` for packets addressed to node ``dst_node``.
    """

    def __init__(self, tables: Mapping[int, Mapping[int, int]]) -> None:
        self.tables: Dict[int, Dict[int, int]] = {
            s: dict(t) for s, t in tables.items()
        }

    def output_port(self, switch: int, flit: Flit) -> int:
        try:
            return self.tables[switch][flit.dst]
        except KeyError:
            raise RoutingError(
                f"no route at switch {switch} for destination node"
                f" {flit.dst}"
            ) from None

    def ports_for(self, switch: int, dst: int) -> List[int]:
        try:
            return [self.tables[switch][dst]]
        except KeyError:
            return []

    def entries(self) -> int:
        """Total number of table entries (FPGA cost model input)."""
        return sum(len(t) for t in self.tables.values())


class MultiPathTableRouting(RoutingFunction):
    """Table routing with several candidate ports per destination.

    ``tables[switch][dst_node]`` is a non-empty list of output ports;
    the port for a given packet is chosen by hashing the packet id, so
    all flits of one packet take the same path (wormhole-safe) while
    successive packets of a flow spread over the candidates.  This
    models the paper's "two routing possibilities" when the candidate
    lists have length two.
    """

    def __init__(
        self,
        tables: Mapping[int, Mapping[int, Sequence[int]]],
        salt: int = 0,
    ) -> None:
        self.tables: Dict[int, Dict[int, List[int]]] = {}
        for s, t in tables.items():
            self.tables[s] = {}
            for dst, ports in t.items():
                if not ports:
                    raise RoutingError(
                        f"empty candidate port list at switch {s} for"
                        f" destination {dst}"
                    )
                self.tables[s][dst] = list(ports)
        self.salt = salt

    def output_port(self, switch: int, flit: Flit) -> int:
        try:
            ports = self.tables[switch][flit.dst]
        except KeyError:
            raise RoutingError(
                f"no route at switch {switch} for destination node"
                f" {flit.dst}"
            ) from None
        if len(ports) == 1:
            return ports[0]
        return ports[_mix(flit.packet.pid + self.salt) % len(ports)]

    def ports_for(self, switch: int, dst: int) -> List[int]:
        return list(self.tables.get(switch, {}).get(dst, []))

    def entries(self) -> int:
        return sum(
            len(ports)
            for t in self.tables.values()
            for ports in t.values()
        )


class XYRouting(RoutingFunction):
    """Dimension-ordered routing for 2D meshes (X first, then Y).

    Deadlock-free on meshes and used as the deterministic baseline in
    the routing ablation.  Requires the mesh dimensions because switch
    ids encode grid coordinates as ``id = y * width + x``.
    """

    def __init__(self, topology: Topology, width: int, height: int) -> None:
        if width * height != topology.n_switches:
            raise RoutingError(
                f"grid {width}x{height} does not match"
                f" {topology.n_switches} switches"
            )
        self.topology = topology
        self.width = width
        self.height = height

    def _next_switch(self, switch: int, dst_switch: int) -> int:
        x, y = switch % self.width, switch // self.width
        dx, dy = dst_switch % self.width, dst_switch // self.width
        if x != dx:
            return y * self.width + (x + 1 if dx > x else x - 1)
        return (y + 1 if dy > y else y - 1) * self.width + x

    def output_port(self, switch: int, flit: Flit) -> int:
        dst_switch = self.topology.switch_of_node(flit.dst)
        if dst_switch == switch:
            return self.topology.output_port_to_node(switch, flit.dst)
        nxt = self._next_switch(switch, dst_switch)
        try:
            return self.topology.output_port_to_switch(switch, nxt)
        except TopologyError:
            raise RoutingError(
                f"XY routing needs link {switch} -> {nxt}, which the"
                f" topology lacks"
            ) from None

    def ports_for(self, switch: int, dst: int) -> List[int]:
        dst_switch = self.topology.switch_of_node(dst)
        if dst_switch == switch:
            return [self.topology.output_port_to_node(switch, dst)]
        nxt = self._next_switch(switch, dst_switch)
        try:
            return [self.topology.output_port_to_switch(switch, nxt)]
        except TopologyError:
            return []


# ----------------------------------------------------------------------
# Table builders
# ----------------------------------------------------------------------
#: Per-switch surviving links as ``(port, target switch)`` pairs, in
#: port order.
Adjacency = List[List[Tuple[int, int]]]


def _switch_adjacency(
    topo: Topology, avoid: AbstractSet[Tuple[int, int]]
) -> Tuple[Adjacency, List[List[int]]]:
    """Out- and in-lists of the switch graph, built once per table build.

    ``avoid`` excludes directed switch pairs — the fault-repair path of
    the platform: when a board link fails, the initialisation step
    rebuilds the tables around it without re-synthesis.
    """
    out: Adjacency = [[] for _ in range(topo.n_switches)]
    into: List[List[int]] = [[] for _ in range(topo.n_switches)]
    for s, endpoints in enumerate(topo.switch_outputs):
        for port, ep in enumerate(endpoints):
            if ep.kind == "switch" and (s, ep.target) not in avoid:
                out[s].append((port, ep.target))
                into[ep.target].append(s)
    return out, into


def _bfs_levels(neighbours: List[List[int]], start: int) -> List[int]:
    """BFS hop count from ``start`` to every switch (-1 = unreachable).

    Over in-lists this is the distance *to* ``start``; over successor
    lists, the distance *from* it.
    """
    dist = [-1] * len(neighbours)
    dist[start] = 0
    frontier = [start]
    hops = 0
    while frontier:
        hops += 1
        reached = []
        for s in frontier:
            for p in neighbours[s]:
                if dist[p] < 0:
                    dist[p] = hops
                    reached.append(p)
        frontier = reached
    return dist


def _tables_from_columns(
    topo: Topology,
    destinations: Optional[Sequence[int]],
    column_for: Callable[[int, int], Optional[list]],
    eject: Callable[[int], object],
) -> Dict[int, Dict[int, object]]:
    """Per-switch tables from one next-hop column per destination switch.

    Every node on a switch shares its route there except for the last
    hop, so ``column_for(dst_switch, dst)`` runs once per destination
    switch (``dst`` is the first destination on it, for error messages)
    and returns each switch's entry toward it — ``None`` for no entry —
    or ``None`` when the whole switch is unreachable.  Each destination
    then takes that column with ``eject(port)`` at its own switch.  Rows
    keep the destinations' order.
    """
    if destinations is None:
        destinations = range(topo.n_nodes)
    by_switch: Dict[int, Optional[list]] = {}
    dsts: List[int] = []
    cols: List[list] = []
    for dst in destinations:
        dst_switch = topo.switch_of_node(dst)
        if dst_switch not in by_switch:
            by_switch[dst_switch] = column_for(dst_switch, dst)
        column = by_switch[dst_switch]
        if column is None:
            continue
        column = list(column)
        port = topo.output_port_to_node(dst_switch, dst)
        column[dst_switch] = eject(port)
        dsts.append(dst)
        cols.append(column)
    tables: Dict[int, Dict[int, object]] = {
        s: {} for s in range(topo.n_switches)
    }
    for s, entries in enumerate(zip(*cols)):
        tables[s] = {
            dst: entry
            for dst, entry in zip(dsts, entries)
            if entry is not None
        }
    return tables


def build_shortest_path_tables(
    topo: Topology,
    destinations: Optional[Sequence[int]] = None,
    avoid_links: Optional[AbstractSet[Tuple[int, int]]] = None,
) -> TableRouting:
    """Deterministic shortest-path tables for the given destination nodes.

    Ties are broken toward the lowest-indexed output port, which makes
    the tables reproducible across runs (the platform initialisation
    step writes them verbatim into the switches).  ``avoid_links``
    routes around failed or reserved directed links ``(a, b)``;
    switches cut off from a destination get no entry for it (routing
    raises on use).
    """
    out, into = _switch_adjacency(topo, frozenset(avoid_links or ()))

    def column_for(dst_switch: int, dst: int) -> List[Optional[int]]:
        dist = _bfs_levels(into, dst_switch)
        column: List[Optional[int]] = [None] * topo.n_switches
        for s, d in enumerate(dist):
            if d <= 0:
                continue  # the destination switch, or unreachable
            for port, t in out[s]:
                if dist[t] == d - 1:
                    column[s] = port
                    break
            else:
                raise RoutingError(
                    f"inconsistent BFS distances at switch {s} toward"
                    f" node {dst}"
                )
        return column

    return TableRouting(
        _tables_from_columns(
            topo, destinations, column_for, lambda port: port
        )
    )


def build_multipath_tables(
    topo: Topology,
    destinations: Optional[Sequence[int]] = None,
    max_paths: int = 2,
    salt: int = 0,
    avoid_links: Optional[AbstractSet[Tuple[int, int]]] = None,
) -> MultiPathTableRouting:
    """Equal-cost multi-path tables: all minimal next hops, truncated.

    With ``max_paths=2`` this realises the paper's "two routing
    possibilities" on any topology that offers at least two minimal
    next hops.  Candidates are listed in port order.  ``avoid_links``
    routes around failed directed links.
    """
    if max_paths < 1:
        raise RoutingError("max_paths must be >= 1")
    out, into = _switch_adjacency(topo, frozenset(avoid_links or ()))

    def column_for(dst_switch: int, dst: int) -> List[Optional[List[int]]]:
        dist = _bfs_levels(into, dst_switch)
        column: List[Optional[List[int]]] = [None] * topo.n_switches
        for s, d in enumerate(dist):
            if d <= 0:
                continue
            ports = [port for port, t in out[s] if dist[t] == d - 1]
            if not ports:
                raise RoutingError(
                    f"inconsistent BFS distances at switch {s} toward"
                    f" node {dst}"
                )
            column[s] = ports[:max_paths]
        return column

    return MultiPathTableRouting(
        _tables_from_columns(
            topo, destinations, column_for, lambda port: [port]
        ),
        salt=salt,
    )


def build_updown_tables(
    topo: Topology,
    destinations: Optional[Sequence[int]] = None,
    root: int = 0,
    avoid_links: Optional[AbstractSet[Tuple[int, int]]] = None,
) -> TableRouting:
    """Deadlock-free up*/down* tables for any connected topology.

    BFS shortest-path tables can wormhole-deadlock on fabrics whose
    links close a cycle — a bidirectional ring's clockwise channels
    form a full channel-dependency cycle as soon as every link carries
    some flow, and the platform has no virtual channels to break it
    (the spidergon's native routing assumes them).  Up*/down* (Autonet)
    needs neither: switches are ranked by ``(BFS level from root, id)``,
    every link is *up* (toward lower rank) or *down*, and a legal route
    is up-hops followed by down-hops.  Down-after-up can never close a
    channel cycle, because any cycle would need an up edge after a down
    edge.

    The tables realise the discipline statelessly: at each switch a
    packet descends along a shortest down-only path when its
    destination is down-reachable, and otherwise climbs to the cheapest
    up neighbour.  Once a packet starts descending every later switch
    is still down-reachable (a suffix of a down-only path), so the
    realised route never turns back up.  Routes can be longer than
    graph-shortest — that is the price of deadlock freedom on ring-like
    fabrics; on meshes and trees the root-anchored ranking keeps most
    routes minimal.

    ``avoid_links`` routes around failed directed links.  Ranking,
    descent, and climbing all skip avoided edges, so the discipline
    (and hence deadlock freedom) holds on the surviving fabric.  When
    avoidance disconnects the graph, switches outside the root's
    component — and destinations hosted there — simply get no table
    entries (the router raises on use), mirroring the degraded
    behaviour of :func:`build_shortest_path_tables`.
    """
    n = topo.n_switches
    if not 0 <= root < n:
        raise RoutingError(
            f"up*/down* root {root} out of range [0, {n})"
        )
    avoid = frozenset(avoid_links or ())
    out, _into = _switch_adjacency(topo, avoid)
    level = _bfs_levels([[t for _port, t in links] for links in out], root)
    reached = [s for s in range(n) if level[s] >= 0]
    if len(reached) < n and not avoid:
        raise RoutingError(
            f"topology is not connected from switch {root}:"
            f" {n - len(reached)} switches unreachable"
        )
    # Integer ranks by (BFS level from the root, id); -1 = severed.
    # "Up" links point toward strictly lower rank.
    by_rank = sorted(reached, key=lambda s: (level[s], s))
    rank = [-1] * n
    for r, s in enumerate(by_rank):
        rank[s] = r
    up: Adjacency = [[] for _ in range(n)]
    down: Adjacency = [[] for _ in range(n)]
    down_into: List[List[int]] = [[] for _ in range(n)]
    for s in by_rank:
        # Every link out of a ranked switch ends at a ranked switch.
        for port, t in out[s]:
            if rank[t] < rank[s]:
                up[s].append((port, t))
            else:
                down[s].append((port, t))
                down_into[t].append(s)

    def column_for(
        dst_switch: int, dst: int
    ) -> Optional[List[Optional[int]]]:
        if rank[dst_switch] < 0:
            return None  # severed from the root's component
        # Descend along a shortest down-only path when one exists;
        # otherwise climb to the up neighbour of least total cost.  Up
        # links strictly decrease rank, so sweeping switches in rank
        # order resolves the climb recurrence in one pass.
        down_dist = _bfs_levels(down_into, dst_switch)
        cost = [-1] * n
        column: List[Optional[int]] = [None] * n
        for s in by_rank:
            d = down_dist[s]
            if d >= 0:
                cost[s] = d
                if d:
                    for port, t in down[s]:
                        if down_dist[t] == d - 1:
                            column[s] = port
                            break
                continue
            best_port = None
            best = -1
            for port, t in up[s]:
                c = cost[t]
                if c >= 0 and (best < 0 or c < best):
                    best_port = port
                    best = c
            if best_port is None:
                if avoid:
                    continue  # unreachable on the faulted fabric
                raise RoutingError(
                    f"switch {s} has no up link toward the root and"
                    f" cannot reach node {dst} downward; up*/down*"
                    f" needs bidirectional links"
                )
            cost[s] = best + 1
            column[s] = best_port
        return column

    return TableRouting(
        _tables_from_columns(
            topo, destinations, column_for, lambda port: port
        )
    )


def build_tables_from_paths(
    topo: Topology,
    paths: Mapping[Tuple[int, int], Sequence[int]],
) -> TableRouting:
    """Deterministic tables from explicit switch paths per flow.

    ``paths[(src_node, dst_node)]`` is the switch sequence the flow
    follows, starting at the source node's switch and ending at the
    destination node's switch.  Conflicting entries (two flows to the
    same destination demanding different ports at one switch) raise.
    """
    tables: Dict[int, Dict[int, int]] = {}
    for (src, dst), sw_path in paths.items():
        if not sw_path:
            raise RoutingError(f"empty path for flow {src}->{dst}")
        if sw_path[0] != topo.switch_of_node(src):
            raise RoutingError(
                f"path for flow {src}->{dst} starts at switch"
                f" {sw_path[0]}, but node {src} sits on switch"
                f" {topo.switch_of_node(src)}"
            )
        if sw_path[-1] != topo.switch_of_node(dst):
            raise RoutingError(
                f"path for flow {src}->{dst} ends at switch"
                f" {sw_path[-1]}, but node {dst} sits on switch"
                f" {topo.switch_of_node(dst)}"
            )
        hops = list(zip(sw_path, sw_path[1:]))
        for a, b in hops:
            port = topo.output_port_to_switch(a, b)
            existing = tables.setdefault(a, {}).get(dst)
            if existing is not None and existing != port:
                raise RoutingError(
                    f"conflicting routes at switch {a} for destination"
                    f" {dst}: ports {existing} and {port}"
                )
            tables[a][dst] = port
        last = sw_path[-1]
        tables.setdefault(last, {})[dst] = topo.output_port_to_node(
            last, dst
        )
    return TableRouting(tables)


# ----------------------------------------------------------------------
# The paper's route cases (Slide 19)
# ----------------------------------------------------------------------
#: Switch paths of the *overlapping* case: all four diagonal flows
#: funnel through the middle column, so links 1->4 and 4->1 each carry
#: two 45% flows = 90% load.
_PAPER_PATHS_OVERLAP: Dict[Tuple[int, int], Tuple[int, ...]] = {
    (0, 7): (0, 1, 4, 5),
    (1, 6): (2, 1, 4, 3),
    (2, 5): (3, 4, 1, 2),
    (3, 4): (5, 4, 1, 0),
}

#: Switch paths of the *disjoint* case (dimension-ordered, X first):
#: no link carries more than one flow, so the maximum link load is 45%.
_PAPER_PATHS_DISJOINT: Dict[Tuple[int, int], Tuple[int, ...]] = {
    (0, 7): (0, 1, 2, 5),
    (1, 6): (2, 1, 0, 3),
    (2, 5): (3, 4, 5, 2),
    (3, 4): (5, 4, 3, 0),
}


def paper_routing(topo: Topology, case: str = "overlap") -> RoutingFunction:
    """Routing tables for the paper's experimental setup.

    ``case`` selects among the two routing possibilities of each flow:

    ``"overlap"``
        All flows share the middle-column links (the 90%-load case the
        congestion and latency figures are measured in).
    ``"disjoint"``
        Dimension-ordered routes; no shared links (the uncongested
        reference case).
    ``"split"``
        A multi-path table holding *both* possibilities; each packet
        picks one by id hash, halving the load on the shared links.
    """
    if case == "overlap":
        return build_tables_from_paths(topo, _PAPER_PATHS_OVERLAP)
    if case == "disjoint":
        return build_tables_from_paths(topo, _PAPER_PATHS_DISJOINT)
    if case == "split":
        overlap = build_tables_from_paths(topo, _PAPER_PATHS_OVERLAP)
        disjoint = build_tables_from_paths(topo, _PAPER_PATHS_DISJOINT)
        merged: Dict[int, Dict[int, List[int]]] = {}
        for table in (overlap, disjoint):
            for s, entries in table.tables.items():
                for dst, port in entries.items():
                    ports = merged.setdefault(s, {}).setdefault(dst, [])
                    if port not in ports:
                        ports.append(port)
        return MultiPathTableRouting(merged)
    raise RoutingError(
        f"unknown paper routing case {case!r}; expected 'overlap',"
        f" 'disjoint' or 'split'"
    )
