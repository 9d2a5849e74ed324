"""Inter-switch links.

A link is a unidirectional pipeline carrying one flit per cycle from an
upstream switch output port to a downstream input buffer, plus the
credit return path flowing the other way.  Link *load* (fraction of
cycles carrying a flit) is the quantity the paper's experimental setup
fixes at 90% on two inter-switch links (Slide 19), so every link keeps a
utilisation counter that the monitor can read out.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.noc.flit import Flit


class Link:
    """A point-to-point flit pipeline with configurable latency.

    Parameters
    ----------
    delay:
        Number of cycles a flit spends in flight (>= 1).  The default of
        one cycle matches a registered inter-switch wire on the FPGA.
    name:
        Human-readable identifier used in monitor reports, e.g.
        ``"sw2:out1->sw4:in0"``.
    """

    __slots__ = (
        "delay",  # repro: allow[state-coverage] construction config from the topology
        "name",  # repro: allow[state-coverage] derived from the endpoints at construction
        "_in_flight",  # repro: allow[state-coverage] unwired-link fallback queue; asserted empty at capture
        "_credits_in_flight",  # repro: allow[state-coverage] unwired-link fallback queue; asserted empty at capture
        "wheel",  # repro: allow[state-coverage] wiring; re-installed by Network construction on restore
        "wheel_size",  # repro: allow[state-coverage] wiring; re-installed by Network construction on restore
        "sink",  # repro: allow[state-coverage] wiring; re-installed by Network construction on restore
        "dst",
        "rx",
        "wire_count",
        "down",
        "flits_dropped",
        "flits_carried",
        "stats_since",
        "_last_send_cycle",
    )

    def __init__(self, delay: int = 1, name: str = "") -> None:
        if delay < 1:
            raise ValueError(f"link delay must be >= 1, got {delay}")
        self.delay = delay
        self.name = name
        # Standalone flight queues, created on first standalone use:
        # a network-wired link never has them.
        self._in_flight: Optional[Deque[Tuple[int, Flit]]] = None
        self._credits_in_flight: Optional[Deque[Tuple[int, int]]] = None
        # Delivery-wheel wiring (set by the network).  A network-wired
        # link does not queue flights in its own deques: the per-hop
        # hot paths append ``(link, flit)`` straight into the
        # network's arrival-cycle ring buffer (``wheel``, a list of
        # ``wheel_size`` slots) and the delivery phase hands arrivals
        # to ``sink``.  ``wire_count`` tracks the flits in flight on
        # this link for the occupancy statistics.  Standalone links
        # (``wheel is None``) keep the deque behaviour
        # (:meth:`deliver` / :meth:`collect_credits`).
        self.wheel: Optional[List[List[Tuple["Link", Flit]]]] = None
        self.wheel_size = 0
        self.sink: Optional[Callable[[Flit, int], None]] = None
        # Fused delivery endpoints (set by the network).  ``dst`` is
        # the (switch, input port, buffer) tuple of a link feeding a
        # switch input — the delivery phase pushes into it directly,
        # skipping the ``sink`` callback frame; ``rx`` is the
        # reassembly buffer of an ejection link.  Both None -> deliver
        # through ``sink`` (custom sinks, standalone use).
        self.dst: Optional[tuple] = None
        self.rx: Optional[object] = None
        self.wire_count = 0
        # Fault state: a downed link accepts no flits.  The hot paths
        # never consult this flag — fault application zeroes the
        # upstream credits and repairs routing so no route reaches a
        # dead link; ``send`` keeps a guard for standalone use.
        # ``flits_dropped`` counts flits the injector purged from this
        # wire, cumulative across the run (not a stats-window counter).
        self.down = False
        self.flits_dropped = 0
        # Statistics.
        self.flits_carried = 0
        self.stats_since = 0  # cycle the stats window opened at
        self._last_send_cycle: Optional[int] = None

    # ------------------------------------------------------------------
    # Downstream flit path
    # ------------------------------------------------------------------
    def send(self, flit: Flit, now: int) -> None:
        """Inject a flit at cycle ``now``; it arrives at ``now + delay``."""
        if self.down:
            raise RuntimeError(
                f"link {self.name or id(self)} is down and cannot carry"
                f" flits (fault injected before cycle {now})"
            )
        if self._last_send_cycle == now:
            raise RuntimeError(
                f"link {self.name or id(self)} accepted two flits in cycle"
                f" {now}; links carry one flit per cycle"
            )
        self._last_send_cycle = now
        wheel = self.wheel
        if wheel is not None:
            wheel[(now + self.delay) % self.wheel_size].append(
                (self, flit)
            )
            self.wire_count += 1
        else:
            if self._in_flight is None:
                self._in_flight = deque()
            self._in_flight.append((now + self.delay, flit))
        self.flits_carried += 1

    def deliver(self, now: int) -> List[Flit]:
        """Pop all flits whose arrival cycle is ``<= now``."""
        arrived: List[Flit] = []
        queue = self._in_flight
        while queue and queue[0][0] <= now:
            arrived.append(queue.popleft()[1])
        return arrived

    @property
    def occupancy(self) -> int:
        """Number of flits currently in flight."""
        queue = self._in_flight
        return self.wire_count + (len(queue) if queue else 0)

    # ------------------------------------------------------------------
    # Upstream credit path
    # ------------------------------------------------------------------
    def return_credit(self, now: int, count: int = 1) -> None:
        """Send ``count`` credits upstream; they arrive ``delay`` later."""
        if self._credits_in_flight is None:
            self._credits_in_flight = deque()
        self._credits_in_flight.append((now + self.delay, count))

    def collect_credits(self, now: int) -> int:
        """Number of credits that have completed the return trip."""
        total = 0
        queue = self._credits_in_flight
        while queue and queue[0][0] <= now:
            total += queue.popleft()[1]
        return total

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def busy_cycles(self) -> int:
        """Cycles in which the link accepted a flit.

        A link carries at most one flit per cycle, so this is exactly
        ``flits_carried`` — aliased rather than counted separately to
        keep one increment off the per-hop hot path.
        """
        return self.flits_carried

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of ``elapsed_cycles`` in which the link carried a flit."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.flits_carried / elapsed_cycles)

    def stats_snapshot(self) -> Tuple[int, int]:
        """``(flits_carried, flits_dropped)`` — the per-link counters
        the windowed telemetry differences at window boundaries."""
        return (self.flits_carried, self.flits_dropped)

    def reset_stats(self, now: int = 0) -> None:
        """Zero the counters and open a new stats window at ``now``."""
        self.flits_carried = 0
        self.stats_since = now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Link({self.name!r}, delay={self.delay})"
