"""Span recording for the traced benchmark run.

A :class:`Tracer` wraps public callables of the emulator *from the
outside*: it replaces an attribute (a module function or a class
method) with a timing wrapper, and puts the original back on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` is edited.

Each wrapped call records one span: its name, start, end, parent span
and repetition id.  Spans stay in memory in flat typed arrays (the
busy path records one span per simulated cycle, so tuples per span
would cost tens of megabytes) and are written out once, at exit.

A span's *self time* is its duration minus the time its child spans
cover; :meth:`Tracer.summary` aggregates inclusive time, self time and
call counts per name for one repetition.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: A wrap target: (owner object, attribute name, span name).
Target = Tuple[Any, str, str]


def layer_targets() -> List[Target]:
    """Every public call the traced run wraps, with its span name.

    Each wrapper sits where the caller looks the name up at call time:

    * ``EmulationEngine.run`` binds ``network.step``,
      ``platform.poll_generators`` and reads
      ``platform.idle_fast_forward`` when ``run()`` starts, so the
      class attributes patched before the run are what it calls;
    * ``run_scenario`` and ``make_ramp_checkpoint`` call the
      ``build_platform`` name imported into ``repro.experiments.runner``;
    * ``build_platform`` imports ``assert_deadlock_free`` from
      ``repro.noc.deadlock`` at call time, and the runner imports
      ``scenario_metrics`` / ``snapshot`` / ``restore`` from their
      packages at call time, so the package attributes are patched.
    """
    import repro.checkpoint as checkpoint_pkg
    import repro.experiments.runner as runner
    import repro.noc.deadlock as deadlock
    import repro.stats.summary as summary
    from repro.checkpoint.record import Checkpoint
    from repro.core.config import PlatformConfig
    from repro.core.engine import EmulationEngine
    from repro.core.platform import EmulationPlatform
    from repro.experiments.cache import ResultCache
    from repro.experiments.resilience import SweepJournal
    from repro.experiments.spec import ScenarioSpec
    from repro.faults.injector import FaultInjector
    from repro.noc.network import Network

    return [
        (ScenarioSpec, "to_platform_config", "experiments.spec"),
        (PlatformConfig, "resolve_topology", "noc.topology"),
        (PlatformConfig, "resolve_routing", "noc.routing"),
        (deadlock, "assert_deadlock_free", "noc.deadlock"),
        (runner, "build_platform", "core.build"),
        (EmulationEngine, "run", "core.loop"),
        (Network, "step", "noc.step"),
        (EmulationPlatform, "poll_generators", "traffic.poll"),
        (EmulationPlatform, "idle_fast_forward", "core.ff"),
        (FaultInjector, "tick", "faults.tick"),
        (summary, "scenario_metrics", "stats.metrics"),
        (ResultCache, "get", "experiments.cache_get"),
        (ResultCache, "get_record", "experiments.cache_get"),
        (ResultCache, "put", "experiments.cache_put"),
        (ResultCache, "put_record", "experiments.cache_put"),
        (SweepJournal, "write", "experiments.journal_write"),
        (checkpoint_pkg, "snapshot", "checkpoint.snapshot"),
        (checkpoint_pkg, "restore", "checkpoint.restore"),
        (Checkpoint, "save", "checkpoint.save"),
    ]


def loop_target() -> List[Target]:
    """Only the engine loop: the untraced baseline of ``core.loop_s``."""
    from repro.core.engine import EmulationEngine

    return [(EmulationEngine, "run", "core.loop")]


#: Results folded into counters as calls return: span name -> counter
#: name and how much a result adds.
_RESULT_COUNTERS: Dict[str, Tuple[str, Callable[[Any], int]]] = {
    "core.ff": ("core.ff_skipped_cycles", lambda skipped: skipped),
    "experiments.cache_get": (
        "experiments.cache_hits",
        lambda record: record is not None,
    ),
}

_MISSING = object()


class Tracer:
    """In-memory span recorder plus the attribute patcher."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.rep = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[int, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.rep_id = 0
        self._rep_first: Dict[int, int] = {0: 0}
        self._stack: List[int] = [-1]
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin_rep(self, rep_id: int) -> None:
        """Tag every span recorded from now on with ``rep_id``."""
        self.rep_id = rep_id
        self._rep_first[rep_id] = len(self.start)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_ix.append(nid)
        self.parent.append(self._stack[-1])
        self.rep.append(self.rep_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (a repetition, a
        call the benchmark makes itself)."""
        sid = self._open(self._name_id(name))
        self.start[sid] = time.perf_counter()
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """A timing wrapper around ``fn`` recording spans named ``name``."""
        nid = self._name_id(name)
        counter = _RESULT_COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack
        starts, ends = self.start, self.end
        open_span = self._open
        tracer = self

        def traced(*args, **kwargs):
            sid = open_span(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
            if counter is not None:
                tracer.counts[tracer.rep_id][counter[0]] += counter[1](
                    result
                )
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self, targets: Sequence[Target]) -> None:
        """Swap every target attribute for a wrapper."""
        for owner, attr, name in targets:
            own = vars(owner).get(attr, _MISSING)
            self._patched.append((owner, attr, own))
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def uninstall(self) -> None:
        """Put every original attribute back (reverse order)."""
        while self._patched:
            owner, attr, own = self._patched.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    @contextmanager
    def installed(self, targets: Sequence[Target]):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Analysis and output
    # ------------------------------------------------------------------
    def summary(self, rep_id: int) -> Dict[str, Dict[str, float]]:
        """Per span name of one repetition: inclusive seconds, self
        seconds and call count."""
        child: Dict[int, float] = defaultdict(float)
        first = self._rep_first[rep_id]
        mine = [i for i in range(first, len(self.start)) if self.rep[i] == rep_id]
        for i in mine:
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: Dict[str, Dict[str, float]] = {}
        for i in mine:
            name = self.names[self.name_ix[i]]
            row = out.setdefault(
                name, {"total_s": 0.0, "self_s": 0.0, "calls": 0}
            )
            duration = self.end[i] - self.start[i]
            row["total_s"] += duration
            row["self_s"] += duration - child[i]
            row["calls"] += 1
        return out

    def write(self, path: str) -> int:
        """Write every span as gzipped CSV; returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,parent,rep,start,end\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_ix[i]]},{self.parent[i]},"
                    f"{self.rep[i]},{self.start[i]!r},{self.end[i]!r}\n"
                )
        return len(self.start)
