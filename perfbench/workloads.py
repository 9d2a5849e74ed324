"""The benchmark's four workloads.

Every workload turns the benchmark seed into :class:`ScenarioSpec`
inputs (the emulator receives nothing else) and runs one *repetition*
per :meth:`rep` call.  A repetition returns a :class:`Rep`: host
timings, simulated counts, and a deterministic summary that the
driver compares against the first repetition and against the pinned
records in ``expected.json``.

The sizes below are run lengths, chosen so one repetition takes a
fraction of a second to a few seconds on a 2-core host.  Changing any
of them changes the simulated records: re-pin with ``pin.py``.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Workload names in the order ``--workload all`` runs them.
NAMES = ("saturation", "lowload", "sweep", "warm_start")

#: Worker processes of the sweep pool (at most the host's core count).
SWEEP_WORKERS = min(2, os.cpu_count() or 1)


def canonical(payload: Any) -> bytes:
    """Canonical JSON bytes, the emulator's own encoding."""
    from repro.util import canonical_json_bytes

    return canonical_json_bytes(payload)


def digest(payload: Any) -> str:
    return hashlib.sha256(canonical(payload)).hexdigest()[:16]


#: Shortest host time one set-up or cached-pass sample covers.  Host
#: speed on a shared machine swings between two levels several times a
#: second; a sample this long averages over the swings instead of
#: landing on one level or the other.
SAMPLE_S = 0.2


def per_call(fn):
    """Host seconds per call of ``fn``, called until ``SAMPLE_S`` has
    passed, and the last call's result."""
    calls = 0
    started = time.perf_counter()
    while True:
        result = fn()
        calls += 1
        elapsed = time.perf_counter() - started
        if elapsed >= SAMPLE_S:
            return elapsed / calls, result


def time_setup(specs) -> float:
    """Host seconds per spec from a ``ScenarioSpec`` to a built
    platform, building every spec of the list in turn."""
    from repro.core.platform import build_platform

    def build_all():
        for spec in specs:
            build_platform(spec.to_platform_config())

    per_round, _ = per_call(build_all)
    return per_round / len(specs)


@dataclass
class Rep:
    """One repetition of a workload."""

    wall_s: float
    cycles: int
    flits: int
    #: Host seconds of each scenario the repetition executed.
    scenario_walls: List[float]
    #: Host seconds to rerun the same inputs against the filled cache.
    cached_s: float
    #: Deterministic summary: must equal the reference on every rep.
    summary: Dict[str, Any]
    #: Operations checked (scenarios executed plus cached rereads) and
    #: those that failed (a FailureRecord, a mismatching cached
    #: reread, a degraded run).
    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Common plumbing: seed, scratch directory, spec list."""

    name = ""
    setup_rounds = 10

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch

    def specs(self) -> list:
        raise NotImplementedError

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch)

    def rep(self, tracer=None, pool: bool = True) -> Rep:
        raise NotImplementedError


def reread_mismatches(cold, reread, problems: List[str]) -> int:
    """Results of a cached reread whose canonical record differs from
    the cold pass's (a missing or extra result counts too); each
    mismatch is noted in ``problems``."""
    count = sum(
        canonical(a.record()) != canonical(b.record())
        for a, b in zip(cold, reread)
    ) + abs(len(cold) - len(reread))
    if count:
        problems.append(f"{count} cached records differ from the cold pass")
    return count


def _scenario_summary(metrics: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "cycles": metrics["cycles"],
        "packets_sent": metrics["packets_sent"],
        "packets_received": metrics["packets_received"],
        "flits": metrics["flits_received"],
        "mean_latency": metrics["mean_latency"],
        "p95_latency": metrics["p95_latency"],
    }


class SingleScenario(Workload):
    """A few independent seeds of one scenario, each run with
    ``run_scenario``.

    One seed's run length varies by several per cent with its random
    draws; a repetition sums ``SEEDS`` of them, so the work per
    repetition (and hence the host time) depends less on which seed
    the benchmark was given.  The cached pass stores the records once
    and times a ``SweepRunner`` rerun that the cache serves.
    """

    SEEDS = 4

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        from repro.experiments import ResultCache

        self._specs = [
            self.make_spec(self.SEEDS * seed + i) for i in range(self.SEEDS)
        ]
        self.cache = ResultCache(self.fresh_dir())
        self._cache_filled = False

    def make_spec(self, seed: int):
        raise NotImplementedError

    def specs(self) -> list:
        return self._specs

    def rep(self, tracer=None, pool: bool = True) -> Rep:
        from repro.experiments import SweepRunner, run_scenario

        started = time.perf_counter()
        results = [run_scenario(spec) for spec in self._specs]
        wall = time.perf_counter() - started
        records = [r.record() for r in results]
        if not self._cache_filled:
            for spec, record in zip(self._specs, records):
                self.cache.put(spec, record)
            self._cache_filled = True
        cached_s, reread = per_call(
            lambda: SweepRunner(cache=self.cache).run(self._specs)
        )
        problems = [
            f"{r.spec.label()} did not complete"
            for r in results
            if not r.metrics["completed"]
        ]
        failed = len(problems) + reread_mismatches(results, reread, problems)
        metrics = [r.metrics for r in results]
        return Rep(
            wall_s=wall,
            cycles=sum(m["cycles"] for m in metrics),
            flits=sum(m["flits_received"] for m in metrics),
            scenario_walls=[r.wall_seconds for r in results],
            cached_s=cached_s,
            summary={
                "scenarios": [_scenario_summary(m) for m in metrics],
                "records": digest(records),
            },
            attempted=2 * len(results),
            failed=failed,
            problems=problems,
        )


class Saturation(SingleScenario):
    """Offered load past the knee: the busy hop path."""

    name = "saturation"
    PACKETS = 60

    def make_spec(self, seed: int):
        from repro.experiments import ScenarioSpec

        return ScenarioSpec(
            topology="mesh:8:8",
            traffic="uniform",
            switching="wormhole",
            buffer_depth=4,
            load=0.2,
            packets=self.PACKETS,
            seed=seed,
        )


class LowLoad(SingleScenario):
    """Near-idle Poisson traffic: per-cycle cost and fast-forward."""

    name = "lowload"
    PACKETS = 30

    def make_spec(self, seed: int):
        from repro.experiments import ScenarioSpec

        return ScenarioSpec(
            topology="mesh:8:8",
            traffic="poisson",
            load=0.01,
            packets=self.PACKETS,
            seed=seed,
        )


class Sweep(Workload):
    """A supervised-pool sweep: a cold pass, then a cached pass."""

    name = "sweep"
    setup_rounds = 3
    PACKETS = 8
    LOADS = (0.1, 0.3)
    TOPOLOGIES = ("mesh:4:4", "mesh:8:8", "torus:8:8", "mesh:16:16")
    FAULT_DOWN, FAULT_UP = 100, 400

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self._specs = self._grid()

    def fault_link(self):
        """One directed ``mesh:8:8`` link, drawn from the seed."""
        rng = random.Random(self.seed)
        if rng.random() < 0.5:  # horizontal: (x, y) -> (x + 1, y)
            a = rng.randrange(8) * 8 + rng.randrange(7)
            pair = (a, a + 1)
        else:  # vertical: (x, y) -> (x, y + 1)
            a = rng.randrange(7) * 8 + rng.randrange(8)
            pair = (a, a + 8)
        return pair if rng.random() < 0.5 else pair[::-1]

    def _grid(self) -> list:
        from repro.experiments import ScenarioSpec
        from repro.faults.schedule import FaultSchedule, link_down, link_up

        a, b = self.fault_link()
        fault = FaultSchedule.of(
            link_down(self.FAULT_DOWN, a, b), link_up(self.FAULT_UP, a, b)
        )
        specs = []
        for topology in self.TOPOLOGIES:
            routing = "updown" if topology.startswith("torus") else "auto"
            faults = (None, fault) if topology == "mesh:8:8" else (None,)
            for load in self.LOADS:
                for seed in (self.seed, self.seed + 1):
                    for schedule in faults:
                        specs.append(
                            ScenarioSpec(
                                topology=topology,
                                routing=routing,
                                load=load,
                                packets=self.PACKETS,
                                seed=seed,
                                faults=schedule,
                            )
                        )
        return specs

    def specs(self) -> list:
        return self._specs

    def rep(self, tracer=None, pool: bool = True) -> Rep:
        from repro.experiments import ResultCache, SweepJournal, SweepRunner

        workers = SWEEP_WORKERS if pool else 1
        where = self.fresh_dir()
        try:
            cache = ResultCache(os.path.join(where, "cache"))
            journal = SweepJournal.for_sweep(where, self._specs)
            runner = SweepRunner(workers=workers, cache=cache, journal=journal)
            started = time.perf_counter()
            report = runner.run(self._specs)
            wall = time.perf_counter() - started
            stats = runner.last_stats
            cached_s, reread = per_call(
                lambda: SweepRunner(workers=workers, cache=cache).run(
                    self._specs
                )
            )
        finally:
            shutil.rmtree(where, ignore_errors=True)
        problems = [
            f"{f.spec.label()}: {f.error}: {f.message}" for f in report.failures
        ]
        mismatched = reread_mismatches(report, reread, problems)
        degraded = [
            r.spec.label() for r in report if not r.metrics["completed"]
        ]
        problems += [f"{label} did not complete" for label in degraded]
        metrics = [r.metrics for r in report]
        walls = [r.wall_seconds for r in report]
        summary = {
            "specs": len(self._specs),
            "cycles": sum(m["cycles"] for m in metrics),
            "packets_sent": sum(m["packets_sent"] for m in metrics),
            "packets_received": sum(m["packets_received"] for m in metrics),
            "flits": sum(m["flits_received"] for m in metrics),
            "max_p95_latency": max(m["p95_latency"] for m in metrics),
            "fault_dropped_flits": sum(
                m.get("fault_dropped_flits", 0) for m in metrics
            ),
            "fault_reroutes": sum(m.get("fault_reroutes", 0) for m in metrics),
            "records": digest([r.record() for r in report]),
        }
        return Rep(
            wall_s=wall,
            cycles=summary["cycles"],
            flits=summary["flits"],
            scenario_walls=walls,
            cached_s=cached_s,
            summary=summary,
            attempted=2 * len(self._specs),
            failed=len(report.failures) + mismatched + len(degraded),
            problems=problems,
            extra={
                "pool_overhead_s": wall - sum(walls) / workers,
                "retried": stats.retried,
                "sweep_failed": stats.failed,
                "fault_reroutes": summary["fault_reroutes"],
            },
        )


class WarmStart(Workload):
    """Ramp once, checkpoint through a file, fork one restore per load."""

    name = "warm_start"
    RAMP_CYCLES = 3000
    HORIZON = 2000
    LOADS = (0.05, 0.1, 0.15, 0.2)

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        from repro.experiments import ScenarioSpec

        self.spec = ScenarioSpec(
            topology="mesh:8:8",
            traffic="uniform",
            load=0.15,
            packets=None,
            seed=seed,
        )
        self._ramp_flits: Optional[int] = None

    def specs(self) -> list:
        return [self.spec]

    def ramp_flits(self, checkpoint) -> int:
        """Flits the ramp delivered (the warm points count from it)."""
        if self._ramp_flits is None:
            from repro.checkpoint import restore

            platform, _ = restore(checkpoint)
            self._ramp_flits = sum(
                r.flits_received for r in platform.receptors
            )
        return self._ramp_flits

    def rep(self, tracer=None, pool: bool = True) -> Rep:
        from repro.checkpoint import load_checkpoint
        from repro.experiments import (
            ResultCache,
            SweepRunner,
            make_ramp_checkpoint,
        )

        def span(name):
            return tracer.span(name) if tracer is not None else nullcontext()

        where = self.fresh_dir()
        try:
            path = os.path.join(where, "ramp.checkpoint.json")
            cache = ResultCache(os.path.join(where, "cache"))
            started = time.perf_counter()
            with span("checkpoint.ramp"):
                ramp = make_ramp_checkpoint(self.spec, self.RAMP_CYCLES)
            ramp.save(path)
            with span("checkpoint.load"):
                checkpoint = load_checkpoint(path, self.spec)
            points = SweepRunner(cache=cache).run_warm(
                checkpoint, self.LOADS, self.HORIZON
            )
            wall = time.perf_counter() - started
            cached_s, reread = per_call(
                lambda: SweepRunner(cache=cache).run_warm(
                    checkpoint, self.LOADS, self.HORIZON
                )
            )
            size = os.path.getsize(path)
        finally:
            shutil.rmtree(where, ignore_errors=True)
        problems = []
        failed = 0
        if checkpoint.content_hash != ramp.content_hash:
            problems.append("checkpoint changed across save/load")
            failed += 1
        failed += reread_mismatches(points, reread, problems)
        ramp_flits = self.ramp_flits(checkpoint)
        metrics = [p.metrics for p in points]
        summary = {
            "checkpoint_hash": ramp.content_hash,
            "checkpoint_cycle": ramp.cycle,
            "points": [
                dict(_scenario_summary(m), load=load)
                for load, m in zip(self.LOADS, metrics)
            ],
            "records": digest([p.record() for p in points]),
        }
        return Rep(
            wall_s=wall,
            cycles=self.RAMP_CYCLES + sum(m["cycles"] for m in metrics),
            flits=ramp_flits
            + sum(m["flits_received"] - ramp_flits for m in metrics),
            scenario_walls=[p.wall_seconds for p in points],
            cached_s=cached_s,
            summary=summary,
            attempted=1 + 2 * len(points),
            failed=failed,
            problems=problems,
            extra={"checkpoint_bytes": size},
        )


WORKLOADS = {
    cls.name: cls for cls in (Saturation, LowLoad, Sweep, WarmStart)
}
