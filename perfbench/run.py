"""Benchmark driver: end-to-end host-time metrics, or a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload saturation --seed 1 --seconds 20
    python3 perfbench/run.py --workload sweep --seed 1 --trace 1
    python3 perfbench/run.py --workload all          # every workload

``--trace 0`` times untouched calls and reports the ``end_to_end``
metrics of ``BENCHMARK.json``; ``--trace 1`` wraps the emulator's
public calls (see ``spans.py``) and reports the ``per_layer`` metrics.
Every repetition's simulated record is checked against the first one
and, for pinned seeds, against ``expected.json``.  The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the exit code is 0 only when every check
passed.  Per-run records (provenance, per-repetition samples, the
host-speed calibration loop) and the traced spans go to
``.perfbench_out/`` under the repository root.

All timings are host time.  The emulator's timing model has not been
validated against hardware, so no accuracy figure is reported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List

from host import calibrate_beside, peak_rss_mb, provenance

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: Hard ceiling on one workload's measuring loop, whatever --seconds
#: says: a run must finish well inside three minutes.
MAX_LOOP_SECONDS = 120.0
#: The tail percentile needs at least ten samples beyond it.
TAIL_BEYOND = 10
#: Scenario samples a run collects at least, so that the tail
#: percentile sits at p75 or above.
MIN_SCENARIOS = 4 * TAIL_BEYOND


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> float:
    """The highest percentile with at least ten samples beyond it
    (the smallest sample when there are fewer than eleven)."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def spread(values) -> float:
    """Inter-quartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else 0.0


# ----------------------------------------------------------------------
# Layer probes that need their own process
# ----------------------------------------------------------------------
def cli_import_s(repeats: int = 3) -> float:
    """Median host seconds for a fresh interpreter to import
    ``repro.cli`` (the start-up every ``repro run`` pays)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            env=env,
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - started)
    return median(samples)


# ----------------------------------------------------------------------
# Correctness book-keeping
# ----------------------------------------------------------------------
class Book:
    """Counts operations and failures; compares deterministic records."""

    def __init__(self, workload: str, seed: int) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reference = None
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            pins = json.load(fh)["pinned"].get(workload, {})
        self.pin = pins.get(str(seed))

    def check(self, rep) -> None:
        self.attempted += rep.attempted
        self.failed += rep.failed
        self.problems += rep.problems
        if self.reference is None:
            self.reference = rep.summary
            expected, what = self.pin, "the pinned record"
        else:
            expected, what = self.reference, "the first repetition"
        if expected is not None and rep.summary != expected:
            self.failed += rep.attempted
            self.problems.append(
                f"simulated record differs from {what}:"
                f" expected {json.dumps(expected, sort_keys=True)},"
                f" measured {json.dumps(rep.summary, sort_keys=True)}"
            )

    def crashed(self, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(
            "".join(traceback.format_exception_only(type(exc), exc)).strip()
        )

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def guarded(book: Book, fn, *args, **kwargs):
    """Run one repetition; an exception is a failed operation."""
    try:
        rep = fn(*args, **kwargs)
    except Exception as exc:  # a raising scenario is a counted failure
        book.crashed(exc)
        return None
    book.check(rep)
    return rep


def _done(started: float, seconds: float, enough: bool) -> bool:
    elapsed = time.perf_counter() - started
    return elapsed >= MAX_LOOP_SECONDS or (elapsed >= seconds and enough)


# ----------------------------------------------------------------------
# The untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def run_untraced(wl, seconds: float, book: Book) -> Dict[str, Any]:
    """Set-up samples, a reference repetition, then timed repetitions
    for ``seconds``; every measurement is followed by calibration
    samples, kept in the run record beside it."""
    from workloads import time_setup

    setup, setup_calib = [], []
    for _ in range(wl.setup_rounds):
        gc.collect()
        started = time.perf_counter()
        setup.append(time_setup(wl.specs()))
        setup_calib.append(
            median(calibrate_beside(time.perf_counter() - started))
        )
    guarded(book, wl.rep)  # warm-up and reference record
    reps, calib, cpu = [], [], []
    started = time.perf_counter()
    while True:
        gc.collect()  # start every repetition from the same heap state
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        rep = guarded(book, wl.rep)
        cpu_s = time.process_time() - cpu0
        after = median(calibrate_beside(time.perf_counter() - wall0))
        if rep is not None:
            reps.append(rep)
            calib.append(after)
            cpu.append(cpu_s)
        scenarios = sum(len(r.scenario_walls) for r in reps)
        if _done(started, seconds, len(reps) >= 3 and scenarios >= MIN_SCENARIOS):
            break
    samples = {"setup_s": setup, "setup_calib_s": setup_calib}
    if not reps:
        return {"metrics": {}, "samples": samples}
    walls = [r.wall_s for r in reps]
    per_scenario = [w for r in reps for w in r.scenario_walls]
    first = reps[0]
    wall = median(walls)
    metrics = {
        "setup_s": median(setup),
        "wall_s": wall,
        "cycles_per_s": first.cycles / wall,
        "flits_per_s": first.flits / wall,
        "scenarios_per_s": len(first.scenario_walls) / wall,
        "spec_p50_s": median(per_scenario),
        "spec_tail_s": tail(per_scenario),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples.update(
        wall_s=walls,
        calib_s=calib,
        cpu_s=cpu,
        cached_pass_s=[r.cached_s for r in reps],
        scenario_s=per_scenario,
    )
    return {
        "metrics": metrics,
        "samples": samples,
        "simulated": {"cycles": first.cycles, "flits": first.flits},
        "spreads": {
            "wall_s": spread(walls),
            "calib_s": spread(calib),
            "setup_s": spread(setup),
        },
        "tail": {
            "percentile": 100.0
            * (len(per_scenario) - TAIL_BEYOND)
            / len(per_scenario),
            "samples": len(per_scenario),
        },
    }


# ----------------------------------------------------------------------
# The traced run: per-layer metrics
# ----------------------------------------------------------------------
def layer_row(summary, counts, rep) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    skipped = counts.get("core.ff_skipped_cycles", 0)
    gets = calls("experiments.cache_get")
    return {
        "experiments.spec_s": total("experiments.spec"),
        "noc.topology_s": total("noc.topology"),
        "noc.routing_s": total("noc.routing"),
        "noc.deadlock_s": total("noc.deadlock"),
        "core.build_s": total("core.build"),
        "noc.step_s": total("noc.step"),
        "noc.step_calls": calls("noc.step"),
        "noc.us_per_flit": 1e6 * total("noc.step") / rep.flits,
        "traffic.poll_s": total("traffic.poll"),
        "traffic.poll_calls": calls("traffic.poll"),
        "core.ff_s": total("core.ff"),
        "core.ff_calls": calls("core.ff"),
        "core.ff_skipped_cycles": skipped,
        "core.ff_skip_ratio": skipped / rep.cycles,
        "core.loop_s": total("core.loop"),
        "core.loop_self_s": summary.get("core.loop", {}).get("self_s", 0.0),
        "stats.metrics_s": total("stats.metrics"),
        "experiments.cache_get_s": total("experiments.cache_get"),
        "experiments.cache_put_s": total("experiments.cache_put"),
        "experiments.cache_hit_ratio": (
            counts.get("experiments.cache_hits", 0) / gets if gets else 0.0
        ),
        "experiments.journal_write_s": total("experiments.journal_write"),
        "experiments.journal_writes": calls("experiments.journal_write"),
        "faults.tick_s": total("faults.tick"),
        "faults.reroutes": rep.extra.get("fault_reroutes", 0),
        "checkpoint.ramp_s": total("checkpoint.ramp"),
        "checkpoint.snapshot_s": total("checkpoint.snapshot"),
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.load_s": total("checkpoint.load"),
        "checkpoint.restore_s": total("checkpoint.restore"),
        "checkpoint.bytes": rep.extra.get("checkpoint_bytes", 0),
        "trace.wall_s": total("rep"),
        "trace.accounted_frac": sum(
            row["self_s"] for name, row in summary.items() if name != "rep"
        )
        / total("rep"),
    }


def run_traced(wl, seconds: float, book: Book, tracer) -> Dict[str, Any]:
    from spans import layer_targets, loop_target

    guarded(book, wl.rep)  # warm-up and reference record, untraced
    base_loop, base_cached, rows, pool_rows, selfs = [], [], [], [], []
    rep_id = 0
    started = time.perf_counter()
    while True:
        # Baseline: only the engine loop is wrapped (one span per run).
        rep_id += 1
        tracer.begin_rep(rep_id)
        with tracer.installed(loop_target()), tracer.span("rep"):
            rep = guarded(book, wl.rep, pool=False)
        if rep is not None:
            base_loop.append(tracer.summary(rep_id)["core.loop"]["total_s"])
            base_cached.append(rep.cached_s)
        # Traced: every layer wrapped.
        rep_id += 1
        tracer.begin_rep(rep_id)
        with tracer.installed(layer_targets()), tracer.span("rep"):
            rep = guarded(book, wl.rep, tracer=tracer, pool=False)
        if rep is not None:
            summary = tracer.summary(rep_id)
            rows.append(layer_row(summary, tracer.counts[rep_id], rep))
            selfs.append(
                {name: row["self_s"] for name, row in summary.items()}
            )
        # The pool's cost comes from an untraced pooled pass.
        if wl.name == "sweep":
            rep = guarded(book, wl.rep, pool=True)
            if rep is not None:
                pool_rows.append(rep.extra)
        if _done(started, seconds, bool(rows)):
            break
    metrics: Dict[str, Any] = {}
    if rows:
        for key in rows[0]:
            metrics[key] = median([row[key] for row in rows])
    for key, name in (
        ("pool_overhead_s", "experiments.pool_overhead_s"),
        ("retried", "experiments.retried"),
        ("sweep_failed", "experiments.failed"),
    ):
        metrics[name] = median([row[key] for row in pool_rows])
    metrics["trace.overhead_s"] = metrics.get("core.loop_s", 0.0) - median(
        base_loop
    )
    metrics["experiments.cached_pass_s"] = median(base_cached)
    metrics["cli.import_s"] = cli_import_s()
    self_time = {
        name: median([s.get(name, 0.0) for s in selfs])
        for name in (selfs[0] if selfs else {})
    }
    return {
        "metrics": metrics,
        "self_s": self_time,
        "samples": {"baseline_loop_s": base_loop, "traced": rows},
        "predictions": predictions(wl.name, metrics, self_time),
    }


def build_share(m: Dict[str, float]) -> float:
    """Share of a traced repetition spent building routes and vetting
    them for deadlock."""
    return (m["noc.routing_s"] + m["noc.deadlock_s"]) / m["trace.wall_s"]


def predictions(name: str, m: Dict[str, float], self_time) -> List[Dict]:
    """The layer split the benchmark's design predicts, checked and
    reported (a mismatch is reported, never hidden or fatal)."""
    if "trace.wall_s" not in m:
        return []
    layers = {k: v for k, v in self_time.items() if k != "rep"}
    largest = max(layers, key=layers.get)
    skip = m["core.ff_skip_ratio"]
    checks = {
        "saturation": [
            ("noc.step has the largest self time", largest == "noc.step", largest),
            ("core.ff_skip_ratio == 0", skip == 0, skip),
        ],
        "lowload": [("core.ff_skip_ratio > 0", skip > 0, skip)],
    }
    return [
        {"claim": claim, "holds": holds, "observed": observed}
        for claim, holds, observed in checks.get(name, [])
    ]


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def load_catalogue() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def emit(metrics: Dict[str, float], listed: List[Dict]) -> Dict[str, Dict]:
    """Metrics in catalogue order, with units; refuses a gap or extra."""
    names = [m["name"] for m in listed]
    if set(names) != set(metrics):
        raise RuntimeError(
            f"benchmark produced {sorted(metrics)}, catalogue lists"
            f" {sorted(names)}"
        )
    return {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in listed
    }


def print_table(workload: str, result: Dict[str, Any], book: Book) -> None:
    print(f"== {workload} (seed {result['seed']}, trace {result['trace']})")
    for name, entry in result["emitted"].items():
        print(f"  {name:32s} {entry['value']:>16.6g} {entry['unit']}")
    frac = book.failed / book.attempted if book.attempted else 1.0
    print(
        f"  {'failed_frac':32s} {frac:>16.6g} ratio"
        f"  ({book.failed} of {book.attempted} operations)"
    )
    calib = result.get("samples", {}).get("calib_s")
    if calib:
        print(
            f"  host calibration loop: median {median(calib):.6f} s,"
            f" spread {spread(calib):.3f} over {len(calib)} repetitions"
            " (host-speed drift beside the numbers above)"
        )
    spreads = result.get("spreads")
    if spreads:
        print(
            "  within-run spread (IQR/median): "
            + ", ".join(f"{k} {v:.3f}" for k, v in spreads.items())
        )
        print(
            f"  spec_tail_s is p{result['tail']['percentile']:.0f} of"
            f" {result['tail']['samples']} scenario samples"
        )
    if "self_s" in result:
        print("  self time per layer (median traced repetition):")
        ranked = sorted(result["self_s"].items(), key=lambda kv: -kv[1])
        for name, value in ranked:
            print(f"    {name:30s} {value:12.6f} s")
    for p in result.get("predictions", []):
        verdict = "holds" if p["holds"] else "DOES NOT HOLD"
        print(f"  prediction {verdict}: {p['claim']} (observed {p['observed']})")
    for problem in book.problems:
        print(f"  FAILED: {problem}")


def run_one(name, seed, seconds, trace, scratch, catalogue):
    from workloads import WORKLOADS

    book = Book(name, seed)
    tracer = None
    started = time.perf_counter()
    wl = WORKLOADS[name](seed, scratch)
    if trace:
        from spans import Tracer

        tracer = Tracer()
        result = run_traced(wl, seconds, book, tracer)
        listed = catalogue["per_layer"]
    else:
        result = run_untraced(wl, seconds, book)
        listed = catalogue["end_to_end"]
    result.update(
        workload=name,
        seed=seed,
        trace=trace,
        run_s=time.perf_counter() - started,
        attempted=book.attempted,
        failed=book.failed,
        problems=book.problems,
    )
    result["emitted"] = emit(result["metrics"], listed) if book.correct else {}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}")
    if tracer is not None:
        result["spans"] = tracer.write(stem + ".spans.csv.gz")
    return result, book


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no emulator source under {SRC}; run from a full"
            " checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    from workloads import NAMES

    names = NAMES if args.workload == "all" else (args.workload,)
    unknown = [n for n in names if n not in NAMES]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; expected one of {NAMES}")
    catalogue = load_catalogue()
    info = provenance(ROOT)
    print(
        "host: "
        + ", ".join(f"{k}={v}" for k, v in info.items())
        + "  (timings are host time; the NoC timing model is unvalidated"
        " against hardware)"
    )
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT)
    results = []
    try:
        for name in names:
            result, book = run_one(
                name, args.seed, args.seconds, args.trace, scratch, catalogue
            )
            result["provenance"] = info
            with open(
                os.path.join(
                    OUT, f"{name}-seed{args.seed}-trace{args.trace}.json"
                ),
                "w",
                encoding="utf-8",
            ) as fh:
                json.dump(result, fh, indent=1, sort_keys=True)
            print_table(name, result, book)
            results.append((name, result))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    traced = dict(results) if args.trace else {}
    if "saturation" in traced and "sweep" in traced:
        shares = {
            name: build_share(traced[name]["metrics"])
            for name in ("saturation", "sweep")
        }
        verdict = "holds" if shares["sweep"] > shares["saturation"] else "DOES NOT HOLD"
        print(
            f"prediction {verdict}: build share (noc.routing_s +"
            f" noc.deadlock_s) / trace.wall_s is larger on sweep"
            f" ({shares['sweep']:.4f}) than on saturation"
            f" ({shares['saturation']:.4f})"
        )
    attempted = sum(r["attempted"] for _, r in results)
    failed = sum(r["failed"] for _, r in results)
    correct = failed == 0 and attempted > 0
    if len(results) == 1:
        metrics = results[0][1]["emitted"]
    else:
        metrics = {
            f"{name}/{key}": entry
            for name, r in results
            for key, entry in r["emitted"].items()
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
