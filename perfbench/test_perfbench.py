"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

They check that tracing observes without perturbing: the wrappers put
every original callable back, and a traced repetition simulates
exactly what an untraced one does.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

sys.path.insert(0, run.SRC)


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so a repetition takes well under a second."""
    monkeypatch.setattr(workloads.SingleScenario, "SEEDS", 2)
    monkeypatch.setattr(workloads.Saturation, "PACKETS", 6)
    monkeypatch.setattr(workloads.LowLoad, "PACKETS", 3)
    monkeypatch.setattr(workloads.Sweep, "PACKETS", 3)
    monkeypatch.setattr(workloads.Sweep, "TOPOLOGIES", ("mesh:4:4", "mesh:8:8"))
    monkeypatch.setattr(workloads.WarmStart, "RAMP_CYCLES", 300)
    monkeypatch.setattr(workloads.WarmStart, "HORIZON", 200)
    monkeypatch.setattr(workloads.WarmStart, "LOADS", (0.05, 0.1))


def _attributes(targets):
    return [(owner, attr, vars(owner).get(attr)) for owner, attr, _ in targets]


def test_wrappers_restore_the_original_callables(small, tmp_path):
    before = _attributes(spans.layer_targets())
    tracer = spans.Tracer()
    wl = workloads.WarmStart(1, str(tmp_path))
    with tracer.installed(spans.layer_targets()), tracer.span("rep"):
        assert all(
            vars(owner).get(attr) is not original
            for owner, attr, original in before
        )
        wl.rep(tracer=tracer)
    for owner, attr, original in before:
        assert vars(owner).get(attr) is original, f"{owner}.{attr} not restored"
    recorded = {tracer.names[i] for i in tracer.name_ix}
    assert {"core.loop", "noc.step", "checkpoint.restore"} <= recorded


def test_wrappers_restore_after_an_exception(small, tmp_path):
    before = _attributes(spans.layer_targets())
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(spans.layer_targets()):
            raise RuntimeError("boom")
    assert _attributes(spans.layer_targets()) == before


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_and_untraced_records_are_identical(small, tmp_path, name):
    wl = workloads.WORKLOADS[name](1, str(tmp_path))
    plain = wl.rep(pool=False)
    tracer = spans.Tracer()
    tracer.begin_rep(1)
    with tracer.installed(spans.layer_targets()), tracer.span("rep"):
        traced = wl.rep(tracer=tracer, pool=False)
    assert plain.failed == traced.failed == 0, plain.problems + traced.problems
    assert traced.summary == plain.summary
    summary = tracer.summary(1)
    assert summary["core.loop"]["calls"] >= 1
    assert summary["noc.step"]["calls"] > 0
    self_total = sum(row["self_s"] for row in summary.values())
    assert self_total == pytest.approx(summary["rep"]["total_s"], rel=1e-6)


def test_pool_and_in_process_sweeps_agree(small, tmp_path):
    wl = workloads.Sweep(3, str(tmp_path))
    assert wl.rep(pool=True).summary == wl.rep(pool=False).summary


def test_held_out_seed_changes_records_not_metric_set(small, tmp_path):
    with open(os.path.join(run.HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    held_out = expected["held_out_seed"]
    for name in workloads.NAMES:
        pins = expected["pinned"][name]
        assert str(held_out) in pins, f"{name}: held-out seed not pinned"
        assert pins[str(held_out)] != pins["1"]
        assert _shape(pins[str(held_out)]) == _shape(pins["1"])
    first = workloads.Saturation(1, str(tmp_path)).rep()
    other = workloads.Saturation(held_out, str(tmp_path)).rep()
    assert first.summary != other.summary
    assert _shape(first.summary) == _shape(other.summary)


def _shape(value):
    if isinstance(value, dict):
        return {k: _shape(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_shape(v) for v in value]
    return type(value).__name__


def test_a_pin_mismatch_is_a_failed_operation(small, tmp_path):
    rep = workloads.Saturation(1, str(tmp_path)).rep()
    book = run.Book("saturation", 1)
    book.pin = dict(rep.summary, records="0" * 16)
    book.check(rep)
    assert book.failed == rep.attempted and not book.correct
    book = run.Book("saturation", 1)
    book.pin = None
    book.check(rep)
    assert book.correct
    changed = workloads.Rep(**dict(vars(rep), summary={"records": "x"}))
    book.check(changed)
    assert book.failed == rep.attempted and not book.correct


def test_per_layer_catalogue_matches_what_the_traced_run_emits():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        catalogue = json.load(fh)
    rep = workloads.Rep(
        wall_s=1.0, cycles=1, flits=1, scenario_walls=[1.0], cached_s=0.1,
        summary={}, attempted=1,
    )
    summary = {"rep": {"total_s": 1.0, "self_s": 1.0, "calls": 1}}
    emitted = set(run.layer_row(summary, {}, rep)) | {
        "experiments.pool_overhead_s",
        "experiments.retried",
        "experiments.failed",
        "trace.overhead_s",
        "experiments.cached_pass_s",
        "cli.import_s",
    }
    assert emitted == {m["name"] for m in catalogue["per_layer"]}


def test_refuses_to_run_without_the_emulator_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "saturation",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
