"""Host provenance and the host-speed yardstick.

The benchmark runs on shared machines whose speed drifts by tens of
per cent within minutes.  :func:`calibrate` is a fixed pure-Python
workload that imports nothing from the emulator, so no change to the
emulator can change its cost.  It runs next to every measurement and
the driver keeps its samples in the run record, so host drift is
visible beside the numbers.  The reported timings are plain host
seconds: on the reference host this yardstick tracked the emulator's
speed too loosely (its own spread across processes reached 10-20%)
to correct the timings by it.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
from datetime import datetime, timezone
from typing import Any, Dict, List

#: Calibration time spent next to each measurement, as a share of it.
CALIB_SHARE = 0.05


class _Cell:
    __slots__ = ("value", "next")


def _mix(x: int) -> int:
    return (x ^ (x >> 3)) & 0xFFFF


def calibrate() -> float:
    """Host seconds of one yardstick sample.

    The loop mixes the operations the emulator's kernel is made of:
    dict reads and writes, attribute loads through a pointer chain
    larger than the first-level caches, a list used as a FIFO, and
    function calls.  Its timed part allocates no container, so the
    garbage collector never runs inside it.
    """
    cells = [_Cell() for _ in range(4096)]
    for i, cell in enumerate(cells):
        cell.value = i & 255
        cell.next = cells[(i * 37 + 11) % len(cells)]
    table = dict.fromkeys(range(64), 0)
    fifo = [0] * 8
    cell = cells[0]
    acc = 0
    started = time.perf_counter()
    for i in range(70_000):
        slot = i & 63
        acc = (acc * 31 + table[slot] + cell.value) & 0xFFFF
        table[slot] = acc
        cell = cell.next
        fifo.append(acc)
        acc ^= fifo.pop(0)
        if acc & 1:
            acc = _mix(acc)
    return time.perf_counter() - started


def calibrate_beside(seconds: float) -> List[float]:
    """Calibration samples worth at least ``CALIB_SHARE`` of the
    ``seconds`` just measured (one sample at least)."""
    samples = [calibrate()]
    while sum(samples) < CALIB_SHARE * seconds:
        samples.append(calibrate())
    return samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: str) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(root: str) -> Dict[str, Any]:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _commit(root),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped
    child (the sweep's workers), in MiB."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0
