"""Regenerate ``expected.json``: the pinned simulated records.

Usage (from the repository root)::

    python3 perfbench/pin.py              # seeds 0-20 plus the held-out seed
    python3 perfbench/pin.py --workload sweep --seeds 1 2 3

Run it only when a change is *meant* to alter what the emulator
simulates (the modelled design, or a workload's inputs in
``workloads.py``), and say so in the change: a pure speed-up must
leave every pinned record as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from run import HERE, OUT, SRC

DEFAULT_SEEDS = list(range(21))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    from workloads import NAMES, WORKLOADS

    path = os.path.join(HERE, "expected.json")
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)
    seeds = args.seeds or DEFAULT_SEEDS + [expected["held_out_seed"]]
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="pin-", dir=OUT)
    try:
        for name in args.workload or NAMES:
            pins = expected["pinned"].setdefault(name, {})
            for seed in seeds:
                rep = WORKLOADS[name](seed, scratch).rep()
                if rep.failed:
                    print(f"{name} seed {seed}: {rep.problems}", file=sys.stderr)
                    return 1
                pins[str(seed)] = rep.summary
                print(f"pinned {name} seed {seed}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
