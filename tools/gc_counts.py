"""Count the automatic garbage collections of one full-size benchmark pass.

    python3 tools/gc_counts.py --workload NAME --seed N

Run it from the root of a source checkout.  It builds the workload's inputs
as ``bench/run.py`` does (both sizes held, as during a timed pass), runs one
untimed quarter-size and one full-size pass to warm up, then counts, through
``gc.callbacks``, the collections that start during one more full-size pass:
how many, how many start inside ``scenarios.run``, how many of those are
full (generation-2) collections, and how many objects they examine, taken
as the objects the collected generations hold when each one starts.  The
counts depend on allocation only, so they repeat exactly from run to run on
one interpreter version.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import run as bench  # bench/run.py
import workloads


def count_pass(workload, mods, inputs) -> dict:
    inside = [0]
    original = mods.scenarios.run

    def flagged(*args, **kwargs):
        inside[0] += 1
        try:
            return original(*args, **kwargs)
        finally:
            inside[0] -= 1

    # Experiments call ``run`` through their own module's name for it.
    holders = [m for name, m in sys.modules.items()
               if name.startswith("pixelsim") and getattr(m, "run", None) is original]
    counts = {"collections": 0, "collections_in_run": 0, "full_collections_in_run": 0,
              "objects_examined": 0, "objects_examined_in_run": 0}

    def callback(phase, info):
        if phase != "start":
            return
        generation = info["generation"]
        examined = sum(len(gc.get_objects(generation=g)) for g in range(generation + 1))
        counts["collections"] += 1
        counts["objects_examined"] += examined
        if inside[0]:
            counts["collections_in_run"] += 1
            counts["full_collections_in_run"] += generation == 2
            counts["objects_examined_in_run"] += examined

    for module in holders:
        module.run = flagged
    gc.collect()
    gc.callbacks.append(callback)
    try:
        workload.run(mods, inputs[workloads.FULL].data)
    finally:
        gc.callbacks.remove(callback)
        for module in holders:
            module.run = original
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    _, mods, inputs = bench.setup(workload, args.seed)
    for size in workloads.SIZES:
        workload.run(mods, inputs[size].data)
    counts = count_pass(workload, mods, inputs)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "python": platform.python_version(), **counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
