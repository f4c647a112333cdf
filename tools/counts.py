"""Count what one full-size benchmark pass does that repeats from run to run:
its garbage collections, the memory it allocates and holds and the sites it
checks; and time its ``Scenario.validate`` calls.

    python3 tools/counts.py --workload NAME --seed N

Run it from the root of a source checkout.  It builds the workload's inputs
with ``bench/run.py``'s ``setup`` (both sizes held, as during a timed pass)
and runs one untimed quarter-size and one full-size pass to warm up, so that
every lazily filled cache is full.  Each count below then comes from full-size
passes of its own, taken in this order:

* ``collections``: the automatic collections that start during one pass,
  counted through ``gc.callbacks``; ``collections_in_run``: those that
  start inside ``scenarios.run``; ``full_collections_in_run``: those of
  them that are full (generation-2) collections; ``objects_examined`` and
  ``objects_examined_in_run``: the objects they examine, taken as the
  objects the collected generations hold when each one starts;
* ``run_result_bytes``: with tracemalloc started only now, so the inputs
  are not counted, the bytes one ``scenarios.run`` leaves held by the
  ``RunResult`` it returns (world, feed, graph, emissions, report); for the
  synthetic workloads only, since ``paper_experiments`` runs experiments,
  not one scenario (null there);
* ``pass_peak_bytes``: the traced peak of one pass, outputs serialised,
  plus its ``observe`` step;
* ``site_checks``: the sites one pass checks, counted as
  ``tests/helpers.py``'s ``site_checks`` counts them.  The benchmark keeps
  one input per size, so a synthetic workload's passes share their
  ``Scenario`` and its sites, while ``paper_experiments`` builds new sites
  on every pass;
* ``validate_s``: the median, over ``PASSES`` passes, of the seconds one
  pass spends in ``Scenario.validate``, timed with ``time.perf_counter``.

Every count but ``validate_s`` depends on allocation only, so it repeats
from run to run on one interpreter version: exactly, or for the byte counts
to within a few hundred bytes across ``PYTHONHASHSEED`` values.  Prints one
JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]

import run as bench  # bench/run.py
import workloads
from helpers import site_checks  # tests/helpers.py

SYNTHETIC = ("click_attribution", "identity_churn")
PASSES = 5


def collections(workload, mods, data) -> dict:
    """The collections that start during one pass over ``data``, and inside its runs."""
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
        workload.run(mods, data)
    finally:
        gc.callbacks.remove(callback)
        for module in holders:
            module.run = original
    return counts


def traced(action) -> tuple[int, int]:
    """Bytes still allocated once ``action()`` has returned, its result held,
    and the traced peak while it ran; only ``action`` runs under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        result = action()  # held until the memory has been read
        gc.collect()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def validate_seconds(workload, mods, data) -> float:
    """Seconds one pass over ``data`` spends in ``Scenario.validate``."""
    scenario_class = mods.scenarios.Scenario
    original = scenario_class.validate
    spent = [0.0]

    def timed(scenario):
        t0 = time.perf_counter()
        try:
            return original(scenario)
        finally:
            spent[0] += time.perf_counter() - t0

    scenario_class.validate = timed
    gc.collect()
    try:
        workload.run(mods, data)
    finally:
        scenario_class.validate = original
    return spent[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    _, mods, inputs = bench.setup(workload, args.seed)
    for size in workloads.SIZES:
        workload.run(mods, inputs[size].data)
    data = inputs[workloads.FULL].data
    counts = collections(workload, mods, data)
    counts["run_result_bytes"] = None
    if args.workload in SYNTHETIC:
        counts["run_result_bytes"] = traced(lambda: mods.scenarios.run(data))[0]
    counts["pass_peak_bytes"] = traced(lambda: workload.observe(workload.run(mods, data)[1]))[1]
    with site_checks(mods.scenarios) as checked:
        workload.run(mods, data)
    counts["site_checks"] = len(checked)
    seconds = [validate_seconds(workload, mods, data) for _ in range(PASSES)]
    counts["validate_s"] = round(statistics.median(seconds), 6)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "python": platform.python_version(), **counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
