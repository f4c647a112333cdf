"""Count the memory one full-size benchmark pass allocates, with tracemalloc.

    python3 tools/mem_counts.py --workload NAME --seed N

Run it from the root of a source checkout.  It builds the workload's inputs
as ``bench/run.py`` does (both sizes held, as during a timed pass) and runs
one untimed quarter-size and one full-size pass to warm up, so that every
lazily filled cache is full.  Only then does it start tracemalloc, so the
inputs themselves are not counted, and reports two values in bytes:

* ``run_result_bytes``: what one full-size ``scenarios.run`` leaves held by
  the ``RunResult`` it returns (world, feed, graph, emissions, report); for
  the synthetic workloads only, since ``paper_experiments`` runs
  experiments, not one scenario (null there);
* ``pass_peak_bytes``: the traced peak of one full-size pass, outputs
  serialised, plus its ``observe`` step.

The counts depend on allocation only, so they repeat from run to run on one
interpreter version, to within a few hundred bytes across
``PYTHONHASHSEED`` values.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import run as bench  # bench/run.py
import workloads

SYNTHETIC = ("click_attribution", "identity_churn")


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
    held = None
    if args.workload in SYNTHETIC:
        held = traced(lambda: mods.scenarios.run(data))[0]
    peak = traced(lambda: workload.observe(workload.run(mods, data)[1]))[1]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "python": platform.python_version(),
                      "run_result_bytes": held, "pass_peak_bytes": peak}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
