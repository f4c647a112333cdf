"""Count the site checks of one full-size benchmark pass, and time the
pass's ``Scenario.validate`` calls.

    python3 tools/decode_counts.py --workload NAME --seed N

Run it from the root of a source checkout.  It builds the workload's inputs
as ``bench/run.py`` does (both sizes held, as during a timed pass) and runs
one untimed full-size pass to warm up.  The benchmark keeps one input per
size, so a synthetic workload's passes share their ``Scenario`` and its
sites, while ``paper_experiments`` builds new sites on every pass.  It then
reports two values:

* ``site_checks``: the sites one more full-size pass checks, counted as
  ``tests/helpers.py``'s ``site_checks`` counts them: each ``SiteConfig``
  built from an object, and each field loop run over an instance;
* ``validate_s``: the median, over ``PASSES`` further full-size passes, of
  the seconds one pass spends in ``Scenario.validate``, timed with
  ``time.perf_counter``.  No check is counted during these passes.

``site_checks`` repeats exactly from run to run.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]

import run as bench  # bench/run.py
import workloads
from helpers import site_checks  # tests/helpers.py

PASSES = 5


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
    data = inputs[workloads.FULL].data
    workload.run(mods, data)
    with site_checks(mods.scenarios) as checked:
        workload.run(mods, data)
    validate_s = statistics.median(validate_seconds(workload, mods, data) for _ in range(PASSES))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "python": platform.python_version(),
                      "site_checks": len(checked), "validate_s": round(validate_s, 6)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
