"""pixelsim benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; pixelsim is imported from
``src/`` there and nowhere else.  The workloads are in ``workloads.py``.

The loop is closed: a pass starts when the previous one has finished.
With ``--trace 0`` the run alternates quarter-size and full-size passes
until ``--seconds`` have gone (at least ``MIN_PAIRS`` pairs) and reports
the end-to-end metrics:

* ``wall_s``: median seconds per full-size pass, output serialisation
  included;
* ``scaling_exp``: log(t_full / t_quarter) / log 4, from the two medians;
* ``peak_rss_mb``: the process's peak resident memory;
* ``setup_s``: median over ``SETUP_REPEATS`` of importing pixelsim afresh
  and generating the workload's inputs at both sizes.

With ``--trace 1`` it alternates untraced and traced full-size passes and
reports the per-layer metrics of ``tracing.py`` plus ``trace.overhead_frac``,
the traced median over the untraced median, minus 1.  Spans are written to
``bench/out/spans-<workload>.csv.gz``.

Every pass is checked (see ``workloads.py``) and its output files hashed;
the hashes must repeat on every pass and, for the seed in ``digests.json``,
equal the recorded ones.  The second-to-last line of output is a JSON
object of details (samples, quartiles, digests, environment); the last line
is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import tracing
import workloads
from workloads import FULL, QUARTER, SIZES, Gate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MODULES = ("cookies", "world", "pixel", "social", "tracker", "reporting", "scenarios", "experiments")
SETUP_REPEATS = 5
MIN_PAIRS = 2  # full-size samples per run, however long they take
MIN_TRACED_PAIRS = 1


def import_pixelsim() -> types.SimpleNamespace:
    """Import pixelsim afresh from ``src/``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "pixelsim" or n.startswith("pixelsim.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("pixelsim")
    if Path(package.__file__).resolve().parent != SRC / "pixelsim":
        raise ImportError(f"pixelsim imported from {package.__file__}, not {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"pixelsim.{name}") for name in MODULES}
    )


def setup(workload, seed: int):
    """Time import plus input generation; keep the last repeat's results."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods = import_pixelsim()
        inputs = {size: workload.make(mods, seed, size) for size in SIZES}
        times.append(time.perf_counter() - t0)
    return times, mods, inputs


class Passes:
    """Runs, times, checks and hashes passes of one workload."""

    def __init__(self, workload, mods, inputs, gate: Gate, recorded: dict | None):
        self.workload = workload
        self.mods = mods
        self.inputs = inputs
        self.gate = gate
        self.recorded = recorded or {}
        self.digests: dict[str, str] = {}

    def run(self, size: str) -> float:
        inp = self.inputs[size]
        gc.collect()
        t0 = time.perf_counter()
        files, raw = self.workload.run(self.mods, inp.data)
        elapsed = time.perf_counter() - t0
        self.workload.check(self.gate, inp.expect, self.workload.observe(raw))
        digest = workloads.digest_files(files)
        first = self.digests.setdefault(size, digest)
        workloads.check_digest(self.gate, size, digest, first, self.recorded.get(size))
        return elapsed


def alternate(first, second, seconds: float, min_pairs: int) -> int:
    """Call ``first`` then ``second`` until ``seconds`` would be overrun."""
    deadline = time.perf_counter() + seconds
    pairs = 0
    while True:
        t0 = time.perf_counter()
        first()
        second()
        pairs += 1
        pair_s = time.perf_counter() - t0
        if pairs >= min_pairs and time.perf_counter() + pair_s > deadline:
            return pairs


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def measure(passes: Passes, seconds: float) -> tuple[dict, dict]:
    times = {QUARTER: [], FULL: []}
    alternate(lambda: times[QUARTER].append(passes.run(QUARTER)),
              lambda: times[FULL].append(passes.run(FULL)), seconds, MIN_PAIRS)
    full = statistics.median(times[FULL])
    quarter = statistics.median(times[QUARTER])
    metrics = {
        "wall_s": {"value": full, "unit": "s"},
        "scaling_exp": {"value": math.log(full / quarter) / math.log(4), "unit": "exponent"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    return metrics, {size: summary(values) for size, values in times.items()}


def measure_traced(passes: Passes, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    times = {"untraced": [], "traced": []}

    def traced():
        with tracer.installed(passes.mods), tracer.traced_pass():
            times["traced"].append(passes.run(FULL))

    alternate(lambda: times["untraced"].append(passes.run(FULL)), traced,
              seconds, MIN_TRACED_PAIRS)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(times["traced"]) / statistics.median(times["untraced"]) - 1,
        "unit": "ratio",
    }
    spans = tracer.write(spans_path)
    details = {kind: summary(values) for kind, values in times.items()}
    details["spans"] = {"file": str(spans_path.relative_to(ROOT)), "count": spans}
    return metrics, details


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, trace: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
        "trace": trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pixelsim" / "__init__.py").is_file():
        print(f"bench: no pixelsim sources in {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    recorded_all = json.loads((BENCH_DIR / "digests.json").read_text())
    recorded = (recorded_all["workloads"].get(args.workload)
                if args.seed == recorded_all["seed"] else None)

    workload = workloads.WORKLOADS[args.workload]
    setup_times, mods, inputs = setup(workload, args.seed)
    gate = Gate()
    passes = Passes(workload, mods, inputs, gate, recorded)
    if args.trace:
        spans_path = BENCH_DIR / "out" / f"spans-{args.workload}.csv.gz"
        metrics, samples = measure_traced(passes, args.seconds, spans_path)
    else:
        metrics, samples = measure(passes, args.seconds)
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}

    details = {
        "workload": args.workload,
        **environment(args.seed, args.trace),
        "samples": samples,
        "setup_s": summary(setup_times),
        "digests": passes.digests,
        "digests_recorded": recorded is not None,
        "fail_frac": gate.failed / gate.attempted,
        "failed_checks": gate.failures,
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
