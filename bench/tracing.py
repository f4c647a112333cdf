"""Spans around pixelsim's public functions, recorded from outside ``src/``.

``Tracer.installed(mods)`` wraps each function in ``SPANS`` for the length
of a ``with`` block.  A module-level function is rebound under every name
that refers to it in any ``pixelsim`` module, because modules import each
other's functions by name (``scenarios`` calls its own ``on_page_event``);
a method is replaced on its class.  Each call records one span: name,
start, end, parent span and pass id.  Spans stay in memory, in flat arrays,
until ``write`` is called at the end of the run.  Counts are taken from the
wrapped functions' arguments and return values.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute, span name).  Several functions may share a span name.
SPANS = (
    ("cookies", "TrackedUrl.parse", "cookies.url_parse"),
    ("cookies", "TrackedUrl.serialize", "cookies.url_serialize"),
    ("cookies", "encode_report", "cookies.encode_report"),
    ("world", "CookieJar.read", "world.cookie_jar"),
    ("world", "CookieJar.read_entry", "world.cookie_jar"),
    ("world", "CookieJar.write", "world.cookie_jar"),
    ("world", "CookieJar.touch", "world.cookie_jar"),
    ("world", "CookieJar.delete", "world.cookie_jar"),
    ("world", "World.end_step", "world.end_step"),
    ("world", "World.snapshot", "world.snapshot"),
    ("pixel", "on_page_event", "pixel.on_page_event"),
    ("social", "PlatformFeed.refresh_click_ids", "social.refresh_click_ids"),
    ("social", "PlatformFeed.decorate_outbound", "social.decorate_outbound"),
    ("social", "PlatformFeed.entries_for", "social.entries_for"),
    ("tracker", "IdentityGraph.ingest", "tracker.ingest"),
    ("tracker", "IdentityGraph.resolve", "tracker.query"),
    ("tracker", "IdentityGraph.account_history", "tracker.query"),
    ("tracker", "IdentityGraph.dump", "tracker.dump"),
    ("reporting", "tally_classes", "reporting.tally_classes"),
    ("reporting", "destination_sets", "reporting.destination_sets"),
    ("reporting", "Distribution.cdf_points", "reporting.cdf_points"),
    ("reporting", "MetricsReport.to_json", "reporting.to_json"),
    ("scenarios", "run", "scenarios.run"),
    ("experiments", "experiment_profiling", "experiments.profiling"),
    ("experiments", "experiment_expiration", "experiments.expiration"),
    ("experiments", "experiment_external_id", "experiments.external_id"),
    ("experiments", "experiment_propagation", "experiments.propagation"),
    ("experiments", "experiment_consent", "experiments.consent"),
    ("experiments", "emission_signatures", "experiments.emission_signatures"),
)

PASS_SPAN = "bench.pass"

# Per-layer metrics, per traced pass: (metric, kind, span name or counter).
# "calls" counts spans, "s" sums their durations, "self_s" sums durations
# less the time covered by their direct children (over the span name and
# every name below it), "count" reads a counter.
LAYER_METRICS = (
    ("cookies.url_parse.calls", "calls", "cookies.url_parse"),
    ("cookies.url_parse.s", "s", "cookies.url_parse"),
    ("cookies.url_serialize.s", "s", "cookies.url_serialize"),
    ("cookies.encode_report.calls", "calls", "cookies.encode_report"),
    ("cookies.encode_report.s", "s", "cookies.encode_report"),
    ("pixel.on_page_event.calls", "calls", "pixel.on_page_event"),
    ("pixel.on_page_event.self_s", "self_s", "pixel.on_page_event"),
    ("pixel.emissions_hop0", "count", "pixel.emissions_hop0"),
    ("pixel.emissions_hop1", "count", "pixel.emissions_hop1"),
    ("pixel.emissions_hop2", "count", "pixel.emissions_hop2"),
    ("social.refresh_click_ids.calls", "calls", "social.refresh_click_ids"),
    ("social.refresh_click_ids.s", "s", "social.refresh_click_ids"),
    ("social.decorate_outbound.s", "s", "social.decorate_outbound"),
    ("social.entries_for.calls", "calls", "social.entries_for"),
    ("social.entries_for.s", "s", "social.entries_for"),
    ("social.ledger_entries", "count", "social.ledger_entries"),
    ("tracker.ingest.calls", "calls", "tracker.ingest"),
    ("tracker.ingest.self_s", "self_s", "tracker.ingest"),
    ("tracker.ingest.merged", "count", "tracker.ingest.merged"),
    ("tracker.ingest.linked", "count", "tracker.ingest.linked"),
    ("tracker.ingest.duplicate", "count", "tracker.ingest.duplicate"),
    ("tracker.anomalies", "count", "tracker.anomalies"),
    ("tracker.query.s", "s", "tracker.query"),
    ("tracker.dump.s", "s", "tracker.dump"),
    ("world.end_step.s", "s", "world.end_step"),
    ("world.cookie_jar.s", "s", "world.cookie_jar"),
    ("world.snapshot.s", "s", "world.snapshot"),
    ("reporting.tally_classes.s", "s", "reporting.tally_classes"),
    ("reporting.destination_sets.s", "s", "reporting.destination_sets"),
    ("reporting.cdf_points.s", "s", "reporting.cdf_points"),
    ("reporting.to_json.s", "s", "reporting.to_json"),
    ("experiments.profiling.s", "s", "experiments.profiling"),
    ("experiments.expiration.s", "s", "experiments.expiration"),
    ("experiments.external_id.s", "s", "experiments.external_id"),
    ("experiments.propagation.s", "s", "experiments.propagation"),
    ("experiments.consent.s", "s", "experiments.consent"),
    ("experiments.emission_signatures.s", "s", "experiments.emission_signatures"),
    ("experiments.self_s", "self_s", "experiments"),
    ("scenarios.run.calls", "calls", "scenarios.run"),
    ("scenarios.run.self_s", "self_s", "scenarios.run"),
    ("scenarios.steps_executed", "count", "scenarios.steps_executed"),
)
UNITS = {"calls": "count", "count": "count", "s": "s", "self_s": "s"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.pass_of = array("q")
        self._stack = [-1]
        self._pass = -1
        self.passes = 0
        self.counts: Counter = Counter()
        self._steps_seen: dict[int, object] = {}  # id -> Step, held for the pass
        self._hooks = {
            "pixel.on_page_event": self._on_emissions,
            "tracker.ingest": self._on_ingest,
            "scenarios.run": self._on_run,
        }

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self._stack[-1])
        self.pass_of.append(self._pass)
        self._stack.append(index)
        return index

    def _close(self, index: int, t0: int, t1: int) -> None:
        self._stack.pop()
        self.start[index] = t0
        self.end[index] = t1

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        hook = self._hooks.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, t0, clock())
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def traced_pass(self):
        """One pass: a root span, and the distinct-step count at its end."""
        self._pass = self.passes
        index = self._open(self._name_id(PASS_SPAN))
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(index, t0, time.perf_counter_ns())
            self.counts["scenarios.distinct_steps"] += len(self._steps_seen)
            self._steps_seen.clear()
            self.passes += 1
            self._pass = -1

    # -- counters ------------------------------------------------------------

    def _on_emissions(self, args, kwargs, records) -> None:
        for record in records:
            self.counts[f"pixel.emissions_hop{record.hop}"] += 1

    def _on_ingest(self, args, kwargs, outcome) -> None:
        self.counts["tracker.ingest.merged"] += outcome.merged
        self.counts["tracker.ingest.linked"] += outcome.linked_account is not None
        self.counts["tracker.ingest.duplicate"] += outcome.duplicate

    def _on_run(self, args, kwargs, result) -> None:
        steps = (args[0] if args else kwargs["scenario"]).steps
        self.counts["scenarios.steps_executed"] += len(steps)
        # A re-run of a prefix passes the same Step objects again.
        for step in steps:
            self._steps_seen[id(step)] = step
        self.counts["social.ledger_entries"] += len(result.feed.ledger)
        self.counts["tracker.anomalies"] += len(result.graph.anomalies)

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, mods):
        """Wrap every function in ``SPANS`` while the block runs."""
        undo = []
        try:
            for module_name, attribute, span in SPANS:
                module = getattr(mods, module_name)
                if "." in attribute:
                    undo.append(self._wrap_method(module, attribute, span))
                else:
                    undo.append(self._wrap_function(module, attribute, span))
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    def _wrap_method(self, module, attribute: str, span: str):
        class_name, method = attribute.split(".")
        cls = getattr(module, class_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(self.wrap(span, raw.__func__)))
        else:
            setattr(cls, method, self.wrap(span, raw))
        return lambda: setattr(cls, method, raw)

    def _wrap_function(self, module, attribute: str, span: str):
        original = getattr(module, attribute)
        traced = self.wrap(span, original)
        rebound = []
        for name, mod in list(sys.modules.items()):
            if name != "pixelsim" and not name.startswith("pixelsim."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    rebound.append((mod, key))

        def restore():
            for mod, key in rebound:
                setattr(mod, key, original)

        return restore

    # -- results -------------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, summed duration and summed self time (s)."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(int)
        child = [0] * len(self.start)
        for i in range(len(self.start)):
            duration = self.end[i] - self.start[i]
            name = self.names[self.name[i]]
            calls[name] += 1
            total[name] += duration
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration
        self_total: defaultdict = defaultdict(int)
        for i in range(len(self.start)):
            self_total[self.names[self.name[i]]] += self.end[i] - self.start[i] - child[i]
        seconds = {k: v / 1e9 for k, v in total.items()}
        self_seconds = {k: v / 1e9 for k, v in self_total.items()}
        return calls, seconds, self_seconds

    def layer_metrics(self) -> dict:
        """Every metric in ``LAYER_METRICS``, averaged over the traced passes."""
        calls, seconds, self_seconds = self.totals()
        per_pass = max(self.passes, 1)
        metrics = {}
        for metric, kind, key in LAYER_METRICS:
            if kind == "calls":
                value = calls.get(key, 0)
            elif kind == "s":
                value = seconds.get(key, 0.0)
            elif kind == "self_s":
                value = sum(v for k, v in self_seconds.items()
                            if k == key or k.startswith(key + "."))
            else:
                value = self.counts.get(key, 0)
            metrics[metric] = {"value": value / per_pass, "unit": UNITS[kind]}
        executed = self.counts.get("scenarios.steps_executed", 0)
        metrics["scenarios.useful_step_ratio"] = {
            "value": self.counts.get("scenarios.distinct_steps", 0) / executed if executed else 0.0,
            "unit": "ratio",
        }
        return metrics

    def write(self, path) -> int:
        """Write every span as gzipped CSV; returns the number written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("pass,span,parent,name,start_ns,end_ns\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(f"{self.pass_of[i]},{i},{self.parent[i]},{names[self.name[i]]},"
                          f"{self.start[i]},{self.end[i]}\n")
        return len(self.start)
