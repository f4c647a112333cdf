"""Self-tests for the benchmark itself: input generation, gate, tracing.

    python3 bench/selftest.py

The gate tests feed synthetic facts and digests; nothing in pixelsim is
patched or run for them.
"""

from __future__ import annotations

import json
import sys
import unittest
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402


def paper_facts(c: w.PaperConfig) -> dict:
    """The facts a correct paper_experiments pass reports for config ``c``."""
    return {
        "profiling.classes": dict(zip(w.CLASS_NAMES, c.classes)),
        "profiling.counters": {
            "sites_reporting_plain_visit": c.classes[0] + c.classes[2],
            "sites_reporting_both_ids": c.classes[0] + c.classes[1],
        },
        "expiration.classes": dict(zip(w.POLICY_NAMES, c.policies)),
        "expiration.counters": {"creation_law_violations": 0, "update_law_violations": 0},
        "external_id.counters": {
            "observed_sharing": c.sharing,
            "observed_reidentified": c.stable,
            "observed_incognito_default": c.default_anonymous,
        },
        "propagation.signatures": ["sig"] * 3,
        "propagation.hops": ["hops"] * 3,
        "consent.counters": {
            "stored_AcceptAll": c.consent_sites,
            "stored_RejectAll": c.noncompliant,
            "stored_NoAction": c.noncompliant - c.gated,
        },
    }


class GateTest(unittest.TestCase):
    def test_digest_mismatch_is_a_failure(self):
        gate = w.Gate()
        w.check_digest(gate, w.FULL, "aa", "aa", "aa")
        self.assertEqual((gate.attempted, gate.failed), (2, 0))
        w.check_digest(gate, w.FULL, "aa", "aa", "bb")
        self.assertEqual((gate.attempted, gate.failed), (4, 1))
        self.assertEqual(gate.failures, ["full.digest.recorded"])
        w.check_digest(gate, w.QUARTER, "cc", "aa", None)
        self.assertEqual((gate.attempted, gate.failed), (5, 2))

    def test_paper_closure(self):
        for size in w.SIZES:
            config = w.paper_config(size, 42)
            gate = w.Gate()
            w.check_paper(gate, config, paper_facts(config))
            self.assertEqual(gate.failed, 0, gate.failures)
            self.assertGreater(gate.attempted, 10)

    def test_wrong_closure_count_is_a_failure(self):
        facts = paper_facts(w.PAPER)
        facts["profiling.classes"]["Silent"] += 1
        facts["consent.counters"]["stored_NoAction"] = 310
        facts["propagation.hops"][2] = "other"
        gate = w.Gate()
        w.check_paper(gate, w.PAPER, facts)
        self.assertEqual(
            gate.failures, ["profiling.classes", "propagation.hops", "consent.no_action"]
        )

    def test_click_checks(self):
        clicked = frozenset({("a000", "shop00.example"), ("a001", "shop00.example")})
        gate = w.Gate()
        w.check_click(gate, clicked, {"links": sorted(clicked), "anomalies": 0})
        self.assertEqual(gate.failed, 0)
        w.check_click(gate, clicked, {"links": [("a000", "shop00.example")], "anomalies": 1})
        self.assertEqual(gate.failures, ["click.links", "click.link_pairs", "click.anomalies"])

    def test_churn_checks(self):
        created = frozenset({"a00", "a01"})
        gate = w.Gate()
        w.check_churn(gate, created, {"profile_keys": ["s|1", "s|2"], "linked_accounts": ["a00"]})
        self.assertEqual(gate.failed, 0)
        w.check_churn(gate, created, {"profile_keys": ["s|1", "s|1"], "linked_accounts": ["zz"]})
        self.assertEqual(
            gate.failures, ["churn.keys_in_one_profile", "churn.links_to_created_accounts"]
        )


class BenchmarkFileTest(unittest.TestCase):
    def test_names_match_what_the_run_reports(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual({wl["name"] for wl in spec["workloads"]}, set(w.WORKLOADS))
        self.assertEqual(
            [m["name"] for m in spec["per_layer"]],
            [m for m, _, _ in tracing.LAYER_METRICS]
            + ["scenarios.useful_step_ratio", "trace.overhead_frac"],
        )


class InputTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not (run.SRC / "pixelsim").is_dir():
            raise unittest.SkipTest("no pixelsim sources")
        sys.path.insert(0, str(run.SRC))
        cls.mods = run.import_pixelsim()

    def test_paper_config_sizes(self):
        full = w.paper_config(w.FULL, 7)
        self.assertEqual(full, replace(w.PAPER, seed=7))
        quarter = w.paper_config(w.QUARTER, 7)
        self.assertEqual(sum(quarter.classes), 577)
        self.assertEqual(sum(quarter.policies), 577)
        self.assertEqual(quarter.consent_sites, 120)

    def test_same_seed_same_scenario(self):
        for name in ("click_attribution", "identity_churn"):
            make = w.WORKLOADS[name].make
            with self.subTest(name):
                a = make(self.mods, 7, w.QUARTER)
                b = make(self.mods, 7, w.QUARTER)
                self.assertEqual(a.data.steps, b.data.steps)
                self.assertEqual(a.data.sites, b.data.sites)
                self.assertEqual(a.data.browsers, b.data.browsers)
                self.assertEqual(a.expect, b.expect)
                self.assertNotEqual(make(self.mods, 8, w.QUARTER).data.steps, a.data.steps)
                # The quarter-size scenario is a prefix of the full one.
                full = make(self.mods, 7, w.FULL).data.steps
                self.assertEqual(full[: len(a.data.steps)], a.data.steps)
                self.assertGreater(len(full), 3 * len(a.data.steps))


class TracingTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda: sum(range(20000)))
        outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
        with tracer.traced_pass():
            outer()
        calls, seconds, self_seconds = tracer.totals()
        self.assertEqual((calls["outer"], calls["inner"]), (1, 3))
        self.assertAlmostEqual(self_seconds["outer"], seconds["outer"] - seconds["inner"])
        self.assertAlmostEqual(self_seconds["inner"], seconds["inner"])
        self.assertEqual(list(tracer.pass_of), [0, 0, 0, 0, 0])

    def test_installed_restores_every_binding(self):
        if not (run.SRC / "pixelsim").is_dir():
            self.skipTest("no pixelsim sources")
        sys.path.insert(0, str(run.SRC))
        mods = run.import_pixelsim()
        original_run = mods.scenarios.run
        original_parse = mods.cookies.TrackedUrl.__dict__["parse"]
        tracer = tracing.Tracer()
        with tracer.installed(mods):
            self.assertIsNot(mods.experiments.run, original_run)
            self.assertIs(mods.experiments.run, mods.scenarios.run)
            mods.cookies.TrackedUrl.parse("https://a.example/?x=1")
        self.assertIs(mods.experiments.run, original_run)
        self.assertIs(mods.cookies.TrackedUrl.__dict__["parse"], original_parse)
        self.assertEqual(tracer.totals()[0]["cookies.url_parse"], 1)


if __name__ == "__main__":
    unittest.main()
