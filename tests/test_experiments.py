"""Built-in experiments at small scale, plus the count allocator."""

import math
import random

import pytest

from pixelsim.experiments import (
    CLOSURE_NOTE,
    allocate_counts,
    default_fanout_counts,
    experiment_consent,
    experiment_expiration,
    experiment_external_id,
    experiment_profiling,
    experiment_propagation,
    run_four_day,
)
from pixelsim.world import DAY_MS


class TestAllocateCounts:
    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            allocate_counts(10, [0.5, 0.4])
        with pytest.raises(ValueError):
            allocate_counts(10, [1.5, -0.5])

    def test_exact_fractions_allocate_exactly(self):
        assert allocate_counts(100, [0.5, 0.3, 0.2]) == [50, 30, 20]

    def test_matches_naive_largest_remainder(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randrange(1, 6)
            weights = [rng.random() + 0.01 for _ in range(n)]
            fractions = [w / sum(weights) for w in weights]
            total = rng.randrange(0, 500)

            floors = [math.floor(f * total) for f in fractions]
            rema = [(f * total - fl, -i) for i, (f, fl) in enumerate(zip(fractions, floors))]
            order = sorted(range(n), key=lambda i: rema[i], reverse=True)
            naive = list(floors)
            for i in order[: total - sum(floors)]:
                naive[i] += 1

            observed = allocate_counts(total, fractions)
            assert observed == naive
            assert sum(observed) == total


class TestProfiling:
    def test_observed_classes_match_configuration(self):
        report, _ = experiment_profiling(40, [0.5, 0.1, 0.2, 0.2], seed=1)
        assert report.classes == {
            "Both": 20,
            "FbpOnlyWithFbclid": 4,
            "FbpOnly": 8,
            "Silent": 8,
        }
        assert report.counters["sites_reporting_plain_visit"] == 28
        assert report.counters["sites_reporting_both_ids"] == 24
        assert CLOSURE_NOTE in report.notes

    def test_explicit_counts(self):
        report, _ = experiment_profiling(10, class_counts=[7, 1, 1, 1], seed=1)
        assert report.classes["Both"] == 7

    def test_wrong_number_of_classes_rejected(self):
        with pytest.raises(ValueError):
            experiment_profiling(10, [0.5, 0.5], seed=1)
        with pytest.raises(ValueError):
            experiment_expiration(10, policy_counts=[5, 5], seed=1)

    def test_counts_must_sum_to_site_total(self):
        with pytest.raises(ValueError, match="class counts do not sum"):
            experiment_profiling(5, class_counts=[1, 1, 1, 1], seed=1)


class TestExpiration:
    def test_observed_policies_match_configuration(self):
        counts = [4, 3, 3, 2, 2, 1]
        report, _ = experiment_expiration(15, policy_counts=counts, seed=1)
        assert list(report.classes.values()) == counts
        assert report.counters["creation_law_violations"] == 0
        assert report.counters["update_law_violations"] == 0

    @pytest.mark.parametrize("gap", [1, 6, 7, 30])
    def test_laws_hold_for_varied_gaps(self, gap):
        report, _ = experiment_expiration(
            12, policy_counts=[6, 2, 2, 1, 1, 0], gap_days=gap, seed=2
        )
        assert report.counters["creation_law_violations"] == 0
        assert report.counters["update_law_violations"] == 0
        assert report.classes["EveryEvent"] == 6


class TestExternalId:
    def test_observed_counts_match_configuration(self):
        report, _ = experiment_external_id(
            20, sharing_fraction=0.5, stable_fraction=0.6, seed=3,
            default_anonymous_fraction=0.2,
        )
        assert report.counters["observed_sharing"] == 10
        assert report.counters["observed_reidentified"] == 6
        assert report.counters["observed_incognito_default"] == 2


class TestPaperDefaults:
    def test_no_fraction_call_equals_explicit_call(self):
        pairs = [
            (
                experiment_profiling(40, seed=1),
                experiment_profiling(40, [0.923, 0.015, 0.039, 0.023], seed=1),
            ),
            (
                experiment_expiration(40, seed=1),
                experiment_expiration(
                    40,
                    [1942 / 2308, 172 / 2308, 115 / 2308, 57 / 2308, 17 / 2308, 5 / 2308],
                    seed=1,
                ),
            ),
            (
                experiment_external_id(40, seed=1),
                experiment_external_id(
                    40, 68 / 2308, 55 / 68, seed=1, default_anonymous_fraction=4 / 68
                ),
            ),
            (
                experiment_consent(40, seed=1),
                experiment_consent(40, 310 / 480, seed=1, interaction_gated_fraction=4 / 310),
            ),
        ]
        for (default, _), (explicit, _) in pairs:
            assert default.to_json() == explicit.to_json()


class TestPropagation:
    def test_default_fanout_shape(self):
        counts = default_fanout_counts(500)
        assert len(counts) == 500
        assert counts.count(0) == round(500 * 0.224)
        assert max(counts) == 31
        for n in range(200):
            assert len(default_fanout_counts(n)) == n

    def test_propagation_needs_a_site(self):
        with pytest.raises(ValueError, match="at least one site"):
            experiment_propagation(0)

    def test_variant_signatures_identical(self):
        report, results = experiment_propagation(30, {"second_hop_fanout": 2}, seed=4)
        sigs = report.site_flags
        assert sigs["real"] == sigs["random"] == sigs["dummy"]
        assert set(results) == {"real", "random", "dummy"}

    def test_variant_signatures_are_one_string(self):
        # Equal signatures are held once across the three variants.
        sigs = experiment_propagation(300)[0].site_flags
        for site, signature in sigs["real"].items():
            assert sigs["random"][site] is signature is sigs["dummy"][site], site

    def test_fanout_spec_takes_only_second_hop(self):
        for spec in ({"median": 3}, {"counts": [1] * 5}):
            with pytest.raises(ValueError, match="only second_hop_fanout"):
                experiment_propagation(5, spec, seed=0)


class TestConsent:
    def test_storage_counts_per_mode(self):
        report, _ = experiment_consent(
            20, noncompliant_fraction=0.5, seed=5, interaction_gated_fraction=0.2
        )
        assert report.counters["stored_AcceptAll"] == 20
        assert report.counters["stored_RejectAll"] == 10
        assert report.counters["stored_NoAction"] == 8

    def test_counting_creates_no_empty_jars(self):
        report, results = experiment_consent(20, seed=1)
        for mode, result in results.items():
            jars = result.world.browser("crawler").jars
            assert all(jar.entries for jar in jars.values()), mode
            assert len(jars) == report.counters[f"stored_{mode}"]


class TestFourDay:
    def test_links_and_history(self):
        result = run_four_day(seed=42)
        links = result.graph.resolve()
        assert len(links) == 1
        (site, _fbp), account = links[0]
        assert site == "www.travel.com"
        assert account == "U1234"
        history = result.graph.account_history("U1234")
        created = result.world.account("U1234").created_at
        assert [a.timestamp for a in history[:2]] == [1 * DAY_MS, 2 * DAY_MS]
        assert all(a.timestamp < created for a in history[:2])
