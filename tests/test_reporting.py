"""Metric aggregation: distributions, class tallies, comparisons."""

import pytest
from hypothesis import given, strategies as st

from pixelsim.cookies import EventName, EventReport, Fbclid
from pixelsim.errors import MissingMetric
from pixelsim.pixel import EmissionRecord
from pixelsim.reporting import (
    Distribution,
    ExpectedTable,
    MetricsReport,
    compare,
    destination_sets,
    tally_classes,
    third_party_distribution,
)


def record(site, hop=0, dest="tracker.example", fbc=None, clid=None):
    report = EventReport(
        pixel_id=f"px-{site}",
        event=EventName.PAGE_VIEW,
        page_url=f"https://{site}/",
        timestamp=1,
        destination=dest,
        fbp="fb.1.0.1",
        fbc=fbc,
        fbclid_param=Fbclid(clid) if clid else None,
    )
    return EmissionRecord(report=report, hop=hop, site=site, browser_id="b1")


class TestDistribution:
    def test_median_odd_is_middle(self):
        assert Distribution([5, 1, 9]).median == 5

    def test_median_even_is_mean_of_middles(self):
        assert Distribution([1, 2, 3, 10]).median == 2.5

    def test_min_max(self):
        d = Distribution([4, 0, 7])
        assert (d.min, d.max) == (0, 7)

    def test_cdf_counts_at_or_below(self):
        d = Distribution([0, 0, 2, 4])
        assert d.cdf(-1) == 0.0
        assert d.cdf(0) == 0.5
        assert d.cdf(2) == 0.75
        assert d.cdf(4) == 1.0

    def test_cdf_points_over_distinct_values(self):
        d = Distribution([1, 1, 3])
        assert d.cdf_points() == [(1, 2 / 3), (3, 1.0)]

    @given(
        samples=st.lists(st.integers(-5, 5), min_size=1, max_size=40),
        probe=st.integers(-7, 7),
    )
    def test_cdf_matches_brute_force_count(self, samples, probe):
        d = Distribution(samples)
        count = lambda x: sum(1 for s in samples if s <= x) / len(samples)
        assert d.cdf(probe) == count(probe)
        assert d.cdf_points() == [(x, count(x)) for x in sorted(set(samples))]


class TestTally:
    def test_hand_computed_partition(self):
        log = [
            record("both.example"),  # plain report
            record("both.example", fbc="fb.1.0.X"),  # clicked report
            record("clickonly.example", clid="X"),
            record("plain.example"),
        ]
        sites = ["both.example", "clickonly.example", "plain.example", "quiet.example"]
        assert tally_classes(log, sites) == {
            "Both": 1,
            "FbpOnlyWithFbclid": 1,
            "FbpOnly": 1,
            "Silent": 1,
        }

    def test_forwarded_hops_do_not_count(self):
        log = [record("a.example", hop=1, dest="tp.example")]
        assert tally_classes(log, ["a.example"])["Silent"] == 1


class TestDestinationSets:
    def test_exclusions_and_hop_split(self):
        site = "shop.example"
        log = [
            record(site, hop=1, dest="ads.partner.example"),
            record(site, hop=1, dest="metrics.shop.example"),  # own subdomain
            record(site, hop=1, dest="tracker.example"),  # the tracker
            record(site, hop=1, dest="sub.tracker.example"),
            record(site, hop=2, dest="exchange.example"),
            record(site, hop=2, dest="ads.partner.example"),  # reappears at hop 2
        ]
        sets = destination_sets(log, [site])
        assert sets[site][0] == {"ads.partner.example"}
        assert sets[site][1] == {"exchange.example", "ads.partner.example"}

    def test_distribution_scopes(self):
        site = "shop.example"
        log = [
            record(site, hop=1, dest="a.example"),
            record(site, hop=1, dest="a.example"),  # duplicate emission
            record(site, hop=1, dest="b.example"),
            record(site, hop=2, dest="c.example"),
        ]
        sites = [site, "empty.example"]
        unique = third_party_distribution(log, sites, "unique_first_hop")
        assert unique.samples == [0, 2]
        total = third_party_distribution(log, sites, "total_two_hop")
        assert total.samples == [0, 3]
        with pytest.raises(ValueError):
            third_party_distribution(log, sites, "bogus")


class TestCompare:
    def test_pass_and_fail_with_tolerance(self):
        report = MetricsReport(counters={"a": 10.0}, classes={"Both": 7})
        expected = ExpectedTable({"a": (10.4, 0.5), "Both": (5, 0)})
        results = compare(report, expected)
        assert ("a", True, pytest.approx(-0.4)) in results
        assert ("Both", False, 2) in results
        assert report.comparisons == results

    def test_missing_metric_raises(self):
        with pytest.raises(MissingMetric):
            compare(MetricsReport(), ExpectedTable({"nope": (1, 0)}))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            ExpectedTable({"a": (1, -0.1)})


class TestSerialization:
    def test_json_round_trip_and_stability(self):
        report = MetricsReport(
            counters={"b": 2, "a": 1},
            classes={"Both": 3},
            distributions={"d": [(1.0, 0.5), (2.0, 1.0)]},
            notes=["note"],
        )
        assert report.to_json() == report.to_json()
        assert '"a": 1' in report.to_json()

    def test_distribution_csv_shape(self):
        report = MetricsReport(distributions={"d": [(1.0, 0.5), (2.0, 1.0)]})
        lines = report.distribution_csv("d").strip().splitlines()
        assert lines[0] == "x,cdf"
        assert lines[1:] == ["1.0,0.5", "2.0,1.0"]
