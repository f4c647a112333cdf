"""Metric aggregation: distributions, class tallies, serialization."""

from hypothesis import given, strategies as st

from pixelsim.cookies import EventName, EventReport, Fbclid, TrackedUrl
from pixelsim.pixel import PageEmissions
from pixelsim.reporting import (
    Distribution,
    MetricsReport,
    destination_sets,
    tally_classes,
    third_party_distribution,
)


def report(site, dest="tracker.example", fbc=None, clid=None):
    return EventReport(
        pixel_id=f"px-{site}",
        event=EventName.PAGE_VIEW,
        page_url=TrackedUrl.parse(f"https://{site}/"),
        timestamp=1,
        destination=dest,
        fbp="fb.1.0.1",
        fbc=fbc,
        fbclid_param=Fbclid(clid) if clid else None,
    )


def page(site, hop0=None, fanout=(), clid=None):
    """One page event on ``site``: an optional hop-0 report and a fan-out of
    (hop-1 destination, its hop-2 destinations) pairs."""
    forwarded = report(site, dest="", clid=clid) if fanout else None
    return PageEmissions(site, "b1", hop0, forwarded, fanout)


class TestDistribution:
    def test_median_odd_is_middle(self):
        assert Distribution([5, 1, 9]).median == 5

    def test_median_even_is_mean_of_middles(self):
        assert Distribution([1, 2, 3, 10]).median == 2.5

    def test_min_max(self):
        d = Distribution([4, 0, 7])
        assert (d.samples[0], d.max) == (0, 7)

    def test_cdf_counts_at_or_below(self):
        d = Distribution([0, 0, 2, 4])
        assert dict(d.cdf_points()) == {0: 0.5, 2: 0.75, 4: 1.0}

    def test_cdf_points_over_distinct_values(self):
        d = Distribution([1, 1, 3])
        assert d.cdf_points() == [(1, 2 / 3), (3, 1.0)]

    @given(samples=st.lists(st.integers(-5, 5), min_size=1, max_size=40))
    def test_cdf_matches_brute_force_count(self, samples):
        d = Distribution(samples)
        count = lambda x: sum(1 for s in samples if s <= x) / len(samples)
        assert d.cdf_points() == [(x, count(x)) for x in sorted(set(samples))]


class TestTally:
    def test_hand_computed_partition(self):
        emissions = [
            page("both.example", report("both.example")),  # plain report
            page("both.example", report("both.example", fbc="fb.1.0.X")),  # clicked report
            page("clickonly.example", report("clickonly.example", clid="X")),
            page("plain.example", report("plain.example")),
            page("quiet.example"),  # the pixel did not run
        ]
        sites = ["both.example", "clickonly.example", "plain.example", "quiet.example"]
        assert tally_classes(emissions, sites) == {
            "Both": 1,
            "FbpOnlyWithFbclid": 1,
            "FbpOnly": 1,
            "Silent": 1,
        }

    def test_forwarded_hops_do_not_count(self):
        emissions = [page("a.example", fanout=(("tp.example", ()),), clid="X")]
        assert tally_classes(emissions, ["a.example"])["Silent"] == 1


class TestDestinationSets:
    def test_exclusions_and_hop_split(self):
        site = "shop.example"
        fanout = (
            ("ads.partner.example", ("exchange.example",)),
            ("metrics.shop.example", ()),  # own subdomain
            ("tracker.example", ("ads.partner.example",)),  # the tracker; reappears at hop 2
            ("sub.tracker.example", ()),
        )
        sets = destination_sets([page(site, report(site), fanout)], [site])
        assert sets[site][0] == {"ads.partner.example"}
        assert sets[site][1] == {"exchange.example", "ads.partner.example"}

    def test_distribution_scopes(self):
        site = "shop.example"
        emissions = [
            page(site, fanout=(("a.example", ()), ("b.example", ("c.example",)))),
            page(site, fanout=(("a.example", ()),)),  # a second visit, same destination
            page("elsewhere.example", fanout=(("d.example", ()),)),  # not a listed site
        ]
        sites = [site, "empty.example"]
        distributions = third_party_distribution(emissions, sites)
        assert {scope: d.samples for scope, d in distributions.items()} == {
            "unique_first_hop": [0, 2],
            "total_two_hop": [0, 3],
        }


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
