"""Identity graph: profiles, ledger joins, external-ID merges, anomalies."""

import json

import pytest
from hypothesis import given, strategies as st

from pixelsim.cookies import (
    EventName,
    EventReport,
    Fbclid,
    TrackedUrl,
    decode_report,
    encode_report,
)
from pixelsim.errors import MalformedReport, UnknownAccount
from pixelsim.scenarios import Scenario, Step, run
from pixelsim.social import PlatformFeed
from pixelsim.tracker import NO_EXTERNAL_IDS, Activity, IdentityGraph
from pixelsim.world import SiteConfig
from helpers import external_id_components, random_scenario

SITE = "shop.example"


def make_report(ts: int, fbp="fb.1.0.42", fbc=None, ext=None, clid=None, site=SITE):
    return EventReport(
        pixel_id=f"px-{site}",
        event=EventName.PAGE_VIEW,
        page_url=TrackedUrl.parse(f"https://{site}/"),
        timestamp=ts,
        destination="tracker.example",
        fbp=fbp,
        fbc=fbc,
        fbclid_param=Fbclid(clid) if clid else None,
        external_id=ext,
    )


def feed_with_click(account="u1", element="ad-card", target=SITE, tick=0):
    feed = PlatformFeed(seed=3)
    load = feed.refresh_click_ids(account, tick=tick)
    _, entry = feed.decorate_outbound(
        load, TrackedUrl.parse(f"https://{target}/"), element
    )
    return feed, entry


class TestProfiles:
    def test_reports_with_same_fbp_share_a_profile(self):
        graph = IdentityGraph(PlatformFeed(seed=0))
        graph.ingest(make_report(1))
        graph.ingest(make_report(2))
        assert len(graph.profiles()) == 1
        profile = graph.profile((SITE, "fb.1.0.42"))
        assert [a.timestamp for a in profile.activity] == [1, 2]

    def test_same_fbp_value_on_other_site_is_another_profile(self):
        graph = IdentityGraph(PlatformFeed(seed=0))
        graph.ingest(make_report(1))
        graph.ingest(make_report(2, site="other.example"))
        assert len(graph.profiles()) == 2

    def test_duplicate_wire_report_ignored(self):
        # The resent report is the same value, or a copy decoded off the wire.
        for resent in (make_report(1), decode_report(encode_report(make_report(1)))):
            graph = IdentityGraph(PlatformFeed(seed=0))
            first = graph.ingest(make_report(1))
            second = graph.ingest(resent)
            assert not first.duplicate and second.duplicate
            assert len(graph.profile((SITE, "fb.1.0.42")).activity) == 1

    def test_identifier_free_report_is_orphaned(self):
        graph = IdentityGraph(PlatformFeed(seed=0))
        outcome = graph.ingest(make_report(1, fbp=None))
        assert outcome.orphan
        assert graph.orphans == 1
        assert graph.profiles() == []


class TestMalformedReports:
    def test_malformed_fbc_is_rejected_without_partial_state(self):
        feed, entry = feed_with_click()
        graph = IdentityGraph(click_ledger=feed)
        empty = graph.dump()
        with pytest.raises(MalformedReport):
            graph.ingest(make_report(1, fbc="fb.1.2", ext="ext-a"))
        assert graph.dump() == empty
        graph.ingest(make_report(1, fbc=f"fb.1.2.{entry.fbclid.value}", ext="ext-a"))
        assert len(graph.profile((SITE, "fb.1.0.42")).activity) == 1

    def test_malformed_fbp_is_rejected_on_every_retry(self):
        graph = IdentityGraph(PlatformFeed(seed=0))
        for _ in range(2):
            with pytest.raises(MalformedReport):
                graph.ingest(make_report(1, fbp="fb.1.x.42"))
        assert graph.profiles() == []
        assert not graph.ingest(make_report(1)).duplicate

    def test_over_long_fbp_segment_is_rejected_without_partial_state(self):
        graph = IdentityGraph(PlatformFeed(seed=0))
        with pytest.raises(MalformedReport):
            graph.ingest(make_report(1, fbp="fb.1.0." + "9" * 5000))
        assert graph.dump() == IdentityGraph(PlatformFeed(seed=0)).dump()


class TestLedgerJoin:
    def test_click_id_links_profile_to_account(self):
        feed, entry = feed_with_click()
        graph = IdentityGraph(click_ledger=feed)
        graph.ingest(make_report(1))  # anonymous history
        graph.ingest(make_report(2, fbc=f"fb.1.2.{entry.fbclid.value}"))
        assert graph.resolve() == [((SITE, "fb.1.0.42"), "u1")]

    def test_link_is_retroactive_over_prior_activity(self):
        feed, entry = feed_with_click()
        graph = IdentityGraph(click_ledger=feed)
        graph.known_accounts.add("u1")
        graph.ingest(make_report(1))
        graph.ingest(make_report(5))
        graph.ingest(make_report(9, clid=entry.fbclid.value))
        history = graph.account_history("u1")
        assert [a.timestamp for a in history] == [1, 5, 9]

    def test_unknown_click_id_links_nothing(self):
        graph = IdentityGraph(click_ledger=PlatformFeed(seed=3))
        graph.ingest(make_report(1, clid="NeverIssued"))
        assert graph.resolve() == []

    def test_bare_parameter_joins_like_the_cookie(self):
        feed, entry = feed_with_click()
        graph = IdentityGraph(click_ledger=feed)
        graph.ingest(make_report(1, clid=entry.fbclid.value))
        assert graph.resolve() == [((SITE, "fb.1.0.42"), "u1")]

    def test_reused_id_prefers_issuance_targeting_the_site(self):
        feed = PlatformFeed(seed=3)
        load = feed.refresh_click_ids("u1", tick=0)
        feed.decorate_outbound(load, TrackedUrl.parse(f"https://{SITE}/"), "ad-card")
        other_load = feed.refresh_click_ids("u2", tick=1)
        # u2's distinct click targets another origin; a report from SITE
        # carrying u1's ID must join to u1 even though u2 clicked later.
        feed.decorate_outbound(
            other_load, TrackedUrl.parse("https://elsewhere.example/"), "ad-card"
        )
        value = feed.click_id(load, 0).value
        graph = IdentityGraph(click_ledger=feed)
        graph.ingest(make_report(2, clid=value))
        assert graph.resolve() == [((SITE, "fb.1.0.42"), "u1")]

    def test_first_link_wins_and_conflict_is_flagged(self):
        feed = PlatformFeed(seed=3)
        load1 = feed.refresh_click_ids("u1", tick=0)
        _, e1 = feed.decorate_outbound(load1, TrackedUrl.parse(f"https://{SITE}/"), "a")
        load2 = feed.refresh_click_ids("u2", tick=1)
        _, e2 = feed.decorate_outbound(load2, TrackedUrl.parse(f"https://{SITE}/"), "a")
        graph = IdentityGraph(click_ledger=feed)
        graph.ingest(make_report(2, clid=e1.fbclid.value))
        graph.ingest(make_report(3, clid=e2.fbclid.value))
        assert graph.resolve() == [((SITE, "fb.1.0.42"), "u1")]
        assert [a.kind for a in graph.anomalies] == ["conflicting-link"]


class TestExternalIds:
    def test_merge_across_cookie_loss(self):
        graph = IdentityGraph(PlatformFeed(seed=0))
        graph.ingest(make_report(1, fbp="fb.1.0.1", ext="ext-a"))
        outcome = graph.ingest(make_report(2, fbp="fb.1.9.2", ext="ext-a"))
        assert outcome.merged
        assert len(graph.profiles()) == 1
        profile = graph.profile((SITE, "fb.1.0.1"))
        assert profile is graph.profile((SITE, "fb.1.9.2"))
        assert [a.timestamp for a in profile.activity] == [1, 2]

    def test_merge_keeps_equal_timestamps_in_arrival_order(self):
        graph = IdentityGraph(PlatformFeed(seed=0))
        graph.ingest(make_report(5, fbp="fb.1.0.1", ext="ext-a"))
        graph.ingest(make_report(7, fbp="fb.1.0.1"))
        graph.ingest(make_report(5, fbp="fb.1.9.2"))
        kept = graph.profile((SITE, "fb.1.0.1")).activity[0]
        absorbed = graph.profile((SITE, "fb.1.9.2")).activity[0]
        assert kept == absorbed and kept is not absorbed  # equal sort keys
        outcome = graph.ingest(make_report(6, fbp="fb.1.9.2", ext="ext-a"))
        assert outcome.merged
        profile = graph.profile((SITE, "fb.1.0.1"))
        assert profile is graph.profile((SITE, "fb.1.9.2"))
        assert [a.timestamp for a in profile.activity] == [5, 5, 6, 7]
        # The surviving profile's activity comes first among equals.
        assert profile.activity[0] is kept and profile.activity[1] is absorbed
        assert profile.keys[0] == (SITE, "fb.1.0.1")

    def test_new_cookie_joins_the_bound_profile(self):
        graph = IdentityGraph(PlatformFeed(seed=0))
        graph.ingest(make_report(5, fbp="fb.1.0.3", ext="ext-a"))
        graph.ingest(make_report(5, fbp="fb.1.0.1", ext="ext-a"))
        bound = graph.profile((SITE, "fb.1.0.3"))
        arrived = list(bound.activity)
        outcome = graph.ingest(make_report(5, fbp="fb.1.0.2", ext="ext-a"))
        assert outcome.merged
        assert outcome.profile_key == (SITE, "fb.1.0.1")  # the bound profile's smallest key
        assert graph.profiles() == [bound]
        assert graph.profile((SITE, "fb.1.0.2")) is bound
        assert bound.keys == [(SITE, "fb.1.0.1"), (SITE, "fb.1.0.2"), (SITE, "fb.1.0.3")]
        # Equal activities stay in arrival order, the new one last.
        assert len(bound.activity) == 3
        assert all(a is b for a, b in zip(bound.activity, arrived))
        assert bound.activity[2] == arrived[0] and bound.activity[2] is not arrived[0]

    def test_binding_of_an_absorbed_profile_follows_the_merge(self):
        graph = IdentityGraph(PlatformFeed(seed=0))
        graph.ingest(make_report(1, fbp="fb.1.0.1", ext="ext-a"))
        graph.ingest(make_report(2, fbp="fb.1.0.2", ext="ext-b"))
        assert graph.ingest(make_report(3, fbp="fb.1.0.2", ext="ext-a")).merged
        outcome = graph.ingest(make_report(4, fbp=None, ext="ext-b"))
        assert outcome.profile_key == (SITE, "fb.1.0.1")
        assert len(graph.profiles()) == 1

    def test_keys_arriving_in_decreasing_order_stay_sorted(self):
        graph = IdentityGraph(PlatformFeed(seed=0))

        def ingest(ts, fbp, ext):
            outcome = graph.ingest(make_report(ts, fbp=fbp, ext=ext))
            keys = graph.profile(outcome.profile_key).keys
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert outcome.profile_key == keys[0]
            return outcome

        # Each new, smaller cookie joins its profile through the external ID.
        for ts, fbp in enumerate(("fb.1.0.9", "fb.1.0.7", "fb.1.0.5")):
            ingest(ts, fbp, "ext-a")
        for ts, fbp in enumerate(("fb.1.0.8", "fb.1.0.6", "fb.1.0.4"), start=3):
            ingest(ts, fbp, "ext-b")
        survivor = graph.profile((SITE, "fb.1.0.9"))
        absorbed = graph.profile((SITE, "fb.1.0.8"))
        assert survivor is not absorbed
        # A known cookie of the second profile carrying the first one's ID
        # folds the second into the first.
        assert ingest(6, "fb.1.0.8", "ext-a").merged
        assert survivor.keys == [(SITE, f"fb.1.0.{n}") for n in range(4, 10)]
        assert all(graph.profile((SITE, f"fb.1.0.{n}")) is survivor for n in (4, 6, 8))
        assert graph.profiles() == [survivor]
        outcome = graph.ingest(make_report(7, fbp=None, ext="ext-b"))
        assert outcome.profile_key == (SITE, "fb.1.0.4")
        assert graph.profile(outcome.profile_key) is survivor

    def test_merge_leaves_the_absorbed_set_unchanged(self):
        graph = IdentityGraph(PlatformFeed(seed=0))
        graph.ingest(make_report(1, fbp="fb.1.0.1", ext="ext-a"))
        graph.ingest(make_report(2, fbp="fb.1.0.2", ext="ext-b"))
        absorbed = graph.profile((SITE, "fb.1.0.2"))
        held = absorbed.external_ids
        assert graph.ingest(make_report(3, fbp="fb.1.0.2", ext="ext-a")).merged
        assert absorbed.external_ids is held and held == {"ext-b"}
        assert graph.profile((SITE, "fb.1.0.2")).external_ids == {"ext-a", "ext-b"}

    def test_profiles_without_an_external_id_share_one_set(self):
        # A profile's set is immutable, so every empty one is the default.
        for seed in range(50):
            for profile in run(random_scenario(seed)).graph.profiles():
                assert type(profile.external_ids) is frozenset, seed
                if not profile.external_ids:
                    assert profile.external_ids is NO_EXTERNAL_IDS, seed

    def test_rotated_external_id_does_not_merge(self):
        graph = IdentityGraph(PlatformFeed(seed=0))
        graph.ingest(make_report(1, fbp="fb.1.0.1", ext="ext-a"))
        graph.ingest(make_report(2, fbp="fb.1.9.2", ext="ext-b"))
        assert len(graph.profiles()) == 2

    def test_empty_external_id_merges_nothing(self):
        # A wire "ud[external_id]=" decodes to ""; like has_identifier, ingest treats it as absent.
        graph = IdentityGraph(PlatformFeed(seed=0))
        for ts, fbp in ((1, "fb.1.0.1"), (2, "fb.1.9.2")):
            report = decode_report(encode_report(make_report(ts, fbp=fbp, ext="")))
            assert report.external_id == ""
            assert not graph.ingest(report).merged
        assert len(graph.profiles()) == 2
        assert all(not p.external_ids for p in graph.profiles())

    def test_external_id_scoped_per_site(self):
        graph = IdentityGraph(PlatformFeed(seed=0))
        graph.ingest(make_report(1, fbp="fb.1.0.1", ext="ext-a"))
        graph.ingest(make_report(2, fbp="fb.1.9.2", ext="ext-a", site="other.example"))
        assert len(graph.profiles()) == 2

    def test_cookieless_report_resolves_through_external_id(self):
        graph = IdentityGraph(PlatformFeed(seed=0))
        graph.ingest(make_report(1, fbp="fb.1.0.1", ext="ext-a"))
        outcome = graph.ingest(make_report(2, fbp=None, ext="ext-a"))
        assert outcome.profile_key == (SITE, "fb.1.0.1")

    def test_unknown_cookieless_external_id_matches_nothing(self):
        graph = IdentityGraph(PlatformFeed(seed=0))
        outcome = graph.ingest(make_report(1, fbp=None, ext="ext-new"))
        assert outcome.profile_key is None
        assert graph.profiles() == []

    def test_merge_carries_account_link(self):
        feed, entry = feed_with_click()
        graph = IdentityGraph(click_ledger=feed)
        graph.ingest(make_report(1, fbp="fb.1.0.1", ext="ext-a", clid=entry.fbclid.value))
        graph.ingest(make_report(2, fbp="fb.1.9.2", ext="ext-a"))
        assert graph.resolve() == [
            ((SITE, "fb.1.0.1"), "u1"),
            ((SITE, "fb.1.9.2"), "u1"),
        ]

    def test_merge_refused_on_conflicting_accounts(self):
        feed = PlatformFeed(seed=3)
        load1 = feed.refresh_click_ids("u1", tick=0)
        _, e1 = feed.decorate_outbound(load1, TrackedUrl.parse(f"https://{SITE}/"), "a")
        load2 = feed.refresh_click_ids("u2", tick=1)
        _, e2 = feed.decorate_outbound(load2, TrackedUrl.parse(f"https://{SITE}/"), "a")
        graph = IdentityGraph(click_ledger=feed)
        graph.ingest(make_report(1, fbp="fb.1.0.1", clid=e1.fbclid.value))
        graph.ingest(make_report(2, fbp="fb.1.9.2", clid=e2.fbclid.value))
        graph.ingest(make_report(3, fbp="fb.1.0.1", ext="ext-a"))
        graph.ingest(make_report(4, fbp="fb.1.9.2", ext="ext-a"))
        assert len(graph.profiles()) == 2
        assert any(a.kind == "conflicting-merge" for a in graph.anomalies)
        assert sorted(graph.resolve()) == [
            ((SITE, "fb.1.0.1"), "u1"),
            ((SITE, "fb.1.9.2"), "u2"),
        ]
        # The refused merge leaves the ID bound to the profile that carried it last.
        outcome = graph.ingest(make_report(5, fbp=None, ext="ext-a"))
        assert outcome.profile_key == (SITE, "fb.1.9.2")
        assert outcome.linked_account == "u2"


class TestQueries:
    def test_account_history_requires_known_account(self):
        graph = IdentityGraph(PlatformFeed(seed=0))
        with pytest.raises(UnknownAccount, match="^unknown account 'ghost'$"):
            graph.account_history("ghost")

    def test_history_merges_profiles_sorted_by_time(self):
        feed = PlatformFeed(seed=3)
        load = feed.refresh_click_ids("u1", tick=0)
        _, e1 = feed.decorate_outbound(load, TrackedUrl.parse(f"https://{SITE}/"), "a")
        _, e2 = feed.decorate_outbound(
            load, TrackedUrl.parse("https://other.example/"), "b"
        )
        graph = IdentityGraph(click_ledger=feed)
        graph.known_accounts.add("u1")
        graph.ingest(make_report(5, fbp="fb.1.0.1", clid=e1.fbclid.value))
        graph.ingest(
            make_report(3, fbp="fb.1.0.2", clid=e2.fbclid.value, site="other.example")
        )
        assert [a.timestamp for a in graph.account_history("u1")] == [3, 5]

    def test_equal_timestamps_order_by_site_then_event_then_url(self):
        other = "other.example"
        feed = PlatformFeed(seed=3)
        load = feed.refresh_click_ids("u1", tick=0)
        clid = {}
        for site in (SITE, other):
            _, entry = feed.decorate_outbound(load, TrackedUrl.parse(f"https://{site}/"), "a")
            clid[site] = entry.fbclid.value
        graph = IdentityGraph(click_ledger=feed)
        graph.known_accounts.add("u1")
        graph.ingest(make_report(5, fbp="fb.1.0.1", clid=clid[SITE]))
        base = make_report(5, fbp="fb.1.0.2", clid=clid[other], site=other)
        for event, path in ((EventName.PAGE_VIEW, ""), (EventName.ADD_TO_CART, "z"),
                            (EventName.ADD_TO_CART, "a")):
            page_url = TrackedUrl.parse(f"https://{other}/{path}")
            graph.ingest(base._replace(event=event, page_url=page_url))

        expected = [
            (5, other, "AddToCart", f"https://{other}/a"),
            (5, other, "AddToCart", f"https://{other}/z"),
            (5, other, "PageView", f"https://{other}/"),
            (5, SITE, "PageView", f"https://{SITE}/"),
        ]
        assert graph.account_history("u1") == expected
        dumped = graph.dump()["profiles"]
        assert dumped[0]["activity"] is not graph.profile((other, "fb.1.0.2")).activity
        assert [p["activity"] for p in json.loads(json.dumps(dumped))] == [
            [list(a) for a in expected[:3]],
            [list(expected[3])],
        ]

    def test_dump_is_deterministic(self):
        def build():
            graph = IdentityGraph(PlatformFeed(seed=0))
            graph.ingest(make_report(2, fbp="fb.1.0.2"))
            graph.ingest(make_report(1, fbp="fb.1.0.1", ext="ext-a"))
            return graph.dump()

        assert build() == build()


class TestInvariants:
    FBPS = ["fb.1.0.1", "fb.1.0.2", "fb.1.0.3", "fb.1.0.4", None]
    SITES = [SITE, "other.example"]

    @given(
        reports=st.lists(
            st.tuples(
                st.integers(0, 20),  # timestamp; ties and late arrivals
                st.sampled_from(FBPS),
                st.sampled_from(SITES),
                st.sampled_from(["ext-a", "ext-b", "ext-c", None]),
                st.sampled_from([0, 1, None]),  # click issued to u1, u2, or none
            ),
            max_size=40,
        )
    )
    def test_ingest_and_merge_keep_the_graph_consistent(self, reports):
        feed = PlatformFeed(seed=3)
        target = TrackedUrl.parse(f"https://{SITE}/")
        clicks = [
            feed.decorate_outbound(feed.refresh_click_ids(account, tick=0), target, "a")[1]
            for account in ("u1", "u2")
        ]
        graph = IdentityGraph(click_ledger=feed)
        received: dict[tuple[str, str], list[Activity]] = {}
        for ts, fbp, site, ext, click in reports:
            clid = clicks[click].fbclid.value if click is not None else None
            outcome = graph.ingest(make_report(ts, fbp=fbp, ext=ext, clid=clid, site=site))
            if fbp is not None and not outcome.duplicate:
                received.setdefault((site, fbp), []).append(
                    Activity(ts, site, EventName.PAGE_VIEW.value, f"https://{site}/")
                )

        live = graph.profiles()
        assert len(set(live)) == len(live)  # no profile listed twice
        for profile in live:
            got = [a for key in profile.keys for a in received[key]]
            assert profile.activity == sorted(got)
            assert profile.keys == sorted(set(profile.keys))
        for key in received:
            assert [p for p in live if key in p.keys] == [graph.profile(key)]
        assert sum(len(p.keys) for p in live) == len(received)
        dumped = graph.dump()["profiles"]
        assert sorted(key for p in dumped for key in p["keys"]) == sorted(
            f"{site}|{fbp}" for site, fbp in received
        )
        assert len(dumped) == len(live)

    @given(
        reports=st.lists(
            st.tuples(
                st.integers(0, 5),  # timestamp; ties and late arrivals
                st.sampled_from(["fb.1.0.1", "fb.1.0.2", "fb.1.0.3", "fb.1.0.4", None]),
                st.sampled_from([SITE, "other.example", "third.example"]),
                st.sampled_from(["ext-a", "ext-b", "", None]),
            ),
            max_size=30,
        )
    )
    def test_external_id_joins_match_a_union_find(self, reports):
        graph = IdentityGraph(PlatformFeed(seed=0))
        sent = [make_report(ts, fbp=fbp, ext=ext, site=site) for ts, fbp, site, ext in reports]
        for report in sent:
            graph.ingest(report)
        live = graph.profiles()
        assert {frozenset(p.keys) for p in live} == external_id_components(sent)
        received = [r for r in dict.fromkeys(sent) if r.fbp is not None]  # duplicates dropped
        for profile in live:
            expected = [
                Activity(r.timestamp, r.page_url.origin, r.event.value, r.page_url.serialize())
                for r in received if (r.page_url.origin, r.fbp) in profile.keys
            ]
            assert profile.activity == sorted(expected)

    @pytest.mark.parametrize("shared_ids", [False, True], ids=["site-ids", "shared-ids"])
    def test_profile_keys_share_a_site_and_dump_in_order(self, shared_ids):
        # dump writes a profile's keys in the order the profile keeps them,
        # which is their sorted order as strings only while they share a
        # site.  With shared_ids a browser's external ID is the same on every
        # site, as a hashed e-mail address would be, so only the per-site
        # external-ID binding keeps each profile on one site.
        for seed in range(50):
            result = run(random_scenario(seed))
            graph = result.graph
            if shared_ids:
                graph = IdentityGraph(click_ledger=result.feed)
                for page in result.emissions:
                    report = page.report
                    if report is None:
                        continue
                    if report.external_id is not None:
                        report = report._replace(external_id=f"id-{page.browser_id}")
                    graph.ingest(report)
            for profile in graph.profiles():
                assert len({site for site, _ in profile.keys}) == 1, seed
            for dumped in graph.dump()["profiles"]:
                assert dumped["keys"] == sorted(dumped["keys"]), seed


class _Unshared(dict):
    """A page-text table that keeps nothing, so every activity serializes its page."""

    def __setitem__(self, key, value):
        pass


class TestPageText:
    def test_pages_without_a_query_share_one_text(self):
        extras = (("utm_source", "feed"), ("q", "a b"))
        scenario = Scenario(
            seed=1,
            sites=[SiteConfig(domain=SITE)],
            browsers=[{"id": "b1"}],
            steps=[
                Step(10, "Visit", {"browser": "b1", "site": SITE}),
                Step(20, "Visit", {"browser": "b1", "site": SITE}),
                Step(30, "Visit", {"browser": "b1", "site": SITE,
                                   "url_extras": [list(pair) for pair in extras]}),
            ],
        )
        (profile,) = run(scenario).graph.profiles()
        first, second, with_query = (a.page_url for a in profile.activity)
        assert first is second
        assert first == f"https://{SITE}/"
        assert with_query == TrackedUrl(SITE, query=extras).serialize()

    def test_sharing_leaves_the_dump_unchanged(self):
        for seed in range(50):
            result = run(random_scenario(seed))
            reports = [page.report for page in result.emissions if page.report is not None]
            unshared = IdentityGraph(click_ledger=result.feed)
            unshared._page_text = _Unshared()
            for report in reports:
                unshared.ingest(report)
            expected = json.dumps(unshared.dump(), sort_keys=True, indent=2)
            assert json.dumps(result.graph.dump(), sort_keys=True, indent=2) == expected, seed
