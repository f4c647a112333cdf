"""Pixel behavior: cookie writes, rolling expiration, reporting, propagation."""

import pytest

from pixelsim.cookies import EventName, TrackedUrl, parse_fbc, parse_fbp
from pixelsim.experiments import experiment_propagation
from pixelsim.pixel import FBC_NAME, FBP_NAME, EmissionRecord, PageEmissions, on_page_event
from pixelsim.scenarios import run
from pixelsim.world import (
    COOKIE_LIFETIME_MS,
    DAY_MS,
    TRACKER_DOMAIN,
    Browser,
    ConsentMode,
    ExpirationPolicy,
    ReportingClass,
    SiteConfig,
    World,
)
from helpers import bfs_destination_oracle, forwarding_reference, random_scenario

SITE = "www.shoes.com"


def make_world(consent_mode=ConsentMode.ACCEPT_ALL, **site_kwargs) -> World:
    return World(1, [SiteConfig(domain=SITE, **site_kwargs)], [Browser("b1")], consent_mode)


def visit(
    world: World, url: str | None = None, reload: bool = False,
    event: EventName = EventName.PAGE_VIEW,
) -> list[EmissionRecord]:
    """Browser b1 loads ``url`` (the site's front page by default); returns
    its emissions expanded to one record per destination."""
    tracked = TrackedUrl.parse(url or f"https://{SITE}/")
    return list(on_page_event(world, "b1", tracked, event, reload))


def jar(world: World):
    return world.browser("b1").jar(SITE)


def expiry_after_revisit(policy, url=None, reload=False, **site_kwargs) -> int:
    """The _fbp expiry after a first visit and, a day later, a visit to ``url``."""
    world = make_world(expiration_policy=policy, **site_kwargs)
    visit(world)
    world.now += DAY_MS
    visit(world, url, reload=reload)
    return jar(world).entries[FBP_NAME].expires


CLICK_URL = f"https://{SITE}/?fbclid=XYZ"


class TestVisitKinds:
    """A revisit a day later renews _fbp only where its policy says so."""

    RENEWS = {
        ExpirationPolicy.EVERY_EVENT: {"visit", "reload", "click"},
        ExpirationPolicy.NEVER: set(),
        ExpirationPolicy.ONLY_FBCLID: {"click"},
        ExpirationPolicy.ONLY_RELOAD: {"reload"},
        ExpirationPolicy.ROTATE_VALUE: {"visit", "reload", "click"},
    }
    KINDS = {"visit": (None, False), "reload": (None, True), "click": (CLICK_URL, False)}

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("policy", list(RENEWS), ids=lambda p: p.value)
    def test_each_kind_gets_its_policy_expiry(self, policy, kind):
        expires = expiry_after_revisit(policy, *self.KINDS[kind])
        renewed = kind in self.RENEWS[policy]
        assert expires == (91 * DAY_MS if renewed else COOKIE_LIFETIME_MS)

    def test_click_id_wins_over_reload_flag(self):
        """A reload whose URL carries fbclid is a click visit, not a reload."""
        only_fbclid = expiry_after_revisit(ExpirationPolicy.ONLY_FBCLID, CLICK_URL, True)
        only_reload = expiry_after_revisit(ExpirationPolicy.ONLY_RELOAD, CLICK_URL, True)
        assert only_fbclid == 91 * DAY_MS
        assert only_reload == COOKIE_LIFETIME_MS


class TestCookieCreation:
    def test_first_visit_writes_fbp(self):
        world = make_world()
        world.now += 1234
        emissions = visit(world)
        entry = jar(world).read_entry(FBP_NAME, world.now)
        cookie = parse_fbp(entry.value)
        assert cookie.subdomain_index == 2  # www.shoes.com relative to com
        assert cookie.creation_time == 1234
        assert entry.expires == 1234 + COOKIE_LIFETIME_MS
        assert len(emissions) == 1
        report = emissions[0].report
        assert report.destination == TRACKER_DOMAIN
        assert report.fbp == entry.value
        assert report.fbc is None

    def test_fbp_stable_across_visits(self):
        world = make_world()
        first = visit(world)
        world.now += DAY_MS
        second = visit(world)
        assert first[0].report.fbp == second[0].report.fbp

    def test_click_id_visit_writes_fbc(self):
        world = make_world()
        world.now += 77
        emissions = visit(world, f"https://{SITE}/?fbclid=SomeClickId")
        raw = jar(world).read(FBC_NAME, world.now)
        cookie = parse_fbc(raw)
        assert cookie.fbclid.value == "SomeClickId"
        assert cookie.creation_time == 77
        report = emissions[0].report
        assert report.fbc == raw
        assert report.fbp is not None

    def test_fbc_refreshed_on_each_click_id(self):
        world = make_world()
        visit(world, f"https://{SITE}/?fbclid=First")
        world.now += 10
        visit(world, f"https://{SITE}/?fbclid=Second")
        cookie = parse_fbc(jar(world).read(FBC_NAME, world.now))
        assert cookie.fbclid.value == "Second"
        assert cookie.creation_time == 10

    def test_no_pixel_does_nothing(self):
        world = make_world(expiration_policy=ExpirationPolicy.BLOCKED)
        assert visit(world) == []
        assert jar(world).read(FBP_NAME, 0) is None


class TestReportingClasses:
    def test_silent_never_reports(self):
        world = make_world(reporting_class=ReportingClass.SILENT)
        assert visit(world) == []
        emissions = visit(world, f"https://{SITE}/?fbclid=X")
        assert emissions == []
        # The pixel still runs: cookies exist even though nothing is sent.
        assert jar(world).read(FBP_NAME, 0) is not None

    def test_fbp_only_with_fbclid_reports_only_on_click(self):
        world = make_world(reporting_class=ReportingClass.FBP_ONLY_WITH_FBCLID)
        assert visit(world) == []
        world.now += 1
        emissions = visit(world, f"https://{SITE}/?fbclid=X")
        assert len(emissions) == 1
        assert emissions[0].report.fbc is not None

    @pytest.mark.parametrize(
        "reporting_class", [ReportingClass.BOTH, ReportingClass.FBP_ONLY_WITH_FBCLID]
    )
    def test_click_report_carries_click_id_only_in_fbc(self, reporting_class):
        world = make_world(reporting_class=reporting_class)
        report = visit(world, f"https://{SITE}/?fbclid=X")[0].report
        assert parse_fbc(report.fbc).fbclid.value == "X"
        assert report.fbclid_param is None

    def test_fbp_only_drops_click_id_material(self):
        world = make_world(reporting_class=ReportingClass.FBP_ONLY)
        emissions = visit(world, f"https://{SITE}/?fbclid=X")
        report = emissions[0].report
        assert report.fbp is not None
        assert report.fbc is None
        assert report.fbclid_param is None

    def test_untracked_event_sends_no_report(self):
        world = make_world(tracked_events=frozenset({EventName.PURCHASE}))
        assert visit(world) == []
        emissions = visit(world, event=EventName.PURCHASE)
        assert len(emissions) == 1
        assert emissions[0].report.event is EventName.PURCHASE


class TestStripping:
    def test_stripper_reports_fbp_only_and_keeps_no_fbc(self):
        world = make_world(
            strips_fbclid=True,
            first_hop_third_parties=("ads.partner.example",),
        )
        emissions = visit(world, f"https://{SITE}/?fbclid=X")
        assert jar(world).read(FBC_NAME, 0) is None
        by_hop = {e.hop: e.report for e in emissions}
        assert by_hop[0].fbc is None and by_hop[0].fbclid_param is None
        assert by_hop[0].fbp is not None
        # The third party is still contacted, but without the click ID.
        assert by_hop[1].fbclid_param is None

    def test_stripped_click_does_not_renew_under_only_fbclid(self):
        expires = expiry_after_revisit(
            ExpirationPolicy.ONLY_FBCLID, CLICK_URL, strips_fbclid=True
        )
        assert expires == COOKIE_LIFETIME_MS

    def test_stripped_click_reload_renews_under_only_reload(self):
        expires = expiry_after_revisit(
            ExpirationPolicy.ONLY_RELOAD, CLICK_URL, reload=True, strips_fbclid=True
        )
        assert expires == 91 * DAY_MS


class TestConsent:
    @pytest.mark.parametrize("mode", [ConsentMode.REJECT_ALL, ConsentMode.NO_ACTION])
    def test_compliant_site_blocked_without_acceptance(self, mode):
        world = make_world(mode, consent_compliant=True)
        assert visit(world) == []
        assert jar(world).read(FBP_NAME, 0) is None

    def test_compliant_site_active_under_acceptance(self):
        world = make_world(consent_compliant=True)
        assert len(visit(world)) == 1

    @pytest.mark.parametrize(
        "mode", [ConsentMode.ACCEPT_ALL, ConsentMode.REJECT_ALL, ConsentMode.NO_ACTION]
    )
    def test_noncompliant_site_ignores_consent(self, mode):
        world = make_world(mode, consent_compliant=False)
        assert len(visit(world)) == 1

    def test_interaction_gated_site_dead_only_under_no_action(self):
        for mode, expect in [
            (ConsentMode.ACCEPT_ALL, 1),
            (ConsentMode.REJECT_ALL, 1),
            (ConsentMode.NO_ACTION, 0),
        ]:
            world = make_world(mode, consent_requires_interaction=True)
            assert len(visit(world)) == expect


class TestExpirationPolicies:
    def _expiry(self, world):
        return jar(world).entries[FBP_NAME].expires

    def test_every_event_follows_rolling_law(self):
        """Revisit on day j: expiry becomes creation tick + (90 + j - i) days."""
        for gap in (1, 6, 7, 30):
            world = make_world(expiration_policy=ExpirationPolicy.EVERY_EVENT)
            visit(world)
            assert self._expiry(world) == COOKIE_LIFETIME_MS
            world.now += gap * DAY_MS
            visit(world)
            assert self._expiry(world) == (90 + gap) * DAY_MS

    def test_never_keeps_original_expiry(self):
        world = make_world(expiration_policy=ExpirationPolicy.NEVER)
        visit(world)
        world.now += 5 * DAY_MS
        visit(world)
        assert self._expiry(world) == COOKIE_LIFETIME_MS

    def test_expired_fbp_is_recreated(self):
        world = make_world(expiration_policy=ExpirationPolicy.NEVER)
        first = visit(world)[0].report.fbp
        world.now += COOKIE_LIFETIME_MS  # exactly at expiry: gone
        second = visit(world)[0].report.fbp
        assert first != second
        assert parse_fbp(second).creation_time == COOKIE_LIFETIME_MS

    def test_only_fbclid_updates_on_click_visits_alone(self):
        world = make_world(expiration_policy=ExpirationPolicy.ONLY_FBCLID)
        visit(world)
        world.now += DAY_MS
        visit(world)
        visit(world, reload=True)
        assert self._expiry(world) == COOKIE_LIFETIME_MS
        visit(world, f"https://{SITE}/?fbclid=X")
        assert self._expiry(world) == 91 * DAY_MS

    def test_only_reload_updates_on_reloads_alone(self):
        world = make_world(expiration_policy=ExpirationPolicy.ONLY_RELOAD)
        visit(world)
        world.now += DAY_MS
        visit(world)
        visit(world, f"https://{SITE}/?fbclid=X")
        assert self._expiry(world) == COOKIE_LIFETIME_MS
        visit(world, reload=True)
        assert self._expiry(world) == 91 * DAY_MS

    def test_rotate_value_issues_fresh_cookie(self):
        world = make_world(expiration_policy=ExpirationPolicy.ROTATE_VALUE)
        first = visit(world)[0].report.fbp
        world.now += DAY_MS
        second = visit(world)[0].report.fbp
        assert first != second
        assert parse_fbp(first).subdomain_index == parse_fbp(second).subdomain_index
        assert parse_fbp(second).creation_time == DAY_MS
        assert self._expiry(world) == 91 * DAY_MS

    def test_blocked_site_stores_and_sends_nothing(self):
        world = make_world(expiration_policy=ExpirationPolicy.BLOCKED)
        assert visit(world) == []
        assert jar(world).entries == {}

    def test_creation_law_on_every_write(self):
        for policy in (ExpirationPolicy.EVERY_EVENT, ExpirationPolicy.ROTATE_VALUE):
            world = make_world(expiration_policy=policy)
            for _ in range(4):
                visit(world)
                entry = jar(world).entries[FBP_NAME]
                if policy is ExpirationPolicy.ROTATE_VALUE:
                    assert entry.expires - entry.created == COOKIE_LIFETIME_MS
                world.now += 3 * DAY_MS


class TestPropagation:
    def test_hop_destinations_match_bfs_oracle(self):
        site = SiteConfig(
            domain=SITE,
            first_hop_third_parties=(
                "ads.one.example",
                "metrics.www.shoes.com",  # first-party subdomain
                "cdn.two.example",
            ),
            second_hop_forwarding={
                "ads.one.example": ("exchange.example", "dsp.example"),
                "cdn.two.example": ("sub.tracker.example",),
            },
        )
        world = World(1, [site], [Browser("b1")])
        emissions = visit(world)
        hop1 = {e.report.destination for e in emissions if e.hop == 1}
        hop2 = {e.report.destination for e in emissions if e.hop == 2}
        # Raw emission includes everything configured; the exclusion rule
        # belongs to aggregation, which the oracle models.
        assert hop1 == {"ads.one.example", "metrics.www.shoes.com", "cdn.two.example"}
        assert hop2 == {"exchange.example", "dsp.example", "sub.tracker.example"}
        oracle_h1, oracle_h2 = bfs_destination_oracle(site)
        assert oracle_h1 == {"ads.one.example", "cdn.two.example"}
        assert oracle_h2 == {"exchange.example", "dsp.example"}

    def test_forwarded_reports_carry_fbp_and_click_id(self):
        world = make_world(first_hop_third_parties=("ads.partner.example",))
        emissions = visit(world, f"https://{SITE}/?fbclid=Clicked")
        forwarded = [e.report for e in emissions if e.hop == 1]
        assert len(forwarded) == 1
        assert forwarded[0].destination == "ads.partner.example"
        assert forwarded[0].fbp is not None
        assert forwarded[0].fbclid_param.value == "Clicked"
        assert forwarded[0].fbc is None

    def test_one_payload_expands_in_configured_order(self):
        world = make_world(
            first_hop_third_parties=("ads.one.example", "cdn.two.example"),
            second_hop_forwarding={"ads.one.example": ("exchange.example", "dsp.example")},
        )
        tracked = TrackedUrl.parse(f"https://{SITE}/?fbclid=Clicked")
        page = on_page_event(world, "b1", tracked, EventName.PAGE_VIEW)
        assert isinstance(page, PageEmissions)
        assert (page.site, page.browser_id) == (SITE, "b1")
        assert page.report.destination == TRACKER_DOMAIN
        assert page.forwarded.fbclid_param.value == "Clicked"
        assert page.fanout == (
            ("ads.one.example", ("exchange.example", "dsp.example")),
            ("cdn.two.example", ()),
        )
        assert [(r.hop, r.report.destination) for r in page] == [
            (0, TRACKER_DOMAIN),
            (1, "ads.one.example"),
            (2, "exchange.example"),
            (2, "dsp.example"),
            (1, "cdn.two.example"),
        ]
        assert all(r.report.page_url == page.forwarded.page_url for r in page)

    @pytest.mark.parametrize("site_kwargs, mode", [
        ({"expiration_policy": ExpirationPolicy.BLOCKED}, ConsentMode.ACCEPT_ALL),
        ({"consent_compliant": True}, ConsentMode.NO_ACTION),
        ({"consent_compliant": True}, ConsentMode.REJECT_ALL),
        ({"consent_requires_interaction": True}, ConsentMode.NO_ACTION),
    ])
    def test_page_without_pixel_is_an_empty_iterable(self, site_kwargs, mode):
        world = make_world(mode, first_hop_third_parties=("ads.partner.example",), **site_kwargs)
        page = on_page_event(world, "b1", TrackedUrl.parse(f"https://{SITE}/"),
                             EventName.PAGE_VIEW)
        assert page is not None
        assert list(page) == []
        assert (page.report, page.forwarded, page.fanout) == (None, None, ())


class TestForwardingExpansion:
    """A page event's payload and fan-out expand to one record per destination,
    equal to a reference built from the site configs."""

    def test_random_scenarios_match_reference(self):
        for seed in range(200):
            result = run(random_scenario(seed))
            forwarded = [r for r in result.log if r.hop in (1, 2)]
            assert forwarded == forwarding_reference(result), f"seed {seed}"

    def test_propagation_variants_match_reference(self):
        _, results = experiment_propagation(300, {"second_hop_fanout": 2})
        assert set(results) == {"real", "random", "dummy"}
        for variant, result in results.items():
            forwarded = [r for r in result.log if r.hop in (1, 2)]
            assert forwarded, variant
            assert forwarded == forwarding_reference(result), variant
            counters = result.report.counters
            assert len(forwarded) == counters["emissions_hop1"] + counters["emissions_hop2"]
