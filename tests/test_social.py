"""Platform-side behavior: click IDs, decoration, the ledger."""

from hypothesis import given, strategies as st

from pixelsim import social
from pixelsim.cookies import (
    CLICK_ID_ALPHABET,
    CLICK_ID_LENGTH,
    EventName,
    TrackedUrl,
    extract_fbclid,
    parse_fbc,
)
from pixelsim.pixel import FBC_NAME, on_page_event
from pixelsim.scenarios import Scenario, Step, run
from pixelsim.social import ARRAY_SIZE, PlatformFeed
from pixelsim.world import Browser, SiteConfig, World

TARGETS = [
    TrackedUrl.parse(f"https://{domain}/")
    for domain in ("shop.example", "news.example", "blog.example")
]


def make_feed(seed: int = 1) -> PlatformFeed:
    return PlatformFeed(seed=seed)


def all_click_ids(feed: PlatformFeed, load) -> list:
    return [feed.click_id(load, slot) for slot in range(ARRAY_SIZE)]


class TestClickIds:
    def test_load_carries_fifty_canonical_ids(self):
        feed = make_feed()
        load = feed.refresh_click_ids("u1", tick=0)
        assert len(load.click_ids) == ARRAY_SIZE == 50
        for click_id in all_click_ids(feed, load):
            assert len(click_id.value) == CLICK_ID_LENGTH == 61
            assert click_id.canonical
            assert set(click_id.value) <= set(CLICK_ID_ALPHABET)

    def test_ids_unique_within_load(self):
        feed = make_feed()
        load = feed.refresh_click_ids("u1", tick=0)
        values = [c.value for c in all_click_ids(feed, load)]
        assert len(set(values)) == ARRAY_SIZE

    def test_ids_fresh_across_loads_and_accounts(self):
        feed = make_feed()
        seen: set[str] = set()
        for account in ("u1", "u2"):
            for _ in range(3):
                load = feed.refresh_click_ids(account, tick=0)
                values = {c.value for c in all_click_ids(feed, load)}
                assert not (values & seen)
                seen |= values

    def test_derivation_is_seed_deterministic(self):
        a, b, c = (make_feed(seed) for seed in (7, 7, 8))
        ids = [all_click_ids(feed, feed.refresh_click_ids("u1", tick=0)) for feed in (a, b, c)]
        assert ids[0] == ids[1]
        assert ids[0] != ids[2]

    def test_load_ids_count_per_account(self):
        feed = make_feed()
        first = feed.refresh_click_ids("u1", tick=0)
        second = feed.refresh_click_ids("u1", tick=5)
        other = feed.refresh_click_ids("u2", tick=6)
        assert (first.number, second.number, other.number) == (0, 1, 0)
        assert feed.current_loads["u1"] is second

    def test_slot_is_derived_once_on_first_read(self, monkeypatch):
        derived = []
        derive = social._derive_click_id
        monkeypatch.setattr(
            social, "_derive_click_id", lambda *args: derived.append(args) or derive(*args)
        )
        feed = make_feed()
        load = feed.refresh_click_ids("u1", tick=0)
        assert derived == []
        first = feed.click_id(load, 7)
        assert feed.click_id(load, 7) is first
        assert derived == [(1, "u1", 0, 7, 0)]
        assert [slot for slot, value in enumerate(load.click_ids) if value is not None] == [7]

    def test_repeated_derivation_is_derived_again(self, monkeypatch):
        # Slot 1's first derivation repeats slot 0's ID, so the feed must
        # derive slot 1 again with the next nonce.
        derive = social._derive_click_id

        def colliding(seed, account_id, counter, slot, nonce):
            if (slot, nonce) == (1, 0):
                slot = 0
            return derive(seed, account_id, counter, slot, nonce)

        monkeypatch.setattr(social, "_derive_click_id", colliding)
        feed = make_feed()
        load = feed.refresh_click_ids("u1", tick=0)
        for element_class in ("ad-card", "feed-link"):
            feed.decorate_outbound(load, TARGETS[0], element_class)
        values = [entry.fbclid.value for entry in feed.ledger]
        assert values == [derive(1, "u1", 0, 0, 0).value, derive(1, "u1", 0, 1, 1).value]
        assert len(set(values)) == len(values)

    def test_load_then_click_derives_one_id(self, monkeypatch):
        derived = []
        derive = social._derive_click_id
        monkeypatch.setattr(
            social, "_derive_click_id", lambda *args: derived.append(args) or derive(*args)
        )
        scenario = Scenario(
            seed=1,
            sites=[SiteConfig(domain="shop.example")],
            browsers=[{"id": "b1"}],
            steps=[
                Step(1, "CreateAccount", {"browser": "b1", "account": "u1"}),
                Step(2, "PlatformLoad", {"account": "u1"}),
                Step(3, "PlatformClick", {"account": "u1", "site": "shop.example"}),
            ],
        )
        run(scenario)
        assert len(derived) == 1


class TestDecoration:
    def test_same_class_same_id_within_load(self):
        feed = make_feed()
        load = feed.refresh_click_ids("u1", tick=0)
        target = TrackedUrl.parse("https://shop.example/")
        first, _ = feed.decorate_outbound(load, target, "ad-card")
        second, _ = feed.decorate_outbound(load, target, "ad-card")
        assert first.get("fbclid") == second.get("fbclid")

    def test_distinct_classes_distinct_ids(self):
        feed = make_feed()
        load = feed.refresh_click_ids("u1", tick=0)
        target = TrackedUrl.parse("https://shop.example/")
        ids = {
            feed.decorate_outbound(load, target, f"class-{k}")[0].get("fbclid")
            for k in range(ARRAY_SIZE)
        }
        assert len(ids) == ARRAY_SIZE

    def test_class_past_fifty_wraps_to_first_slot(self):
        feed = make_feed()
        load = feed.refresh_click_ids("u1", tick=0)
        target = TrackedUrl.parse("https://shop.example/")
        for k in range(ARRAY_SIZE):
            feed.decorate_outbound(load, target, f"class-{k}")
        wrapped, _ = feed.decorate_outbound(load, target, "class-overflow")
        assert wrapped.get("fbclid") == feed.click_id(load, 0).value
        assert load.class_assignment["class-overflow"] == 0

    def test_same_class_fresh_id_after_reload(self):
        feed = make_feed()
        target = TrackedUrl.parse("https://shop.example/")
        first_load = feed.refresh_click_ids("u1", tick=0)
        before, _ = feed.decorate_outbound(first_load, target, "ad-card")
        second_load = feed.refresh_click_ids("u1", tick=1)
        after, _ = feed.decorate_outbound(second_load, target, "ad-card")
        assert before.get("fbclid") != after.get("fbclid")

    def test_decoration_replaces_existing_param(self):
        feed = make_feed()
        load = feed.refresh_click_ids("u1", tick=0)
        target = TrackedUrl.parse("https://shop.example/?fbclid=stale&q=1")
        decorated, entry = feed.decorate_outbound(load, target, "ad-card")
        values = [v for k, v in decorated.query if k == "fbclid"]
        assert values == [entry.fbclid.value]


class TestLedger:
    def test_every_issuance_recorded(self):
        feed = make_feed()
        load = feed.refresh_click_ids("u1", tick=9)
        target = TrackedUrl.parse("https://shop.example/")
        _, entry = feed.decorate_outbound(load, target, "ad-card")
        assert entry.account_id == "u1"
        assert entry.element_class == "ad-card"
        assert entry.number == load.number
        assert entry.issued_at == 9
        assert entry.target_origin == "shop.example"
        assert feed.ledger == [entry]

    def test_entries_for_filters_by_value(self):
        feed = make_feed()
        load = feed.refresh_click_ids("u1", tick=0)
        target = TrackedUrl.parse("https://shop.example/")
        _, entry = feed.decorate_outbound(load, target, "ad-card")
        feed.decorate_outbound(load, target, "other-class")
        assert feed.entries_for(entry.fbclid.value) == [entry]
        assert feed.entries_for("unknown") == []

    def test_repeat_clicks_append(self):
        feed = make_feed()
        load = feed.refresh_click_ids("u1", tick=0)
        target = TrackedUrl.parse("https://shop.example/")
        feed.decorate_outbound(load, target, "ad-card")
        feed.decorate_outbound(load, target, "ad-card")
        assert len(feed.ledger) == 2

    @given(
        clicks=st.lists(
            st.tuples(
                st.integers(0, 2),  # account
                st.integers(0, 3),  # element class
                st.integers(0, len(TARGETS) - 1),
                st.booleans(),  # reload the feed before clicking
            ),
            max_size=30,
        ),
        strangers=st.lists(st.text(CLICK_ID_ALPHABET, min_size=1, max_size=61), max_size=5),
    )
    def test_entries_for_matches_ledger_scan(self, clicks, strangers):
        feed = make_feed()
        first = feed.refresh_click_ids("u0", tick=0)
        for k in range(ARRAY_SIZE + 1):  # the 51st class wraps onto slot 0
            feed.decorate_outbound(first, TARGETS[0], f"class-{k}")
        feed.decorate_outbound(first, TARGETS[1], "class-0")  # one ID, two targets
        wrapped = feed.entries_for(feed.click_id(first, 0).value)
        assert [(e.element_class, e.target_origin) for e in wrapped][:3] == [
            ("class-0", "shop.example"),
            ("class-50", "shop.example"),
            ("class-0", "news.example"),
        ]
        for tick, (account, element, target, reload) in enumerate(clicks, start=1):
            load = feed.current_loads.get(f"u{account}")
            if load is None or reload:
                load = feed.refresh_click_ids(f"u{account}", tick)
            feed.decorate_outbound(load, TARGETS[target], f"class-{element}")
        # Derived but never put on a link: not in the ledger either.
        unclicked = feed.click_id(feed.refresh_click_ids("u9", tick=0), 3).value
        values = {e.fbclid.value for e in feed.ledger} | set(strangers) | {unclicked}
        for value in values:
            assert feed.entries_for(value) == [
                e for e in feed.ledger if e.fbclid.value == value
            ]


class TestRecordClick:
    """A click on a feed link lands on the site as the visit the pixel sees."""

    def _click(self):
        feed = make_feed()
        load = feed.refresh_click_ids("u1", tick=0)
        decorated, _ = feed.decorate_outbound(
            load, TrackedUrl.parse("https://shop.example/"), "ad-card"
        )
        return decorated

    def _land(self, url: TrackedUrl):
        """Browser b1 follows ``url``; returns its _fbc cookie and the records."""
        world = World(1, [SiteConfig(domain="shop.example")], [Browser("b1")])
        records = list(on_page_event(world, "b1", url, EventName.PAGE_VIEW))
        return world.browser("b1").jar("shop.example").read(FBC_NAME, 0), records

    def test_decorated_click_is_click_visit(self):
        decorated = self._click()
        fbc, records = self._land(decorated)
        assert parse_fbc(fbc).fbclid == extract_fbclid(decorated)
        assert records[0].report.fbc == fbc
        assert records[0].site == "shop.example"

    def test_stripped_click_degrades_to_plain_visit(self):
        decorated = self._click()
        stripped = decorated._replace(query=tuple(p for p in decorated.query if p[0] != "fbclid"))
        fbc, records = self._land(stripped)
        assert fbc is None
        assert records[0].report.fbc is None
        assert records[0].report.fbclid_param is None
        assert records[0].site == "shop.example"
