"""Cookie jar, browser, and world-state tests."""

import dataclasses
import random

import pytest

from pixelsim.errors import (
    DuplicateAccount,
    InvalidExpiry,
    UnknownAccount,
    UnknownBrowser,
    UnknownSite,
)
from pixelsim.world import (
    COOKIE_LIFETIME_MS,
    DAY_MS,
    Browser,
    CookieEntry,
    CookieJar,
    ExternalIdRegistry,
    SiteConfig,
    World,
)


class TestCookieJar:
    def test_expiry_boundary_is_strict(self):
        jar = CookieJar()
        jar.write("c", "v", created=0, expires=100)
        assert jar.read("c", 99) == "v"
        assert jar.read("c", 100) is None
        assert jar.read("c", 101) is None

    def test_read_entry_absent_at_expiry(self):
        jar = CookieJar()
        jar.write("c", "v", created=0, expires=100)
        assert jar.read_entry("c", 99) == CookieEntry("v", 0, 100)
        assert jar.read_entry("c", 100) is None

    def test_write_requires_future_expiry(self):
        jar = CookieJar()
        with pytest.raises(InvalidExpiry):
            jar.write("c", "v", created=10, expires=10)
        with pytest.raises(InvalidExpiry):
            jar.write("c", "v", created=10, expires=9)

    def test_overwrite_replaces_entry(self):
        jar = CookieJar()
        jar.write("c", "old", created=0, expires=50)
        jar.write("c", "new", created=10, expires=200)
        entry = jar.read_entry("c", 60)
        assert entry.value == "new"
        assert entry.created == 10
        assert entry.expires == 200

    def test_touch_updates_only_expiry(self):
        jar = CookieJar()
        jar.write("c", "v", created=0, expires=50)
        jar.touch("c", 500)
        entry = jar.read_entry("c", 60)
        assert (entry.value, entry.created, entry.expires) == ("v", 0, 500)

    def test_touch_leaves_an_entry_read_before_it(self):
        jar = CookieJar()
        jar.write("c", "v", created=0, expires=100)
        before = jar.read_entry("c", 0)
        jar.touch("c", 500)
        assert before.expires == 100
        assert jar.read_entry("c", 0) == CookieEntry("v", 0, 500)

    def test_delete_is_idempotent(self):
        jar = CookieJar()
        jar.write("c", "v", created=0, expires=50)
        jar.delete("c")
        jar.delete("c")
        assert jar.read("c", 1) is None

    def test_write_evicts_expired_entries(self):
        jar = CookieJar()
        jar.write("dead", "v", created=0, expires=10)
        jar.write("other", "w", created=20, expires=100)
        assert "dead" not in jar.entries

    def test_against_naive_model(self):
        """Random operation sequence against a plain-dict jar model."""
        rng = random.Random(11)
        jar = CookieJar()
        model: dict[str, tuple[str, int]] = {}  # name -> (value, expires)
        now = 0
        names = ["a", "b", "c"]
        for _ in range(2000):
            now += rng.randrange(0, 40)
            name = rng.choice(names)
            op = rng.random()
            if op < 0.4:
                value = f"v{rng.randrange(100)}"
                expires = now + rng.randrange(1, 120)
                jar.write(name, value, created=now, expires=expires)
                model[name] = (value, expires)
            elif op < 0.5:
                jar.delete(name)
                model.pop(name, None)
            else:
                expected = model.get(name)
                if expected is not None and expected[1] <= now:
                    expected = None
                observed = jar.read(name, now)
                assert observed == (expected[0] if expected else None)


class TestWorld:
    def test_world_keeps_the_order_it_was_given(self):
        world = World(1, browsers=[Browser("b2"), Browser("b1", incognito=True), Browser("b0")])
        world.log_in("b0", "u1")
        world.log_in("b2", "u1")
        assert world.browser_logged_into("u1") == "b2"
        assert list(world.browsers) == ["b2", "b1", "b0"]
        for bid in world.browsers:
            world.browser(bid).jar("a.example").write("_fbp", "fb.1.0.1", 0, DAY_MS)
        world.end_step()
        assert {bid: bool(b.jars) for bid, b in world.browsers.items()} == {
            "b2": True, "b1": False, "b0": True,
        }

    def test_duplicate_account_rejected(self):
        world = World(seed=1)
        world.create_account("u1")
        with pytest.raises(DuplicateAccount, match="^account 'u1' already exists$"):
            world.create_account("u1")

    def test_unknown_lookups_raise(self):
        world = World(seed=1)
        with pytest.raises(UnknownBrowser, match="^unknown browser 'nope'$"):
            world.browser("nope")
        with pytest.raises(UnknownSite, match=r"^unknown site 'nope\.example'$"):
            world.site("nope.example")
        with pytest.raises(UnknownAccount, match="^unknown account 'nope'$"):
            world.account("nope")

    def test_incognito_jars_cleared_at_end_of_step(self):
        world = World(1, browsers=[Browser("priv", incognito=True), Browser("norm")])
        for bid in ("priv", "norm"):
            world.browser(bid).jar("a.example").write("_fbp", "fb.1.0.1", 0, DAY_MS)
        world.end_step()
        assert world.browser("priv").jar("a.example").read("_fbp", world.now) is None
        assert world.browser("norm").jar("a.example").read("_fbp", world.now) == "fb.1.0.1"

    def test_jars_are_domain_scoped(self):
        world = World(1, browsers=[Browser("b1")])
        world.browser("b1").jar("a.example").write("_fbp", "x", 0, 100)
        assert world.browser("b1").jar("b.example").read("_fbp", world.now) is None

    def test_random_number_range_and_determinism(self):
        a, b = World(seed=9), World(seed=9)
        seq_a = [a.next_random_number() for _ in range(100)]
        seq_b = [b.next_random_number() for _ in range(100)]
        assert seq_a == seq_b
        assert all(1 <= n < 10**10 for n in seq_a)

    def test_snapshot_is_deterministic(self):
        def build():
            world = World(
                3,
                [SiteConfig(domain="z.example"), SiteConfig(domain="a.example")],
                [Browser("b2"), Browser("b1")],
            )
            world.create_account("u1")
            world.browser("b1").jar("a.example").write("_fbp", "fb.1.0.5", 0, 100)
            return world.snapshot()

        assert build() == build()

    def test_lifetime_constant(self):
        assert COOKIE_LIFETIME_MS == 90 * DAY_MS == 7_776_000_000


class TestSiteConfig:
    def test_pixel_id_defaults_to_domain(self):
        assert SiteConfig(domain="shop.example").pixel_id == "px-shop.example"
        assert SiteConfig(domain="x.example", pixel_id="custom").pixel_id == "custom"

    def test_fields_cannot_be_assigned(self):
        # fanout is derived once, so a field that changed after construction
        # would leave it stale.
        site = SiteConfig(domain="shop.example")
        assert site.subdomain_index == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            site.domain = "a.b.example"
        with pytest.raises(dataclasses.FrozenInstanceError):
            site.first_hop_third_parties = ("ads.example",)
        with pytest.raises(TypeError):
            site.second_hop_forwarding["tp.example"] = ()
        assert site.subdomain_index == 1 and site.fanout == ()

    def test_reading_the_subdomain_index_adds_no_key(self):
        # A key added after construction can cost the instance dict the key
        # table CPython shares among sites.
        site = SiteConfig(domain="www.shop.example")
        built = list(vars(site))
        assert site.subdomain_index == 2
        assert list(vars(site)) == built


class TestExternalIdRegistry:
    def test_stable_per_site_and_browser(self):
        reg = ExternalIdRegistry(seed=5)
        site = SiteConfig(domain="a.example", shares_external_id=True)
        assert reg.get(site, "b1") == reg.get(site, "b1")
        assert reg.get(site, "b1") != reg.get(site, "b2")
        other = SiteConfig(domain="b.example", shares_external_id=True)
        assert reg.get(site, "b1") != reg.get(other, "b1")

    def test_rotation_changes_value_once(self):
        reg = ExternalIdRegistry(seed=5)
        site = SiteConfig(domain="a.example", shares_external_id=True)
        before = reg.get(site, "b1")
        reg.rotate("a.example", "b1")
        after = reg.get(site, "b1")
        assert before != after
        assert reg.get(site, "b1") == after

    def test_default_anonymous_id_shared_across_browsers(self):
        reg = ExternalIdRegistry(seed=5)
        site = SiteConfig(
            domain="a.example",
            shares_external_id=True,
            external_id_default_when_anonymous=True,
        )
        assert reg.get(site, "b1") == reg.get(site, "b2") == reg.get(site, "b3")

    def test_non_sharing_site_hands_out_no_id(self):
        reg = ExternalIdRegistry(seed=5)
        assert reg.get(SiteConfig(domain="a.example"), "b1") is None
        site = SiteConfig(domain="a.example", external_id_default_when_anonymous=True)
        assert reg.get(site, "b1") is None
