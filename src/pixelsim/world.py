"""Entities of the simulated ecosystem: browsers, cookie jars, sites.

A :class:`World` owns every piece of mutable state for one simulation run,
and is built from a scenario's site and browser configs.
Its clock, ``now``, is the tick of the step being run.  All randomness
flows from the single seeded generator it holds; nothing in the package
ever reads the wall clock.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .cookies import EventName
from .errors import (
    DuplicateAccount,
    InvalidExpiry,
    UnknownAccount,
    UnknownBrowser,
    UnknownSite,
)

DAY_MS = 86_400_000
# "Three months" is fixed as exactly 90 days so the 90+(j-i) arithmetic
# stays exact at day granularity.
COOKIE_LIFETIME_MS = 90 * DAY_MS

# Where hop-0 reports go; excluded from third-party tallies.
TRACKER_DOMAIN = "tracker.example"


# Declared in the paper's order, which EXPIRATION_FRACTIONS and `--fractions` follow.
class ExpirationPolicy(Enum):
    EVERY_EVENT = "EveryEvent"
    BLOCKED = "Blocked"
    NEVER = "Never"
    ONLY_FBCLID = "OnlyFbclid"
    ONLY_RELOAD = "OnlyReload"
    ROTATE_VALUE = "RotateValue"


class ReportingClass(Enum):
    BOTH = "Both"
    FBP_ONLY_WITH_FBCLID = "FbpOnlyWithFbclid"
    FBP_ONLY = "FbpOnly"
    SILENT = "Silent"


class ConsentMode(Enum):
    ACCEPT_ALL = "AcceptAll"
    REJECT_ALL = "RejectAll"
    NO_ACTION = "NoAction"


class CookieEntry(NamedTuple):
    value: str
    created: int
    expires: int


class CookieJar:
    """Per-(browser, domain) cookie store with lazy expiry.

    An entry whose ``expires`` is at or before the clock is absent on read
    and evicted on the next write.
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: dict[str, CookieEntry] = {}

    def read(self, name: str, now: int) -> str | None:
        entry = self.entries.get(name)
        if entry is None or entry.expires <= now:
            return None
        return entry.value

    def read_entry(self, name: str, now: int) -> CookieEntry | None:
        entry = self.entries.get(name)
        if entry is None or entry.expires <= now:
            return None
        return entry

    def write(self, name: str, value: str, created: int, expires: int) -> None:
        if expires <= created:
            raise InvalidExpiry(f"expires {expires} <= created {created}")
        self._evict(created)
        self.entries[name] = CookieEntry(value, created, expires)

    def touch(self, name: str, expires: int) -> None:
        """Update only the expiration of an existing entry."""
        value, created, _ = self.entries[name]
        self.entries[name] = CookieEntry(value, created, expires)

    def delete(self, name: str) -> None:
        self.entries.pop(name, None)

    def _evict(self, now: int) -> None:
        dead = [n for n, e in self.entries.items() if e.expires <= now]
        for n in dead:
            del self.entries[n]


@dataclass(slots=True)
class BrowserProfile:
    incognito: bool
    user_agent: str
    jars: dict[str, CookieJar] = field(default_factory=dict)
    logged_in: str | None = None  # account id

    def jar(self, domain: str) -> CookieJar:
        if domain not in self.jars:
            self.jars[domain] = CookieJar()
        return self.jars[domain]


@dataclass(frozen=True)
class SiteConfig:
    """Per-site behavior knobs; one instance per simulated website."""

    domain: str
    pixel_id: str = ""
    tracked_events: frozenset[EventName] = frozenset({EventName.PAGE_VIEW})
    expiration_policy: ExpirationPolicy = ExpirationPolicy.EVERY_EVENT
    reporting_class: ReportingClass = ReportingClass.BOTH
    strips_fbclid: bool = False
    shares_external_id: bool = False
    external_id_default_when_anonymous: bool = False
    consent_compliant: bool = False
    # Non-compliant sites whose consent banner still blocks the pixel until
    # the visitor interacts with it: dead under NoAction, alive otherwise.
    consent_requires_interaction: bool = False
    first_hop_third_parties: tuple[str, ...] = ()
    # Held as a read-only copy of the table given, so the caller's dict can
    # change without changing the site.
    second_hop_forwarding: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_checked", False)  # see scenarios._trusted
        if self.pixel_id == "":  # any other value is kept, and checked, as it is
            object.__setattr__(self, "pixel_id", "px-" + self.domain)
        if type(table := self.second_hop_forwarding) in (dict, MappingProxyType):
            object.__setattr__(self, "second_hop_forwarding", MappingProxyType(dict(table)))

    # A plain property: a key added to the instance dict after construction
    # can cost that dict the key table CPython shares among sites.
    @property
    def subdomain_index(self) -> int:
        """Label depth of the domain below its last label: ``shoes.com -> 1``."""
        return self.domain.count(".")

    # Derived once per site: the class is frozen and its one table read-only,
    # so no field changes after construction.
    @cached_property
    def fanout(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """Each hop-1 third party, in configured order, with its hop-2 destinations."""
        forwarding = self.second_hop_forwarding
        return tuple((tp, forwarding.get(tp, ())) for tp in self.first_hop_third_parties)


# Compares by identity and keeps object's repr, like the step actions (see
# scenarios.py).
@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Browser:
    """A scenario's browser entry."""

    id: str
    incognito: bool = False
    user_agent: str = "ua-default"


@dataclass(slots=True)
class Account:
    created_at: int  # ms


class ExternalIdRegistry:
    """Site-assigned persistent visitor IDs.

    Values are stable within a scenario (keyed hash of seed, site, browser
    and a rotation epoch) unless a scenario explicitly rotates them.  Sites
    configured with a default anonymous ID hand the same value to every
    browser, incognito included.
    """

    ANONYMOUS = "anonymous-default"

    def __init__(self, seed: int):
        self._seed = seed
        self._epochs: dict[tuple[str, str], int] = {}
        self._values: dict[tuple[str, str], str] = {}  # held until a rotation

    def _value(self, site: str, subject: str) -> str:
        value = self._values.get((site, subject))
        if value is None:
            epoch = self._epochs.get((site, subject), 0)
            key = f"{self._seed}:{site}:{subject}:{epoch}".encode()
            value = self._values[site, subject] = hashlib.sha256(key).hexdigest()
        return value

    def get(self, site_config: SiteConfig, browser_id: str) -> str | None:
        """The ID the site hands ``browser_id``; None where it shares none."""
        if not site_config.shares_external_id:
            return None
        subject = self.ANONYMOUS if site_config.external_id_default_when_anonymous else browser_id
        return self._value(site_config.domain, subject)

    def rotate(self, site: str, browser_id: str) -> None:
        key = (site, browser_id)
        self._epochs[key] = self._epochs.get(key, 0) + 1
        self._values.pop(key, None)


class World:
    """All mutable state of one simulation run, built from its scenario's
    sites, browsers and consent mode."""

    def __init__(self, seed: int, sites: Iterable[SiteConfig] = (),
                 browsers: Iterable[Browser] = (),
                 consent_mode: ConsentMode = ConsentMode.ACCEPT_ALL):
        self.rng = random.Random(seed)
        self.now = 0  # ms since UNIX epoch: the current step's tick, 0 before the first
        self.sites = {site.domain: site for site in sites}
        self.browsers = {b.id: BrowserProfile(b.incognito, b.user_agent) for b in browsers}
        self._rank = {browser_id: rank for rank, browser_id in enumerate(self.browsers)}
        self._incognito_browsers = [b for b in self.browsers.values() if b.incognito]
        self._sessions: dict[str, set[str]] = {}  # account id -> browsers logged into it
        self.accounts: dict[str, Account] = {}
        self.external_ids = ExternalIdRegistry(seed)
        self.consent_mode = consent_mode

    # -- entity management -------------------------------------------------

    def create_account(self, account_id: str) -> None:
        if account_id in self.accounts:
            raise DuplicateAccount(f"account {account_id!r} already exists")
        self.accounts[account_id] = Account(created_at=self.now)

    def log_in(self, browser_id: str, account_id: str) -> None:
        """Log the browser into ``account_id``, and out of its previous account."""
        browser = self.browser(browser_id)
        if browser.logged_in is not None:
            self._sessions[browser.logged_in].discard(browser_id)
        browser.logged_in = account_id
        self._sessions.setdefault(account_id, set()).add(browser_id)

    def browser_logged_into(self, account_id: str) -> str | None:
        """The first browser, in the order given, logged into ``account_id``."""
        return min(self._sessions.get(account_id, ()), key=self._rank.__getitem__,
                   default=None)

    def browser(self, browser_id: str) -> BrowserProfile:
        try:
            return self.browsers[browser_id]
        except KeyError:
            raise UnknownBrowser(f"unknown browser {browser_id!r}") from None

    def site(self, domain: str) -> SiteConfig:
        try:
            return self.sites[domain]
        except KeyError:
            raise UnknownSite(f"unknown site {domain!r}") from None

    def account(self, account_id: str) -> Account:
        try:
            return self.accounts[account_id]
        except KeyError:
            raise UnknownAccount(f"unknown account {account_id!r}") from None

    def end_step(self) -> None:
        """Incognito jars do not survive past the step that filled them."""
        for browser in self._incognito_browsers:
            if browser.jars:
                browser.jars = {}

    def next_random_number(self) -> int:
        # Ten decimal digits, matching the shape of observed cookie values.
        return self.rng.randrange(1, 10**10)

    # -- serialization -----------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic structured dump for golden-file comparisons."""
        return {
            "now": self.now,
            "browsers": {
                bid: {
                    "incognito": b.incognito,
                    "user_agent": b.user_agent,
                    "logged_in": b.logged_in,
                    "jars": {
                        domain: {name: e._asdict() for name, e in sorted(jar.entries.items())}
                        for domain, jar in sorted(b.jars.items())
                    },
                }
                for bid, b in sorted(self.browsers.items())
            },
            "accounts": {
                aid: {"created_at": a.created_at}
                for aid, a in sorted(self.accounts.items())
            },
            "sites": sorted(self.sites),
        }
