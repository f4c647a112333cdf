"""Instance layout: every record a run makes per step, event or profile has
no per-object ``__dict__``.

A run holds one of these for each input step, page event, report, profile,
jar, page load or ledger entry, so a dict on each would grow its memory with
the length of the history.  ``SiteConfig`` (its ``cached_property``
``fanout`` needs an instance dict), ``MetricsReport`` (``to_json`` dumps
``vars``) and the one-per-run objects (``Scenario``, ``RunResult``,
``World``, ``IdentityGraph``, ``PlatformFeed``) are left out on purpose.
"""

import dataclasses

import pytest

from pixelsim.cookies import EventName, EventReport, FbcCookie, Fbclid, FbpCookie, TrackedUrl
from pixelsim.pixel import EmissionRecord, PageEmissions
from pixelsim.scenarios import (
    Browser,
    CreateAccount,
    DeleteCookie,
    Login,
    PlatformClick,
    PlatformLoad,
    Reload,
    RotateExternalId,
    Step,
    Visit,
)
from pixelsim.social import ClickLedgerEntry, PageLoad
from pixelsim.tracker import Anomaly, IngestOutcome, PseudonymProfile
from pixelsim.world import Account, BrowserProfile, CookieJar

REPORT = EventReport("px-1", EventName.PAGE_VIEW, TrackedUrl("shop.example"), 1, "tracker.example",
                     fbp="fb.1.1.42")
CLICK_ID = Fbclid("abc")
KEY = ("shop.example", "fb.1.1.42")

INSTANCES = [
    Step(1, "Visit", {"browser": "b1", "site": "shop.example"}),
    Browser("b1"),
    Visit("b1", "shop.example"),
    Reload("b1", "shop.example"),
    PlatformLoad("a1"),
    PlatformClick("a1", "shop.example"),
    CreateAccount("b1", "a1"),
    Login("b1", "a1"),
    DeleteCookie("b1", "shop.example", "_fbp"),
    RotateExternalId("b1", "shop.example"),
    PageEmissions("shop.example", "b1", REPORT),
    EmissionRecord(REPORT, 0, "shop.example", "b1"),
    CLICK_ID,
    FbpCookie(1, 1, 42),
    FbcCookie(1, 1, CLICK_ID),
    PseudonymProfile(keys=[KEY]),
    IngestOutcome(),
    Anomaly("conflicting-link", "a1 vs a2"),
    PageLoad("a1", 0, 1),
    ClickLedgerEntry(CLICK_ID, "a1", "feed-link", 0, 1, "shop.example"),
    BrowserProfile(False, "ua-default"),
    Account(1),
    CookieJar(),
]


@pytest.mark.parametrize("instance", INSTANCES, ids=lambda value: type(value).__name__)
def test_record_has_no_instance_dict(instance):
    assert not hasattr(instance, "__dict__")
    # object.__setattr__ gets past a frozen dataclass's own guard, so this
    # checks the layout on frozen and mutable classes alike.
    with pytest.raises(AttributeError):
        object.__setattr__(instance, "not_a_field", 1)
    frozen = dataclasses.is_dataclass(instance) and instance.__dataclass_params__.frozen
    if not frozen:
        with pytest.raises(AttributeError):
            instance.not_a_field = 1
