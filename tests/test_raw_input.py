"""Raw-input fuzz of the codec entry points, of ingest and of scenarios.

Any text given to a codec either decodes or raises a ``SimulatorError``,
and a decoded report that the tracker rejects leaves its graph as it was.
Query wires start from one well-formed report and disturb a few of its
fields, so that most of them decode and reach ``IdentityGraph.ingest``.
Scenario dicts likewise start from one valid scenario that runs every
action, and any JSON-like value put into it either runs or raises a
``SimulatorError``.
"""

import copy

import pytest
from hypothesis import example, given, strategies as st

from pixelsim.cookies import (
    EXTERNAL_ID_KEY,
    TrackedUrl,
    decode_report,
    encode_report,
    parse_fbc,
    parse_fbp,
)
from pixelsim.errors import SimulatorError
from pixelsim.scenarios import run, scenario_from_dict
from pixelsim.social import PlatformFeed
from pixelsim.tracker import IdentityGraph

SITE = "shop.example"
OVER_LONG = "9" * 5000  # more digits than int() converts by default


def feed_with_clicks() -> tuple[PlatformFeed, list[str]]:
    """A click ledger holding one click into ``SITE`` for each of two accounts."""
    feed = PlatformFeed(seed=3)
    clicks = []
    for account in ("u1", "u2"):
        load = feed.refresh_click_ids(account, tick=0)
        clicks.append(feed.decorate_outbound(load, TrackedUrl(SITE), "ad-card")[1].fbclid.value)
    return feed, clicks


CLICKS = feed_with_clicks()[1]
COOKIES = st.sampled_from(
    ["fb.1.0.1", "fb.1.0.2", "fb.1.0.3", *(f"fb.1.0.{c}" for c in CLICKS), f"fb.1.0.{OVER_LONG}",
     "fb.1.0.", "fb.1.x.1"]
) | st.text(max_size=12)
BASE = {"id": "px", "ev": "PageView", "dl": f"https://{SITE}/", "ts": "7"}
# Few browser and external IDs, so that reports share profiles and merge them.
IDENTITIES = st.tuples(
    st.tuples(st.just("fbp"), st.sampled_from(["fb.1.0.1", "fb.1.0.2", "fb.1.0.3"])),
    st.tuples(st.just(EXTERNAL_ID_KEY), st.sampled_from(["ext-a", "ext-b"])),
)
DISTURBED = {
    "id": st.sampled_from(["", "px-2"]),
    "ev": st.sampled_from(["Purchase", "", "pageview"]) | st.text(max_size=4),
    "dl": st.sampled_from(
        [f"http://{SITE}/", "https://other.example/p?q=1", "", "/p", "https://"]
    ) | st.text(max_size=12),
    "ts": st.sampled_from(["0", "+1_000", " 1", "１", "-5", "", OVER_LONG])
    | st.text(max_size=4),
    "fbp": COOKIES,
    "fbc": COOKIES,
    "fbclid": st.sampled_from([*CLICKS, "", "a.b"]) | st.text(max_size=8),
    EXTERNAL_ID_KEY: st.sampled_from([""]) | st.text(max_size=4),
}


def wire(edits=(), extra=()) -> str:
    """The base report's wire with each (key, value) edit applied; None drops the key."""
    fields = dict(BASE)
    for key, value in edits:
        if value is None:
            fields.pop(key, None)
        else:
            fields[key] = value
    query = tuple(fields.items()) + tuple(extra)
    return TrackedUrl("tracker.example", "/tr", query).serialize()


EDITS = st.lists(
    st.sampled_from(sorted(DISTURBED)).flatmap(
        lambda key: st.tuples(st.just(key), st.none() | DISTURBED[key])
    ),
    max_size=3,
)
QUERY_WIRES = st.builds(
    lambda identities, edits, extra: wire(identities + tuple(edits), extra),
    IDENTITIES,
    EDITS,
    st.lists(st.tuples(st.text(max_size=6), st.text(max_size=8)), max_size=2),
)


def accepted(f, *args):
    """``f(*args)``, or None if it raised a ``SimulatorError``; anything else escapes."""
    try:
        return f(*args)
    except SimulatorError:
        return None


class TestCodecs:
    @given(st.text() | COOKIES)
    @example(f"fb.1.0.{OVER_LONG}")
    @example(f"fb.1.{OVER_LONG}.Click")
    def test_cookie_parsers_raise_only_simulator_errors(self, raw):
        accepted(parse_fbp, raw)
        accepted(parse_fbc, raw)

    @given(st.text() | QUERY_WIRES)
    @example(wire([("fbp", "fb.1.0.1"), ("ts", OVER_LONG)]))
    @example(wire([("fbp", "fb.1.0.1"), ("dl", None)]))
    def test_wires_decode_and_round_trip_or_raise_simulator_errors(self, raw):
        TrackedUrl.parse(raw)
        report = accepted(decode_report, raw)
        if report is not None:
            assert report.page_url.origin
            assert decode_report(encode_report(report)) == report


class TestIngest:
    @given(st.lists(QUERY_WIRES, max_size=8))
    @example([wire([("fbp", f"fb.1.0.{OVER_LONG}")])])
    @example([wire([("fbp", f"fb.1.0.{n}"), (EXTERNAL_ID_KEY, "")]) for n in (1, 2)])
    def test_rejected_reports_leave_the_graph_unchanged(self, wires):
        graph = IdentityGraph(click_ledger=feed_with_clicks()[0])
        for raw in wires:
            report = accepted(decode_report, raw)
            if report is None:
                continue
            before = graph.dump()
            if accepted(graph.ingest, report) is None:
                assert graph.dump() == before
        for profile in graph.profiles():
            # Profiles join only through an external ID a report carried.
            assert "" not in profile.external_ids
            assert len(profile.keys) == 1 or profile.external_ids


# One valid scenario that runs every action; its last step is a page event.
SCENARIO = {
    "seed": 5,
    "consent_mode": "AcceptAll",
    "sites": [
        {"domain": SITE, "shares_external_id": True, "first_hop_third_parties": ["tp.example"],
         "second_hop_forwarding": {"tp.example": ["fw.example"]}},
        {"domain": "news.example", "expiration_policy": "RotateValue",
         "reporting_class": "FbpOnlyWithFbclid", "tracked_events": ["PageView", "Purchase"]},
    ],
    "browsers": [{"id": "b1"}, {"id": "b2", "incognito": True}],
    "steps": [
        {"tick": 1, "action": "CreateAccount", "browser": "b1", "account": "u1"},
        {"tick": 2, "action": "PlatformLoad", "account": "u1"},
        {"tick": 3, "action": "PlatformClick", "account": "u1", "site": SITE},
        {"tick": 4, "action": "Login", "browser": "b2", "account": "u1"},
        {"tick": 5, "action": "Visit", "browser": "b2", "site": "news.example",
         "url_extras": [["fbclid", "Injected"]]},
        {"tick": 6, "action": "RotateExternalId", "browser": "b1", "site": SITE},
        {"tick": 172_800_008, "action": "DeleteCookie", "browser": "b1", "site": SITE,
         "name": "_fbp"},
        {"tick": 172_800_009, "action": "Reload", "browser": "b1", "site": "news.example"},
        {"tick": 172_800_010, "action": "Visit", "browser": "b1", "site": SITE,
         "url_extras": [["fbclid", "x"]], "event": "Purchase"},
    ],
}
HUGE = 10**5000  # more digits than an int prints by default


def paths(value, prefix=()):
    """The path of every value inside ``value``, containers included."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from paths(item, prefix + (key,))


NAMES = st.sampled_from(
    ["b1", "b2", "u1", SITE, "news.example", "tp.example", "Visit", "PlatformClick", "PageView",
     "RotateValue", "Blocked", "FbpOnly", "fbclid", "_fbc", "tick", "action", ""]
)
JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6) | NAMES
    | st.integers()
    # Built, not sampled: a strategy holding an int too long to print fails to print itself.
    | st.builds(lambda sign, bits, offset: sign * (2**bits + offset),
                st.sampled_from([1, -1]), st.sampled_from([63, 15_000]), st.sampled_from([-1, 0])),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6) | NAMES, inner, max_size=3),
    max_leaves=6,
)
DROP = object()  # an edit that removes the value at its path
SCENARIO_EDITS = st.lists(
    st.tuples(st.sampled_from(list(paths(SCENARIO))[1:]), st.just(DROP) | JSON), max_size=3
)


def edited(edits) -> dict:
    """``SCENARIO`` with each (path, value) edit applied where its path still leads."""
    data = copy.deepcopy(SCENARIO)
    for path, value in edits:
        parent = data
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue
    return data


# ``edited`` skips an edit whose path leads nowhere, so a test checks that each
# of these still reaches a value of ``SCENARIO``.
PINNED_EDITS = (
    [(("seed",), HUGE)],
    [(("steps", 8, "tick"), HUGE)],
)


class TestScenarios:
    def test_base_scenario_runs_every_action(self):
        result = run(scenario_from_dict(edited([])))
        assert result.graph.resolve() and result.report.counters["emissions_hop2"]

    @given(SCENARIO_EDITS)
    @example(PINNED_EDITS[0])
    @example(PINNED_EDITS[1])
    def test_scenarios_run_or_raise_simulator_errors(self, edits):
        accepted(lambda: run(scenario_from_dict(edited(edits))))

    @pytest.mark.parametrize("edits", PINNED_EDITS)
    def test_pinned_edits_reach_their_paths(self, edits):
        assert {path for path, _ in edits} <= set(paths(SCENARIO))
