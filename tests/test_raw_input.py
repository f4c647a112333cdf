"""Raw-input fuzz of the codec entry points and of ingest.

Any text given to a codec either decodes or raises a ``SimulatorError``,
and a decoded report that the tracker rejects leaves its graph as it was.
Query wires start from one well-formed report and disturb a few of its
fields, so that most of them decode and reach ``IdentityGraph.ingest``.
"""

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
