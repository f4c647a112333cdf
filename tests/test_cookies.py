"""Cookie, click-ID, URL, and report codec tests."""

import random

import pytest
from hypothesis import given, strategies as st

from pixelsim.cookies import (
    CLICK_ID_ALPHABET,
    CLICK_ID_LENGTH,
    EXTERNAL_ID_KEY,
    EventName,
    EventReport,
    FbcCookie,
    Fbclid,
    FbpCookie,
    TrackedUrl,
    decode_report,
    encode_report,
    extract_fbclid,
    parse_fbc,
    parse_fbp,
    serialize_fbc,
    serialize_fbp,
)
from pixelsim.errors import MalformedCookie, MalformedReport
from pixelsim.world import SiteConfig


class TestFbpCodec:
    def test_observed_cookie_value(self):
        cookie = parse_fbp("fb.1.1596403881668.1116446470")
        assert cookie.version == "fb"
        assert cookie.subdomain_index == 1
        assert cookie.creation_time == 1596403881668
        assert cookie.random_number == 1116446470
        assert serialize_fbp(cookie) == "fb.1.1596403881668.1116446470"

    def test_second_observed_value(self):
        cookie = parse_fbp("fb.1.16010994640269.1121690857")
        assert cookie.creation_time == 16010994640269
        assert cookie.random_number == 1121690857

    def test_zero_segments_allowed(self):
        assert parse_fbp("fb.2.0.0") == FbpCookie(2, 0, 0)

    def test_bad_prefix(self):
        with pytest.raises(MalformedCookie):
            parse_fbp("xx.1.2.3")

    def test_wrong_segment_count(self):
        for raw in ("fb.1.2", "fb.1.2.3.4", "fb", ""):
            with pytest.raises(MalformedCookie):
                parse_fbp(raw)

    def test_non_numeric_segments(self):
        for raw in ("fb.a.2.3", "fb.1.2.x", "fb.1..3", "fb.+1.2.3", "fb.1.2.3 ", "fb.1.2.３",
                    "fb.1.2.²"):
            with pytest.raises(MalformedCookie):
                parse_fbp(raw)

    def test_over_long_segment_is_malformed(self):
        # More digits than int() converts (4300 by default) is not a ValueError.
        digits = "9" * 5000
        for raw in (f"fb.1.0.{digits}", f"fb.{digits}.0.1"):
            with pytest.raises(MalformedCookie):
                parse_fbp(raw)
        with pytest.raises(MalformedCookie):
            parse_fbc(f"fb.1.{digits}.Click")

    @given(
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=10**14),
        st.integers(min_value=0, max_value=10**10),
    )
    def test_round_trip(self, idx, created, number):
        cookie = FbpCookie(idx, created, number)
        assert parse_fbp(serialize_fbp(cookie)) == cookie


class TestFbcCodec:
    def test_parse_and_serialize(self):
        cookie = parse_fbc("fb.1.1700000000000.ABCDEFGH12")
        assert cookie.subdomain_index == 1
        assert cookie.creation_time == 1700000000000
        assert cookie.fbclid == Fbclid("ABCDEFGH12")
        assert serialize_fbc(cookie) == "fb.1.1700000000000.ABCDEFGH12"

    def test_dotted_click_id_is_ambiguous(self):
        with pytest.raises(MalformedCookie):
            parse_fbc("fb.1.1.a.b")

    def test_empty_click_id(self):
        with pytest.raises(MalformedCookie):
            parse_fbc("fb.1.1.")

    def test_round_trip_canonical(self):
        rng = random.Random(7)
        for _ in range(50):
            value = "".join(rng.choices(CLICK_ID_ALPHABET, k=CLICK_ID_LENGTH))
            cookie = FbcCookie(1, 12345, Fbclid(value))
            assert parse_fbc(serialize_fbc(cookie)) == cookie
            assert cookie.fbclid.canonical


class TestFbclid:
    def test_canonical_requires_61_alphabet_chars(self):
        value = "A" * CLICK_ID_LENGTH
        assert Fbclid(value).canonical
        assert not Fbclid(value[:-1]).canonical
        assert not Fbclid("A" * 60 + "!").canonical

    def test_any_nonempty_dotless_value_accepted(self):
        assert Fbclid("x").value == "x"
        assert not Fbclid("x").canonical


class TestSubdomainIndex:
    @pytest.mark.parametrize(
        "domain,expected",
        [
            ("com", 0),
            ("shoes.com", 1),
            ("www.shoes.com", 2),
            ("a.b.c.example.org", 4),
        ],
    )
    def test_label_depth(self, domain, expected):
        assert SiteConfig(domain=domain).subdomain_index == expected


class TestTrackedUrl:
    def test_observed_decorated_link(self):
        url = TrackedUrl.parse(
            "https://www.ncbi.nlm.nih.gov/pmc/articles/PMC5678212/"
            "?fbclid=IwAR0J2ueFwGP2ZSIznw04PQEFAbkMDue3T9YSg6"
        )
        assert url.origin == "www.ncbi.nlm.nih.gov"
        assert url.path == "/pmc/articles/PMC5678212/"
        clicked = extract_fbclid(url)
        assert clicked == Fbclid("IwAR0J2ueFwGP2ZSIznw04PQEFAbkMDue3T9YSg6")
        assert len(clicked.value) == 40
        assert not clicked.canonical

    def test_order_and_duplicates_preserved(self):
        url = TrackedUrl.parse("https://a.example/p?x=1&y=2&x=3")
        assert url.query == (("x", "1"), ("y", "2"), ("x", "3"))
        assert url.get("x") == "1"
        assert url.get("missing") is None
        assert TrackedUrl.parse(url.serialize()) == url

    def test_empty_query_chunk_skipped(self):
        url = TrackedUrl.parse("https://a.example/p?a=1&&b=2")
        assert url.query == (("a", "1"), ("b", "2"))

    def test_with_param_replaces_all_occurrences(self):
        url = TrackedUrl.parse("https://a.example/?k=1&k=2&z=9")
        out = url.with_param("k", "new")
        assert out.query == (("z", "9"), ("k", "new"))

    def test_percent_encoding_round_trip(self):
        url = TrackedUrl(
            origin="a.example",
            path="/p",
            query=(("dl", "https://b.example/q?x=1&y=2"), ("s p", "a=b&c")),
        )
        assert TrackedUrl.parse(url.serialize()) == url

    def test_no_query_no_path(self):
        url = TrackedUrl.parse("https://a.example")
        assert url == TrackedUrl(origin="a.example", path="/", query=())
        assert url.serialize() == "https://a.example/"

    @given(
        st.lists(
            st.tuples(
                st.text(
                    alphabet=st.characters(
                        codec="ascii", exclude_characters="%"
                    ),
                    min_size=1,
                    max_size=8,
                ),
                st.text(
                    alphabet=st.characters(codec="ascii", exclude_characters="%"),
                    max_size=12,
                ),
            ),
            max_size=6,
        )
    )
    def test_round_trip_random_queries(self, pairs):
        url = TrackedUrl(origin="site.example", path="/x", query=tuple(pairs))
        assert TrackedUrl.parse(url.serialize()) == url


class TestExtractAndStrip:
    def test_extract_absent(self):
        assert extract_fbclid(TrackedUrl.parse("https://a.example/?q=1")) is None

    def test_extract_empty_and_dotted_treated_as_absent(self):
        assert extract_fbclid(TrackedUrl.parse("https://a.example/?fbclid=")) is None
        assert extract_fbclid(TrackedUrl.parse("https://a.example/?fbclid=a.b")) is None


class TestReportCodec:
    def _report(self, **overrides):
        base = dict(
            pixel_id="px-shop.example",
            event=EventName.PAGE_VIEW,
            page_url=TrackedUrl.parse("https://shop.example/p?a=1"),
            timestamp=1234,
            destination="tracker.example",
            fbp="fb.1.1000.42",
        )
        base.update(overrides)
        return EventReport(**base)

    def test_external_id_field_literal(self):
        report = self._report(external_id="8d16a0dcb109e26121cacb648c5f40e7")
        wire = encode_report(report)
        assert "ud%5Bexternal_id%5D" not in wire
        assert f"{EXTERNAL_ID_KEY}=8d16a0dcb109e26121cacb648c5f40e7" in wire
        assert decode_report(wire).external_id == "8d16a0dcb109e26121cacb648c5f40e7"

    def test_round_trip_all_fields(self):
        report = self._report(
            fbc="fb.1.1000.ClickIdValue",
            external_id="aa" * 16,
        )
        assert decode_report(encode_report(report)) == report

    def test_bare_click_id_fallback_field(self):
        report = self._report(fbp=None, fbclid_param=Fbclid("SomeValue"))
        decoded = decode_report(encode_report(report))
        assert decoded.fbclid_param == Fbclid("SomeValue")
        assert decoded.fbp is None and decoded.fbc is None

    def test_identifier_free_report_rejected(self):
        with pytest.raises(MalformedReport):
            encode_report(self._report(fbp=None))

    @pytest.mark.parametrize(
        "wire",
        [
            "https://tracker.example/tr?ev=PageView&ts=1",
            "https://tracker.example/tr?id=px&ts=1",
            "https://tracker.example/tr?id=px&ev=PageView",
            "https://tracker.example/tr?id=px&ev=PageView&fbclid=Click.Id&ts=1",
            "https://tracker.example/tr?id=px&ev=PageView&dl=https%3A%2F%2Fshop.example%2F&ts=1",
        ],
    )
    def test_decode_rejects_missing_fields(self, wire):
        with pytest.raises(MalformedReport):
            decode_report(wire)

    def test_decode_reads_a_repeated_key_as_its_first_value(self):
        wire = (
            "https://tracker.example/tr?id=px&ev=PageView&fbp=fb.1.0.1&fbp=fb.1.0.2"
            "&dl=https%3A%2F%2Fshop.example%2F&ts=1"
        )
        assert decode_report(wire).fbp == "fb.1.0.1" == TrackedUrl.parse(wire).get("fbp")

    def test_decode_rejects_unknown_event(self):
        wire = encode_report(self._report()).replace("ev=PageView", "ev=NotAnEvent")
        with pytest.raises(MalformedReport):
            decode_report(wire)

    @pytest.mark.parametrize(
        "ts",
        ["%2B1_000", "%201", "%EF%BC%91", "-5", "", "9" * 5000],
        ids=["sign-underscore", "space", "fullwidth", "minus", "empty", "over-long"],
    )
    def test_decode_reads_the_timestamp_by_the_cookie_digit_grammar(self, ts):
        # "+1_000", " 1", a fullwidth digit and "-5" all pass int().
        wire = encode_report(self._report()).replace("ts=1234", f"ts={ts}")
        with pytest.raises(MalformedReport):
            decode_report(wire)

    @pytest.mark.parametrize("dl", [None, "", "%2Fp", "https%3A%2F%2F"])
    def test_decode_rejects_a_report_without_a_page(self, dl):
        # The tracker keys every profile by the page's site.
        wire = "https://tracker.example/tr?id=px&ev=PageView&fbp=fb.1.0.1&ts=1"
        if dl is not None:
            wire += f"&dl={dl}"
        with pytest.raises(MalformedReport):
            decode_report(wire)

    def test_decoded_page_url_is_the_parsed_page(self):
        report = decode_report(encode_report(self._report()))
        assert report.page_url == TrackedUrl("shop.example", "/p", (("a", "1"),))
        # Spellings of one page decode to the same value.
        http = encode_report(self._report()).replace("https%3A", "http%3A")
        assert "http%3A%2F%2Fshop" in http
        assert decode_report(http) == report

    def test_decode_rejects_bad_timestamp(self):
        wire = encode_report(self._report()).replace("ts=1234", "ts=soon")
        with pytest.raises(MalformedReport):
            decode_report(wire)

    def test_every_event_name_round_trips(self):
        for event in EventName:
            report = self._report(event=event)
            assert decode_report(encode_report(report)).event is event
