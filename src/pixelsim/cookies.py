"""Codecs for tracking cookies, click-ID URL parameters, and event-report URLs.

Everything here is a pure function over immutable values: the dotted
four-segment browser-ID cookie (``_fbp``), the click-ID cookie (``_fbc``),
click IDs themselves, tracked URLs with an ordered query string, and the
GET-request payload a pixel sends to its collection endpoint.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple
from urllib.parse import quote, unquote

from .errors import MalformedCookie, MalformedReport

# 26 + 26 + 10 + 2 = 64 symbols; every canonical click ID is drawn from these.
CLICK_ID_ALPHABET = string.ascii_uppercase + string.ascii_lowercase + string.digits + "-_"
CLICK_ID_LENGTH = 61

COOKIE_VERSION = "fb"


class EventName(Enum):
    """The closed set of page events a pixel can be configured to report."""

    ADD_PAYMENT_INFO = "AddPaymentInfo"
    ADD_TO_CART = "AddToCart"
    ADD_TO_WISHLIST = "AddToWishlist"
    COMPLETE_REGISTRATION = "CompleteRegistration"
    CONTACT = "Contact"
    CUSTOMIZE_PRODUCT = "CustomizeProduct"
    DONATE = "Donate"
    FIND_LOCATION = "FindLocation"
    INITIATE_CHECKOUT = "InitiateCheckout"
    LEAD = "Lead"
    PURCHASE = "Purchase"
    SCHEDULE = "Schedule"
    SEARCH = "Search"
    START_TRIAL = "StartTrial"
    SUBMIT_APPLICATION = "SubmitApplication"
    SUBSCRIBE = "Subscribe"
    VIEW_CONTENT = "ViewContent"
    PAGE_VIEW = "PageView"


@dataclass(frozen=True, slots=True)
class Fbclid:
    """A click-ID value.

    Simulator-issued values are exactly 61 characters over the closed
    alphabet and are ``canonical``.  Values extracted from arbitrary URLs
    are accepted at any length and flagged non-canonical: sites are known
    to record whatever lands in the parameter, so rejection happens
    nowhere in the codec layer.
    """

    value: str

    def __post_init__(self):
        if not self.value:
            raise MalformedCookie("empty fbclid")
        if "." in self.value:
            # Dots would make the four-segment _fbc grammar ambiguous.
            raise MalformedCookie("dot in fbclid", self.value)

    @property
    def canonical(self) -> bool:
        return len(self.value) == CLICK_ID_LENGTH and all(
            c in CLICK_ID_ALPHABET for c in self.value
        )


@dataclass(frozen=True, slots=True)
class FbpCookie:
    """Parsed browser-ID cookie: ``fb.<subdomainIndex>.<creationTime>.<randomNumber>``."""

    subdomain_index: int
    creation_time: int  # ms since UNIX epoch
    random_number: int
    version: str = COOKIE_VERSION


@dataclass(frozen=True, slots=True)
class FbcCookie:
    """Parsed click-ID cookie: ``fb.<subdomainIndex>.<creationTime>.<fbclid>``."""

    subdomain_index: int
    creation_time: int  # ms since UNIX epoch
    fbclid: Fbclid
    version: str = COOKIE_VERSION


def _split_cookie(s: str) -> list[str]:
    parts = s.split(".")
    if len(parts) != 4:
        raise MalformedCookie("segments", s)
    if parts[0] != COOKIE_VERSION:
        raise MalformedCookie("prefix", s)
    return parts


def _decimal(segment: str, raw: str) -> int:
    # int() would tolerate "+1", "_", whitespace, non-ASCII digits; the grammar does not.
    if not (segment.isascii() and segment.isdigit()):
        raise MalformedCookie("non-numeric segment", raw)
    try:
        return int(segment)
    except ValueError:  # more digits than int() converts
        raise MalformedCookie("over-long segment", raw) from None


def parse_fbp(s: str) -> FbpCookie:
    parts = _split_cookie(s)
    return FbpCookie(
        subdomain_index=_decimal(parts[1], s),
        creation_time=_decimal(parts[2], s),
        random_number=_decimal(parts[3], s),
    )


def serialize_fbp(c: FbpCookie) -> str:
    return f"{c.version}.{c.subdomain_index}.{c.creation_time}.{c.random_number}"


def parse_fbc(s: str) -> FbcCookie:
    parts = _split_cookie(s)
    return FbcCookie(
        subdomain_index=_decimal(parts[1], s),
        creation_time=_decimal(parts[2], s),
        fbclid=Fbclid(parts[3]),
    )


def serialize_fbc(c: FbcCookie) -> str:
    return f"{c.version}.{c.subdomain_index}.{c.creation_time}.{c.fbclid.value}"


class TrackedUrl(NamedTuple):
    """A URL reduced to what tracking needs: origin, path, ordered query pairs.

    Query values are stored percent-decoded; order and duplicate keys are
    preserved through parse/serialize.  A tuple, so that building and
    hashing one runs in C.
    """

    origin: str
    path: str = "/"
    query: tuple[tuple[str, str], ...] = ()

    @classmethod
    def parse(cls, url: str) -> "TrackedUrl":
        rest = url
        for scheme in ("https://", "http://"):
            if rest.startswith(scheme):
                rest = rest[len(scheme):]
                break
        if "?" in rest:
            rest, qs = rest.split("?", 1)
        else:
            qs = ""
        if "/" in rest:
            origin, path = rest.split("/", 1)
            path = "/" + path
        else:
            origin, path = rest, "/"
        pairs = []
        if qs:
            for chunk in qs.split("&"):
                if not chunk:
                    continue
                key, _, value = chunk.partition("=")
                pairs.append((unquote(key), unquote(value)))
        return cls(origin=origin, path=path, query=tuple(pairs))

    def serialize(self) -> str:
        base = f"https://{self.origin}{self.path}"
        if not self.query:
            return base
        qs = "&".join(
            f"{quote(k, safe='[]')}={quote(v, safe='')}" for k, v in self.query
        )
        return f"{base}?{qs}"

    def get(self, key: str) -> str | None:
        """First occurrence wins; duplicate keys are permitted."""
        for k, v in self.query:
            if k == key:
                return v
        return None

    def with_param(self, key: str, value: str) -> "TrackedUrl":
        """Replace every existing ``key`` pair with a single trailing one."""
        kept = tuple(p for p in self.query if p[0] != key)
        return self._replace(query=kept + ((key, value),))


def extract_fbclid(url: TrackedUrl) -> Fbclid | None:
    """Pull the click ID out of a URL, if any; never rejects a value."""
    value = url.get("fbclid")
    if not value or "." in value:
        # Empty and dotted values cannot be carried by the _fbc grammar;
        # treat them as absent rather than erroring.
        return None
    return Fbclid(value)


class EventReport(NamedTuple):
    """One pixel GET request: what was sent, about what, to whom.

    A tuple, like ``TrackedUrl``: the tracker hashes every report it
    receives.
    """

    pixel_id: str
    event: EventName
    page_url: TrackedUrl  # the page the pixel ran on
    timestamp: int  # ms
    destination: str
    fbp: str | None = None  # serialized FbpCookie
    fbc: str | None = None  # serialized FbcCookie
    fbclid_param: Fbclid | None = None  # bare click ID; the pixel forwards it to third parties
    external_id: str | None = None  # hex string, any even length

    def has_identifier(self) -> bool:
        return any((self.fbp, self.fbc, self.fbclid_param, self.external_id))


EXTERNAL_ID_KEY = "ud[external_id]"


def encode_report(r: EventReport) -> str:
    if not r.has_identifier():
        raise MalformedReport("report carries no identifier")
    pairs: list[tuple[str, str]] = [("id", r.pixel_id), ("ev", r.event.value)]
    if r.fbp is not None:
        pairs.append(("fbp", r.fbp))
    if r.fbc is not None:
        pairs.append(("fbc", r.fbc))
    if r.fbclid_param is not None:
        pairs.append(("fbclid", r.fbclid_param.value))
    if r.external_id is not None:
        pairs.append((EXTERNAL_ID_KEY, r.external_id))
    pairs.append(("dl", r.page_url.serialize()))
    pairs.append(("ts", str(r.timestamp)))
    return TrackedUrl(origin=r.destination, path="/tr", query=tuple(pairs)).serialize()


def decode_report(s: str) -> EventReport:
    url = TrackedUrl.parse(s)
    fields = dict(reversed(url.query))  # a repeated key reads as its first value
    for required in ("id", "ev", "ts"):
        if required not in fields:
            raise MalformedReport(f"missing {required}: {s!r}")
    try:
        event = EventName(fields["ev"])
    except ValueError:
        raise MalformedReport(f"unknown event {fields['ev']!r}") from None
    try:
        ts = _decimal(fields["ts"], s)
        fbclid_param = Fbclid(fields["fbclid"]) if fields.get("fbclid") else None
    except MalformedCookie as exc:
        raise MalformedReport(str(exc)) from exc
    report = EventReport(
        pixel_id=fields["id"],
        event=event,
        page_url=TrackedUrl.parse(fields.get("dl", "")),
        timestamp=ts,
        destination=url.origin,
        fbp=fields.get("fbp"),
        fbc=fields.get("fbc"),
        fbclid_param=fbclid_param,
        external_id=fields.get(EXTERNAL_ID_KEY),
    )
    if not report.page_url.origin:  # the tracker keys every profile by this site
        raise MalformedReport(f"report names no page: {s!r}")
    if not report.has_identifier():
        raise MalformedReport(f"report carries no identifier: {s!r}")
    return report
