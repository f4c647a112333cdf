"""Client-side pixel behavior: cookie creation, rolling expiration, reporting.

``on_page_event`` is the single entry point: given a browser's visit to a
URL and the event it fired, it mutates the browser's cookie jar according
to the site's configuration and returns what the page sent: the hop-0
report to the tracker and one payload forwarded to the configured third
parties (hops 1 and 2).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .cookies import (
    EventName,
    EventReport,
    FbcCookie,
    Fbclid,
    FbpCookie,
    TrackedUrl,
    extract_fbclid,
    serialize_fbc,
    serialize_fbp,
)
from .world import (
    COOKIE_LIFETIME_MS,
    TRACKER_DOMAIN,
    ConsentMode,
    CookieJar,
    ExpirationPolicy,
    ReportingClass,
    SiteConfig,
    World,
)

FBP_NAME = "_fbp"
FBC_NAME = "_fbc"


@dataclass(frozen=True, slots=True)
class EmissionRecord:
    report: EventReport
    hop: int  # 0 tracker, 1 first-hop third party, 2 second-hop
    site: str  # the visited site, as configured
    browser_id: str  # the browser that made the visit


@dataclass(frozen=True, slots=True)
class PageEmissions:
    """Everything one page event sent.

    Every third party is handed the same ``forwarded`` payload, so it is
    kept once, with an empty destination.  ``fanout`` lists the hop-1
    destinations in configured order, each with the hop-2 destinations it
    forwards to.  Iterating expands this into one record per destination,
    hop 0 first; a page whose pixel did not run iterates as empty.
    """

    site: str  # the visited site, as configured
    browser_id: str  # the browser that made the visit
    report: EventReport | None = None  # hop 0, to the tracker
    forwarded: EventReport | None = None  # set whenever ``fanout`` is non-empty
    fanout: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __iter__(self) -> Iterator[EmissionRecord]:
        if self.report is not None:
            yield EmissionRecord(self.report, 0, self.site, self.browser_id)
        for destination, forwardees in self.fanout:
            yield self._record(destination, 1)
            for forwardee in forwardees:
                yield self._record(forwardee, 2)

    def _record(self, destination: str, hop: int) -> EmissionRecord:
        report = self.forwarded._replace(destination=destination)
        return EmissionRecord(report, hop, self.site, self.browser_id)


def _consent_blocks(world: World, site: SiteConfig) -> bool:
    mode = world.consent_mode
    if mode is ConsentMode.ACCEPT_ALL:
        return False
    if site.consent_compliant:
        # Compliant sites treat a missing choice the same as a rejection.
        return True
    if mode is ConsentMode.NO_ACTION and site.consent_requires_interaction:
        # The banner never got out of the way, so the pixel never loaded.
        return True
    return False


def _mint_fbp(world: World, site: SiteConfig, jar: CookieJar) -> None:
    """Write a fresh browser-ID cookie, drawing its random number."""
    now = world.now
    cookie = FbpCookie(
        subdomain_index=site.subdomain_index, creation_time=now,
        random_number=world.next_random_number(),
    )
    jar.write(FBP_NAME, serialize_fbp(cookie), now, now + COOKIE_LIFETIME_MS)


def apply_expiration_policy(world: World, site: SiteConfig, jar: CookieJar,
                            clicked: bool, reload: bool) -> None:
    """Renew (or rotate) the browser-ID cookie according to site policy.

    A visit whose click ID reaches the pixel counts as a click visit, even
    when it is also a reload.
    """
    policy = site.expiration_policy
    if (policy is ExpirationPolicy.NEVER
            or (policy is ExpirationPolicy.ONLY_FBCLID and not clicked)
            or (policy is ExpirationPolicy.ONLY_RELOAD and (clicked or not reload))):
        return
    if policy is ExpirationPolicy.ROTATE_VALUE:
        _mint_fbp(world, site, jar)
    else:
        jar.touch(FBP_NAME, world.now + COOKIE_LIFETIME_MS)


def on_page_event(world: World, browser_id: str, url: TrackedUrl, event: EventName,
                  reload: bool = False) -> PageEmissions:
    site = world.site(url.origin)
    browser = world.browser(browser_id)
    if site.expiration_policy is ExpirationPolicy.BLOCKED or _consent_blocks(world, site):
        return PageEmissions(url.origin, browser_id)

    now = world.now
    jar = browser.jar(site.domain)

    if jar.read(FBP_NAME, now) is None:
        _mint_fbp(world, site, jar)

    # A stripping site removes the parameter before the pixel ever sees it,
    # so no _fbc is written, third parties are not handed the ID, and the
    # expiry policy sees no click.
    fbclid = None if site.strips_fbclid else extract_fbclid(url)
    if fbclid is not None:
        fbc = FbcCookie(subdomain_index=site.subdomain_index, creation_time=now, fbclid=fbclid)
        jar.write(FBC_NAME, serialize_fbc(fbc), now, now + COOKIE_LIFETIME_MS)

    apply_expiration_policy(world, site, jar, fbclid is not None, reload)

    fbp_value = jar.read(FBP_NAME, now)

    report = None
    if event in site.tracked_events and _reporting_permits(site, fbclid):
        fbc_value = jar.read(FBC_NAME, now)
        include_fbc = site.reporting_class is not ReportingClass.FBP_ONLY
        report = EventReport(
            pixel_id=site.pixel_id,
            event=event,
            page_url=url,
            timestamp=now,
            destination=TRACKER_DOMAIN,
            fbp=fbp_value,
            fbc=fbc_value if include_fbc else None,
            external_id=world.external_ids.get(site, browser_id),
        )

    if not site.first_hop_third_parties:
        return PageEmissions(url.origin, browser_id, report)
    # Third-party wire format is unspecified upstream; every destination is
    # handed the report shape, without the tracker-only _fbc and external ID.
    forwarded = EventReport(
        pixel_id=site.pixel_id,
        event=event,
        page_url=url,
        timestamp=now,
        destination="",
        fbp=fbp_value,
        fbclid_param=fbclid,
    )
    return PageEmissions(url.origin, browser_id, report, forwarded, site.fanout)


def _reporting_permits(site: SiteConfig, fbclid: Fbclid | None) -> bool:
    rc = site.reporting_class
    if rc is ReportingClass.SILENT:
        return False
    if rc is ReportingClass.FBP_ONLY_WITH_FBCLID:
        return fbclid is not None
    return True
