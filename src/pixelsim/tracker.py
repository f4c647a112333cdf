"""Tracker backend: pseudonymous profiles and identity resolution.

Reports arriving at the tracker are folded into per-(site, browser-ID
cookie) profiles.  A report that carries a ledger-known click ID links its
profile to the issuing platform account, retroactively attributing the
profile's whole history.  External IDs merge profiles across cookie loss
on the same site.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import NamedTuple

from .cookies import EventReport, TrackedUrl, parse_fbc, parse_fbp
from .errors import MalformedCookie, MalformedReport, UnknownAccount
from .social import PlatformFeed

ProfileKey = tuple[str, str]  # (site domain, serialized _fbp value)

# Held by every profile that has no external ID: a profile's set is immutable
# and replaced when it grows, so one empty set serves them all.
NO_EXTERNAL_IDS: frozenset[str] = frozenset()


class Activity(NamedTuple):
    """One report on a profile's timeline; the fields are in sort order."""

    timestamp: int
    site: str
    event: str
    page_url: str


@dataclass(eq=False, slots=True)  # compared and hashed by identity
class PseudonymProfile:
    keys: list[ProfileKey]  # sorted; ``keys[0]`` is the profile's key
    activity: list[Activity] = field(default_factory=list)
    linked_account: str | None = None
    external_ids: frozenset[str] = NO_EXTERNAL_IDS


@dataclass(frozen=True, slots=True)
class Anomaly:
    kind: str
    detail: str


@dataclass(slots=True)
class IngestOutcome:
    profile_key: ProfileKey | None = None
    linked_account: str | None = None
    merged: bool = False
    duplicate: bool = False
    orphan: bool = False


class IdentityGraph:
    """Profiles, click-ledger joins, and external-ID bindings."""

    def __init__(self, click_ledger: PlatformFeed):
        self.click_ledger = click_ledger
        self._by_key: dict[ProfileKey, PseudonymProfile] = {}
        self._external_index: dict[tuple[str, str], ProfileKey] = {}
        self.known_accounts: set[str] = set()
        self.anomalies: list[Anomaly] = []
        self.orphans = 0  # reports that carried no identifier
        self._seen_reports: set[EventReport] = set()
        # One text per page without a query, shared by its activities; a
        # query carries a per-click ID, so such a page is seldom seen twice.
        self._page_text: dict[TrackedUrl, str] = {}

    # -- profile plumbing --------------------------------------------------

    def profile(self, key: ProfileKey) -> PseudonymProfile | None:
        return self._by_key.get(key)

    def profiles(self) -> list[PseudonymProfile]:
        """Each live profile once, ordered by the arrival of its earliest key."""
        return list(dict.fromkeys(self._by_key.values()))

    def _merge(self, a: PseudonymProfile, b: PseudonymProfile) -> bool:
        """Fold profile ``b`` into ``a``; refuse on conflicting links.

        Afterwards every key of ``b`` resolves to ``a``, and with them every
        external ID bound to ``b``: a binding names a key, not a profile.
        """
        if a.linked_account and b.linked_account and a.linked_account != b.linked_account:
            self.anomalies.append(
                Anomaly(
                    kind="conflicting-merge",
                    detail=f"{a.linked_account} vs {b.linked_account}",
                )
            )
            return False
        # Each pair of lists is sorted, so each stable sort is one linear
        # merge pass; on equal activities ``a``'s come first, as with insort.
        a.keys += b.keys
        a.keys.sort()
        a.activity += b.activity
        a.activity.sort()
        a.external_ids |= b.external_ids
        if a.linked_account is None:
            a.linked_account = b.linked_account
        for key in b.keys:
            self._by_key[key] = a
        return True

    # -- ingestion ---------------------------------------------------------

    def ingest(self, report: EventReport) -> IngestOutcome:
        site = report.page_url.origin
        outcome = IngestOutcome()

        if not report.has_identifier():
            self.orphans += 1
            outcome.orphan = True
            return outcome
        if report in self._seen_reports:
            outcome.duplicate = True
            return outcome
        key = (site, report.fbp) if report.fbp is not None else None
        fbclid_value = self._checked_fbclid(report, key)
        self._seen_reports.add(report)

        # The cookie's profile and the profile its external ID is bound to on
        # this site settle the report's profile.  Only non-empty IDs are bound.
        profile = self._by_key.get(key)
        bound = self._by_key.get(self._external_index.get((site, report.external_id)))
        if key is None:
            # No cookie: the external ID alone identifies the profile.
            if bound is None:
                return outcome
            profile = bound
        elif profile is None:
            if bound is None:
                profile = PseudonymProfile(keys=[key])
            else:
                # A new cookie joins the bound profile, which counts as a merge.
                profile = bound
                insort(profile.keys, key)
                outcome.merged = True
            self._by_key[key] = profile
        elif bound is not None and bound is not profile and self._merge(bound, profile):
            profile = bound
            outcome.merged = True

        if key is not None:
            page = report.page_url
            url = page.serialize() if page.query else self._page_text.get(page)
            if url is None:
                url = self._page_text[page] = page.serialize()
            insort(profile.activity, Activity(report.timestamp, site, report.event.value, url))
        if report.external_id:  # an empty ID is absent, as in has_identifier
            self._external_index[(site, report.external_id)] = profile.keys[0]
            if report.external_id not in profile.external_ids:
                profile.external_ids |= {report.external_id}
        if fbclid_value is not None:
            account = self._account_for_fbclid(fbclid_value, site)
            if account is not None:
                self._link(profile, account)
        outcome.linked_account = profile.linked_account
        outcome.profile_key = profile.keys[0]
        return outcome

    def _checked_fbclid(self, report: EventReport, key: ProfileKey | None) -> str | None:
        """Validate the report's cookies and return its click-ID value.

        Runs before ``ingest`` changes any state, so a rejected report can
        be corrected and sent again.  An ``fbp`` already known as a profile
        key was checked when it first arrived.
        """
        try:
            if key is not None and key not in self._by_key:
                parse_fbp(key[1])
            if report.fbc is not None:
                return parse_fbc(report.fbc).fbclid.value
        except MalformedCookie as exc:
            raise MalformedReport(str(exc)) from exc
        if report.fbclid_param is not None:
            return report.fbclid_param.value
        return None

    def _account_for_fbclid(self, fbclid_value: str, site: str) -> str | None:
        entries = self.click_ledger.entries_for(fbclid_value)
        # Prefer the latest issuance whose link targeted this site; an ID
        # reused across other targets falls back to the most recent issuance.
        for entry in reversed(entries):
            if entry.target_origin == site:
                return entry.account_id
        return entries[-1].account_id if entries else None

    def _link(self, profile: PseudonymProfile, account: str) -> None:
        if profile.linked_account is None:
            profile.linked_account = account
        elif profile.linked_account != account:
            self.anomalies.append(
                Anomaly(
                    kind="conflicting-link",
                    detail=f"{profile.linked_account} vs {account}",
                )
            )

    # -- queries -----------------------------------------------------------

    def resolve(self) -> list[tuple[ProfileKey, str]]:
        """Every (profile key, account) pair currently linked."""
        return sorted(
            (key, p.linked_account) for key, p in self._by_key.items()
            if p.linked_account is not None
        )

    def account_history(self, account_id: str) -> list[Activity]:
        if account_id not in self.known_accounts:
            raise UnknownAccount(f"unknown account {account_id!r}")
        merged: list[Activity] = []
        for profile in self.profiles():
            if profile.linked_account == account_id:
                merged.extend(profile.activity)
        merged.sort()
        return merged

    def dump(self) -> dict:
        """Deterministic structured export for reports and golden files."""
        return {
            "profiles": [
                {
                    "keys": [f"{s}|{v}" for s, v in p.keys],
                    "linked_account": p.linked_account,
                    "external_ids": sorted(p.external_ids),
                    "activity": list(p.activity),
                }
                for p in sorted(self.profiles(), key=lambda p: p.keys[0])
            ],
            "links": [[list(k), a] for k, a in self.resolve()],
            "anomalies": [[a.kind, a.detail] for a in self.anomalies],
            "orphans": self.orphans,
        }
