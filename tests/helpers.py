"""Shared test utilities: random scenario generation, independent oracles and
a counter of the decoder's site checks.

The oracles here deliberately re-derive results from raw artifacts (the
emission log, the click ledger, the site configs) with plain dicts and
sets, sharing no code with the implementation paths they check.  The
reference expansion builds a run's forwarded records one report per
destination from the site configs.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

from pixelsim import scenarios
from pixelsim.cookies import CLICK_ID_ALPHABET, EventReport, extract_fbclid
from pixelsim.pixel import EmissionRecord
from pixelsim.scenarios import RunResult, Scenario, Step
from pixelsim.world import (
    DAY_MS,
    TRACKER_DOMAIN,
    ConsentMode,
    ExpirationPolicy,
    ReportingClass,
    SiteConfig,
)

ELEMENT_CLASSES = ["ad-card", "feed-link", "suggested", "banner"]


def random_scenario(seed: int) -> Scenario:
    """A small random scenario: <=5 browsers, <=8 sites, <=30 events."""
    rng = random.Random(seed)
    n_browsers = rng.randint(1, 5)
    n_sites = rng.randint(1, 8)
    browsers = [{"id": f"b{i}", "incognito": i == 4} for i in range(n_browsers)]
    sites = []
    for i in range(n_sites):
        domain = f"rand{i}.example"
        fanout = tuple(f"tp{j}.thirdparty{i}.example" for j in range(rng.randint(0, 3)))
        forwarding = {}
        for tp in fanout:
            if rng.random() < 0.5:
                forwarding[tp] = tuple(
                    f"fw{j}.{tp}" for j in range(rng.randint(1, 2))
                )
        # One site in ten runs no pixel: the Blocked policy.  A policy is
        # drawn either way, so the draws after it do not depend on that.
        pixel_runs = rng.random() < 0.9
        reporting_class = rng.choice(list(ReportingClass))
        policy = rng.choice(list(ExpirationPolicy))
        sites.append(
            SiteConfig(
                domain=domain,
                reporting_class=reporting_class,
                expiration_policy=policy if pixel_runs else ExpirationPolicy.BLOCKED,
                strips_fbclid=rng.random() < 0.2,
                shares_external_id=rng.random() < 0.4,
                external_id_default_when_anonymous=rng.random() < 0.2,
                first_hop_third_parties=fanout,
                second_hop_forwarding=forwarding,
            )
        )

    steps = []
    tick = 0
    accounts: list[str] = []
    bound_browsers: set[str] = set()
    loaded: list[str] = []
    n_events = rng.randint(1, 30)
    for _ in range(n_events):
        tick += rng.randint(1, DAY_MS)
        roll = rng.random()
        browser = f"b{rng.randrange(n_browsers)}"
        domain = f"rand{rng.randrange(n_sites)}.example"
        unbound = [f"b{i}" for i in range(n_browsers) if f"b{i}" not in bound_browsers]
        if roll < 0.45:
            steps.append(Step(tick, "Visit", {"browser": browser, "site": domain}))
        elif roll < 0.55 and len(accounts) < 3 and unbound:
            # One account per browser, so every account keeps a logged-in
            # browser for later platform clicks.
            browser = rng.choice(unbound)
            bound_browsers.add(browser)
            account = f"acct{len(accounts)}"
            accounts.append(account)
            steps.append(
                Step(tick, "CreateAccount", {"browser": browser, "account": account})
            )
        elif roll < 0.65 and accounts:
            account = rng.choice(accounts)
            loaded.append(account)
            steps.append(Step(tick, "PlatformLoad", {"account": account}))
        elif roll < 0.8 and loaded:
            steps.append(
                Step(
                    tick,
                    "PlatformClick",
                    {
                        "account": rng.choice(loaded),
                        "site": domain,
                        "element_class": rng.choice(ELEMENT_CLASSES),
                    },
                )
            )
        elif roll < 0.9:
            value = "".join(
                rng.choices(CLICK_ID_ALPHABET, k=rng.randint(5, 61))
            )
            steps.append(
                Step(
                    tick,
                    "Visit",
                    {"browser": browser, "site": domain, "url_extras": [["fbclid", value]]},
                )
            )
        else:
            steps.append(
                Step(
                    tick,
                    "DeleteCookie",
                    {"browser": browser, "site": domain, "name": "_fbp"},
                )
            )
    return Scenario(seed=seed, sites=sites, browsers=browsers, steps=steps)


def resolve_oracle(result: RunResult) -> list[tuple[tuple[str, str], str]]:
    """Brute-force join of the hop-0 log against the ledger, with the
    external-ID merge closure, replayed in log order."""
    ledger = result.feed.ledger
    profiles: list[dict | None] = []
    key_to_p: dict[tuple[str, str], int] = {}
    ext_to_p: dict[tuple[str, str], int] = {}

    def find(site, fbp):
        key = (site, fbp)
        if key not in key_to_p:
            profiles.append({"keys": {key}, "account": None})
            key_to_p[key] = len(profiles) - 1
        return key_to_p[key]

    def merge(keep, absorb):
        if keep == absorb:
            return keep
        a, b = profiles[keep], profiles[absorb]
        if a["account"] and b["account"] and a["account"] != b["account"]:
            return absorb  # conflicting links: merge refused
        a["keys"] |= b["keys"]
        a["account"] = a["account"] or b["account"]
        for k in b["keys"]:
            key_to_p[k] = keep
        for ek, p in list(ext_to_p.items()):
            if p == absorb:
                ext_to_p[ek] = keep
        profiles[absorb] = None
        return keep

    for record in result.log:
        if record.hop != 0:
            continue
        r = record.report
        site = r.page_url.origin
        p = find(site, r.fbp) if r.fbp else None
        if r.external_id is not None:
            ek = (site, r.external_id)
            if p is None:
                p = ext_to_p.get(ek)
            elif ek in ext_to_p and ext_to_p[ek] != p:
                p = merge(ext_to_p[ek], p)
            if p is not None:
                ext_to_p[ek] = p
        fbclid = None
        if r.fbc is not None:
            fbclid = r.fbc.split(".", 3)[3]
        elif r.fbclid_param is not None:
            fbclid = r.fbclid_param.value
        if fbclid is not None and p is not None:
            # Only issuances that existed when the report arrived count;
            # step ticks are strictly increasing, so timestamps order them.
            entries = [
                e
                for e in ledger
                if e.fbclid.value == fbclid and e.issued_at <= r.timestamp
            ]
            matching = [e for e in entries if e.target_origin == site]
            chosen = (matching or entries)[-1] if entries else None
            if chosen is not None and profiles[p]["account"] is None:
                profiles[p]["account"] = chosen.account_id

    pairs = []
    for key, p in key_to_p.items():
        account = profiles[p]["account"]
        if account is not None:
            pairs.append((key, account))
    return sorted(pairs)


def distribution_oracle(result: RunResult, scope: str) -> list[int]:
    """Expected per-site third-party counts, from config plus the log.

    A site that never produced a forwarded emission contributes zero; one
    that did must have informed exactly its depth-2 expansion.
    """
    emitted: set[str] = set()
    for record in result.log:
        if record.hop in (1, 2):
            emitted.add(record.report.page_url.origin)
    samples = []
    for site in result.world.sites.values():
        if site.domain not in emitted:
            samples.append(0)
            continue
        hop1, hop2 = bfs_destination_oracle(site)
        count = len(hop1)
        if scope == "total_two_hop":
            count += len(hop2)
        samples.append(count)
    return sorted(samples)


def bfs_destination_oracle(
    site: SiteConfig,
) -> tuple[set[str], set[str]]:
    """Depth-2 breadth-first expansion of a site's propagation graph,
    with first-party-subdomain and tracker exclusions applied."""

    def excluded(d):
        return (
            d == site.domain
            or d.endswith("." + site.domain)
            or d == TRACKER_DOMAIN
            or d.endswith("." + TRACKER_DOMAIN)
        )

    hop1 = {d for d in site.first_hop_third_parties if not excluded(d)}
    hop2 = set()
    for tp in site.first_hop_third_parties:
        for d in site.second_hop_forwarding.get(tp, ()):
            if not excluded(d):
                hop2.add(d)
    return hop1, hop2


def forwarding_reference(result: RunResult) -> list[EmissionRecord]:
    """Every page event's hop-1 and hop-2 records, one report per destination.

    For each hop-1 destination in the site's configured order: its record,
    then one record per hop-2 destination it forwards to.  Destinations,
    the pixel ID and whether the pixel ran come from the ``SiteConfig``
    alone; the click ID comes from the page URL.  Only the page URL,
    event, time and _fbp that a page event hands every destination are
    read from the run.
    """
    assert result.world.consent_mode is ConsentMode.ACCEPT_ALL  # consent is not modelled
    configs = result.world.sites
    records = []
    for page in result.emissions:
        site = configs[page.site]
        runs = site.expiration_policy is not ExpirationPolicy.BLOCKED
        assert (page.forwarded is not None) == (runs and bool(site.first_hop_third_parties))
        if page.forwarded is None:
            continue
        shared = page.forwarded
        fbclid = None
        if not site.strips_fbclid:
            fbclid = extract_fbclid(shared.page_url)

        def record(destination, hop):
            report = EventReport(
                pixel_id=site.pixel_id,
                event=shared.event,
                page_url=shared.page_url,
                timestamp=shared.timestamp,
                destination=destination,
                fbp=shared.fbp,
                fbclid_param=fbclid,
            )
            return EmissionRecord(report, hop, site.domain, page.browser_id)

        for third_party in site.first_hop_third_parties:
            records.append(record(third_party, 1))
            for forwardee in site.second_hop_forwarding.get(third_party, ()):
                records.append(record(forwardee, 2))
    return records


def external_id_components(reports: list[EventReport]) -> set[frozenset[tuple[str, str]]]:
    """The (site, _fbp) keys of ``reports``, partitioned by a plain union-find.

    Two keys of one site are joined when reports carrying them share a
    non-empty external ID.  A report without ``_fbp`` joins nothing.
    """
    parent: dict[tuple[str, str], tuple[str, str]] = {}
    first_key: dict[tuple[str, str], tuple[str, str]] = {}  # (site, external ID) -> key

    def find(key):
        while parent[key] != key:
            key = parent[key]
        return key

    for r in reports:
        if r.fbp is None:
            continue
        site = r.page_url.origin
        key = (site, r.fbp)
        parent.setdefault(key, key)
        if r.external_id:
            other = first_key.setdefault((site, r.external_id), key)
            parent[find(key)] = find(other)
    components: dict[tuple[str, str], set] = {}
    for key in parent:
        components.setdefault(find(key), set()).add(key)
    return {frozenset(keys) for keys in components.values()}


@contextmanager
def site_checks(module=scenarios):
    """Yield a list that collects each site ``module._decode`` checks in the block.

    The decoder marks each site it checks, or builds from an object, with
    ``module._trusted``, so each call to that is one check.  ``module`` is
    the ``pixelsim.scenarios`` module to count in.
    """
    trusted, checked = module._trusted, []

    def counting(site):
        checked.append(site)
        return trusted(site)

    module._trusted = counting
    try:
        yield checked
    finally:
        module._trusted = trusted
