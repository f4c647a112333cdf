"""Built-in experiment replications.

Each experiment generates a configured site population, replays the
corresponding crawl protocol through the simulator, and reports the
observed tallies.  These are closure checks: configuration goes in, the
pipeline's observation comes out, and the two must agree.  They validate
the simulator end to end, not any live-web population.
"""

from __future__ import annotations

import random

from .cookies import CLICK_ID_ALPHABET, CLICK_ID_LENGTH, EventReport
from .pixel import FBP_NAME, PageEmissions
from .reporting import MetricsReport, tally_classes, third_party_distribution
from .scenarios import RunResult, Scenario, Step, run
from .social import PlatformFeed
from .world import (
    COOKIE_LIFETIME_MS,
    DAY_MS,
    ConsentMode,
    CookieEntry,
    ExpirationPolicy,
    ReportingClass,
    SiteConfig,
    World,
)

CLOSURE_NOTE = (
    "closure check: configured population replayed through the pipeline; "
    "validates the simulator, not live-web measurements"
)

# The paper's populations.  An experiment given no fraction uses these.
PROFILING_FRACTIONS = (0.923, 0.015, 0.039, 0.023)  # in ReportingClass order
EXPIRATION_FRACTIONS = (  # in ExpirationPolicy order
    1942 / 2308, 172 / 2308, 115 / 2308, 57 / 2308, 17 / 2308, 5 / 2308,
)
EXTERNAL_ID_FRACTIONS = (68 / 2308, 55 / 68, 4 / 68)  # sharing, stable, default-anonymous
CONSENT_FRACTIONS = (310 / 480, 4 / 310)  # non-compliant, interaction-gated


def allocate_counts(total: int, fractions: list[float]) -> list[int]:
    """Largest-remainder rounding of ``fractions`` into integer counts."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions sum to {sum(fractions)}, not 1")
    if any(f < 0 for f in fractions):
        raise ValueError("negative fraction")
    exact = [f * total for f in fractions]
    counts = [int(e) for e in exact]
    leftover = total - sum(counts)
    remainders = sorted(
        range(len(fractions)), key=lambda i: (-(exact[i] - counts[i]), i)
    )
    for i in remainders[:leftover]:
        counts[i] += 1
    return counts


def _population(n_sites: int, order, counts: list[int] | None, fractions: list[float] | None,
                paper_fractions: tuple[float, ...]) -> tuple[list, dict[str, int]]:
    """Each site's class, in ``order``, and the ``configured_*`` and ``sites_total`` counters.

    ``counts`` gives the number of sites per class; without it, the
    ``fractions`` (the paper's when not given) are allocated over the sites.
    """
    if counts is None:
        counts = allocate_counts(n_sites, fractions or paper_fractions)
    if sum(counts) != n_sites:
        raise ValueError("class counts do not sum to site total")
    classes = [c for count, c in zip(counts, order, strict=True) for _ in range(count)]
    counters = {f"configured_{c.value}": count for count, c in zip(counts, order)}
    return classes, {**counters, "sites_total": n_sites}


def _domains(n: int) -> list[str]:
    return [f"site{i:05d}.example" for i in range(n)]


def _crawl(start: int, domains: list[str], action: str = "Visit", **params) -> list[Step]:
    """One crawl pass: ``action`` on each domain in turn, at ticks ``start+1``, ``start+2``, ..."""
    return [Step(start + i, action, {**params, "site": d}) for i, d in enumerate(domains, 1)]


def _share(total: int, fraction: float) -> int:
    """The part of ``total`` that ``fraction`` allocates, rounded as ``allocate_counts``."""
    return allocate_counts(total, [fraction, 1 - fraction])[0]


def _issued_click_id(seed: int) -> str:
    """A canonical click ID as the platform would hand out."""
    feed = PlatformFeed(seed=seed)
    return feed.click_id(feed.refresh_click_ids("probe-account", tick=0), 0).value


# -- reporting-class profiling (plain visit, then visit with click ID) -----


def experiment_profiling(
    n_sites: int,
    class_fractions: list[float] | None = None,
    seed: int = 0,
    class_counts: list[int] | None = None,
) -> tuple[MetricsReport, RunResult]:
    """Visit every site plain (S1, S2), then with a click ID (S4)."""
    classes, configured = _population(
        n_sites, ReportingClass, class_counts, class_fractions, PROFILING_FRACTIONS
    )
    domains = _domains(n_sites)
    sites = [
        # The plain-only class is observed on sites that strip URL
        # parameters before the pixel sees them.
        SiteConfig(domain=d, reporting_class=rc, strips_fbclid=rc is ReportingClass.FBP_ONLY)
        for d, rc in zip(domains, classes)
    ]

    click_extras = [["fbclid", _issued_click_id(seed)]]
    steps = (
        _crawl(0, domains, browser="crawler")  # S1: first crawl
        + _crawl(DAY_MS, domains, browser="crawler")  # S2: revisit next day
        # S4: revisit with the click ID appended
        + _crawl(2 * DAY_MS, domains, browser="crawler", url_extras=click_extras)
    )

    result = run(
        Scenario(seed=seed, sites=sites, browsers=[{"id": "crawler"}], steps=steps)
    )

    observed = tally_classes(result.emissions, domains)
    report = result.report
    report.classes = observed
    report.counters.update(configured)
    report.counters["sites_reporting_plain_visit"] = (
        observed["Both"] + observed["FbpOnly"]
    )
    report.counters["sites_reporting_both_ids"] = (
        observed["Both"] + observed["FbpOnlyWithFbclid"]
    )
    report.notes.append(CLOSURE_NOTE)
    return report, result


# -- rolling expiration ----------------------------------------------------


# One crawl pass as a site's probe saw it: its _fbp entry (None when absent)
# and the tick.
_Pass = tuple[CookieEntry | None, int]


def experiment_expiration(
    n_sites: int,
    policy_fractions: list[float] | None = None,
    gap_days: int = 1,
    seed: int = 0,
    policy_counts: list[int] | None = None,
) -> tuple[MetricsReport, RunResult]:
    """Visit, reload, then visit with a click ID; classify expiry updates."""
    policies, configured = _population(
        n_sites, ExpirationPolicy, policy_counts, policy_fractions, EXPIRATION_FRACTIONS
    )
    domains = _domains(n_sites)
    policy_of = dict(zip(domains, policies))
    sites = [SiteConfig(domain=d, expiration_policy=p) for d, p in policy_of.items()]

    # Each pass starts on a day boundary and gives a site the same offset,
    # so expiry differences come out as exact multiples of a day.
    click_extras = [["fbclid", _issued_click_id(seed)]]
    steps = (
        _crawl(0, domains, browser="crawler")
        + _crawl(gap_days * DAY_MS, domains, "Reload", browser="crawler")
        + _crawl(2 * gap_days * DAY_MS, domains, browser="crawler", url_extras=click_extras)
    )

    passes: dict[str, list[_Pass]] = {d: [] for d in domains}

    def probe(step: Step, world: World) -> None:
        # Only a site's own steps touch the crawler's jar for that site, so
        # right after its step the jar holds what a whole crawl pass leaves.
        entry = world.browser("crawler").jar(step.params["site"]).entries.get(FBP_NAME)
        passes[step.params["site"]].append((entry, world.now))

    result = run(
        Scenario(seed=seed, sites=sites, browsers=[{"id": "crawler"}], steps=steps),
        observe=probe,
    )

    creation_violations = 0
    update_violations = 0
    tallies = {p.value: 0 for p in ExpirationPolicy}
    for domain in domains:
        tallies[_classify_expiration(passes[domain]).value] += 1
        creation_violations += _creation_law_violations(passes[domain])
        if policy_of[domain] is ExpirationPolicy.EVERY_EVENT:
            update_violations += _update_law_violations(passes[domain])

    report = result.report
    report.classes = tallies
    report.counters.update(configured)
    report.counters["gap_days_s1_s2"] = gap_days
    report.counters["gap_days_s2_s3"] = gap_days
    report.counters["creation_law_violations"] = creation_violations
    report.counters["update_law_violations"] = update_violations
    report.notes.append(CLOSURE_NOTE)
    return report, result


def _classify_expiration(passes: list[_Pass]) -> ExpirationPolicy:
    values = {entry.value for entry, _ in passes if entry}
    if not values:
        return ExpirationPolicy.BLOCKED
    if len(values) > 1:
        return ExpirationPolicy.ROTATE_VALUE
    expiries = [entry.expires if entry else None for entry, _ in passes]
    updated_s2 = expiries[1] is not None and expiries[1] != expiries[0]
    updated_s3 = expiries[2] is not None and expiries[2] != expiries[1]
    if updated_s2 and updated_s3:
        return ExpirationPolicy.EVERY_EVENT
    if updated_s3:
        return ExpirationPolicy.ONLY_FBCLID
    if updated_s2:
        return ExpirationPolicy.ONLY_RELOAD
    return ExpirationPolicy.NEVER


def _creation_law_violations(passes: list[_Pass]) -> int:
    """Count passes after which a freshly written cookie does not expire
    exactly 90 days past its creation timestamp."""
    violations = 0
    previous_value = None
    for entry, _ in passes:
        if entry is None:
            continue
        if entry.value != previous_value:  # a write happened in this pass
            if entry.expires - entry.created != COOKIE_LIFETIME_MS:
                violations += 1
        previous_value = entry.value
    return violations


def _update_law_violations(passes: list[_Pass]) -> int:
    """On always-updating sites the expiry moves in lockstep with the crawl gap."""
    violations = 0
    # Per-site offsets cancel: a site's steps share the same ms offset.
    for (before, t0), (after, t1) in zip(passes, passes[1:]):
        if before is None or after is None or after.expires - before.expires != t1 - t0:
            violations += 1
    return violations


# -- external-ID re-identification -----------------------------------------


def experiment_external_id(
    n_sites: int,
    sharing_fraction: float = EXTERNAL_ID_FRACTIONS[0],
    stable_fraction: float = EXTERNAL_ID_FRACTIONS[1],
    default_anonymous_fraction: float = EXTERNAL_ID_FRACTIONS[2],
    seed: int = 0,
) -> tuple[MetricsReport, RunResult]:
    """Visit, revisit, drop the browser-ID cookie, revisit again.

    Sharing sites send a site-assigned external ID with every report;
    stable ones keep it across the cookie drop and therefore re-identify
    the visitor, rotating ones do not.  Default-anonymous sites hand the
    same ID to every browser, incognito included.  The fractions default
    to ``EXTERNAL_ID_FRACTIONS``.
    """
    n_sharing = _share(n_sites, sharing_fraction)
    n_stable = _share(n_sharing, stable_fraction)
    n_default = _share(n_sharing, default_anonymous_fraction)

    # Sharing sites come first; the stable and default-anonymous ones are
    # prefixes of them.
    domains = _domains(n_sites)
    rotating = domains[n_stable:n_sharing]
    sites = [
        SiteConfig(
            domain=d,
            shares_external_id=i < n_sharing,
            external_id_default_when_anonymous=i < n_default,
        )
        for i, d in enumerate(domains)
    ]
    browsers = [
        {"id": "b1", "user_agent": "ua-one"},
        {"id": "b2", "user_agent": "ua-two"},
        {"id": "b3", "user_agent": "ua-one", "incognito": True},
    ]

    steps = (
        _crawl(0, domains, browser="b1")  # S1
        + _crawl(DAY_MS, domains, browser="b1")  # S2
        # Rotating sites assign a fresh ID once the old session is gone;
        # the rotations fill the ticks just before the deletions.
        + _crawl(2 * DAY_MS - len(rotating) - 1, rotating, "RotateExternalId", browser="b1")
        # Forced cookie loss before S3.
        + _crawl(2 * DAY_MS, domains, "DeleteCookie", browser="b1", name=FBP_NAME)
        + _crawl(2 * DAY_MS + n_sites, domains, browser="b1")  # S3
        + [  # cross-browser / incognito probe
            Step(3 * DAY_MS + 2 * i + j, "Visit", {"browser": b, "site": d})
            for i, d in enumerate(domains[:n_sharing])
            for j, b in ((1, "b2"), (2, "b3"))
        ]
    )

    result = run(Scenario(seed=seed, sites=sites, browsers=browsers, steps=steps))

    # Per-site observation from the hop-0 reports.
    ext_by_site_browser: dict[str, dict[str, set[str]]] = {}
    fbp_by_site: dict[str, dict[str, None]] = {}  # b1's distinct values, in order
    for page in result.emissions:
        report = page.report
        if report is None:
            continue
        if report.external_id is not None:
            ext_by_site_browser.setdefault(page.site, {}).setdefault(page.browser_id, set()).add(
                report.external_id
            )
        if report.fbp is not None and page.browser_id == "b1":
            fbp_by_site.setdefault(page.site, {})[report.fbp] = None

    observed_sharing = sorted(ext_by_site_browser)
    merged_sites = []
    for site in observed_sharing:
        values = list(fbp_by_site.get(site, ()))
        if len(values) < 2:
            continue
        first = result.graph.profile((site, values[0]))
        second = result.graph.profile((site, values[-1]))
        if first is not None and first is second:
            merged_sites.append(site)
    incognito_default_sites = [
        site
        for site in observed_sharing
        if len(ext_by_site_browser[site]) == 3
        and len(set().union(*ext_by_site_browser[site].values())) == 1
    ]

    # Only this experiment's own counters, not the run's.
    report = MetricsReport()
    report.counters.update(
        {
            "sites_total": n_sites,
            "configured_sharing": n_sharing,
            "configured_stable": n_stable,
            "configured_default_anonymous": n_default,
            "observed_sharing": len(observed_sharing),
            "observed_reidentified": len(merged_sites),
            "observed_incognito_default": len(incognito_default_sites),
        }
    )
    report.notes.append(CLOSURE_NOTE)
    return report, result


# -- click-ID third-party propagation --------------------------------------


# The paper's hop-1 fan-out shape: 22.4% of sites inform no third party,
# the median site informs 6 and the busiest 31.
FANOUT_ZERO_FRACTION = 0.224
FANOUT_MEDIAN = 6
FANOUT_MAX = 31


def default_fanout_counts(n: int) -> list[int]:
    """A deterministic heavy-tail fan-out profile with the paper's shape."""
    zeros = round(n * FANOUT_ZERO_FRACTION)
    nonzero = n - zeros
    counts = [0] * zeros
    half = n // 2
    lower = min(max(half - zeros + 1, 1), nonzero)  # entries at or below the median slot
    upper = nonzero - lower
    for k in range(lower):
        counts.append(1 + round((FANOUT_MEDIAN - 1) * k / max(lower - 1, 1)))
    for k in range(upper):
        counts.append(
            FANOUT_MEDIAN + 1 + round((FANOUT_MAX - FANOUT_MEDIAN - 2) * k / max(upper - 1, 1))
        )
    if upper > 0:
        counts[-1] = FANOUT_MAX
    return counts


def experiment_propagation(
    n_sites: int, fanout_spec: dict | None = None, seed: int = 0
) -> tuple[MetricsReport, dict[str, RunResult]]:
    """Inject each click-ID variant and measure third-party fan-out.

    Each site's hop-1 fan-out comes from ``default_fanout_counts``.
    ``fanout_spec`` may give ``second_hop_fanout`` (hop-2 destinations per
    hop-1 one; by default 0).
    """
    if n_sites < 1:
        # The fan-out distribution of no sites has no median or max.
        raise ValueError(f"propagation needs at least one site, not {n_sites}")
    spec = fanout_spec or {}
    if not set(spec) <= {"second_hop_fanout"}:
        raise ValueError(f"fan-out spec takes only second_hop_fanout, not {sorted(spec)}")
    second_hop_fanout = spec.get("second_hop_fanout", 0)

    domains = _domains(n_sites)
    sites = []
    for domain, k in zip(domains, default_fanout_counts(n_sites)):
        third_parties = tuple(f"tp{j}.{domain.split('.')[0]}-ads.example" for j in range(k))
        forwarding = {
            tp: tuple(f"hop2-{j}.{tp}" for j in range(second_hop_fanout))
            for tp in third_parties
        } if second_hop_fanout else {}
        # One first-party subdomain destination, exercising the exclusion
        # rule in the distribution.
        extra = (f"metrics.{domain}",) if k else ()
        sites.append(
            SiteConfig(
                domain=domain,
                first_hop_third_parties=third_parties + extra,
                second_hop_forwarding=forwarding,
            )
        )

    values = {
        "real": _issued_click_id(seed),
        "random": "".join(
            random.Random(seed).choices(CLICK_ID_ALPHABET, k=CLICK_ID_LENGTH)
        ),
        "dummy": "Adummy_param",
    }

    results: dict[str, RunResult] = {}
    report = MetricsReport()
    # A signature equal to an earlier one (as the closure check expects across
    # variants) is held once: the report is serialised with all variants alive.
    held: dict[str, str] = {}
    for variant, value in values.items():
        steps = _crawl(0, domains, browser="crawler", url_extras=[["fbclid", value]])
        result = run(
            Scenario(seed=seed, sites=sites, browsers=[{"id": "crawler"}], steps=steps)
        )
        results[variant] = result
        report.site_flags[variant] = {
            site: held.setdefault(flags, flags)
            for site, flags in emission_signatures(result.emissions, domains).items()
        }
        counters = result.report.counters
        report.counters[f"third_parties_informed_{variant}"] = (
            counters["emissions_hop1"] + counters["emissions_hop2"]
        )

    distributions = third_party_distribution(results["real"].emissions, domains)
    for scope, distribution in distributions.items():
        report.distributions[scope] = distribution.cdf_points()
        report.counters[f"{scope}_median"] = distribution.median
        report.counters[f"{scope}_max"] = distribution.max
    report.counters["sites_total"] = n_sites
    report.counters["zero_third_party_sites"] = distributions["unique_first_hop"].samples.count(0)
    report.notes.append(CLOSURE_NOTE)
    return report, results


def emission_signatures(emissions: list[PageEmissions], sites: list[str]) -> dict[str, str]:
    """Per-site multiset of (destination, hop, identifier presence) flags.

    Click-ID values themselves are excluded so signatures can be compared
    across injected variants.
    """
    per_site: dict[str, list[str]] = {site: [] for site in sites}
    for page in emissions:
        items = per_site.get(page.site)
        if items is None:
            continue
        if page.report is not None:
            items.append(f"{page.report.destination}|h0{_flags(page.report)}")
        if page.fanout:
            # Every destination got the same payload: format its flags once.
            flags = _flags(page.forwarded)
            first, second = "|h1" + flags, "|h2" + flags
            for destination, forwardees in page.fanout:
                items.append(destination + first)
                items.extend(forwardee + second for forwardee in forwardees)
    return {site: ";".join(sorted(items)) for site, items in per_site.items()}


def _flags(report: EventReport) -> str:
    return (
        f"|fbp={int(report.fbp is not None)}"
        f"|fbc={int(report.fbc is not None)}"
        f"|clid={int(report.fbclid_param is not None)}"
    )


# -- consent compliance ----------------------------------------------------


def experiment_consent(
    n_sites: int,
    noncompliant_fraction: float = CONSENT_FRACTIONS[0],
    interaction_gated_fraction: float = CONSENT_FRACTIONS[1],
    seed: int = 0,
) -> tuple[MetricsReport, dict[str, RunResult]]:
    """Visit the population under all three consent modes; count cookies.

    The fractions default to ``CONSENT_FRACTIONS``.
    """
    n_noncompliant = _share(n_sites, noncompliant_fraction)
    n_gated = _share(n_noncompliant, interaction_gated_fraction)

    # Non-compliant sites come first; the interaction-gated ones are a
    # prefix of them.
    domains = _domains(n_sites)
    sites = [
        SiteConfig(
            domain=d,
            consent_compliant=i >= n_noncompliant,
            consent_requires_interaction=i < n_gated,
        )
        for i, d in enumerate(domains)
    ]

    report = MetricsReport()
    results: dict[str, RunResult] = {}
    for mode in ConsentMode:
        result = run(
            Scenario(
                seed=seed,
                sites=sites,
                browsers=[{"id": "crawler"}],
                steps=_crawl(0, domains, browser="crawler"),
                consent_mode=mode,
            )
        )
        results[mode.value] = result
        # Read without BrowserProfile.jar, which would create empty jars.
        jars = result.world.browser("crawler").jars
        stored = sum(1 for d in domains if d in jars and FBP_NAME in jars[d].entries)
        report.counters[f"stored_{mode.value}"] = stored
    report.counters.update(
        {
            "sites_total": n_sites,
            "configured_noncompliant": n_noncompliant,
            "configured_interaction_gated": n_gated,
        }
    )
    report.notes.append(CLOSURE_NOTE)
    return report, results


# -- the four-day de-anonymization scenario --------------------------------


TRAVEL_SITE = "www.travel.com"
FOUR_DAY_ACCOUNT = "U1234"


def run_four_day(seed: int = 42) -> RunResult:
    """Two anonymous visits, account creation, then a platform click."""
    site = SiteConfig(domain=TRAVEL_SITE)
    steps = [
        Step(1 * DAY_MS, "Visit", {"browser": "bZ", "site": TRAVEL_SITE}),
        Step(2 * DAY_MS, "Visit", {"browser": "bZ", "site": TRAVEL_SITE}),
        Step(3 * DAY_MS, "CreateAccount", {"browser": "bZ", "account": FOUR_DAY_ACCOUNT}),
        Step(4 * DAY_MS, "PlatformLoad", {"account": FOUR_DAY_ACCOUNT}),
        Step(
            4 * DAY_MS + 1,
            "PlatformClick",
            {"account": FOUR_DAY_ACCOUNT, "site": TRAVEL_SITE, "element_class": "feed-link"},
        ),
    ]
    return run(Scenario(seed=seed, sites=[site], browsers=[{"id": "bZ"}], steps=steps))
