"""Built-in experiment replications.

Each experiment generates a configured site population, replays the
corresponding crawl protocol through the simulator, and reports the
observed tallies.  These are closure checks: configuration goes in, the
pipeline's observation comes out, and the two must agree.  They validate
the simulator end to end, not any live-web population.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cookies import CLICK_ID_ALPHABET, CLICK_ID_LENGTH
from .pixel import FBP_NAME, EmissionRecord
from .reporting import MetricsReport, tally_classes, third_party_distribution
from .scenarios import RunResult, Scenario, Step, run
from .social import PlatformFeed
from .world import (
    COOKIE_LIFETIME_MS,
    DAY_MS,
    ConsentMode,
    ExpirationPolicy,
    ReportingClass,
    SiteConfig,
    World,
)

CLOSURE_NOTE = (
    "closure check: configured population replayed through the pipeline; "
    "validates the simulator, not live-web measurements"
)

REPORTING_CLASS_ORDER = [
    ReportingClass.BOTH,
    ReportingClass.FBP_ONLY_WITH_FBCLID,
    ReportingClass.FBP_ONLY,
    ReportingClass.SILENT,
]

EXPIRATION_POLICY_ORDER = [
    ExpirationPolicy.EVERY_EVENT,
    ExpirationPolicy.BLOCKED,
    ExpirationPolicy.NEVER,
    ExpirationPolicy.ONLY_FBCLID,
    ExpirationPolicy.ONLY_RELOAD,
    ExpirationPolicy.ROTATE_VALUE,
]

# The paper's populations.  An experiment given no fraction uses these.
PROFILING_FRACTIONS = (0.923, 0.015, 0.039, 0.023)  # REPORTING_CLASS_ORDER
EXPIRATION_FRACTIONS = (  # EXPIRATION_POLICY_ORDER
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


def _domains(n: int) -> list[str]:
    return [f"site{i:05d}.example" for i in range(n)]


def _issued_click_id(seed: int) -> str:
    """A canonical click ID as the platform would hand out."""
    feed = PlatformFeed(seed=seed)
    load = feed.refresh_click_ids("probe-account", tick=0)
    return load.click_ids[0].value


# -- reporting-class profiling (plain visit, then visit with click ID) -----


def experiment_profiling(
    n_sites: int,
    class_fractions: list[float] | None = None,
    seed: int = 0,
    class_counts: list[int] | None = None,
) -> tuple[MetricsReport, RunResult]:
    """Visit every site plain (S1, S2), then with a click ID (S4)."""
    if class_counts is None:
        class_counts = allocate_counts(n_sites, class_fractions or PROFILING_FRACTIONS)
    if sum(class_counts) != n_sites:
        raise ValueError("class counts do not sum to site total")

    domains = _domains(n_sites)
    sites = []
    i = 0
    for count, rc in zip(class_counts, REPORTING_CLASS_ORDER):
        for _ in range(count):
            sites.append(
                SiteConfig(
                    domain=domains[i],
                    reporting_class=rc,
                    # The plain-only class is observed on sites that strip
                    # URL parameters before the pixel sees them.
                    strips_fbclid=(rc is ReportingClass.FBP_ONLY),
                )
            )
            i += 1

    click_id = _issued_click_id(seed)
    steps = []
    tick = 0

    def next_tick() -> int:
        nonlocal tick
        tick += 1
        return tick

    for domain in domains:  # S1: first crawl
        steps.append(Step(next_tick(), "Visit", {"browser": "crawler", "site": domain}))
    tick = DAY_MS  # S2: revisit next day
    for domain in domains:
        steps.append(Step(next_tick(), "Visit", {"browser": "crawler", "site": domain}))
    tick = 2 * DAY_MS  # S4: revisit with the click ID appended
    for domain in domains:
        steps.append(
            Step(
                next_tick(),
                "Visit",
                {
                    "browser": "crawler",
                    "site": domain,
                    "url_extras": [["fbclid", click_id]],
                },
            )
        )

    result = run(
        Scenario(seed=seed, sites=sites, browsers=[{"id": "crawler"}], steps=steps)
    )

    observed = tally_classes(result.log, domains)
    report = result.report
    report.classes = observed
    for count, rc in zip(class_counts, REPORTING_CLASS_ORDER):
        report.counters[f"configured_{rc.value}"] = count
    report.counters["sites_total"] = n_sites
    report.counters["sites_reporting_plain_visit"] = (
        observed["Both"] + observed["FbpOnly"]
    )
    report.counters["sites_reporting_both_ids"] = (
        observed["Both"] + observed["FbpOnlyWithFbclid"]
    )
    report.notes.append(CLOSURE_NOTE)
    return report, result


# -- rolling expiration ----------------------------------------------------


@dataclass
class _ExpirationObservation:
    values: list[str | None]
    expiries: list[int | None]
    created: list[int | None]
    ticks: list[int]


def experiment_expiration(
    n_sites: int,
    policy_fractions: list[float] | None = None,
    gap_days: tuple[int, int] | int = (1, 1),
    seed: int = 0,
    policy_counts: list[int] | None = None,
) -> tuple[MetricsReport, RunResult]:
    """Visit, reload, then visit with a click ID; classify expiry updates."""
    if isinstance(gap_days, int):
        gap_days = (gap_days, gap_days)
    g1, g2 = gap_days
    if policy_counts is None:
        policy_counts = allocate_counts(n_sites, policy_fractions or EXPIRATION_FRACTIONS)
    if sum(policy_counts) != n_sites:
        raise ValueError("policy counts do not sum to site total")

    domains = _domains(n_sites)
    sites = []
    policy_of: dict[str, ExpirationPolicy] = {}
    i = 0
    for count, policy in zip(policy_counts, EXPIRATION_POLICY_ORDER):
        for _ in range(count):
            sites.append(SiteConfig(domain=domains[i], expiration_policy=policy))
            policy_of[domains[i]] = policy
            i += 1

    click_id = _issued_click_id(seed)
    # Per-site step ticks are day-aligned with a fixed per-site offset so
    # expiry differences come out as exact multiples of a day.
    step_days = [0, g1, g1 + g2]
    steps = []
    for step_index, day in enumerate(step_days):
        for site_index, domain in enumerate(domains):
            params: dict = {"browser": "crawler", "site": domain}
            action = "Visit"
            if step_index == 1:
                action = "Reload"
            elif step_index == 2:
                params["url_extras"] = [["fbclid", click_id]]
            steps.append(Step(day * DAY_MS + site_index + 1, action, params))
    steps.sort(key=lambda s: s.tick)

    scenario = Scenario(
        seed=seed, sites=sites, browsers=[{"id": "crawler"}], steps=steps
    )
    observations = {d: _ExpirationObservation([], [], [], []) for d in domains}

    def probe(step: Step, world: World) -> None:
        # Only a site's own steps touch the crawler's jar for that site, so
        # right after its step the jar holds what a whole crawl pass leaves.
        domain = step.params["site"]
        entry = world.browser("crawler").jar(domain).entries.get(FBP_NAME)
        obs = observations[domain]
        # Copied out: a later touch() moves ``expires`` in place.
        obs.values.append(entry.value if entry else None)
        obs.expiries.append(entry.expires if entry else None)
        obs.created.append(entry.created if entry else None)
        obs.ticks.append(world.clock.now)

    result = run(scenario, observe=probe)

    creation_violations = 0
    update_violations = 0
    tallies = {p.value: 0 for p in EXPIRATION_POLICY_ORDER}
    for domain in domains:
        obs = observations[domain]
        observed = _classify_expiration(obs)
        tallies[observed.value] += 1
        creation_violations += _creation_law_violations(obs)
        if policy_of[domain] is ExpirationPolicy.EVERY_EVENT:
            update_violations += _update_law_violations(obs)

    report = result.report
    report.classes = tallies
    for count, policy in zip(policy_counts, EXPIRATION_POLICY_ORDER):
        report.counters[f"configured_{policy.value}"] = count
    report.counters["sites_total"] = n_sites
    report.counters["gap_days_s1_s2"] = g1
    report.counters["gap_days_s2_s3"] = g2
    report.counters["creation_law_violations"] = creation_violations
    report.counters["update_law_violations"] = update_violations
    report.notes.append(CLOSURE_NOTE)
    return report, result


def _classify_expiration(obs: _ExpirationObservation) -> ExpirationPolicy:
    values, expiries = obs.values, obs.expiries
    if all(v is None for v in values):
        return ExpirationPolicy.BLOCKED
    if len(set(v for v in values if v is not None)) > 1:
        return ExpirationPolicy.ROTATE_VALUE
    updated_s2 = expiries[1] is not None and expiries[1] != expiries[0]
    updated_s3 = expiries[2] is not None and expiries[2] != expiries[1]
    if updated_s2 and updated_s3:
        return ExpirationPolicy.EVERY_EVENT
    if updated_s3:
        return ExpirationPolicy.ONLY_FBCLID
    if updated_s2:
        return ExpirationPolicy.ONLY_RELOAD
    return ExpirationPolicy.NEVER


def _creation_law_violations(obs: _ExpirationObservation) -> int:
    """Count passes after which a freshly written cookie does not expire
    exactly 90 days past its creation timestamp."""
    violations = 0
    previous_value = None
    for value, expires, created in zip(obs.values, obs.expiries, obs.created):
        if value is None:
            continue
        if value != previous_value:  # a write happened in this pass
            if expires - created != COOKIE_LIFETIME_MS:
                violations += 1
        previous_value = value
    return violations


def _update_law_violations(obs: _ExpirationObservation) -> int:
    """On always-updating sites the expiry moves in lockstep with the crawl gap."""
    violations = 0
    for k in (1, 2):
        if obs.expiries[k] is None or obs.expiries[k - 1] is None:
            violations += 1
            continue
        # Per-site offsets cancel: both steps share the same ms offset.
        expected_shift = obs.ticks[k] - obs.ticks[k - 1]
        if obs.expiries[k] - obs.expiries[k - 1] != expected_shift:
            violations += 1
    return violations


# -- external-ID re-identification -----------------------------------------


def experiment_external_id(
    n_sites: int,
    sharing_fraction: float | None = None,
    stable_fraction: float | None = None,
    default_anonymous_fraction: float | None = None,
    seed: int = 0,
) -> tuple[MetricsReport, RunResult]:
    """Visit, revisit, drop the browser-ID cookie, revisit again.

    Sharing sites send a site-assigned external ID with every report;
    stable ones keep it across the cookie drop and therefore re-identify
    the visitor, rotating ones do not.  Default-anonymous sites hand the
    same ID to every browser, incognito included.  A fraction left as
    ``None`` takes its value from ``EXTERNAL_ID_FRACTIONS``.
    """
    if sharing_fraction is None:
        sharing_fraction = EXTERNAL_ID_FRACTIONS[0]
    if stable_fraction is None:
        stable_fraction = EXTERNAL_ID_FRACTIONS[1]
    if default_anonymous_fraction is None:
        default_anonymous_fraction = EXTERNAL_ID_FRACTIONS[2]
    n_sharing = allocate_counts(n_sites, [sharing_fraction, 1 - sharing_fraction])[0]
    n_stable = allocate_counts(n_sharing, [stable_fraction, 1 - stable_fraction])[0] if n_sharing else 0
    n_default = (
        allocate_counts(
            n_sharing, [default_anonymous_fraction, 1 - default_anonymous_fraction]
        )[0]
        if n_sharing
        else 0
    )

    domains = _domains(n_sites)
    sharing = domains[:n_sharing]
    stable = set(sharing[:n_stable])
    default_anon = set(sharing[:n_default])
    rotating = [d for d in sharing if d not in stable]

    sites = [
        SiteConfig(
            domain=d,
            shares_external_id=(d in set(sharing)),
            external_id_default_when_anonymous=(d in default_anon),
        )
        for d in domains
    ]
    browsers = [
        {"id": "b1", "user_agent": "ua-one"},
        {"id": "b2", "user_agent": "ua-two"},
        {"id": "b3", "user_agent": "ua-one", "incognito": True},
    ]

    steps = []
    tick = 0

    def next_tick() -> int:
        nonlocal tick
        tick += 1
        return tick

    for domain in domains:  # S1
        steps.append(Step(next_tick(), "Visit", {"browser": "b1", "site": domain}))
    tick = DAY_MS
    for domain in domains:  # S2
        steps.append(Step(next_tick(), "Visit", {"browser": "b1", "site": domain}))
    # Rotating sites assign a fresh ID once the old session is gone; the
    # rotations fill the ticks just before the deletions.
    tick = 2 * DAY_MS - len(rotating) - 1
    for domain in rotating:
        steps.append(Step(next_tick(), "RotateExternalId", {"browser": "b1", "site": domain}))
    tick = 2 * DAY_MS
    for domain in domains:  # forced cookie loss before S3
        steps.append(
            Step(next_tick(), "DeleteCookie", {"browser": "b1", "site": domain, "name": FBP_NAME})
        )
    for domain in domains:  # S3
        steps.append(Step(next_tick(), "Visit", {"browser": "b1", "site": domain}))
    tick = 3 * DAY_MS
    for domain in sharing:  # cross-browser / incognito probe
        steps.append(Step(next_tick(), "Visit", {"browser": "b2", "site": domain}))
        steps.append(Step(next_tick(), "Visit", {"browser": "b3", "site": domain}))

    result = run(Scenario(seed=seed, sites=sites, browsers=browsers, steps=steps))

    # Per-site observation from the hop-0 log.
    ext_by_site_browser: dict[str, dict[str, set[str]]] = {}
    fbp_by_site: dict[str, list[str]] = {}
    for record in result.log:
        if record.hop != 0:
            continue
        site = record.site
        if record.report.external_id is not None:
            ext_by_site_browser.setdefault(site, {}).setdefault(record.browser_id, set()).add(
                record.report.external_id
            )
        if record.report.fbp is not None and record.browser_id == "b1":
            values = fbp_by_site.setdefault(site, [])
            if record.report.fbp not in values:
                values.append(record.report.fbp)

    observed_sharing = sorted(ext_by_site_browser)
    merged_sites = []
    for site in observed_sharing:
        values = fbp_by_site.get(site, [])
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


def default_fanout_counts(
    n: int, zero_fraction: float = 0.224, median_target: int = 6, max_count: int = 31
) -> list[int]:
    """A deterministic heavy-tail fan-out profile hitting the target shape."""
    zeros = round(n * zero_fraction)
    nonzero = n - zeros
    counts = [0] * zeros
    half = n // 2
    lower = max(half - zeros + 1, 1)  # entries at or below the median slot
    upper = nonzero - lower
    for k in range(lower):
        counts.append(1 + round((median_target - 1) * k / max(lower - 1, 1)))
    for k in range(upper):
        counts.append(
            median_target
            + 1
            + round((max_count - median_target - 2) * k / max(upper - 1, 1))
        )
    if upper > 0:
        counts[-1] = max_count
    return counts


def experiment_propagation(
    n_sites: int,
    fanout_spec: list[int] | dict | None = None,
    variants: tuple[str, ...] = ("real", "random", "dummy"),
    seed: int = 0,
) -> tuple[MetricsReport, dict[str, RunResult]]:
    """Inject each click-ID variant and measure third-party fan-out."""
    if fanout_spec is None:
        fanout_spec = default_fanout_counts(n_sites)
    if isinstance(fanout_spec, dict):
        counts = fanout_spec.get("counts") or default_fanout_counts(
            n_sites,
            zero_fraction=fanout_spec.get("zero_fraction", 0.224),
            median_target=fanout_spec.get("median", 6),
            max_count=fanout_spec.get("max", 31),
        )
        second_hop_fanout = fanout_spec.get("second_hop_fanout", 0)
    else:
        counts = list(fanout_spec)
        second_hop_fanout = 0
    if len(counts) != n_sites:
        raise ValueError("fan-out spec length does not match site total")

    domains = _domains(n_sites)
    sites = []
    for domain, k in zip(domains, counts):
        third_parties = tuple(f"tp{j}.{domain.split('.')[0]}-ads.example" for j in range(k))
        forwarding = {
            tp: tuple(
                f"hop2-{j}.{tp}" for j in range(second_hop_fanout)
            )
            for tp in third_parties
        } if second_hop_fanout else {}
        extra = ()
        if k:
            # One first-party subdomain destination, exercising the
            # exclusion rule in the distribution.
            extra = (f"metrics.{domain}",)
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
    for variant in variants:
        steps = [
            Step(
                i + 1,
                "InjectFbclid",
                {"browser": "crawler", "site": domain, "value": values[variant]},
            )
            for i, domain in enumerate(domains)
        ]
        result = run(
            Scenario(seed=seed, sites=sites, browsers=[{"id": "crawler"}], steps=steps)
        )
        results[variant] = result
        report.site_flags[variant] = emission_signatures(result.log, domains)
        report.counters[f"third_parties_informed_{variant}"] = sum(
            1 for r in result.log if r.hop in (1, 2)
        )

    first = results[variants[0]]
    unique = third_party_distribution(first.log, domains, "unique_first_hop")
    total = third_party_distribution(first.log, domains, "total_two_hop")
    report.distributions["unique_first_hop"] = unique.cdf_points()
    report.distributions["total_two_hop"] = total.cdf_points()
    report.counters.update(
        {
            "sites_total": n_sites,
            "unique_first_hop_median": unique.median,
            "unique_first_hop_max": unique.max,
            "total_two_hop_median": total.median,
            "total_two_hop_max": total.max,
            "zero_third_party_sites": sum(1 for s in unique.samples if s == 0),
        }
    )
    report.notes.append(CLOSURE_NOTE)
    return report, results


def emission_signatures(log: list[EmissionRecord], sites: list[str]) -> dict[str, str]:
    """Per-site multiset of (destination, hop, identifier presence) flags.

    Click-ID values themselves are excluded so signatures can be compared
    across injected variants.
    """
    per_site: dict[str, list[str]] = {site: [] for site in sites}
    for record in log:
        if record.site not in per_site:
            continue
        r = record.report
        per_site[record.site].append(
            f"{r.destination}|h{record.hop}"
            f"|fbp={int(r.fbp is not None)}"
            f"|fbc={int(r.fbc is not None)}"
            f"|clid={int(r.fbclid_param is not None)}"
        )
    return {site: ";".join(sorted(items)) for site, items in per_site.items()}


# -- consent compliance ----------------------------------------------------


def experiment_consent(
    n_sites: int,
    noncompliant_fraction: float | None = None,
    interaction_gated_fraction: float | None = None,
    seed: int = 0,
) -> tuple[MetricsReport, dict[str, RunResult]]:
    """Visit the population under all three consent modes; count cookies.

    A fraction left as ``None`` takes its value from ``CONSENT_FRACTIONS``.
    """
    if noncompliant_fraction is None:
        noncompliant_fraction = CONSENT_FRACTIONS[0]
    if interaction_gated_fraction is None:
        interaction_gated_fraction = CONSENT_FRACTIONS[1]
    n_noncompliant = allocate_counts(
        n_sites, [noncompliant_fraction, 1 - noncompliant_fraction]
    )[0]
    n_gated = (
        allocate_counts(
            n_noncompliant, [interaction_gated_fraction, 1 - interaction_gated_fraction]
        )[0]
        if n_noncompliant
        else 0
    )

    domains = _domains(n_sites)
    sites = []
    for i, domain in enumerate(domains):
        noncompliant = i < n_noncompliant
        sites.append(
            SiteConfig(
                domain=domain,
                consent_compliant=not noncompliant,
                consent_requires_interaction=noncompliant and i < n_gated,
            )
        )

    report = MetricsReport()
    results: dict[str, RunResult] = {}
    for mode in (ConsentMode.ACCEPT_ALL, ConsentMode.REJECT_ALL, ConsentMode.NO_ACTION):
        steps = [
            Step(i + 1, "Visit", {"browser": "crawler", "site": domain})
            for i, domain in enumerate(domains)
        ]
        result = run(
            Scenario(
                seed=seed,
                sites=sites,
                browsers=[{"id": "crawler"}],
                steps=steps,
                consent_mode=mode,
            )
        )
        results[mode.value] = result
        stored = sum(
            1
            for domain in domains
            if result.world.browser("crawler").jar(domain).entries.get(FBP_NAME)
        )
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


def four_day_scenario(seed: int = 42) -> Scenario:
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
    return Scenario(seed=seed, sites=[site], browsers=[{"id": "bZ"}], steps=steps)


def run_four_day(seed: int = 42) -> RunResult:
    return run(four_day_scenario(seed))
