"""Acceptance suite.

Each test covers one numbered criterion and prints a single pass/fail
line (run with ``pytest tests/test_acceptance.py -s`` to see them live).
"""

import functools
import json
import random
import time

from pixelsim.cookies import (
    CLICK_ID_ALPHABET,
    CLICK_ID_LENGTH,
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
from pixelsim.experiments import (
    CLOSURE_NOTE,
    allocate_counts,
    experiment_consent,
    experiment_expiration,
    experiment_external_id,
    experiment_profiling,
    experiment_propagation,
    run_four_day,
)
from pixelsim.reporting import destination_sets, third_party_distribution
from pixelsim.scenarios import run
from pixelsim.world import DAY_MS
from helpers import (
    bfs_destination_oracle,
    distribution_oracle,
    random_scenario,
    resolve_oracle,
)


def criterion(label, budget_s=None):
    """Print one pass/fail line per criterion; enforce the time budget."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            elapsed = time.monotonic() - start
            if budget_s is not None and elapsed > budget_s:
                print(f"[FAIL] {label} (took {elapsed:.1f}s, budget {budget_s}s)")
                raise AssertionError(f"{label}: exceeded {budget_s}s budget")
            print(f"[PASS] {label} ({elapsed:.2f}s)")

        return wrapper

    return decorate


N = 10_000


@criterion("criterion 1: codec round trips and literal examples", budget_s=5)
def test_criterion_1_codecs():
    rng = random.Random(0)

    for _ in range(N):
        cookie = FbpCookie(
            subdomain_index=rng.randrange(0, 8),
            creation_time=rng.randrange(0, 10**14),
            random_number=rng.randrange(0, 10**10),
        )
        assert parse_fbp(serialize_fbp(cookie)) == cookie

    for _ in range(N):
        value = "".join(
            rng.choices(CLICK_ID_ALPHABET, k=rng.randrange(1, CLICK_ID_LENGTH + 1))
        )
        cookie = FbcCookie(
            subdomain_index=rng.randrange(0, 8),
            creation_time=rng.randrange(0, 10**14),
            fbclid=Fbclid(value),
        )
        assert parse_fbc(serialize_fbc(cookie)) == cookie

    chars = "abcXYZ019 _-[]/&=?%~"
    for _ in range(N):
        query = tuple(
            (
                "".join(rng.choices(chars, k=rng.randrange(1, 6))),
                "".join(rng.choices(chars, k=rng.randrange(0, 10))),
            )
            for _ in range(rng.randrange(0, 5))
        )
        url = TrackedUrl(origin="site.example", path="/p", query=query)
        assert TrackedUrl.parse(url.serialize()) == url

    events = list(EventName)
    for _ in range(N):
        report = EventReport(
            pixel_id=f"px-{rng.randrange(100)}",
            event=rng.choice(events),
            page_url=TrackedUrl.parse(
                f"https://s{rng.randrange(50)}.example/p?x={rng.randrange(9)}"
            ),
            timestamp=rng.randrange(0, 10**13),
            destination="tracker.example",
            fbp=f"fb.1.{rng.randrange(10**12)}.{rng.randrange(10**10)}",
            fbc=(f"fb.1.{rng.randrange(10**12)}.Click{rng.randrange(10**6)}"
                 if rng.random() < 0.5 else None),
            external_id=("%064x" % rng.randrange(16**64)) if rng.random() < 0.5 else None,
        )
        assert decode_report(encode_report(report)) == report

    # Literal values observed in the wild.
    assert serialize_fbp(parse_fbp("fb.1.1596403881668.1116446470")) == (
        "fb.1.1596403881668.1116446470"
    )
    wire = encode_report(
        EventReport(
            pixel_id="px",
            event=EventName.PAGE_VIEW,
            page_url=TrackedUrl.parse("https://a.example/"),
            timestamp=0,
            destination="tracker.example",
            external_id="8d16a0dcb109e26121cacb648c5f40e7",
        )
    )
    assert decode_report(wire).external_id == "8d16a0dcb109e26121cacb648c5f40e7"
    footnote = TrackedUrl.parse(
        "https://www.ncbi.nlm.nih.gov/pmc/articles/PMC5678212/"
        "?fbclid=IwAR0J2ueFwGP2ZSIznw04PQEFAbkMDue3T9YSg6"
    )
    extracted = extract_fbclid(footnote)
    assert extracted.value == "IwAR0J2ueFwGP2ZSIznw04PQEFAbkMDue3T9YSg6"
    assert not extracted.canonical


@criterion("criterion 2: four-day de-anonymization", budget_s=1)
def test_criterion_2_four_day():
    result = run_four_day(seed=42)
    links = result.graph.resolve()
    assert len(links) == 1
    (site, fbp_value), account = links[0]
    assert site == "www.travel.com"
    assert account == "U1234"
    created = result.world.account("U1234").created_at
    assert created == 3 * DAY_MS
    history = result.graph.account_history("U1234")
    assert [a.timestamp for a in history] == [1 * DAY_MS, 2 * DAY_MS, 4 * DAY_MS + 1]
    assert all(a.event == "PageView" for a in history)
    assert history[0].timestamp < created and history[1].timestamp < created
    # The linked cookie is the one minted on the first anonymous visit.
    assert parse_fbp(fbp_value).creation_time == 1 * DAY_MS


@criterion("criterion 3: oracle equivalence on 200 random scenarios", budget_s=30)
def test_criterion_3_oracles():
    for seed in range(200):
        result = run(random_scenario(seed))
        assert result.graph.resolve() == resolve_oracle(result), f"seed {seed}"

        domains = list(result.world.sites)
        distributions = third_party_distribution(result.emissions, domains)
        assert distributions.keys() == {"unique_first_hop", "total_two_hop"}
        for scope, observed in distributions.items():
            assert observed.samples == distribution_oracle(result, scope), (
                f"seed {seed} scope {scope}"
            )
        sets = destination_sets(result.emissions, domains)
        for site in result.world.sites.values():
            hop1, hop2 = sets[site.domain]
            if hop1 or hop2:
                assert (hop1, hop2) == bfs_destination_oracle(site), f"seed {seed}"


@criterion("criterion 4: rolling expiration laws for gaps 1/6/7/30", budget_s=5)
def test_criterion_4_expiration_laws():
    for gap in (1, 6, 7, 30):
        report, result = experiment_expiration(
            18, policy_counts=[6, 3, 3, 2, 2, 2], gap_days=gap, seed=42
        )
        assert report.counters["creation_law_violations"] == 0
        assert report.counters["update_law_violations"] == 0
        assert report.classes["EveryEvent"] == 6
        assert report.classes["Never"] == 3

        # Direct check of the update law on one always-updating site: the
        # cookie written on day 0 expires at (90 + j - i) days after its
        # creation tick once revisited on day j.
        jar = result.world.browser("crawler").jar("site00000.example")
        entry = jar.entries["_fbp"]
        creation_tick = parse_fbp(entry.value).creation_time
        last_visit_day = 2 * gap
        assert entry.expires == creation_tick + (90 + last_visit_day) * DAY_MS


@criterion("criterion 5: full-scale closure of the published tallies", budget_s=60)
def test_criterion_5_closure():
    # Reporting-class profiling over 2308 sites.
    report, _ = experiment_profiling(
        2308, class_counts=[2130, 35, 93, 50], seed=42
    )
    assert report.classes == {
        "Both": 2130,
        "FbpOnlyWithFbclid": 35,
        "FbpOnly": 93,
        "Silent": 50,
    }
    assert report.counters["sites_reporting_plain_visit"] == 2223
    assert report.counters["sites_reporting_both_ids"] == 2165
    assert CLOSURE_NOTE in report.notes

    # Fraction-driven configuration closes on its own allocation too.
    fractions = [0.923, 0.015, 0.039, 0.023]
    frac_report, _ = experiment_profiling(2308, fractions, seed=42)
    allocated = allocate_counts(2308, fractions)
    assert list(frac_report.classes.values()) == allocated

    # Expiration-policy census.
    report, _ = experiment_expiration(
        2308, policy_counts=[1942, 172, 115, 57, 17, 5], seed=42
    )
    assert report.classes == {
        "EveryEvent": 1942,
        "Blocked": 172,
        "Never": 115,
        "OnlyFbclid": 57,
        "OnlyReload": 17,
        "RotateValue": 5,
    }
    assert report.counters["creation_law_violations"] == 0
    assert report.counters["update_law_violations"] == 0
    assert CLOSURE_NOTE in report.notes

    # External-ID sharing census.
    report, _ = experiment_external_id(
        2308, 68 / 2308, 55 / 68, seed=42, default_anonymous_fraction=4 / 68
    )
    assert report.counters["observed_sharing"] == 68
    assert report.counters["observed_reidentified"] == 55
    assert report.counters["observed_incognito_default"] == 4
    assert CLOSURE_NOTE in report.notes

    # Consent-mode storage census over the 480-site population.
    report, _ = experiment_consent(
        480, 310 / 480, seed=42, interaction_gated_fraction=4 / 310
    )
    assert report.counters["stored_AcceptAll"] == 480
    assert report.counters["stored_RejectAll"] == 310
    assert report.counters["stored_NoAction"] == 306
    assert CLOSURE_NOTE in report.notes


@criterion("criterion 6: click-ID variant indifference")
def test_criterion_6_variant_indifference():
    report, results = experiment_propagation(
        2308, {"second_hop_fanout": 2}, seed=42
    )
    signatures = report.site_flags
    assert signatures["real"] == signatures["random"] == signatures["dummy"]
    hops = {
        variant: sorted(
            (r.hop, r.report.destination) for r in result.log if r.hop in (1, 2)
        )
        for variant, result in results.items()
    }
    assert hops["real"] == hops["random"] == hops["dummy"]


@criterion("criterion 7: byte-identical reruns of every experiment")
def test_criterion_7_determinism():
    def runs():
        outputs = []
        report, _ = experiment_profiling(300, [0.923, 0.015, 0.039, 0.023], seed=42)
        outputs.append(report.to_json())
        report, _ = experiment_expiration(
            120, [0.841, 0.075, 0.050, 0.025, 0.007, 0.002], seed=42
        )
        outputs.append(report.to_json())
        report, _ = experiment_external_id(100, 0.3, 0.5, seed=42)
        outputs.append(report.to_json())
        report, _ = experiment_propagation(100, seed=42)
        outputs.append(report.to_json())
        report, _ = experiment_consent(100, 0.5, seed=42)
        outputs.append(report.to_json())
        four_day = run_four_day(seed=42)
        outputs.append(four_day.report.to_json())
        outputs.append(
            json.dumps(four_day.world.snapshot(), sort_keys=True)
        )
        outputs.append(json.dumps(four_day.graph.dump(), sort_keys=True))
        return outputs

    first, second = runs(), runs()
    assert first == second
    for a, b in zip(first, second):
        assert a.encode() == b.encode()


@criterion("criterion 8: external-ID re-identification after cookie loss")
def test_criterion_8_external_id():
    report, result = experiment_external_id(2, 1.0, 0.5, seed=42)
    assert report.counters["observed_reidentified"] == 1

    graph = result.graph
    stable, rotating = "site00000.example", "site00001.example"
    per_site: dict[str, list[str]] = {}
    for record in result.log:
        if record.hop != 0 or record.browser_id != "b1":
            continue
        values = per_site.setdefault(record.site, [])
        if record.report.fbp not in values:
            values.append(record.report.fbp)

    assert len(per_site[stable]) == 2  # pre- and post-deletion cookies
    before = graph.profile((stable, per_site[stable][0]))
    after = graph.profile((stable, per_site[stable][1]))
    assert before is after  # S1/S2 and S3 merged into one profile
    assert [a.timestamp for a in before.activity][:2] == [1, DAY_MS + 1]

    assert len(per_site[rotating]) == 2
    before = graph.profile((rotating, per_site[rotating][0]))
    after = graph.profile((rotating, per_site[rotating][1]))
    assert before is not after  # rotation breaks the merge
