"""The benchmark's workloads: input generation, one pass, and its checks.

Every workload comes in two sizes.  ``full`` is the size ``wall_s`` is
reported at; ``quarter`` is a quarter of it, for ``scaling_exp``.  A pass
calls pixelsim's public functions only and serialises its outputs the way
``sim`` writes ``report.json``, ``world.json`` and ``graph.json``.

Each workload is four functions:

* ``make(mods, seed, size)`` builds the input from the benchmark seed and
  returns it with the values the checks expect;
* ``run(mods, input)`` is the timed pass and returns the output files (name,
  bytes) and the raw objects;
* ``observe(raw)`` reduces the raw objects to plain facts, outside the
  timed region;
* ``check(gate, expect, facts)`` compares facts against expectations.

``check`` takes plain data only, so it can be tested on synthetic values.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Callable

FULL = "full"
QUARTER = "quarter"
SIZES = (QUARTER, FULL)


class Gate:
    """Counts correctness checks attempted and failed."""

    MAX_NAMES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self.MAX_NAMES:
                self.failures.append(name)
        return ok

    def equal(self, name: str, observed: Any, expected: Any) -> bool:
        return self.check(name, observed == expected)


def digest_files(files: list[tuple[str, bytes]]) -> str:
    """sha256 over every output file, each framed by its name and length."""
    h = hashlib.sha256()
    for name, data in files:
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def check_digest(gate: Gate, size: str, digest: str, first: str,
                 recorded: str | None) -> None:
    """Outputs are byte-identical on every pass, and match the recorded run."""
    gate.equal(f"{size}.digest.repeat", digest, first)
    if recorded is not None:
        gate.equal(f"{size}.digest.recorded", digest, recorded)


def _json_bytes(obj) -> bytes:
    # Same formatting as the CLI's world.json and graph.json.
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _outputs(prefix: str, report, result=None) -> tuple[list[tuple[str, bytes]], dict | None]:
    """The files ``sim`` writes for one report and optional run result."""
    files = [(f"{prefix}report.json", report.to_json().encode())]
    for name in report.distributions:
        files.append((f"{prefix}{name}.csv", report.distribution_csv(name).encode()))
    graph = None
    if result is not None:
        files.append((f"{prefix}world.json", _json_bytes(result.world.snapshot())))
        graph = result.graph.dump()
        files.append((f"{prefix}graph.json", _json_bytes(graph)))
    return files, graph


def split_counts(total: int, weights: list[int]) -> list[int]:
    """Largest-remainder split of ``total`` in proportion to ``weights``."""
    whole = sum(weights)
    exact = [w * total / whole for w in weights]
    counts = [math.floor(e) for e in exact]
    order = sorted(range(len(weights)), key=lambda i: (counts[i] - exact[i], i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


@dataclass(frozen=True)
class Input:
    data: Any  # what the pass hands to pixelsim
    expect: Any  # plain values the checks compare against


@dataclass(frozen=True)
class Workload:
    make: Callable
    run: Callable
    observe: Callable
    check: Callable


# -- paper_experiments -------------------------------------------------------


@dataclass(frozen=True)
class PaperConfig:
    """The five experiments' populations; the published tallies at full size."""

    sites: int
    classes: tuple[int, ...]  # Both, FbpOnlyWithFbclid, FbpOnly, Silent
    policies: tuple[int, ...]  # EveryEvent, Blocked, Never, OnlyFbclid, OnlyReload, RotateValue
    sharing: int
    stable: int
    default_anonymous: int
    consent_sites: int
    noncompliant: int
    gated: int
    seed: int = 42


PAPER = PaperConfig(
    sites=2308,
    classes=(2130, 35, 93, 50),
    policies=(1942, 172, 115, 57, 17, 5),
    sharing=68,
    stable=55,
    default_anonymous=4,
    consent_sites=480,
    noncompliant=310,
    gated=4,
)

CLASS_NAMES = ("Both", "FbpOnlyWithFbclid", "FbpOnly", "Silent")
POLICY_NAMES = ("EveryEvent", "Blocked", "Never", "OnlyFbclid", "OnlyReload", "RotateValue")


def paper_config(size: str, seed: int) -> PaperConfig:
    if size == FULL:
        return replace(PAPER, seed=seed)
    sites = PAPER.sites // 4
    sharing = split_counts(sites, [PAPER.sharing, PAPER.sites - PAPER.sharing])[0]
    noncompliant = split_counts(
        PAPER.consent_sites // 4, [PAPER.noncompliant, PAPER.consent_sites - PAPER.noncompliant]
    )[0]
    return PaperConfig(
        sites=sites,
        classes=tuple(split_counts(sites, list(PAPER.classes))),
        policies=tuple(split_counts(sites, list(PAPER.policies))),
        sharing=sharing,
        stable=split_counts(sharing, [PAPER.stable, PAPER.sharing - PAPER.stable])[0],
        default_anonymous=split_counts(
            sharing, [PAPER.default_anonymous, PAPER.sharing - PAPER.default_anonymous]
        )[0],
        consent_sites=PAPER.consent_sites // 4,
        noncompliant=noncompliant,
        gated=split_counts(noncompliant, [PAPER.gated, PAPER.noncompliant - PAPER.gated])[0],
        seed=seed,
    )


def make_paper(mods, seed: int, size: str) -> Input:
    config = paper_config(size, seed)
    return Input(config, config)


def run_paper(mods, config: PaperConfig):
    ex = mods.experiments
    files = []
    raw = {}
    report, result = ex.experiment_profiling(
        config.sites, class_counts=list(config.classes), seed=config.seed
    )
    files += _outputs("profiling/", report, result)[0]
    raw["profiling"] = report
    report, result = ex.experiment_expiration(
        config.sites, policy_counts=list(config.policies), seed=config.seed
    )
    files += _outputs("expiration/", report, result)[0]
    raw["expiration"] = report
    report, result = ex.experiment_external_id(
        config.sites,
        config.sharing / config.sites,
        config.stable / config.sharing,
        seed=config.seed,
        default_anonymous_fraction=config.default_anonymous / config.sharing,
    )
    files += _outputs("external-id/", report, result)[0]
    raw["external_id"] = report
    report, results = ex.experiment_propagation(
        config.sites, {"second_hop_fanout": 2}, seed=config.seed
    )
    files += _outputs("propagation/", report)[0]
    raw["propagation"] = (report, results)
    report, _ = ex.experiment_consent(
        config.consent_sites,
        config.noncompliant / config.consent_sites,
        seed=config.seed,
        interaction_gated_fraction=config.gated / config.noncompliant,
    )
    files += _outputs("consent/", report)[0]
    raw["consent"] = report
    return files, raw


def observe_paper(raw) -> dict:
    propagation, variants = raw["propagation"]
    hops = []
    for result in variants.values():
        pairs = sorted((r.hop, r.report.destination) for r in result.log if r.hop in (1, 2))
        hops.append(hashlib.sha256(repr(pairs).encode()).hexdigest())
    return {
        "profiling.classes": dict(raw["profiling"].classes),
        "profiling.counters": dict(raw["profiling"].counters),
        "expiration.classes": dict(raw["expiration"].classes),
        "expiration.counters": dict(raw["expiration"].counters),
        "external_id.counters": dict(raw["external_id"].counters),
        "propagation.signatures": list(propagation.site_flags.values()),
        "propagation.hops": hops,
        "consent.counters": dict(raw["consent"].counters),
    }


def check_paper(gate: Gate, c: PaperConfig, facts: dict) -> None:
    """Closure: what the pipeline observed equals what was configured."""
    gate.equal("profiling.classes", facts["profiling.classes"], dict(zip(CLASS_NAMES, c.classes)))
    counters = facts["profiling.counters"]
    gate.equal("profiling.plain_visit", counters.get("sites_reporting_plain_visit"),
               c.classes[0] + c.classes[2])
    gate.equal("profiling.both_ids", counters.get("sites_reporting_both_ids"),
               c.classes[0] + c.classes[1])

    gate.equal("expiration.classes", facts["expiration.classes"], dict(zip(POLICY_NAMES, c.policies)))
    counters = facts["expiration.counters"]
    gate.equal("expiration.creation_law", counters.get("creation_law_violations"), 0)
    gate.equal("expiration.update_law", counters.get("update_law_violations"), 0)

    counters = facts["external_id.counters"]
    gate.equal("external_id.sharing", counters.get("observed_sharing"), c.sharing)
    gate.equal("external_id.reidentified", counters.get("observed_reidentified"), c.stable)
    gate.equal("external_id.incognito_default", counters.get("observed_incognito_default"),
               c.default_anonymous)

    signatures = facts["propagation.signatures"]
    gate.check("propagation.signatures", len(signatures) == 3 and all(
        s == signatures[0] for s in signatures))
    hops = facts["propagation.hops"]
    gate.check("propagation.hops", len(hops) == 3 and len(set(hops)) == 1)

    counters = facts["consent.counters"]
    gate.equal("consent.accept_all", counters.get("stored_AcceptAll"), c.consent_sites)
    gate.equal("consent.reject_all", counters.get("stored_RejectAll"), c.noncompliant)
    gate.equal("consent.no_action", counters.get("stored_NoAction"), c.noncompliant - c.gated)


# -- synthetic scenarios -----------------------------------------------------


def _scenario_outputs(result, extra: list[tuple[str, bytes]] = ()) -> tuple[list, dict]:
    files, graph = _outputs("", result.report, result)
    return files + list(extra), graph


# click_attribution: the de-anonymisation path at volume.
CLICK_ACCOUNTS = 200
CLICK_SITES = 50
CLICK_ROUNDS = {FULL: 4000, QUARTER: 1000}
ELEMENT_CLASSES = ("feed-link", "feed-image", "story-cta", "ad-title")
STEP_GAP_MS = 60_000  # keeps 4000 rounds well inside the 90-day cookie life


def make_click(mods, seed: int, size: str) -> Input:
    Step = mods.scenarios.Step
    rng = random.Random(seed)
    sites = [
        mods.world.SiteConfig(
            domain=f"shop{i:02d}.example",
            first_hop_third_parties=(f"tp.shop{i:02d}-ads.example",),
        )
        for i in range(CLICK_SITES)
    ]
    browsers = [{"id": f"b{i:03d}"} for i in range(CLICK_ACCOUNTS)]
    steps = [
        Step(i + 1, "CreateAccount", {"browser": f"b{i:03d}", "account": f"a{i:03d}"})
        for i in range(CLICK_ACCOUNTS)
    ]
    tick = CLICK_ACCOUNTS
    clicked = set()
    # Rounds are drawn one after another, so the quarter-size scenario is
    # the first quarter of the full one.
    for _ in range(CLICK_ROUNDS[size]):
        n = rng.randrange(CLICK_ACCOUNTS)
        account, site = f"a{n:03d}", sites[rng.randrange(CLICK_SITES)].domain
        element_class = rng.choice(ELEMENT_CLASSES)
        tick += rng.randint(1, STEP_GAP_MS)
        steps.append(Step(tick, "PlatformLoad", {"account": account}))
        tick += rng.randint(1, STEP_GAP_MS)
        steps.append(Step(tick, "PlatformClick",
                          {"account": account, "site": site, "element_class": element_class}))
        tick += rng.randint(1, STEP_GAP_MS)
        steps.append(Step(tick, "Visit", {"browser": f"b{n:03d}", "site": site}))
        clicked.add((account, site))
    scenario = mods.scenarios.Scenario(seed=seed, sites=sites, browsers=browsers, steps=steps)
    return Input(scenario, frozenset(clicked))


def run_click(mods, scenario):
    result = mods.scenarios.run(scenario)
    return _scenario_outputs(result)


def observe_click(graph) -> dict:
    return {
        "links": [(account, key[0]) for key, account in graph["links"]],
        "anomalies": len(graph["anomalies"]),
    }


def check_click(gate: Gate, clicked: frozenset, facts: dict) -> None:
    """One link per distinct (account, site) clicked, and no conflicts."""
    links = facts["links"]
    gate.equal("click.links", len(links), len(clicked))
    gate.equal("click.link_pairs", set(links), set(clicked))
    gate.equal("click.anomalies", facts["anomalies"], 0)


# identity_churn: external-ID merges, long activity lists, graph read-back.
CHURN_BROWSERS = 20
CHURN_INCOGNITO = 2
CHURN_SITES = 30
CHURN_SHARING = 20  # two thirds of the sites send an external ID
CHURN_ACCOUNTS = 10
CHURN_STEPS = {FULL: 40_000, QUARTER: 10_000}
CHURN_MAX_GAP_MS = 10 * 86_400_000
CHURN_POLICIES = ("EveryEvent", "EveryEvent", "Never", "OnlyFbclid", "OnlyReload", "RotateValue")


def make_churn(mods, seed: int, size: str) -> Input:
    w = mods.world
    Step = mods.scenarios.Step
    rng = random.Random(seed)
    sites = [
        w.SiteConfig(
            domain=f"news{i:02d}.example",
            expiration_policy=w.ExpirationPolicy(CHURN_POLICIES[i % len(CHURN_POLICIES)]),
            shares_external_id=i < CHURN_SHARING,
            external_id_default_when_anonymous=i < CHURN_SHARING and i % 7 == 0,  # 3 sites
        )
        for i in range(CHURN_SITES)
    ]
    browsers = [
        {"id": f"b{i:02d}", "incognito": i >= CHURN_BROWSERS - CHURN_INCOGNITO}
        for i in range(CHURN_BROWSERS)
    ]
    accounts = [f"a{i:02d}" for i in range(CHURN_ACCOUNTS)]
    steps = [
        Step(i + 1, "CreateAccount", {"browser": f"b{i:02d}", "account": a})
        for i, a in enumerate(accounts)
    ]
    tick = len(steps)
    log_max_gap = math.log(CHURN_MAX_GAP_MS)
    while len(steps) < CHURN_STEPS[size]:
        # Gaps are log-uniform from 1 ms to 10 days.
        tick += max(1, int(math.exp(rng.uniform(0, log_max_gap))))
        browser = f"b{rng.randrange(CHURN_BROWSERS):02d}"
        site = sites[rng.randrange(CHURN_SITES)].domain
        roll = rng.random()
        if roll < 0.60:
            steps.append(Step(tick, "Visit", {"browser": browser, "site": site}))
        elif roll < 0.70:
            steps.append(Step(tick, "Reload", {"browser": browser, "site": site}))
        elif roll < 0.90:
            steps.append(Step(tick, "DeleteCookie", {"browser": browser, "site": site, "name": "_fbp"}))
        elif roll < 0.91:
            account = rng.choice(accounts)
            steps.append(Step(tick, "PlatformLoad", {"account": account}))
            tick += 1
            steps.append(Step(tick, "PlatformClick",
                              {"account": account, "site": site, "browser": browser}))
        else:
            steps.append(Step(tick, "Login", {"browser": browser, "account": rng.choice(accounts)}))
    scenario = mods.scenarios.Scenario(seed=seed, sites=sites, browsers=browsers, steps=steps)
    return Input(scenario, frozenset(accounts))


def run_churn(mods, scenario):
    result = mods.scenarios.run(scenario)
    graph = result.graph
    queries = {
        "links": len(graph.resolve()),
        "history": {a: len(graph.account_history(a)) for a in sorted(graph.known_accounts)},
    }
    return _scenario_outputs(result, [("queries.json", _json_bytes(queries))])


def observe_churn(graph) -> dict:
    return {
        "profile_keys": [key for p in graph["profiles"] for key in p["keys"]],
        "linked_accounts": sorted(
            {p["linked_account"] for p in graph["profiles"] if p["linked_account"] is not None}
            | {account for _key, account in graph["links"]}
        ),
    }


def check_churn(gate: Gate, created: frozenset, facts: dict) -> None:
    """Profiles partition the keys; links point only at created accounts."""
    repeated = [k for k, n in Counter(facts["profile_keys"]).items() if n != 1]
    gate.equal("churn.keys_in_one_profile", repeated, [])
    gate.check("churn.links_to_created_accounts",
               set(facts["linked_accounts"]) <= set(created))


WORKLOADS = {
    "paper_experiments": Workload(make_paper, run_paper, observe_paper, check_paper),
    "click_attribution": Workload(make_click, run_click, observe_click, check_click),
    "identity_churn": Workload(make_churn, run_churn, observe_churn, check_churn),
}
