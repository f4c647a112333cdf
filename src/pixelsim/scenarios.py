"""Deterministic execution of scenario scripts.

A scenario is a seed, a set of site configs, a set of browsers, and a
tick-ordered list of steps.  Running it produces the final world state,
each page event's emissions, the identity graph, and a metrics report.
Two runs with the same scenario are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .cookies import EventName, TrackedUrl
from .errors import SimulatorError, ValidationError
from .pixel import EmissionRecord, PageEmissions, on_page_event
from .reporting import MetricsReport
from .social import PlatformFeed
from .tracker import IdentityGraph
from .world import DAY_MS, ConsentMode, SiteConfig, World

# action -> (required parameter names, optional parameter names)
ACTIONS: dict[str, tuple[set[str], set[str]]] = {
    "Visit": ({"browser", "site"}, {"url_extras", "event"}),
    "Reload": ({"browser", "site"}, {"event"}),
    "PlatformLoad": ({"account"}, set()),
    "PlatformClick": ({"account", "site"}, {"browser", "element_class", "event"}),
    "CreateAccount": ({"browser", "account"}, set()),
    "Login": ({"browser", "account"}, set()),
    "DeleteCookie": ({"browser", "site", "name"}, set()),
    "AdvanceDays": ({"days"}, set()),
    "InjectFbclid": ({"browser", "site", "value"}, {"event"}),
    "RotateExternalId": ({"browser", "site"}, set()),
}
_EVENT_NAMES = tuple(e.value for e in EventName)  # a tuple: a bad value may be unhashable
_STRING_PARAMS = ("browser", "site", "account", "name", "value", "element_class")


@dataclass(frozen=True)
class Step:
    tick: int
    action: str
    params: dict = field(default_factory=dict)


@dataclass
class Scenario:
    seed: int
    sites: list[SiteConfig]
    browsers: list[dict]  # {"id": str, "incognito": bool, "user_agent": str}
    steps: list[Step]
    consent_mode: ConsentMode = ConsentMode.ACCEPT_ALL

    def validate(self) -> None:
        """Check the sites, the browsers and every step's action, parameters
        and tick before any runs."""
        domains = set()
        for site in self.sites:
            if site.domain in domains:
                raise ValidationError(f"site {site.domain!r} is listed twice")
            domains.add(site.domain)
        for spec in self.browsers:
            if not isinstance(spec, dict) or not isinstance(spec.get("id"), str):
                raise ValidationError(f"browser entry needs a string 'id': {spec!r}")
        last_tick = None
        for i, step in enumerate(self.steps):
            if step.action not in ACTIONS:
                raise ValidationError(f"unknown action {step.action!r}", i)
            required, optional = ACTIONS[step.action]
            missing = sorted(required - step.params.keys())
            if missing:
                raise ValidationError(f"{step.action} needs parameter {missing[0]!r}", i)
            unknown = sorted(step.params.keys() - required - optional)
            if unknown:
                raise ValidationError(f"unknown {step.action} parameter {unknown[0]!r}", i)
            for name in _STRING_PARAMS:
                if not isinstance(step.params.get(name, ""), str):
                    raise ValidationError(f"{name} must be a string, not {step.params[name]!r}", i)
            extras = step.params.get("url_extras", [])
            if not _is_string_pairs(extras):
                raise ValidationError(f"url_extras must be a list of two-string pairs, not {extras!r}", i)
            if step.params.get("event", "PageView") not in _EVENT_NAMES:
                raise ValidationError(f"unknown event {step.params['event']!r}", i)
            days = step.params.get("days", 0)
            if type(days) is not int or days < 0:
                raise ValidationError(f"days must be a non-negative int, not {days!r}", i)
            if type(step.tick) is not int:
                raise ValidationError(f"tick must be an int, not {step.tick!r}", i)
            if last_tick is not None and step.tick <= last_tick:
                raise ValidationError("step ticks must be strictly increasing", i)
            last_tick = step.tick


def _is_string_pairs(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(pair, (list, tuple)) and len(pair) == 2
        and all(isinstance(part, str) for part in pair)
        for pair in value
    )


@dataclass
class RunResult:
    scenario: Scenario
    world: World
    feed: PlatformFeed
    graph: IdentityGraph
    emissions: list[PageEmissions]  # one per page event, in step order
    report: MetricsReport

    @property
    def log(self) -> list[EmissionRecord]:
        """Every emission as its own record, expanded from ``emissions``."""
        return [record for page in self.emissions for record in page]


def run(
    scenario: Scenario, observe: Callable[[Step, World], None] | None = None
) -> RunResult:
    """Execute ``scenario``; ``observe(step, world)`` runs after each step."""
    scenario.validate()
    world = World(seed=scenario.seed)
    world.consent_mode = scenario.consent_mode
    feed = PlatformFeed(seed=scenario.seed)
    graph = IdentityGraph(click_ledger=feed)
    for config in scenario.sites:
        world.add_site(config)
    for spec in scenario.browsers:
        world.spawn_browser(
            spec["id"],
            incognito=spec.get("incognito", False),
            user_agent=spec.get("user_agent", "ua-default"),
        )

    emissions: list[PageEmissions] = []

    for index, step in enumerate(scenario.steps):
        if step.tick < world.clock.now:
            raise ValidationError("tick precedes current time", index)
        world.clock.advance(step.tick - world.clock.now)
        try:
            page = _execute(world, feed, graph, step)
        except SimulatorError as exc:
            raise ValidationError(str(exc), index) from exc
        if page is not None:
            emissions.append(page)
            if page.report is not None:
                graph.ingest(page.report)
        world.end_step()
        if observe is not None:
            observe(step, world)

    hop0 = sum(1 for page in emissions if page.report is not None)
    hop1 = sum(len(page.fanout) for page in emissions)
    hop2 = sum(len(forwardees) for page in emissions for _, forwardees in page.fanout)
    report = MetricsReport(
        counters={
            "emissions_total": hop0 + hop1 + hop2,
            "emissions_hop0": hop0,
            "emissions_hop1": hop1,
            "emissions_hop2": hop2,
            "profiles": len(graph.profiles()),
            "links": len(graph.resolve()),
            "anomalies": len(graph.anomalies),
            "orphans": len(graph.orphans),
        }
    )
    return RunResult(
        scenario=scenario,
        world=world,
        feed=feed,
        graph=graph,
        emissions=emissions,
        report=report,
    )


def _site_url(site: str, extras: list[tuple[str, str]] | None = None) -> TrackedUrl:
    return TrackedUrl(origin=site, path="/", query=tuple(extras or ()))


def _page_event(
    world: World, step: Step, browser_id: str, url: TrackedUrl, reload: bool = False
) -> PageEmissions:
    """A page visit to ``url`` firing the step's event."""
    event = EventName(step.params.get("event", "PageView"))
    return on_page_event(world, browser_id, url, event, reload)


def _execute(
    world: World, feed: PlatformFeed, graph: IdentityGraph, step: Step
) -> PageEmissions | None:
    """Carry out one step; a page event returns its emissions."""
    p = step.params
    action = step.action

    if action == "Visit":
        extras = [tuple(pair) for pair in p.get("url_extras", [])]
        return _page_event(world, step, p["browser"], _site_url(p["site"], extras))

    if action == "Reload":
        return _page_event(world, step, p["browser"], _site_url(p["site"]), reload=True)

    if action == "PlatformLoad":
        world.account(p["account"])
        feed.refresh_click_ids(p["account"], step.tick)
        return None

    if action == "PlatformClick":
        account = p["account"]
        world.account(account)
        load = feed.current_loads.get(account)
        if load is None:
            raise ValidationError(f"no platform page load for account {account!r}")
        browser_id = p.get("browser") or _browser_of(world, account)
        # on_page_event skips the browser lookup where the pixel is off.
        world.browser(browser_id)
        world.site(p["site"])
        decorated, _entry = feed.decorate_outbound(
            load, _site_url(p["site"]), p.get("element_class", "feed-link")
        )
        return _page_event(world, step, browser_id, decorated)

    if action == "CreateAccount":
        world.create_account(p["account"])
        graph.known_accounts.add(p["account"])
        world.browser(p["browser"]).logged_in = p["account"]
        return None

    if action == "Login":
        world.account(p["account"])
        world.browser(p["browser"]).logged_in = p["account"]
        return None

    if action == "DeleteCookie":
        world.browser(p["browser"]).jar(p["site"]).delete(p["name"])
        return None

    if action == "AdvanceDays":
        world.clock.advance(p["days"] * DAY_MS)
        return None

    if action == "InjectFbclid":
        url = _site_url(p["site"], [("fbclid", p["value"])])
        return _page_event(world, step, p["browser"], url)

    if action == "RotateExternalId":
        world.browser(p["browser"])
        world.external_ids.rotate(world.site(p["site"]).domain, p["browser"])
        return None

    raise ValidationError(f"unknown action {action!r}")


def _browser_of(world: World, account: str) -> str:
    for browser_id, browser in world.browsers.items():
        if browser.logged_in == account:
            return browser_id
    raise ValidationError(f"no browser logged into account {account!r}")


# -- scenario file I/O -----------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "seed": scenario.seed,
        "consent_mode": scenario.consent_mode.value,
        "sites": [_site_to_dict(s) for s in scenario.sites],
        "browsers": scenario.browsers,
        "steps": [
            {"tick": s.tick, "action": s.action, **s.params} for s in scenario.steps
        ],
    }


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict) or "seed" not in data:
        raise ValidationError("a scenario is an object with a 'seed'")
    for name in ("steps", "sites", "browsers"):
        if not isinstance(data.get(name, []), list):
            raise ValidationError(f"{name} must be a list, not {data[name]!r}")
    steps = []
    for i, raw in enumerate(data.get("steps", [])):
        if not isinstance(raw, dict):
            raise ValidationError(f"a step is an object, not {raw!r}", i)
        params = dict(raw)
        for name in ("tick", "action"):
            if name not in params:
                raise ValidationError(f"step needs {name!r}", i)
        steps.append(Step(tick=params.pop("tick"), action=params.pop("action"), params=params))
    try:
        consent_mode = ConsentMode(data.get("consent_mode", "AcceptAll"))
    except ValueError:
        raise ValidationError(f"unknown consent_mode {data['consent_mode']!r}") from None
    return Scenario(
        seed=data["seed"],
        consent_mode=consent_mode,
        sites=[_site_from_dict(s) for s in data.get("sites", [])],
        browsers=data.get("browsers", []),
        steps=steps,
    )


def load_scenario(path: str | Path) -> Scenario:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    return scenario_from_dict(data)


def _site_to_dict(site: SiteConfig) -> dict:
    return {f.name: _to_json(getattr(site, f.name)) for f in dataclasses.fields(SiteConfig)}


def _to_json(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, frozenset):
        return sorted(_to_json(v) for v in value)
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _to_json(v) for k, v in sorted(value.items())}
    return value


def _site_from_dict(data: dict) -> SiteConfig:
    if not isinstance(data, dict):
        raise ValidationError(f"a site config is an object, not {data!r}")
    types = typing.get_type_hints(SiteConfig)
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ValidationError(f"unknown site config key {unknown[0]!r}")
    try:
        return SiteConfig(**{name: _from_json(types[name], v) for name, v in data.items()})
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad site config {data.get('domain')!r}: {exc}") from exc


def _from_json(tp, value):
    origin = typing.get_origin(tp)
    if origin in (frozenset, tuple):
        return origin(_from_json(typing.get_args(tp)[0], v) for v in value)
    if origin is dict:
        return {k: _from_json(typing.get_args(tp)[1], v) for k, v in value.items()}
    if isinstance(tp, type) and issubclass(tp, Enum):
        return tp(value)
    return value
