"""Deterministic execution of scenario scripts.

A scenario is a seed, a set of site configs, a set of browsers, and a
tick-ordered list of steps.  Running it produces the final world state,
each page event's emissions, the identity graph, and a metrics report.
Two runs with the same scenario are byte-identical.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import json
import typing
from collections import Counter
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field
from enum import Enum, EnumMeta
from pathlib import Path
from types import MappingProxyType

from .cookies import EventName, TrackedUrl
from .errors import SimulatorError, ValidationError
from .pixel import EmissionRecord, PageEmissions, on_page_event
from .reporting import MetricsReport
from .social import PlatformFeed
from .tracker import IdentityGraph
from .world import Browser, ConsentMode, SiteConfig, World

# A scenario's seed and ticks are below this in magnitude, so that each
# value a run derives from them prints as a decimal.
INT_LIMIT = 2**63


@dataclass(frozen=True, slots=True)
class Step:
    """One step as written: ``params`` holds the fields of the ``action`` class."""

    tick: int
    action: str
    params: dict = field(default_factory=dict)


@dataclass
class Scenario:
    seed: int
    sites: list[SiteConfig] = field(default_factory=list)
    browsers: list[dict] = field(default_factory=list)  # Browsers, or what they decode from
    steps: list[Step] = field(default_factory=list)
    consent_mode: ConsentMode = ConsentMode.ACCEPT_ALL

    def validate(self) -> tuple[ConsentMode, tuple[SiteConfig, ...], tuple[Browser, ...], list]:
        """Decode the seed, the consent mode, every site, browser and step by
        ``_decode``'s rules, and check that the steps are a list, that each
        site's domain is a URL origin, that no browser id is empty, that the
        ticks increase and that no site or browser is listed twice; returns
        the decoded consent mode, sites, browsers and actions, which ``run``
        uses.  A site ``_decode`` has checked or built before is not checked
        again, so sites shared by many runs, or read from a file, are
        checked once."""
        _decode(int, self.seed, "seed")
        consent_mode = _decode(ConsentMode, self.consent_mode, "consent_mode")
        sites = _decode(tuple[SiteConfig, ...], self.sites, "sites")
        browsers = _decode(tuple[Browser, ...], self.browsers, "browsers")
        if not isinstance(self.steps, (list, tuple)):
            raise ValidationError(f"steps must be a list, not {_shown(self.steps)}")
        for i, site in enumerate(sites):
            # TrackedUrl.parse splits a URL's origin off at the first '/' or '?'.
            if not site.domain or "/" in site.domain or "?" in site.domain:
                raise ValidationError(f"sites[{i}] domain {site.domain!r} is not a URL origin")
        domains, ids = [s.domain for s in sites], [b.id for b in browsers]
        if "" in ids:  # a PlatformClick's empty browser means the first one logged in
            raise ValidationError(f"browsers[{ids.index('')}] id must not be empty")
        for kind, names in ("site", domains), ("browser", ids):
            repeated = [name for name, count in Counter(names).items() if count > 1]
            if repeated:
                raise ValidationError(f"{kind} {repeated[0]!r} is listed twice")
        actions: list[Action] = []
        last_tick = -1
        for i, step in enumerate(self.steps):
            try:
                if not isinstance(step, Step):
                    raise ValidationError(f"step {_shown(step)} is not a Step")
                _decode(int, step.tick, "tick")
                if step.tick <= last_tick:
                    raise ValidationError("ticks must be non-negative and strictly increasing")
                cls = _ACTIONS.get(step.action) if type(step.action) is str else None
                if cls is None:
                    raise ValidationError(f"unknown action {_shown(step.action)}")
                actions.append(_decode(cls, step.params, step.action))
            except ValidationError as exc:
                raise ValidationError(str(exc), i) from None
            last_tick = step.tick
        return consent_mode, sites, browsers, actions


@dataclass
class RunResult:
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
    """Execute ``scenario``; ``observe(step, world)`` runs after each step.

    Automatic garbage collection is paused for the run, ``observe`` included,
    and then left on or off as the caller had it."""
    # The state a run builds holds no reference cycles, so a collection inside
    # the run frees nothing, while each full collection walks the whole heap.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        consent_mode, sites, browsers, actions = scenario.validate()
        world = World(scenario.seed, sites, browsers, consent_mode)
        feed = PlatformFeed(seed=scenario.seed)
        graph = IdentityGraph(click_ledger=feed)

        emissions: list[PageEmissions] = []

        # Popped in step order, so each action is freed once it has run.
        actions.reverse()
        for index, step in enumerate(scenario.steps):
            action = actions.pop()
            world.now = step.tick
            try:
                page = action.apply(world, feed, graph)
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
                "orphans": graph.orphans,
            }
        )
        return RunResult(
            world=world,
            feed=feed,
            graph=graph,
            emissions=emissions,
            report=report,
        )
    finally:
        if gc_was_enabled:
            gc.enable()


# -- step actions: a step's params decode into the class named by its action.
# ``apply`` runs once ``world.now`` is the step's tick; a page event returns
# its emissions.  Actions, like ``world.Browser``, compare by identity and
# keep object's repr: generating ``__eq__``, ``__hash__`` and ``__repr__``
# for these classes adds about 7 ms to every import of the package.


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Visit:
    """``browser`` opens ``site``, with ``url_extras`` as the URL's query."""

    browser: str
    site: str
    url_extras: tuple[tuple[str, str], ...] = ()
    event: EventName = EventName.PAGE_VIEW

    def apply(self, world: World, feed: PlatformFeed, graph: IdentityGraph) -> PageEmissions:
        url = TrackedUrl(self.site, query=self.url_extras)
        return on_page_event(world, self.browser, url, self.event)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Reload:
    """``browser`` reloads ``site``."""

    browser: str
    site: str
    event: EventName = EventName.PAGE_VIEW

    def apply(self, world: World, feed: PlatformFeed, graph: IdentityGraph) -> PageEmissions:
        return on_page_event(world, self.browser, TrackedUrl(self.site), self.event, reload=True)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class PlatformLoad:
    """``account`` loads the platform feed, which hands out fresh click IDs."""

    account: str

    def apply(self, world: World, feed: PlatformFeed, graph: IdentityGraph) -> None:
        world.account(self.account)
        feed.refresh_click_ids(self.account, world.now)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class PlatformClick:
    """A feed link to ``site``, decorated with a click ID, is clicked."""

    account: str
    site: str
    browser: str = ""  # empty: the scenario's first browser logged into ``account``
    element_class: str = "feed-link"
    event: EventName = EventName.PAGE_VIEW

    def apply(self, world: World, feed: PlatformFeed, graph: IdentityGraph) -> PageEmissions:
        # Every check comes before decorate_outbound, so a rejected click
        # adds no ledger entry.
        world.account(self.account)
        load = feed.current_loads.get(self.account)
        if load is None:
            raise ValidationError(f"no platform page load for account {self.account!r}")
        browser_id = self.browser or world.browser_logged_into(self.account)
        if browser_id is None:
            raise ValidationError(f"no browser logged into account {self.account!r}")
        world.browser(browser_id)
        world.site(self.site)
        decorated, _entry = feed.decorate_outbound(load, TrackedUrl(self.site), self.element_class)
        return on_page_event(world, browser_id, decorated, self.event)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class CreateAccount:
    """``account`` is created and logged in on ``browser``."""

    browser: str
    account: str

    def apply(self, world: World, feed: PlatformFeed, graph: IdentityGraph) -> None:
        world.create_account(self.account)
        graph.known_accounts.add(self.account)
        world.log_in(self.browser, self.account)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Login:
    """``browser`` logs into the existing ``account``."""

    browser: str
    account: str

    def apply(self, world: World, feed: PlatformFeed, graph: IdentityGraph) -> None:
        world.account(self.account)
        world.log_in(self.browser, self.account)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class DeleteCookie:
    """``browser`` deletes its cookie ``name`` for ``site``."""

    browser: str
    site: str
    name: str

    def apply(self, world: World, feed: PlatformFeed, graph: IdentityGraph) -> None:
        # A browser holds no jar for a site it never visited.
        jar = world.browser(self.browser).jars.get(world.site(self.site).domain)
        if jar is not None:
            jar.delete(self.name)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class RotateExternalId:
    """``site`` hands ``browser`` a fresh external ID from now on."""

    browser: str
    site: str

    def apply(self, world: World, feed: PlatformFeed, graph: IdentityGraph) -> None:
        world.browser(self.browser)
        world.external_ids.rotate(world.site(self.site).domain, self.browser)


Action = (Visit | Reload | PlatformLoad | PlatformClick | CreateAccount | Login
          | DeleteCookie | RotateExternalId)
_ACTIONS: dict[str, type[Action]] = {cls.__name__: cls for cls in typing.get_args(Action)}


# -- scenario file I/O -----------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    """Each field of ``scenario`` in its JSON form, with each step's params inline."""
    steps = [{"tick": s.tick, "action": s.action, **_to_json(s.params)} for s in scenario.steps]
    return {**_to_json(scenario), "steps": steps}


def scenario_from_dict(data: dict) -> Scenario:
    """The scenario a file's JSON object describes: its top level decodes as a
    ``Scenario``, and each step's keys but its tick and action are its params."""
    top = dict(_decode(dict, data, "scenario"))
    steps = _decode(list, top.pop("steps", []), "scenario.steps")
    scenario = _decode(Scenario, top, "scenario")
    for i, raw in enumerate(steps):
        if not isinstance(raw, dict) or not {"tick", "action"} <= raw.keys():
            raise ValidationError(
                f"a step is an object with a tick and an action, not {_shown(raw)}", i)
        params = dict(raw)
        scenario.steps.append(Step(params.pop("tick"), params.pop("action"), params))
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    return scenario_from_dict(data)


def _to_json(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, frozenset):
        return sorted(_to_json(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    if isinstance(value, (dict, MappingProxyType)):
        return {k: _to_json(v) for k, v in sorted(value.items())}
    return value


_JSON_TYPES = frozenset({bool, str, list, dict})  # these pass as they are; ints are bounded


@functools.cache
def _hint(tp) -> tuple:
    """``tp``'s origin and arguments, worked out once per hint; a dataclass's
    are ``dataclass`` and each field's hint and default by name."""
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return dataclass, {f.name: (hints[f.name], f.default) for f in dataclasses.fields(tp)}
    return typing.get_origin(tp), typing.get_args(tp)


def _at(path: str | tuple) -> str:
    """``path`` as text.  A tuple path is a container's path and an index or
    key, so an element's path is joined only when an error names it."""
    return path if type(path) is str else f"{_at(path[0])}[{path[1]!r}]"


def _shown(value) -> str:
    """``repr(value)``, unless it holds an int too long to print."""
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} too large to print"


def _trusted(site: SiteConfig) -> SiteConfig:
    """``site``, marked as checked, so that ``_decode`` returns it as it is from
    now on.  A site is built unmarked, so that the mark adds no key to its
    instance dict, which can cost that dict the key table CPython shares
    among sites.  The mark stays: no field of a site can be assigned, and a
    checked site's fields hold only immutable values, its forwarding table
    being a read-only copy.  A copy made with ``dataclasses.replace`` is a
    new instance, unmarked.  Only sites are marked: the other dataclasses
    keep no instance dict to hold the mark."""
    object.__setattr__(site, "_checked", True)
    return site


def _decode(tp, value, path: str | tuple):
    """``value`` as the type hint ``tp``; errors name ``path`` (see ``_at``).

    ``value`` is in its JSON form or is a value this returns.  A bool must be
    a bool, an int an int and not a bool, below ``INT_LIMIT`` in magnitude, a
    str a str.  A ``list[X]`` is a list; a ``tuple[X, ...]`` or
    ``frozenset[X]`` a list or a value of its own type; a fixed
    ``tuple[X, Y]`` a list or tuple of two; a ``dict[str, X]`` a dict, or the
    read-only ``MappingProxyType`` a ``SiteConfig`` holds its table in.  An
    enum is a member or a member's value.  A dataclass is an object naming
    only its fields and each one without a default, or an instance.  An
    instance's fields are used as they are, so each must equal what decoding
    it returns: there, ``"Never"`` is no ``ExpirationPolicy`` and ``["a"]``
    no ``tuple[str, ...]``.  A ``SiteConfig`` this has checked, or built from
    an object, is marked (see ``_trusted``) and returned unchecked from then
    on.  An error names the JSON form expected: a list, an object, or an
    object or an instance of the dataclass.
    """
    kind = type(value)
    if kind is tp and tp in _JSON_TYPES:
        return value
    if kind is tp is int:
        if -INT_LIMIT < value < INT_LIMIT:
            return value
        raise ValidationError(f"{_at(path)} must be below 2**63 in magnitude")
    origin, args = _hint(tp)
    if origin is dataclass and kind is tp:  # its fields are used as they are
        if getattr(value, "_checked", False):  # see _trusted
            return value
        path = _at(path)
        for name, (hint, default) in args.items():
            item = getattr(value, name)
            if item is not default and (type(item) is not hint or hint not in _JSON_TYPES):
                if (decoded := _decode(hint, item, f"{path}.{name}")) != item:
                    raise ValidationError(f"{path}.{name} must be {_shown(decoded)}")
        return _trusted(value) if tp is SiteConfig else value
    if origin is dataclass and kind is dict:
        decoded = value  # copied before the first field value that needs converting
        for name, item in value.items():
            if name not in args:
                raise ValidationError(f"{_at(path)} has unknown field {name!r}")
            hint = args[name][0]
            if type(item) is not hint or hint not in _JSON_TYPES:  # else it passes as it is
                if decoded is value:
                    decoded = dict(value)
                decoded[name] = _decode(hint, item, f"{_at(path)}.{name}")
        try:
            return _trusted(tp(**decoded)) if tp is SiteConfig else tp(**decoded)
        except TypeError:  # unknown names were rejected above, so a field is missing
            # Fields without a default come first in a dataclass, so missing[0]
            # is one of them and not a field with a default factory.
            missing = [n for n, (_, d) in args.items() if d is MISSING and n not in value]
            raise ValidationError(f"{_at(path)} needs field {missing[0]!r}") from None
    if (kind is list or kind is origin) and (origin in (list, frozenset) or ... in args):
        if args[0] in _JSON_TYPES:  # then each element of that type passes as it is
            for v in value:
                if type(v) is not args[0]:
                    break
            else:
                return origin(value)
        return origin(_decode(args[0], v, (path, i)) for i, v in enumerate(value))
    if (kind is list or kind is origin) and origin is tuple and len(value) == len(args):
        return tuple(_decode(a, v, (path, i)) for i, (a, v) in enumerate(zip(args, value)))
    if (kind is dict or kind is MappingProxyType) and origin is dict:
        return {_decode(args[0], k, (path, k)): _decode(args[1], v, (path, k))
                for k, v in value.items()}
    if isinstance(tp, EnumMeta):
        try:
            return tp(value)
        except ValueError:
            raise ValidationError(
                f"{_at(path)} must be one of {[member.value for member in tp]}, not {_shown(value)}"
            ) from None
    expected = (f"an object or a {tp.__name__}" if origin is dataclass else "an object"
                if dict in (origin, tp) else "a list" if args or tp is list else tp.__name__)
    raise ValidationError(f"{_at(path)} must be {expected}, not {_shown(value)}")
