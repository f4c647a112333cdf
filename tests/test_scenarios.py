"""Scenario validation, execution, determinism, and JSON round-trips."""

import dataclasses
import gc
import json
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from pixelsim.cookies import EventName
from pixelsim.errors import ValidationError
from pixelsim.experiments import experiment_consent, experiment_propagation
from pixelsim.pixel import FBP_NAME
from pixelsim.scenarios import (
    Browser,
    Scenario,
    Step,
    load_scenario,
    run,
    scenario_from_dict,
    scenario_to_dict,
)
from pixelsim.world import DAY_MS, ConsentMode, ExpirationPolicy, ReportingClass, SiteConfig
from helpers import random_scenario, site_checks
from test_raw_input import SCENARIO as EVERY_ACTION


def outcome(result) -> tuple:
    """What a run produced: world, graph, report and every emission."""
    return (result.world.snapshot(), result.graph.dump(), result.report.to_json(),
            [(r.hop, r.report) for r in result.log])


def simple_scenario(**kwargs) -> Scenario:
    defaults = dict(
        seed=1,
        sites=[SiteConfig(domain="shop.example")],
        browsers=[{"id": "b1"}],
        steps=[
            Step(10, "Visit", {"browser": "b1", "site": "shop.example"}),
            Step(20, "Reload", {"browser": "b1", "site": "shop.example"}),
        ],
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


# Every field of a site but its domain, and values in either form, good and bad.
SITE_FIELDS = [f.name for f in dataclasses.fields(SiteConfig) if f.name != "domain"]
NAMES = st.text(alphabet="ab.", max_size=3)
MEMBERS = st.sampled_from([*ExpirationPolicy, *ReportingClass, *EventName])
FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), NAMES,
    MEMBERS, MEMBERS.map(lambda member: member.value),
    st.lists(NAMES | MEMBERS.map(lambda member: member.value), max_size=2),
    st.lists(NAMES, max_size=2).map(tuple), st.frozensets(MEMBERS, max_size=2),
    st.dictionaries(NAMES, st.lists(NAMES, max_size=2) | st.lists(NAMES, max_size=2).map(tuple)
                    | NAMES | st.integers(0, 1), max_size=2),
)
# A click-ID visit and a reload a day later, so that every site field is read.
PROBE_STEPS = [
    Step(1, "Visit", {"browser": "b1", "site": "shop.example", "url_extras": [["fbclid", "X"]]}),
    Step(DAY_MS, "Reload", {"browser": "b1", "site": "shop.example"}),
]


class TestValidation:
    def test_unknown_action_rejected(self):
        scenario = simple_scenario(steps=[Step(1, "Teleport", {})])
        with pytest.raises(ValidationError):
            scenario.validate()

    def test_ticks_must_strictly_increase(self):
        scenario = simple_scenario(
            steps=[
                Step(10, "Visit", {"browser": "b1", "site": "shop.example"}),
                Step(10, "Visit", {"browser": "b1", "site": "shop.example"}),
            ]
        )
        with pytest.raises(ValidationError) as excinfo:
            scenario.validate()
        assert excinfo.value.step_index == 1

    def test_negative_first_tick_rejected_before_any_step_runs(self):
        scenario = simple_scenario(
            steps=[Step(-5, "Visit", {"browser": "b1", "site": "shop.example"})]
        )
        ran = []
        with pytest.raises(ValidationError, match="non-negative") as excinfo:
            run(scenario, observe=lambda step, world: ran.append(step))
        assert excinfo.value.step_index == 0
        assert ran == []

    @pytest.mark.parametrize(
        "action, params",
        [
            ("Visit", {"site": "shop.example"}),
            ("Visit", {"browser": "b1", "site": "shop.example", "event": "Nope"}),
            ("Visit", {"browser": "b1", "site": "shop.example", "evnt": "Purchase"}),
            ("AdvanceDays", {"days": -1}),
            ("AdvanceDays", {"days": "2"}),
            ("InjectFbclid", {"browser": "b1", "site": "shop.example", "value": "abc"}),
            ("PlatformLoad", {}),
            ("Visit", {"browser": ["b"], "site": "shop.example"}),
            ("Visit", {"browser": "b1", "site": 7}),
            ("Visit", {"browser": "b1", "site": "shop.example", "url_extras": [1]}),
            ("Visit", {"browser": "b1", "site": "shop.example", "url_extras": [["a", "b", "c"]]}),
            ("Visit", {"browser": "b1", "site": "shop.example", "url_extras": [["a", 2]]}),
            ("Visit", {"browser": "b1", "site": "shop.example", "url_extras": "a=b"}),
            ("PlatformLoad", {"account": 3}),
            ("PlatformClick", {"account": "u1", "site": "shop.example", "element_class": None}),
            ("DeleteCookie", {"browser": "b1", "site": "shop.example", "name": {"_fbp": 1}}),
            ("Visit", {"browser": "b1", "site": "shop.example", "url_extras": [["fbclid", 12]]}),
            ("Visit", {"browser": "b1", "site": "shop.example", "url_extras": (("fbclid",),)}),
        ],
    )
    def test_bad_step_rejected_before_any_step_runs(self, action, params):
        scenario = simple_scenario(
            steps=[
                Step(1, "Visit", {"browser": "b1", "site": "shop.example"}),
                Step(2, action, params),
            ]
        )
        ran = []
        with pytest.raises(ValidationError) as excinfo:
            run(scenario, observe=lambda step, world: ran.append(step))
        assert excinfo.value.step_index == 1
        assert ran == []

    def test_site_listed_twice_rejected_before_any_step_runs(self):
        scenario = simple_scenario(
            sites=[
                SiteConfig(domain="shop.example"),
                SiteConfig(domain="news.example"),
                SiteConfig(domain="shop.example", expiration_policy=ExpirationPolicy.BLOCKED),
            ]
        )
        ran = []
        with pytest.raises(ValidationError, match="'shop.example'") as excinfo:
            run(scenario, observe=lambda step, world: ran.append(step))
        assert excinfo.value.step_index is None
        assert ran == []

    def test_runtime_errors_carry_step_index(self):
        scenario = simple_scenario(
            steps=[Step(1, "Visit", {"browser": "ghost", "site": "shop.example"})]
        )
        with pytest.raises(ValidationError) as excinfo:
            run(scenario)
        assert excinfo.value.step_index == 0

    @pytest.mark.parametrize("action, params", [
        ("Visit", {}), ("Reload", {}), ("Visit", {"url_extras": [["fbclid", "X"]]}),
    ])
    @pytest.mark.parametrize("site, consent_mode", [
        ({"consent_requires_interaction": True}, ConsentMode.NO_ACTION),
        ({"expiration_policy": ExpirationPolicy.BLOCKED}, ConsentMode.ACCEPT_ALL),
        ({"consent_compliant": True}, ConsentMode.REJECT_ALL),
    ], ids=["interaction-gated", "blocked", "consent-blocked"])
    def test_page_event_rejects_unknown_browser_where_the_pixel_is_off(
        self, action, params, site, consent_mode
    ):
        scenario = simple_scenario(
            sites=[SiteConfig(domain="shop.example"), SiteConfig(domain="off.example", **site)],
            consent_mode=consent_mode,
            steps=[
                Step(1, "Visit", {"browser": "b1", "site": "shop.example"}),
                Step(2, action, {"browser": "ghost", "site": "off.example", **params}),
            ],
        )
        with pytest.raises(ValidationError, match="ghost") as excinfo:
            run(scenario)
        assert excinfo.value.step_index == 1

    @pytest.mark.parametrize("field, value, step_index", [
        ("consent_mode", "Maybe", None),
        ("sites", [{"domain": "shop.example", "strips_fbclid": "no"}], None),
        ("steps", [Step(10, "Visit", {"browser": "b1", "site": "shop.example"}),
                   (20, "Reload", {"browser": "b1", "site": "shop.example"})], 1),
        ("sites", None, None),
        ("browsers", None, None),
        ("steps", None, None),
        ("sites", (SiteConfig(domain=d) for d in ["shop.example"]), None),
        ("browsers", [Browser("b1"), Browser("b1")], None),
    ], ids=["consent-mode-an-unknown-string", "site-a-bad-dict", "step-a-tuple", "sites-none",
            "browsers-none", "steps-none", "sites-a-generator", "browser-listed-twice"])
    def test_scenario_built_in_python_is_checked(self, field, value, step_index):
        ran = []
        with pytest.raises(ValidationError) as excinfo:
            run(simple_scenario(**{field: value}), observe=lambda step, world: ran.append(step))
        assert excinfo.value.step_index == step_index
        assert ran == []

    @pytest.mark.parametrize("site", [
        SiteConfig(domain="shop.example", expiration_policy="Never"),
        SiteConfig(domain="shop.example", strips_fbclid="no"),
        SiteConfig(domain="shop.example", first_hop_third_parties="xy"),
        SiteConfig(domain="shop.example", first_hop_third_parties=["ads.example"]),
        SiteConfig(domain="shop.example", pixel_id=5),
        SiteConfig(domain="shop.example", tracked_events=None),
        SiteConfig(domain="shop.example", tracked_events=frozenset({"PageView"})),
        SiteConfig(domain="shop.example", first_hop_third_parties=("ads.example",),
                   second_hop_forwarding=None),
        SiteConfig(domain="shop.example", second_hop_forwarding={"ads.example": ["x.example"]}),
        SiteConfig(domain="shop.example", second_hop_forwarding={1: ("x.example",)}),
    ], ids=["policy-a-string", "strips-fbclid-a-string", "third-parties-a-string",
            "third-parties-a-list", "pixel-id-an-int", "tracked-events-none",
            "tracked-events-of-strings", "forwarding-none", "forwarding-to-a-list",
            "forwarding-from-an-int"])
    def test_site_built_in_python_is_checked_by_the_decoder_rules(self, site):
        # Each field of a Python-built site must hold what decoding its JSON
        # form gives, because the run uses it as it is.
        ran = []
        with pytest.raises(ValidationError, match=r"^sites\[0\]\.") as excinfo:
            run(simple_scenario(sites=[site], steps=PROBE_STEPS),
                observe=lambda step, world: ran.append(step))
        assert excinfo.value.step_index is None
        assert ran == []

    @pytest.mark.parametrize("sites, message", [
        (None, "sites must be a list, not None"),
        ([3], "sites[0] must be an object or a SiteConfig, not 3"),
        ([SiteConfig(domain="shop.example", tracked_events=None)],
         "sites[0].tracked_events must be a list, not None"),
    ], ids=["sites-none", "site-an-int", "tracked-events-none"])
    def test_message_names_the_json_form(self, sites, message):
        with pytest.raises(ValidationError) as excinfo:
            run(simple_scenario(sites=sites))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("field, value, typed", [
        ("consent_mode", "RejectAll", ConsentMode.REJECT_ALL),
        ("sites", [{"domain": "shop.example", "expiration_policy": "Never"}],
         [SiteConfig(domain="shop.example", expiration_policy=ExpirationPolicy.NEVER)]),
        ("steps", [Step(1, "Reload", {"browser": "b1", "site": "shop.example",
                                      "event": EventName.PURCHASE})],
         [Step(1, "Reload", {"browser": "b1", "site": "shop.example", "event": "Purchase"})]),
        ("steps", [Step(1, "Visit", {"browser": "b1", "site": "shop.example",
                                     "url_extras": (("fbclid", "X"), ("a", "b"))})],
         [Step(1, "Visit", {"browser": "b1", "site": "shop.example",
                            "url_extras": [["fbclid", "X"], ["a", "b"]]})]),
        ("steps", [Step(1, "CreateAccount", {"browser": "b1", "account": "u1"}),
                   Step(2, "PlatformLoad", {"account": "u1"}),
                   Step(3, "PlatformClick", {"account": "u1", "site": "shop.example",
                                             "event": EventName.LEAD})],
         [Step(1, "CreateAccount", {"browser": "b1", "account": "u1"}),
          Step(2, "PlatformLoad", {"account": "u1"}),
          Step(3, "PlatformClick", {"account": "u1", "site": "shop.example", "event": "Lead"})]),
        ("browsers", [Browser("b1", incognito=True)], [{"id": "b1", "incognito": True}]),
    ], ids=["consent-mode-a-string", "site-a-dict", "event-a-member", "url-extras-tuples",
            "click-event-a-member", "browser-an-instance"])
    def test_json_and_decoded_forms_run_alike(self, field, value, typed):
        site = SiteConfig(domain="shop.example", tracked_events=frozenset(EventName))
        both = [run(simple_scenario(**{"sites": [site], field: v})) for v in (value, typed)]
        assert outcome(both[0]) == outcome(both[1])
        assert len(both[0].emissions) > 0
        # Either form is written as a scenario file that runs the same.
        for v in (value, typed):
            written = json.dumps(scenario_to_dict(simple_scenario(**{"sites": [site], field: v})))
            assert outcome(run(scenario_from_dict(json.loads(written)))) == outcome(both[1])

    @settings(max_examples=300)
    @given(st.sampled_from(SITE_FIELDS), FIELD_VALUES)
    def test_site_built_in_python_follows_the_json_rules(self, field, value):
        def attempt(site):
            try:
                return outcome(run(simple_scenario(sites=[site], steps=PROBE_STEPS)))
            except ValidationError:
                return None

        as_json = {"domain": "shop.example", field: value}
        from_json = attempt(as_json)
        from_python = attempt(SiteConfig(domain="shop.example", **{field: value}))
        if from_json is None:  # a value the decoder rejects is rejected in either form
            assert from_python is None
            return
        if from_python is not None:
            assert from_python == from_json
        # The decoded value, held by a Python-built site, runs as the JSON form does.
        decoded = getattr(simple_scenario(sites=[as_json]).validate()[1][0], field)
        assert attempt(SiteConfig(domain="shop.example", **{field: decoded})) == from_json

    def test_tuples_serve_as_lists(self):
        scenario = simple_scenario()
        as_tuples = simple_scenario(sites=tuple(scenario.sites),
                                    browsers=tuple(scenario.browsers), steps=tuple(scenario.steps))
        assert run(as_tuples).world.snapshot() == run(scenario).world.snapshot()

    @pytest.mark.parametrize("domain", ["", "x/y", "a?b=c", None, 5])
    def test_site_domain_no_url_can_carry_is_rejected(self, domain):
        scenario = simple_scenario(
            sites=[SiteConfig(domain="shop.example"), SiteConfig(domain=domain, pixel_id="px")]
        )
        ran = []
        with pytest.raises(ValidationError, match=r"sites\[1\]") as excinfo:
            run(scenario, observe=lambda step, world: ran.append(step))
        assert excinfo.value.step_index is None
        assert ran == []

    def test_platform_click_requires_prior_load(self):
        scenario = simple_scenario(
            steps=[
                Step(1, "CreateAccount", {"browser": "b1", "account": "u1"}),
                Step(2, "PlatformClick", {"account": "u1", "site": "shop.example"}),
            ]
        )
        with pytest.raises(ValidationError):
            run(scenario)

    def test_click_without_browser_needs_one_still_logged_in(self):
        # b1 moves on to u2, so no browser is logged into u1 any more.
        scenario = simple_scenario(
            steps=[
                Step(1, "CreateAccount", {"browser": "b1", "account": "u1"}),
                Step(2, "CreateAccount", {"browser": "b1", "account": "u2"}),
                Step(3, "PlatformLoad", {"account": "u1"}),
                Step(4, "PlatformClick", {"account": "u1", "site": "shop.example"}),
            ]
        )
        with pytest.raises(ValidationError, match="no browser logged into account") as excinfo:
            run(scenario)
        assert excinfo.value.step_index == 3


class TestExecution:
    def test_empty_scenario_runs(self):
        result = run(simple_scenario(steps=[]))
        assert result.log == []
        assert result.report.counters["emissions_total"] == 0

    def test_visits_emit_and_ingest(self):
        result = run(simple_scenario())
        assert result.report.counters["emissions_hop0"] == 2
        assert result.report.counters["profiles"] == 1
        assert [r.report.timestamp for r in result.log] == [10, 20]
        assert [(r.site, r.browser_id) for r in result.log] == [("shop.example", "b1")] * 2

    def test_full_deanonymization_path(self):
        scenario = simple_scenario(
            steps=[
                Step(1 * DAY_MS, "Visit", {"browser": "b1", "site": "shop.example"}),
                Step(2 * DAY_MS, "CreateAccount", {"browser": "b1", "account": "u1"}),
                Step(3 * DAY_MS, "PlatformLoad", {"account": "u1"}),
                Step(
                    3 * DAY_MS + 1,
                    "PlatformClick",
                    {"account": "u1", "site": "shop.example"},
                ),
            ]
        )
        result = run(scenario)
        links = result.graph.resolve()
        assert len(links) == 1
        assert links[0][1] == "u1"
        history = result.graph.account_history("u1")
        assert history[0].timestamp == 1 * DAY_MS

    def test_login_binds_existing_account_to_browser(self):
        scenario = simple_scenario(
            browsers=[{"id": "b1"}, {"id": "b2"}],
            steps=[
                Step(1, "CreateAccount", {"browser": "b1", "account": "u1"}),
                Step(2, "Login", {"browser": "b2", "account": "u1"}),
            ],
        )
        result = run(scenario)
        assert result.world.browser("b2").logged_in == "u1"

    def test_delete_cookie_and_advance_days(self):
        scenario = simple_scenario(
            steps=[
                Step(1, "Visit", {"browser": "b1", "site": "shop.example"}),
                Step(
                    2,
                    "DeleteCookie",
                    {"browser": "b1", "site": "shop.example", "name": FBP_NAME},
                ),
                Step(2 * DAY_MS + 4, "Visit", {"browser": "b1", "site": "shop.example"}),
            ]
        )
        result = run(scenario)
        hop0 = [r.report.fbp for r in result.log if r.hop == 0]
        assert hop0[0] != hop0[1]  # deletion forced a fresh cookie

    def test_delete_cookie_creates_no_jar_and_needs_a_known_site(self):
        delete = {"browser": "b1", "name": FBP_NAME}
        scenario = simple_scenario(
            sites=[SiteConfig(domain="a.example"), SiteConfig(domain="b.example")],
            steps=[
                Step(1, "Visit", {"browser": "b1", "site": "a.example"}),
                Step(2, "DeleteCookie", {**delete, "site": "b.example"}),
                Step(3, "DeleteCookie", {**delete, "site": "nowhere.example"}),
            ],
        )
        jars = []
        with pytest.raises(ValidationError, match="nowhere.example") as excinfo:
            run(scenario, observe=lambda step, world: jars.append(sorted(
                world.snapshot()["browsers"]["b1"]["jars"])))
        assert excinfo.value.step_index == 2
        assert jars == [["a.example"], ["a.example"]]

    def test_incognito_browser_gets_fresh_cookie_each_step(self):
        scenario = simple_scenario(
            browsers=[{"id": "b1", "incognito": True}],
        )
        result = run(scenario)
        values = [r.report.fbp for r in result.log if r.hop == 0]
        assert values[0] != values[1]

    def test_injected_fbclid_recorded_and_visit_fires(self):
        scenario = simple_scenario(
            steps=[
                Step(
                    5,
                    "Visit",
                    {"browser": "b1", "site": "shop.example",
                     "url_extras": [["fbclid", "Injected"]]},
                )
            ]
        )
        result = run(scenario)
        assert result.log[0].report.fbc.endswith(".Injected")
        assert result.feed.entries_for("Injected") == []

    def test_records_carry_browser_of_platform_clicks(self):
        scenario = simple_scenario(
            steps=[
                Step(1, "CreateAccount", {"browser": "b1", "account": "u1"}),
                Step(2, "PlatformLoad", {"account": "u1"}),
                Step(3, "PlatformClick", {"account": "u1", "site": "shop.example"}),
            ]
        )
        result = run(scenario)
        assert result.log
        assert [r.browser_id for r in result.log] == ["b1"] * len(result.log)

    def test_click_without_browser_lands_on_first_logged_in_browser(self):
        # b2 logs in first, but b1 comes first in the scenario's browsers.
        scenario = simple_scenario(
            browsers=[{"id": "b1"}, {"id": "b2"}],
            steps=[
                Step(1, "CreateAccount", {"browser": "b2", "account": "u1"}),
                Step(2, "Login", {"browser": "b1", "account": "u1"}),
                Step(3, "PlatformLoad", {"account": "u1"}),
                Step(4, "PlatformClick", {"account": "u1", "site": "shop.example"}),
            ],
        )
        result = run(scenario)
        assert [page.browser_id for page in result.emissions] == ["b1"]
        assert result.log[0].report.fbc is not None

    def test_records_carry_the_site_their_url_names(self):
        # The URL-derived site is the reference the record field replaced.
        for seed in range(200):
            for record in run(random_scenario(seed)).log:
                assert record.site == record.report.page_url.origin

    def test_observe_sees_every_step_in_order(self):
        scenario = random_scenario(7)
        seen = []
        run(scenario, observe=lambda step, world: seen.append(step))
        assert len(scenario.steps) > 1
        assert len(seen) == len(scenario.steps)
        assert all(a is b for a, b in zip(seen, scenario.steps))

    def test_result_holds_no_reference_to_its_scenario(self):
        # The caller holds its input; once it lets go, the steps are freed.
        scenario = click_scenario()
        ref = weakref.ref(scenario)
        result = run(scenario)
        del scenario
        assert ref() is None
        assert sorted(result.world.snapshot()["accounts"]) == ["u1", "u2"]


def click_scenario() -> Scenario:
    """Two accounts, each loading the feed twice and clicking out after each load."""
    steps = []
    for account, browser in ("u1", "b1"), ("u2", "b2"):
        steps.append(Step(len(steps) + 1, "CreateAccount",
                          {"browser": browser, "account": account}))
    for _ in range(2):
        for account in "u1", "u2":
            steps.append(Step(len(steps) + 1, "PlatformLoad", {"account": account}))
            for element_class in "ad-card", "banner":
                steps.append(Step(len(steps) + 1, "PlatformClick", {
                    "account": account, "site": "shop.example", "element_class": element_class}))
    return simple_scenario(browsers=[{"id": "b1"}, {"id": "b2"}], steps=steps)


@pytest.fixture
def gc_restored():
    """Leaves automatic garbage collection as the test found it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestGarbageCollection:
    """``run`` pauses automatic collection, which is safe only while a run
    builds no reference cycles."""

    def test_a_dropped_run_leaves_no_cyclic_garbage(self):
        gc.collect()
        start = len(gc.garbage)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for scenario in scenario_from_dict(EVERY_ACTION), click_scenario():
                result = run(scenario)
                assert result.feed.ledger
            del result
            gc.collect()
            cyclic = sorted({f"{type(obj).__module__}.{type(obj).__qualname__}"
                             for obj in gc.garbage[start:]})
        finally:
            gc.set_debug(0)
            del gc.garbage[start:]
        assert [name for name in cyclic if name.startswith("pixelsim.")] == []

    def test_collector_is_enabled_again_after_a_run(self, gc_restored):
        gc.enable()
        run(click_scenario())
        assert gc.isenabled()

    def test_collector_is_enabled_again_after_a_failed_step(self, gc_restored):
        steps = click_scenario().steps[:2] + [
            Step(10, "Visit", {"browser": "ghost", "site": "shop.example"})]
        gc.enable()
        with pytest.raises(ValidationError) as excinfo:
            run(simple_scenario(browsers=[{"id": "b1"}, {"id": "b2"}], steps=steps))
        assert excinfo.value.step_index == 2
        assert gc.isenabled()

    def test_collector_is_enabled_again_after_observe_raises(self, gc_restored):
        def observe(step, world):
            raise RuntimeError("observer failed")

        gc.enable()
        with pytest.raises(RuntimeError, match="observer failed"):
            run(simple_scenario(), observe=observe)
        assert gc.isenabled()

    def test_collector_disabled_by_the_caller_stays_disabled(self, gc_restored):
        gc.disable()
        run(click_scenario())
        assert not gc.isenabled()

    def test_observe_runs_while_the_collector_is_paused(self, gc_restored):
        gc.enable()
        seen = []
        run(click_scenario(), observe=lambda step, world: seen.append(gc.isenabled()))
        assert seen and not any(seen)


class TestRotateExternalId:
    def scenario(self, *steps: Step) -> Scenario:
        return simple_scenario(
            sites=[
                SiteConfig(domain="shop.example", shares_external_id=True),
                SiteConfig(domain="news.example", shares_external_id=True),
            ],
            steps=list(steps),
        )

    def test_rotation_survives_round_trip_and_changes_id_once(self):
        visit = {"browser": "b1", "site": "shop.example"}
        scenario = self.scenario(
            Step(1, "Visit", visit),
            Step(2, "Visit", {"browser": "b1", "site": "news.example"}),
            Step(3, "RotateExternalId", visit),
            Step(4, "Visit", visit),
            Step(5, "Visit", {"browser": "b1", "site": "news.example"}),
            Step(6, "Visit", visit),
        )
        rebuilt = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(scenario))))
        assert rebuilt.steps == scenario.steps
        ids: dict[str, list[str]] = {}
        for record in run(rebuilt).log:
            ids.setdefault(record.site, []).append(record.report.external_id)
        first, second, third = ids["shop.example"]
        assert first != second == third
        assert len(set(ids["news.example"])) == 1

    @pytest.mark.parametrize("anonymous_default", [False, True])
    def test_rotation_without_a_per_browser_id_changes_nothing(self, anonymous_default):
        # A site that shares no ID, or hands every browser the same one.
        site = SiteConfig(domain="shop.example", shares_external_id=anonymous_default,
                          external_id_default_when_anonymous=anonymous_default)
        visit = {"browser": "b1", "site": "shop.example"}
        scenario = simple_scenario(
            sites=[site],
            steps=[Step(1, "Visit", visit), Step(2, "RotateExternalId", visit),
                   Step(3, "Visit", visit)],
        )
        first, second = [record.report.external_id for record in run(scenario).log]
        assert first == second
        assert (first is not None) == anonymous_default

    @pytest.mark.parametrize(
        "params",
        [
            {"browser": "b1", "site": "nowhere.example"},
            {"browser": "ghost", "site": "shop.example"},
        ],
    )
    def test_unknown_site_or_browser_fails_with_step_index(self, params):
        scenario = self.scenario(
            Step(1, "Visit", {"browser": "b1", "site": "shop.example"}),
            Step(2, "RotateExternalId", params),
        )
        with pytest.raises(ValidationError) as excinfo:
            run(scenario)
        assert excinfo.value.step_index == 1
        unknown = "site" if params["browser"] == "b1" else "browser"
        assert str(excinfo.value) == f"step 1: unknown {unknown} {params[unknown]!r}"


class TestDeterminism:
    def test_identical_runs_are_identical(self):
        for seed in (0, 17):
            scenario = random_scenario(seed)
            a, b = run(scenario), run(random_scenario(seed))
            assert [r.report for r in a.log] == [r.report for r in b.log]
            assert a.world.snapshot() == b.world.snapshot()
            assert a.graph.dump() == b.graph.dump()

    def test_different_seed_changes_cookie_values(self):
        base = simple_scenario()
        other = simple_scenario(seed=2)
        a, b = run(base), run(other)
        assert a.log[0].report.fbp != b.log[0].report.fbp


def decoded(scenario: Scenario) -> list:
    """The decoded consent mode and sites, and each decoded browser and action
    as its class and field values."""
    consent_mode, sites, browsers, actions = scenario.validate()
    return [consent_mode, sites] + [
        (type(value), {f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
        for value in (*browsers, *actions)]


class TestScenarioFiles:
    def test_dict_round_trip(self):
        for seed in range(200):
            scenario = random_scenario(seed)
            data = scenario_to_dict(scenario)
            rebuilt = scenario_from_dict(json.loads(json.dumps(data)))
            assert scenario_to_dict(rebuilt) == data, f"seed {seed}"
            # The decoded browsers and actions, not only the dicts, agree.
            assert decoded(rebuilt) == decoded(scenario), f"seed {seed}"
            assert run(rebuilt).world.snapshot() == run(scenario).world.snapshot()

    def test_site_dict_names_every_field(self):
        data = {
            "domain": "shop.example",
            "pixel_id": "px-7",
            "tracked_events": ["Purchase", "PageView"],
            "expiration_policy": "OnlyReload",
            "reporting_class": "FbpOnly",
            "strips_fbclid": True,
            "shares_external_id": True,
            "external_id_default_when_anonymous": True,
            "consent_compliant": True,
            "consent_requires_interaction": True,
            "first_hop_third_parties": ["tp.example", "metrics.shop.example"],
            "second_hop_forwarding": {"tp.example": ["x.example"], "a.example": []},
        }
        expected = dict(
            data,
            tracked_events=["PageView", "Purchase"],
            second_hop_forwarding={"a.example": [], "tp.example": ["x.example"]},
        )
        rebuilt = scenario_from_dict({"seed": 1, "sites": [data]})
        encoded = scenario_to_dict(rebuilt)["sites"][0]
        assert list(encoded.items()) == list(expected.items())

    def test_unknown_site_key_rejected(self):
        data = scenario_to_dict(simple_scenario())
        data["sites"][0] = {"domain": "shop.example", "reporting_clas": "Silent"}
        with pytest.raises(ValidationError, match="reporting_clas"):
            scenario_from_dict(data)
        # A pixel-less site is written "expiration_policy": "Blocked".
        data["sites"][0] = {"domain": "shop.example", "has_pixel": False}
        with pytest.raises(ValidationError, match="has_pixel"):
            scenario_from_dict(data)
        no_domain = {"strips_fbclid": True}
        for bad in ({"domain": "shop.example", "reporting_class": "Loud"}, no_domain):
            data["sites"][0] = bad
            with pytest.raises(ValidationError):
                scenario_from_dict(data)

    @pytest.mark.parametrize(
        "spoil, step_index",
        [
            (lambda d: d.update(consent_mode="Maybe"), None),
            (lambda d: d.update(consent_mod="RejectAll"), None),
            (lambda d: d.pop("seed"), None),
            (lambda d: d["steps"][1].pop("tick"), 1),
            (lambda d: d["steps"][1].pop("action"), 1),
            (lambda d: d["steps"][1].update(tick="20"), 1),
            (lambda d: d["browsers"][0].pop("id"), None),
            (lambda d: d["steps"].__setitem__(1, "Reload"), 1),
            (lambda d: d.update(steps=5), None),
            (lambda d: d.update(sites=3), None),
            (lambda d: d.update(browsers={"id": "b1"}), None),
            (lambda d: d["sites"].append(3), None),
            (lambda d: d["sites"][0].update(first_hop_third_parties="xy"), None),
            (lambda d: d["sites"][0].update(strips_fbclid="no"), None),
            (lambda d: d["sites"][0].update(second_hop_forwarding={"a": "bc"}), None),
            (lambda d: d["browsers"][0].update(incognito="yes"), None),
            (lambda d: d["browsers"][0].update(user_agent=5), None),
            (lambda d: d.update(seed="x"), None),
            (lambda d: d["browsers"].append({"id": "b1"}), None),
            (lambda d: d["steps"][1].update(action=["Reload"]), 1),
            (lambda d: d.update(seed=10**5000), None),
            (lambda d: d.update(seed=-(2**63)), None),
            (lambda d: d["steps"][1].update(tick=10**5000), 1),
            (lambda d: d["steps"][1].update(tick=2**63), 1),
            (lambda d: d["browsers"].append({"id": ""}), None),
        ],
        ids=[
            "unknown-consent-mode", "misspelt-consent-mode", "no-seed", "no-tick", "no-action",
            "string-tick", "browser-without-id", "step-not-an-object",
            "steps-not-a-list", "sites-not-a-list", "browsers-not-a-list",
            "site-not-an-object", "third-parties-a-string", "strips-fbclid-a-string",
            "forwarding-to-a-string", "incognito-a-string", "user-agent-an-int",
            "seed-a-string", "browser-listed-twice", "action-not-a-string",
            "seed-too-long-to-print", "seed-of-2**63", "tick-too-long-to-print", "tick-of-2**63",
            "browser-id-empty",
        ],
    )
    def test_malformed_dict_is_a_validation_error(self, spoil, step_index):
        data = json.loads(json.dumps(scenario_to_dict(simple_scenario())))
        spoil(data)
        ran = []
        with pytest.raises(ValidationError) as excinfo:
            run(scenario_from_dict(data), observe=lambda step, world: ran.append(step))
        assert excinfo.value.step_index == step_index
        assert ran == []

    @pytest.mark.parametrize("content", [b'{"seed": 1, ', b'{"seed": 1}\xff'],
                             ids=["truncated", "not-utf8"])
    def test_file_that_is_not_json_is_a_validation_error(self, tmp_path, content):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        with pytest.raises(ValidationError, match="not valid JSON") as excinfo:
            load_scenario(path)
        assert excinfo.value.step_index is None

    def test_scenario_built_in_python_runs_like_a_file_with_only_a_seed(self):
        # A file's top-level keys left out take Scenario's own defaults.
        read = scenario_from_dict({"seed": 1})
        assert scenario_to_dict(Scenario(seed=1)) == scenario_to_dict(read)
        assert outcome(run(Scenario(seed=1))) == outcome(run(read))

    @pytest.mark.parametrize("data, message", [
        ({}, "scenario needs field 'seed'"),
        ({"seed": 1, "consent_mod": "RejectAll"}, "scenario has unknown field 'consent_mod'"),
        ([1], "scenario must be an object, not [1]"),
        ({"seed": "1"}, "scenario.seed must be int, not '1'"),
        ({"seed": 1, "steps": 5}, "scenario.steps must be a list, not 5"),
        ({"seed": 1, "sites": [3]}, "scenario.sites[0] must be an object or a SiteConfig, not 3"),
    ], ids=["no-seed", "misspelt-consent-mode", "a-list", "seed-a-string", "steps-an-int",
            "site-an-int"])
    def test_top_level_message_names_the_field(self, data, message):
        with pytest.raises(ValidationError) as excinfo:
            scenario_from_dict(data)
        assert str(excinfo.value) == message
        assert excinfo.value.step_index is None

    def test_load_scenario_file(self, tmp_path):
        scenario = simple_scenario(consent_mode=ConsentMode.REJECT_ALL)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_dict(scenario)), encoding="utf-8")
        loaded = load_scenario(path)
        assert loaded.consent_mode is ConsentMode.REJECT_ALL
        assert loaded.steps == scenario.steps


class TestSiteChecks:
    """A site is checked once, however many runs use it, and runs as it was
    checked."""

    @pytest.mark.parametrize("experiment", [
        lambda: experiment_propagation(12, {"second_hop_fanout": 2}, seed=3),
        lambda: experiment_consent(12, seed=3),
    ], ids=["propagation", "consent"])
    def test_each_site_of_an_experiment_is_checked_once(self, experiment):
        # Each experiment hands one list of sites to three runs.
        with site_checks() as checked:
            _, results = experiment()
        assert len(results) == 3
        assert len(checked) == len({id(site) for site in checked}) == 12

    def test_each_site_of_a_file_is_checked_once(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_dict(random_scenario(5))), encoding="utf-8")
        with site_checks() as checked:
            result = run(load_scenario(path))
        assert sorted(site.domain for site in checked) == sorted(result.world.sites)

    def test_a_copied_site_is_checked_again(self):
        site = SiteConfig(domain="shop.example")
        with site_checks() as checked:
            run(simple_scenario(sites=[site]))
            run(simple_scenario(sites=[site]))
            copy = dataclasses.replace(site)
            run(simple_scenario(sites=[copy]))
        assert [id(s) for s in checked] == [id(site), id(copy)]

    def test_a_check_adds_no_attribute_to_a_site(self):
        # The mark is set when the site is built: a key added to a site's
        # instance dict later can cost it the key table its peers share.
        site = SiteConfig(domain="shop.example")
        built = list(vars(site))
        with site_checks() as checked:
            simple_scenario(sites=[site]).validate()
        assert checked == [site]
        assert list(vars(site)) == built

    def test_a_site_runs_as_checked_after_its_caller_edits_the_forwarding_table(self):
        forwarding = {"tp.example": ("x.example",)}
        site = SiteConfig(domain="shop.example", first_hop_third_parties=("tp.example",),
                          second_hop_forwarding=forwarding)
        scenario = simple_scenario(sites=[site])
        first = run(scenario).report.counters["emissions_hop2"]
        forwarding["tp.example"] += ("y.example",)
        again = run(scenario).report.counters["emissions_hop2"]
        written = run(scenario_from_dict(scenario_to_dict(scenario))).report.counters
        assert first == again == written["emissions_hop2"] > 0
