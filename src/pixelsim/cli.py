"""Command-line interface: run scenarios, replay experiments, parse codecs."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from . import experiments
from .cookies import TrackedUrl, parse_fbc, parse_fbp, serialize_fbc
from .errors import SimulatorError
from .reporting import MetricsReport
from .scenarios import INT_LIMIT, RunResult, load_scenario, run as run_scenario


@click.group()
def main():
    """Deterministic web-tracking-pixel ecosystem simulator."""


def _write_outputs(out: Path, report: MetricsReport, result: RunResult | None) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file on the path, or no permission
        raise click.BadParameter(f"cannot create {out}: {exc}", param_hint="'--out'") from None
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    for name in report.distributions:
        (out / f"{name}.csv").write_text(report.distribution_csv(name), encoding="utf-8")
    if result is not None:
        world_dump = json.dumps(result.world.snapshot(), sort_keys=True, indent=2) + "\n"
        (out / "world.json").write_text(world_dump, encoding="utf-8")
        graph_dump = json.dumps(result.graph.dump(), sort_keys=True, indent=2) + "\n"
        (out / "graph.json").write_text(graph_dump, encoding="utf-8")
    click.echo(f"wrote {out}/report.json")


@main.command("run")
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option("--out", type=click.Path(file_okay=False), default="out", show_default=True)
def run_cmd(scenario_file, seed, out):
    """Execute a scenario JSON file."""
    try:
        scenario = load_scenario(scenario_file)
        if seed is not None:
            scenario = dataclasses.replace(scenario, seed=seed)
        result = run_scenario(scenario)
    except SimulatorError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    _write_outputs(Path(out), result.report, result)


# Each experiment's --fractions takes as many values as its paper fractions:
# exactly that many where they split the sites into classes, else at most.
_PAPER_FRACTIONS = {
    "profiling": experiments.PROFILING_FRACTIONS,
    "expiration": experiments.EXPIRATION_FRACTIONS,
    "external-id": experiments.EXTERNAL_ID_FRACTIONS,
    "consent": experiments.CONSENT_FRACTIONS,
}


def _parse_fractions(name: str, text: str | None) -> list[float] | None:
    if not text:
        return None
    try:
        fracs = [float(x) for x in text.split(",")]
    except ValueError:
        fracs = None
    n = len(_PAPER_FRACTIONS.get(name, ()))
    split = name in ("profiling", "expiration")
    if fracs is None or not all(0 <= f <= 1 for f in fracs):
        problem = "each value must be a number from 0 to 1"
    elif len(fracs) > n or (split and len(fracs) < n):
        problem = f"{name} takes {'' if split else 'at most '}{n} values"
    elif split and abs(sum(fracs) - 1) > 1e-9:
        problem = "the values must sum to 1"
    else:
        return fracs
    raise click.BadParameter(f"{problem}, not {text!r}", param_hint="'--fractions'")


@main.command("experiment")
@click.argument(
    "name",
    type=click.Choice(
        ["profiling", "expiration", "external-id", "propagation", "consent", "four-day"]
    ),
)
@click.option("--sites", type=click.IntRange(min=1), default=2308, show_default=True)
@click.option("--fractions", type=str, default=None, help="Comma-separated class fractions.")
@click.option("--seed", type=click.IntRange(-INT_LIMIT, INT_LIMIT, min_open=True, max_open=True),
              default=42, show_default=True)
@click.option("--gap-days", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), default=None)
def experiment_cmd(name, sites, fractions, seed, gap_days, out):
    """Replay a built-in experiment and print its metrics report."""
    fracs = _parse_fractions(name, fractions)
    given = click.get_current_context().get_parameter_source
    if name != "expiration" and given("gap_days") is ParameterSource.COMMANDLINE:
        raise click.BadParameter("only expiration takes it", param_hint="'--gap-days'")
    if name == "four-day" and given("sites") is ParameterSource.COMMANDLINE:
        raise click.BadParameter("four-day does not take it", param_hint="'--sites'")
    result = None
    try:
        if name == "profiling":
            report, result = experiments.experiment_profiling(sites, fracs, seed=seed)
        elif name == "expiration":
            report, result = experiments.experiment_expiration(
                sites, fracs, gap_days=gap_days, seed=seed
            )
        elif name == "external-id":
            report, result = experiments.experiment_external_id(sites, *(fracs or ()), seed=seed)
        elif name == "propagation":
            report, _results = experiments.experiment_propagation(sites, seed=seed)
        elif name == "consent":
            report, _results = experiments.experiment_consent(sites, *(fracs or ()), seed=seed)
        else:  # four-day
            result = experiments.run_four_day(seed)
            report = result.report
            report.counters["linked_pairs"] = len(result.graph.resolve())
    except SimulatorError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)

    if out:
        _write_outputs(Path(out), report, result)
    else:
        click.echo(report.to_json(), nl=False)


@main.command("parse")
@click.argument("kind", type=click.Choice(["fbp", "fbc", "url"]))
@click.argument("value")
def parse_cmd(kind, value):
    """Parse a cookie or URL and print its structure as JSON."""
    try:
        if kind == "fbp":
            data = dataclasses.asdict(parse_fbp(value))
        elif kind == "fbc":
            cookie = parse_fbc(value)
            data = dataclasses.asdict(cookie)
            data.update(
                fbclid=cookie.fbclid.value,
                fbclid_canonical=cookie.fbclid.canonical,
                serialized=serialize_fbc(cookie),
            )
        else:
            data = TrackedUrl.parse(value)._asdict()
    except SimulatorError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    click.echo(json.dumps(data, indent=2, sort_keys=True))


@main.group("report")
def report_group():
    """Operations on emitted report files."""


@report_group.command("diff")
@click.argument("a", type=click.Path(exists=True, dir_okay=False))
@click.argument("b", type=click.Path(exists=True, dir_okay=False))
def report_diff(a, b):
    """Compare two report JSON files; exit 1 when they differ."""
    differences = _diff(_read_json(a, "'A'"), _read_json(b, "'B'"))
    for path, lv, rv in differences:
        click.echo(f"{path}: {lv!r} != {rv!r}")
    if differences:
        sys.exit(1)
    click.echo("identical")


def _read_json(path: str, param_hint: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise click.BadParameter(f"{path} is not a readable JSON file: {exc}",
                                 param_hint=param_hint) from None


def _diff(left, right, path="$"):
    if isinstance(left, dict) and isinstance(right, dict):
        out = []
        for key in sorted(set(left) | set(right)):
            out.extend(
                _diff(left.get(key, "<missing>"), right.get(key, "<missing>"), f"{path}.{key}")
            )
        return out
    if isinstance(left, list) and isinstance(right, list):
        if len(left) != len(right):
            return [(path + ".length", len(left), len(right))]
        out = []
        for i, (lv, rv) in enumerate(zip(left, right)):
            out.extend(_diff(lv, rv, f"{path}[{i}]"))
        return out
    if left != right:
        return [(path, left, right)]
    return []


if __name__ == "__main__":
    main()
