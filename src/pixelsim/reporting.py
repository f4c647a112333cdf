"""Aggregation of a run's page emissions into metric reports.

Pure post-processing: class tallies from observed report contents,
per-site third-party counts with first-party-subdomain exclusion, and
CDFs.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import dataclass, field
from itertools import groupby

from .pixel import PageEmissions
from .world import TRACKER_DOMAIN, ReportingClass


@dataclass
class Distribution:
    """Sorted sample with a mean-of-middles median and its CDF."""

    samples: list[float]

    def __post_init__(self):
        self.samples = sorted(self.samples)

    @property
    def max(self) -> float:
        return self.samples[-1]

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    def cdf_points(self) -> list[tuple[float, float]]:
        """(x, cdf(x)) for each distinct sample value, ascending."""
        n = len(self.samples)
        points: list[tuple[float, float]] = []
        count = 0
        for x, run in groupby(self.samples):
            count += sum(1 for _ in run)
            points.append((x, count / n))
        return points


@dataclass
class MetricsReport:
    counters: dict[str, float] = field(default_factory=dict)
    classes: dict[str, int] = field(default_factory=dict)
    site_flags: dict[str, dict] = field(default_factory=dict)
    distributions: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    comparisons: list[tuple[str, bool, float]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True, indent=2) + "\n"

    def distribution_csv(self, name: str) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["x", "cdf"])
        for x, c in self.distributions[name]:
            writer.writerow([x, c])
        return out.getvalue()


def tally_classes(emissions: list[PageEmissions], sites: list[str]) -> dict[str, int]:
    """Partition sites by the reporting behavior actually observed.

    Classification is by hop-0 report contents alone: a "plain" report
    carries no click-ID material, a "clicked" one carries the _fbc cookie
    or the bare parameter.
    """
    plain: set[str] = set()
    clicked: set[str] = set()
    for page in emissions:
        report = page.report
        if report is None:
            continue
        if report.fbc is not None or report.fbclid_param is not None:
            clicked.add(page.site)
        else:
            plain.add(page.site)
    tallies = {rc.value: 0 for rc in ReportingClass}
    for site in sites:
        if site in clicked and site in plain:
            rc = ReportingClass.BOTH
        elif site in clicked:
            rc = ReportingClass.FBP_ONLY_WITH_FBCLID
        elif site in plain:
            rc = ReportingClass.FBP_ONLY
        else:
            rc = ReportingClass.SILENT
        tallies[rc.value] += 1
    return tallies


def _excluded(destination: str, site: str) -> bool:
    if destination == site or destination.endswith("." + site):
        return True  # first-party subdomain
    if destination == TRACKER_DOMAIN or destination.endswith("." + TRACKER_DOMAIN):
        return True  # tracker-owned
    return False


def destination_sets(
    emissions: list[PageEmissions], sites: list[str]
) -> dict[str, tuple[set[str], set[str]]]:
    """Per site: (unique hop-1 destinations, unique hop-2 destinations)."""
    result = {site: (set(), set()) for site in sites}
    for page in emissions:
        if not page.fanout or page.site not in result:
            continue
        first, second = result[page.site]
        for destination, forwardees in page.fanout:
            first.add(destination)
            second.update(forwardees)
    # Each distinct destination is checked once, however often it was sent to.
    for site, (first, second) in result.items():
        excluded = {d for d in first | second if _excluded(d, site)}
        first -= excluded
        second -= excluded
    return result


def third_party_distribution(
    emissions: list[PageEmissions], sites: list[str]
) -> dict[str, Distribution]:
    """Per-site third-party counts, from one pass over the destinations.

    ``unique_first_hop`` counts distinct hop-1 destinations.
    ``total_two_hop`` adds distinct hop-2 destinations on top, counting a
    domain again if it reappears in the second hop.
    """
    sets = destination_sets(emissions, sites)
    counts = [(len(sets[site][0]), len(sets[site][1])) for site in sites]
    return {
        "unique_first_hop": Distribution([first for first, _ in counts]),
        "total_two_hop": Distribution([first + second for first, second in counts]),
    }
