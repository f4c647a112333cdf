"""Deterministic simulator of a pixel-based web-tracking ecosystem."""

from .cookies import (
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
from .pixel import EmissionRecord, PageEmissions, on_page_event
from .reporting import (
    Distribution,
    MetricsReport,
    tally_classes,
    third_party_distribution,
)
from .scenarios import RunResult, Scenario, Step, load_scenario, run
from .social import PlatformFeed
from .tracker import IdentityGraph
from .world import (
    ConsentMode,
    ExpirationPolicy,
    ReportingClass,
    SiteConfig,
    World,
)

__version__ = "0.1.0"
