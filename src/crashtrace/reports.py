"""Crash-report types and the parser that normalizes raw case documents.

The source documents are large semi-structured XML files; this module only
extracts the handful of fields the pipeline consumes. Every other field
survives only in the verbatim copy kept in the case package.
``check_reconstructable`` raises IncompleteInfo or NotDualVehicle on a report
that reconstruction cannot use.

Speeds are assumed reported in miles per hour and converted to m/s here, so
everything downstream works in one unit.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import IncompleteInfo, MalformedDocument, NotDualVehicle
from .geometry import GeoPoint, MPH_TO_MPS


class CaseKey(NamedTuple):
    state: int
    state_case: int
    case_year: int

    @property
    def slug(self) -> str:
        return f"{self.state}_{self.state_case}_{self.case_year}"


@dataclass(frozen=True)
class RawCaseDocument:
    """Verbatim report markup plus the key it was fetched under."""

    case_key: CaseKey
    body: str


class CollisionType(Enum):
    ANGLE = "Angle"
    FRONT_TO_FRONT = "Front-to-Front"
    FRONT_TO_REAR = "Front-to-Rear"
    SIDESWIPE_OPPOSITE = "Sideswipe, Opposite Direction"
    SIDESWIPE_SAME = "Sideswipe, Same Direction"
    REAR_TO_SIDE = "Rear-to-Side"
    REAR_TO_REAR = "Rear-to-Rear"
    OTHER = "Others"


class RoadTopology(Enum):
    NOT_AN_INTERSECTION = "Not an Intersection"
    T_INTERSECTION = "T-Intersection"
    FOUR_WAY = "Four-way Intersection"
    Y_INTERSECTION = "Y-Intersection"
    TRAFFIC_CIRCLE = "Traffic Circle / Roundabout"
    FIVE_POINT_PLUS = "Five-Point, or More"
    L_INTERSECTION = "L-Intersection"
    OTHER = "Others"

    @property
    def is_intersection(self) -> bool:
        return self not in (RoadTopology.NOT_AN_INTERSECTION, RoadTopology.OTHER)


class TrajectoryRelation(Enum):
    SAME_TRAFFICWAY_SAME_DIRECTION = "Same Trafficway, Same Direction"
    SAME_TRAFFICWAY_OPPOSITE_DIRECTION = "Same Trafficway, Opposite Direction"
    CHANGING_TRAFFICWAY_TURNING = "Changing Trafficway, Vehicle Turning"
    INTERSECTING_PATHS = "Intersecting Paths"
    OTHER = "Others"


class Maneuver(Enum):
    GOING_STRAIGHT = "going_straight"
    TURNING_LEFT = "turning_left"
    TURNING_RIGHT = "turning_right"
    OTHER = "other"


@dataclass(frozen=True)
class VehicleRecord:
    vehicle_id: int
    travel_speed: float | None = None   # m/s; None when unknown
    impact_clock: int | None = None     # 1..12; None when unknown
    maneuver: Maneuver = Maneuver.OTHER


@dataclass(frozen=True)
class CrashReport:
    """Normalized extraction of one crash case.

    ``crash_coords``, ``road_topology``, and ``trajectory_relation`` are None
    when the source document omits them; an unrecognized value that is present
    maps to the matching OTHER member instead.
    """

    case_key: CaseKey
    crash_coords: GeoPoint | None = None
    collision_type: CollisionType | None = None
    road_topology: RoadTopology | None = None
    trajectory_relation: TrajectoryRelation | None = None
    event_sequence: tuple[str, ...] = ()
    vehicles: tuple[VehicleRecord, ...] = ()


def _norm(label: str) -> str:
    return "".join(c for c in label.lower() if c.isalnum())


def _label_map(enum_cls) -> dict[str, object]:
    return {_norm(member.value): member for member in enum_cls}


# Labels match on letters and digits alone, so "Sideswipe - Same Direction"
# finds SIDESWIPE_SAME; the aliases are spellings that differ beyond that.
# An unknown label falls back to OTHER.
_COLLISION_LABELS = _label_map(CollisionType)

_TOPOLOGY_LABELS = _label_map(RoadTopology)
_TOPOLOGY_LABELS.update({
    _norm("Roundabout"): RoadTopology.TRAFFIC_CIRCLE,
    _norm("Traffic Circle"): RoadTopology.TRAFFIC_CIRCLE,
    _norm("Five Points or More"): RoadTopology.FIVE_POINT_PLUS,
})

_RELATION_LABELS = _label_map(TrajectoryRelation)
_RELATION_LABELS.update({
    _norm("Changing Trafficway"): TrajectoryRelation.CHANGING_TRAFFICWAY_TURNING,
})

_MANEUVER_LABELS = _label_map(Maneuver)


def _category(text: str | None, labels: dict, other):
    """Closed-category lookup: absent -> None, unrecognized -> ``other``."""
    if text is None or not text.strip():
        return None
    return labels.get(_norm(text), other)


def _float_or_none(text: str | None) -> float | None:
    """The number in ``text``; None when it is missing, malformed or not finite."""
    if text is None or not text.strip():
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def parse_report(doc: RawCaseDocument) -> CrashReport:
    """Normalize a raw case document.

    Total on well-formed markup: missing or unrecognized fields degrade to
    None / OTHER members, never to an exception. Only unparsable markup
    raises MalformedDocument.
    """
    try:
        root = ET.fromstring(doc.body)
    except ET.ParseError as exc:
        raise MalformedDocument(f"case {doc.case_key.slug}: {exc}") from exc

    lat = _float_or_none(root.findtext("Crash/Latitude"))
    lon = _float_or_none(root.findtext("Crash/Longitude"))
    coords = None
    if lat is not None and lon is not None and abs(lat) <= 90 and abs(lon) <= 180:
        coords = GeoPoint(lat, lon)

    events = tuple(
        (el.text or "").strip()
        for el in root.iterfind("Crash/Events/Event")
        if (el.text or "").strip()
    )

    vehicles = []
    for i, el in enumerate(root.iterfind("Vehicles/Vehicle")):
        try:
            vid = int(el.get("number", i + 1))
        except ValueError:
            vid = i + 1
        speed_mph = _float_or_none(el.findtext("TravelSpeed"))
        speed = speed_mph * MPH_TO_MPS if speed_mph is not None and speed_mph >= 0 else None
        clock_raw = _float_or_none(el.findtext("ImpactClock"))
        clock = int(clock_raw) if clock_raw is not None and clock_raw in range(1, 13) else None
        maneuver = _category(
            el.findtext("PreCrashManeuver"), _MANEUVER_LABELS, Maneuver.OTHER) or Maneuver.OTHER
        vehicles.append(VehicleRecord(vid, speed, clock, maneuver))

    return CrashReport(
        case_key=doc.case_key,
        crash_coords=coords,
        collision_type=_category(
            root.findtext("Crash/MannerOfCollision"), _COLLISION_LABELS, CollisionType.OTHER),
        road_topology=_category(
            root.findtext("Crash/TypeOfIntersection"), _TOPOLOGY_LABELS, RoadTopology.OTHER),
        trajectory_relation=_category(
            root.findtext("Crash/PreCrashRelation"), _RELATION_LABELS, TrajectoryRelation.OTHER),
        event_sequence=events,
        vehicles=tuple(vehicles),
    )


def check_reconstructable(report: CrashReport) -> None:
    """Raise IncompleteInfo when the report lacks a field reconstruction cannot
    do without, else NotDualVehicle unless it has exactly two vehicles."""
    missing = [name for name in ("crash_coords", "road_topology", "trajectory_relation")
               if getattr(report, name) is None]
    if missing:
        raise IncompleteInfo(f"report lacks {', '.join(missing)}")
    if len(report.vehicles) != 2:
        raise NotDualVehicle(f"report has {len(report.vehicles)} vehicles, not 2")
