"""Authored fixture corpus: report documents and OSM extracts built in code.

Layouts are authored in meters around a per-case origin and converted to
geodetic coordinates with the inverse projection, so every case's crash
point lands exactly at planar (0, 0). Case origins are spaced ~0.1 degrees
apart so offline map-fixture lookup by bounding box never collides.
"""

from __future__ import annotations

import math
from pathlib import Path

from crashtrace.geometry import EARTH_RADIUS_M, GeoPoint, PlanarPoint

STATE = 51
YEAR = 2023


def unproject(p: PlanarPoint, origin: GeoPoint) -> GeoPoint:
    """Inverse of the projection ``geometry.project_all`` makes."""
    lat = origin.latitude + math.degrees(p.y / EARTH_RADIUS_M)
    lon = origin.longitude + math.degrees(
        p.x / (EARTH_RADIUS_M * math.cos(math.radians(origin.latitude)))
    )
    return GeoPoint(lat, lon)


def case_origin(index: int) -> GeoPoint:
    return GeoPoint(37.0 + 0.1 * index, -77.0)


# ---------------------------------------------------------------------------
# XML builders
# ---------------------------------------------------------------------------


def report_xml(
    *,
    coords: GeoPoint | None,
    collision: str | None = "Front-to-Front",
    topology: str | None = "Not an Intersection",
    relation: str | None = "Same Trafficway, Opposite Direction",
    vehicles: list[dict] | None = None,
    events: list[str] | None = None,
) -> str:
    if vehicles is None:
        vehicles = [
            {"speed_mph": 30, "clock": 12, "maneuver": "Going Straight"},
            {"speed_mph": 30, "clock": 12, "maneuver": "Going Straight"},
        ]
    lines = ["<CrashCase>", "  <Crash>"]
    if coords is not None:
        lines.append(f"    <Latitude>{coords.latitude!r}</Latitude>")
        lines.append(f"    <Longitude>{coords.longitude!r}</Longitude>")
    if collision is not None:
        lines.append(f"    <MannerOfCollision>{collision}</MannerOfCollision>")
    if topology is not None:
        lines.append(f"    <TypeOfIntersection>{topology}</TypeOfIntersection>")
    if relation is not None:
        lines.append(f"    <PreCrashRelation>{relation}</PreCrashRelation>")
    lines.append("    <Events>")
    for ev in events or ["Vehicle 1 departed its lane", "Vehicles collided"]:
        lines.append(f"      <Event>{ev}</Event>")
    lines.append("    </Events>")
    lines.append("  </Crash>")
    lines.append("  <Vehicles>")
    for i, v in enumerate(vehicles, start=1):
        lines.append(f'    <Vehicle number="{i}">')
        if v.get("speed_mph") is not None:
            lines.append(f"      <TravelSpeed>{v['speed_mph']}</TravelSpeed>")
        if v.get("clock") is not None:
            lines.append(f"      <ImpactClock>{v['clock']}</ImpactClock>")
        if v.get("maneuver") is not None:
            lines.append(f"      <PreCrashManeuver>{v['maneuver']}</PreCrashManeuver>")
        lines.append("    </Vehicle>")
    lines.append("  </Vehicles>")
    lines.append("</CrashCase>")
    return "\n".join(lines) + "\n"


def osm_xml(origin: GeoPoint, nodes: dict[int, tuple[float, float]],
            ways: list[tuple[int, list[int], dict[str, str]]]) -> str:
    """Author an extract from planar meter coordinates around ``origin``."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', '<osm version="0.6" generator="fixture">']
    for nid in sorted(nodes):
        x, y = nodes[nid]
        geo = unproject(PlanarPoint(x, y), origin)
        lines.append(f'  <node id="{nid}" lat="{geo.latitude!r}" lon="{geo.longitude!r}"/>')
    for wid, refs, tags in ways:
        lines.append(f'  <way id="{wid}">')
        for ref in refs:
            lines.append(f'    <nd ref="{ref}"/>')
        for k in sorted(tags):
            lines.append(f'    <tag k="{k}" v="{tags[k]}"/>')
        lines.append("  </way>")
    lines.append("</osm>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# road layouts (planar meters; crash always at (0, 0))
# ---------------------------------------------------------------------------


def straight_road_layout(length: float = 400.0, y: float = 0.0,
                         name: str = "Mill Road") -> tuple[dict, list]:
    half = length / 2
    nodes = {1: (-half, y), 2: (-half / 4, y), 3: (0.0, y), 4: (half / 4, y), 5: (half, y)}
    ways = [(10, [1, 2, 3, 4, 5], {"highway": "secondary", "name": name})]
    return nodes, ways


def curve_road_layout(radius: float = 400.0, span: float = 400.0,
                      name: str = "River Bend") -> tuple[dict, list]:
    """Circular arc through (0, 0) with an eastward tangent there."""
    nodes = {}
    refs = []
    n_pts = 21
    for i in range(n_pts):
        theta = (i / (n_pts - 1) - 0.5) * (span / radius)
        nid = i + 1
        nodes[nid] = (radius * math.sin(theta), radius * (1 - math.cos(theta)))
        refs.append(nid)
    ways = [(10, refs, {"highway": "secondary", "name": name})]
    return nodes, ways


def cross_layout(arm_s: float = 200.0, arm_w: float = 200.0, arm_n: float = 200.0,
                 arm_e: float = 200.0) -> tuple[dict, list]:
    """Four-way junction at the origin; arms are separate named ways."""
    nodes = {
        1: (0.0, 0.0),
        2: (0.0, -arm_s),
        3: (-arm_w, 0.0),
        4: (0.0, arm_n),
        5: (arm_e, 0.0),
    }
    ways = [
        (10, [2, 1], {"highway": "secondary", "name": "Church Street"}),
        (11, [1, 4], {"highway": "secondary", "name": "Church Street"}),
        (12, [3, 1], {"highway": "secondary", "name": "Depot Road"}),
        (13, [1, 5], {"highway": "secondary", "name": "Depot Road"}),
    ]
    return nodes, ways


def t_layout() -> tuple[dict, list]:
    nodes = {1: (-100.0, 0.0), 2: (0.0, 0.0), 3: (100.0, 0.0), 4: (0.0, -100.0)}
    ways = [
        (20, [1, 2], {"highway": "residential", "name": "High Street"}),
        (21, [2, 3], {"highway": "residential", "name": "High Street"}),
        (22, [4, 2], {"highway": "residential", "name": "Short Lane"}),
    ]
    return nodes, ways


def grid_layout(pitch: float = 250.0, n: int = 5) -> tuple[dict, list]:
    """n x n street grid centered on the origin (extent (n-1)*pitch)."""
    nodes = {}
    for r in range(n):
        for c in range(n):
            nodes[1 + r * n + c] = ((c - (n - 1) / 2) * pitch, (r - (n - 1) / 2) * pitch)
    ways = []
    wid = 100
    for r in range(n):
        ways.append((wid, [1 + r * n + c for c in range(n)],
                     {"highway": "residential", "name": f"row {r}"}))
        wid += 1
    for c in range(n):
        ways.append((wid, [1 + r * n + c for r in range(n)],
                     {"highway": "residential", "name": f"col {c}"}))
        wid += 1
    return nodes, ways


# ---------------------------------------------------------------------------
# full cases
# ---------------------------------------------------------------------------


def _merge(base: tuple[dict, list], extra_nodes: dict, extra_ways: list) -> tuple[dict, list]:
    nodes, ways = base
    out_nodes = dict(nodes)
    out_nodes.update(extra_nodes)
    return out_nodes, ways + list(extra_ways)


def case_fixture(kind: str, origin: GeoPoint) -> tuple[str, str | None]:
    """(report_xml, osm_xml or None) for one authored case kind."""
    report, layout = case_layout(kind, origin)
    return report, None if layout is None else osm_xml(origin, *layout)


def case_layout(kind: str, origin: GeoPoint) -> tuple[str, tuple[dict, list] | None]:
    """(report_xml, (nodes, ways) or None) for one authored case kind."""
    if kind == "ftf_straight":
        nodes, ways = straight_road_layout()
        report = report_xml(coords=origin, collision="Front-to-Front")
    elif kind == "ftf_curve":
        nodes, ways = curve_road_layout()
        report = report_xml(coords=origin, collision="Front-to-Front")
    elif kind == "ftr_straight":
        nodes, ways = straight_road_layout()
        report = report_xml(
            coords=origin,
            collision="Front-to-Rear",
            relation="Same Trafficway, Same Direction",
            vehicles=[
                {"speed_mph": 45, "clock": 12, "maneuver": "Going Straight"},
                {"speed_mph": 11, "clock": 6, "maneuver": "Going Straight"},
            ],
        )
    elif kind == "angle_fourway":
        nodes, ways = cross_layout()
        report = report_xml(
            coords=origin,
            collision="Angle",
            topology="Four-Way Intersection",
            relation="Intersecting Paths",
            vehicles=[
                {"speed_mph": 30, "clock": 11, "maneuver": "Going Straight"},
                {"speed_mph": 30, "clock": 12, "maneuver": "Going Straight"},
            ],
        )
    elif kind == "sideswipe_opposite":
        nodes, ways = straight_road_layout()
        report = report_xml(
            coords=origin,
            collision="Sideswipe, Opposite Direction",
            vehicles=[
                {"speed_mph": 30, "clock": 11, "maneuver": "Going Straight"},
                {"speed_mph": 30, "clock": 1, "maneuver": "Going Straight"},
            ],
        )
    elif kind == "vertical_tunnel":
        nodes, ways = _merge(
            straight_road_layout(),
            {50: (-30.0, -60.0), 51: (-30.0, 60.0)},
            [(30, [50, 51], {"highway": "secondary", "tunnel": "yes", "name": "Underpass"})],
        )
        report = report_xml(coords=origin)
    elif kind == "vertical_bridge":
        nodes, ways = _merge(
            straight_road_layout(),
            {50: (40.0, -60.0), 51: (40.0, 60.0)},
            [(30, [50, 51], {"highway": "secondary", "bridge": "yes", "name": "Overpass"})],
        )
        report = report_xml(coords=origin)
    elif kind == "vertical_layer":
        nodes, ways = _merge(
            straight_road_layout(),
            {50: (10.0, -60.0), 51: (10.0, 60.0)},
            [(30, [50, 51], {"highway": "secondary", "layer": "1", "name": "Ramp"})],
        )
        report = report_xml(coords=origin)
    elif kind == "incomplete_coords":
        report = report_xml(coords=None)
        return report, None
    elif kind == "incomplete_topology":
        report = report_xml(coords=origin, topology=None)
        return report, None
    elif kind == "offroad":
        nodes, ways = straight_road_layout(y=50.0)
        report = report_xml(coords=origin)
    elif kind == "no_collision":
        nodes, ways = cross_layout(arm_s=25.0)
        report = report_xml(
            coords=origin,
            collision="Angle",
            topology="Four-Way Intersection",
            relation="Intersecting Paths",
            vehicles=[
                {"speed_mph": 30, "clock": 12, "maneuver": "Going Straight"},
                {"speed_mph": 30, "clock": 12, "maneuver": "Going Straight"},
            ],
        )
    else:
        raise ValueError(f"unknown case kind {kind}")
    return report, (nodes, ways)


GOOD_KINDS = ["angle_fourway", "ftf_straight", "ftf_curve", "ftr_straight", "sideswipe_opposite"]

LEDGER_CORPUS = [
    "vertical_tunnel",
    "vertical_bridge",
    "vertical_layer",
    "incomplete_coords",
    "incomplete_topology",
    "offroad",
    "no_collision",
    "ftf_straight",
    "ftr_straight",
    "angle_fourway",
]


def write_case(fixtures_dir: Path, kind: str, case_number: int, origin_index: int):
    """Write one case's fixture files; returns its CaseKey-shaped tuple."""
    from crashtrace.reports import CaseKey

    origin = case_origin(origin_index)
    key = CaseKey(STATE, case_number, YEAR)
    report, osm = case_fixture(kind, origin)
    fixtures_dir.mkdir(parents=True, exist_ok=True)
    (fixtures_dir / f"{key.slug}.xml").write_text(report, encoding="utf-8")
    if osm is not None:
        (fixtures_dir / f"{key.slug}.osm").write_text(osm, encoding="utf-8")
    return key


def write_good_corpus(fixtures_dir: Path) -> list:
    return [
        write_case(fixtures_dir, kind, 101 + i, i) for i, kind in enumerate(GOOD_KINDS)
    ]


def write_ledger_corpus(fixtures_dir: Path) -> list:
    return [
        write_case(fixtures_dir, kind, 201 + i, 10 + i)
        for i, kind in enumerate(LEDGER_CORPUS)
    ]
