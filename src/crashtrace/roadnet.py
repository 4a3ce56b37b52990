"""Planar road model: construction from OSM, lane unification, and checks.

A :class:`Road` keeps the projected way centerline plus lane counts. Lanes
form a deck of ``lanes_forward + lanes_backward`` slots centered on the
centerline: forward-direction lanes fill the right portion (negative
lateral offsets), backward lanes the left. ``lane_index`` is signed and
counts outward from the centerline on the vehicle's travel-right side;
negative indexes address the opposing side (wrong-side placements).

Junctions are detected at nodes where three or more road ends meet, or
where distinctly named roads cross. A junction is its node: its centre is
the node's position. ``map.xodr`` writes only that centre, and plots draw
a circle of one lane width around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import GeometryValidationFailed
from .geometry import (
    GeoPoint,
    PlanarPoint,
    bearing,
    distance,
    haversine_m,
    locate_on_polyline,
    point_at,
    polyline_length,
    project_all,
    resample_count,
    tangent_at,
    wrap_angle,
)

DEFAULT_LANE_WIDTH_M = 3.5
MERGE_MAX_HEADING_DEG = 20.0
FOLD_MAX_SEPARATION_LANE_WIDTHS = 1.5
CRASH_ENVELOPE_SLACK_M = 2.0
GEO_VALIDATION_TOLERANCE = 0.005


class Road(NamedTuple):
    road_id: int
    centerline: tuple[PlanarPoint, ...]
    lanes_forward: int
    lanes_backward: int
    lane_width: float
    name_key: str
    node_ids: tuple[int, ...] = ()

    @property
    def length(self) -> float:
        return polyline_length(self.centerline)

    @property
    def lane_count(self) -> int:
        return self.lanes_forward + self.lanes_backward

    @property
    def half_width(self) -> float:
        return self.lane_count * self.lane_width / 2.0

    def reversed(self) -> "Road":
        return Road(self.road_id, self.centerline[::-1], self.lanes_backward,
                    self.lanes_forward, self.lane_width, self.name_key, self.node_ids[::-1])


class Junction(NamedTuple):
    junction_id: int
    node_id: int
    center: PlanarPoint
    members: tuple[int, ...]


@dataclass(frozen=True)
class RoadNetwork:
    origin: GeoPoint
    roads: tuple[Road, ...]
    junctions: tuple[Junction, ...]
    node_positions: dict[int, PlanarPoint]

    @cached_property
    def _roads_by_id(self) -> dict[int, Road]:
        return {r.road_id: r for r in self.roads}

    def road(self, road_id: int) -> Road:
        try:
            return self._roads_by_id[road_id]
        except KeyError:
            raise KeyError(f"no road {road_id}") from None


class RoadLocation(NamedTuple):
    """On-road fix: arc length along a road plus signed lateral offset."""

    road_id: int
    s: float
    offset: float  # positive left of increasing arc length


def lane_offset(road: Road, direction: int, lane_index: int) -> float:
    """Lateral centerline offset (in the +s frame) of a lane center.

    ``direction`` is +1 for travel toward increasing arc length, -1
    otherwise. Positive ``lane_index`` counts lanes outward on the travel
    direction's own side, 1 being next to the centerline; negative indexes
    address the opposing side.
    """
    if lane_index == 0:
        raise ValueError("lane_index 0 is the centerline")
    on_forward_side = (lane_index > 0) == (direction > 0)
    m = abs(lane_index)
    count = road.lanes_forward if on_forward_side else road.lanes_backward
    if m > count:
        raise ValueError(
            f"lane {lane_index} (direction {direction:+d}) exceeds road {road.road_id} "
            f"lane counts {road.lanes_forward}+{road.lanes_backward}"
        )
    n = road.lane_count
    slot = road.lanes_forward - m if on_forward_side else road.lanes_forward + m - 1
    return (slot - (n - 1) / 2.0) * road.lane_width


def own_lane(road: Road, direction: int, lane_index: int) -> int:
    """The lane a vehicle travelling ``direction`` keeps: lane ``|lane_index|``
    of its own side, clamped to that side's lanes, or the adjacent opposing
    lane (-1) when its side has none."""
    count = road.lanes_forward if direction > 0 else road.lanes_backward
    return min(max(abs(lane_index), 1), count) if count else -1


def travel_direction(road: Road, s: float, heading: float) -> int:
    """+1 when the heading runs with increasing arc length, else -1."""
    t = tangent_at(road.centerline, s)
    return 1 if abs(wrap_angle(heading - t)) <= math.pi / 2 else -1


def _oneway(tags: dict[str, str]) -> int:
    """1 one-way as drawn, -1 one-way against the drawing, 0 two-way.

    ``junction=roundabout`` implies ``oneway=yes`` unless tagged otherwise.
    """
    implied = "yes" if tags.get("junction") == "roundabout" else "no"
    value = tags.get("oneway", implied).lower()
    if value == "-1":
        return -1
    return 1 if value in ("yes", "true", "1") else 0


def _lane_count(value: str | None) -> int | None:
    """A positive lane count, or None for an absent, non-numeric or non-positive tag."""
    if value is None:
        return None
    try:
        count = int(value)
    except ValueError:
        return None
    return count if count > 0 else None


def _parse_lanes(tags: dict[str, str], oneway: int) -> tuple[int, int]:
    """(forward, backward) lane counts relative to the drawn direction;
    ``oneway`` is :func:`_oneway` of the same tags."""
    fwd, bwd = _lane_count(tags.get("lanes:forward")), _lane_count(tags.get("lanes:backward"))
    if fwd is not None or bwd is not None:
        return fwd or 0, bwd or 0
    total = _lane_count(tags.get("lanes"))
    if oneway > 0:
        return total or 1, 0
    if oneway < 0:
        return 0, total or 1
    total = total or 2
    return math.ceil(total / 2), total // 2


def _name_key(tags: dict[str, str]) -> str:
    raw = tags.get("name") or tags.get("ref") or ""
    return " ".join(raw.lower().split())


def build_road_network(graph, origin: GeoPoint) -> RoadNetwork:
    """Project a pruned OSM graph onto the local plane and assemble roads.

    A road runs in its direction of travel: ``oneway=-1`` ways are reversed.
    A way whose nodes all coincide makes no road.
    Every node must lie within a degree of ``origin``, as after ``prune_osm``.
    """
    node_positions = project_all(graph.nodes, origin)

    roads: list[Road] = []
    for wid in sorted(graph.ways):
        way = graph.ways[wid]
        if not way.is_road:
            continue
        pts: list[PlanarPoint] = []
        ids: list[int] = []
        for ref in way.nodes:
            p = node_positions[ref]
            if pts and p == pts[-1]:
                continue
            pts.append(p)
            ids.append(ref)
        if len(pts) < 2:
            continue
        oneway = _oneway(way.tags)
        fwd, bwd = _parse_lanes(way.tags, oneway)
        road = Road(wid, tuple(pts), fwd, bwd, DEFAULT_LANE_WIDTH_M, _name_key(way.tags),
                    tuple(ids))
        roads.append(road.reversed() if oneway < 0 else road)

    junctions = _detect_junctions(roads, node_positions)
    return RoadNetwork(origin, tuple(roads), tuple(junctions), node_positions)


def _detect_junctions(
    roads: list[Road], node_positions: dict[int, PlanarPoint]
) -> list[Junction]:
    incident: dict[int, list[tuple[int, str, bool]]] = {}
    for road in roads:
        last = len(road.node_ids) - 1
        for i, nid in enumerate(road.node_ids):
            incident.setdefault(nid, []).append((road.road_id, road.name_key, i == 0 or i == last))

    junctions = []
    jid = 0
    for nid in sorted(incident):
        entries = incident[nid]
        names = {name for _, name, _ in entries}
        if len(names) < 2 and (len(entries) < 3 or sum(at_end for _, _, at_end in entries) < 3):
            continue  # under three road ends, all of one street
        member_ids = sorted({rid for rid, _, _ in entries})
        if len(member_ids) < 2:
            continue
        junctions.append(Junction(jid, nid, node_positions[nid], tuple(member_ids)))
        jid += 1
    return junctions


# ---------------------------------------------------------------------------
# lane unification
# ---------------------------------------------------------------------------


def unify_lanes(network: RoadNetwork) -> RoadNetwork:
    """Merge same-name contiguous segments and fold opposing carriageways.

    Contiguous merging concatenates centerlines without moving geometry and
    never crosses a junction node; a merged one-way road runs in its
    direction of travel. Folding collapses a pair of antiparallel
    one-directional segments of the same named road (within 1.5 lane widths
    of each other) into a single two-way road along their midline, so
    lateral transitions and wrong-way travel stay representable.

    One merge sweep, then one fold scan in road-id order, reach the fixed
    point: merges need equal lanes and a folded road has lanes both ways, so
    one-directional roads only fold away after the sweep, and a fold frees
    at most its own end nodes for a merge. Idempotent.
    """
    roads = {r.road_id: r for r in sorted(network.roads, key=lambda r: r.road_id)}
    junction_nodes = {j.node_id for j in network.junctions}
    id_map: dict[int, int] = {}
    ends: dict[int, list[int]] = {}
    for road in roads.values():
        ends.setdefault(road.node_ids[0], []).append(road.road_id)
        ends.setdefault(road.node_ids[-1], []).append(road.road_id)
    for nid in sorted(ends):
        _merge_at(nid, roads, ends, junction_nodes, id_map)

    one_way = [r for r in roads.values() if r.lanes_backward == 0]
    facts: dict[int, tuple[float, float, PlanarPoint]] = {}  # mean heading, length, midpoint
    by_name: dict[str, list[Road]] = {}
    for r in one_way:
        length = polyline_length(r.centerline)
        facts[r.road_id] = (_mean_heading(r), length, point_at(r.centerline, length / 2))
        by_name.setdefault(r.name_key, []).append(r)
    for a in one_way:  # a bucket keeps the roads not yet visited or folded
        bucket = by_name[a.name_key]
        if a not in bucket:
            continue
        bucket.remove(a)
        if (b := next((b for b in bucket if not _cannot_fold(a, b, facts)), None)) is None:
            continue
        bucket.remove(b)
        longer_b = (facts[b.road_id][1], b.road_id) > (facts[a.road_id][1], a.road_id)
        primary, secondary = (b, a) if longer_b else (a, b)
        # the folded road ends where the primary does: the secondary's ends go
        for nid in (secondary.node_ids[0], secondary.node_ids[-1]):
            ends[nid] = [rid for rid in ends[nid] if _resolve(id_map, rid) != secondary.road_id]
        road = _fold_pair(primary, secondary)
        roads[a.road_id] = road
        del roads[b.road_id]
        id_map[b.road_id] = a.road_id
        for nid in sorted({road.node_ids[0], road.node_ids[-1]}):
            _merge_at(nid, roads, ends, junction_nodes, id_map)

    junctions = tuple(
        j._replace(members=tuple(sorted({_resolve(id_map, m) for m in j.members} & roads.keys())))
        for j in network.junctions
    )
    return RoadNetwork(network.origin, tuple(roads.values()), junctions, network.node_positions)


def _resolve(id_map: dict[int, int], rid: int) -> int:
    while rid in id_map:
        rid = id_map[rid]
    return rid


def _merge_at(nid: int, roads: dict[int, Road], ends: dict[int, list[int]],
              junction_nodes: set[int], id_map: dict[int, int]) -> None:
    """Join the two roads (``ends`` lists them by any id they had) that meet end
    to end at ``nid``, if they qualify. The lower id survives; the merged road
    runs from it into the other, then is reversed if that leaves it one-way
    against its travel. The checks read only what a merge keeps."""
    if nid in junction_nodes or len(ends[nid]) != 2:
        return
    a_id, b_id = sorted((_resolve(id_map, ends[nid][0]), _resolve(id_map, ends[nid][1])))
    if a_id == b_id:
        return  # loop way, or a node merged already
    a, b = roads[a_id], roads[b_id]
    if a.name_key != b.name_key:
        return
    # orient a to end at the joint and b to start there
    a_o = a if a.node_ids[-1] == nid else a.reversed()
    b_o = b if b.node_ids[0] == nid else b.reversed()
    h_out = bearing(a_o.centerline[-2], a_o.centerline[-1])
    h_in = bearing(b_o.centerline[0], b_o.centerline[1])
    if abs(wrap_angle(h_in - h_out)) > math.radians(MERGE_MAX_HEADING_DEG):
        return
    if (a_o.lanes_forward, a_o.lanes_backward) != (b_o.lanes_forward, b_o.lanes_backward):
        return
    merged = Road(a_id, a_o.centerline + b_o.centerline[1:], a_o.lanes_forward,
                  a_o.lanes_backward, a_o.lane_width, a_o.name_key,
                  a_o.node_ids + b_o.node_ids[1:])
    roads[a_id] = merged.reversed() if merged.lanes_forward == 0 else merged
    del roads[b_id]
    id_map[b_id] = a_id


def _mean_heading(road: Road) -> float:
    sx = sy = 0.0
    for p, q in zip(road.centerline, road.centerline[1:]):
        h = bearing(p, q)
        w = distance(p, q)
        sx += w * math.cos(h)
        sy += w * math.sin(h)
    return math.atan2(sy, sx)


def _cannot_fold(a: Road, b: Road, facts: dict[int, tuple[float, float, PlanarPoint]]) -> bool:
    """Whether b is not antiparallel to a or its midpoint is off a's centerline."""
    heading_a, length_a, _ = facts[a.road_id]
    heading_b, _, mid_b = facts[b.road_id]
    limit = FOLD_MAX_SEPARATION_LANE_WIDTHS * a.lane_width
    return (abs(wrap_angle(heading_a - heading_b + math.pi)) > math.radians(MERGE_MAX_HEADING_DEG)
            or _beyond(a.centerline, length_a, mid_b, limit)
            or locate_on_polyline(a.centerline, mid_b).dist > limit)


def _beyond(line: tuple[PlanarPoint, ...], length: float, p: PlanarPoint, limit: float) -> bool:
    """Whether ``p`` is surely over ``limit`` from the polyline: its points lie
    within ``length`` of its first (triangle inequality; 1e-6 covers rounding)."""
    return distance(p, line[0]) - length > limit + 1e-6


def _fold_pair(primary: Road, secondary: Road) -> Road:
    """The two-way road along the midline of two opposing carriageways; the
    primary's direction becomes forward."""
    back = secondary.centerline[::-1]
    n = max(len(primary.centerline), len(back), 2)
    pts_a = resample_count(primary.centerline, n)
    pts_b = resample_count(back, n)
    midline = tuple(PlanarPoint((p.x + q.x) / 2, (p.y + q.y) / 2) for p, q in zip(pts_a, pts_b))
    return Road(min(primary.road_id, secondary.road_id), midline, primary.lanes_forward,
                secondary.lanes_forward, primary.lane_width, primary.name_key, primary.node_ids)


# ---------------------------------------------------------------------------
# crash-point location and geometric validation
# ---------------------------------------------------------------------------


def locate_crash_point(network: RoadNetwork, crash: PlanarPoint) -> RoadLocation | None:
    """Fix the crash point onto the road whose lane envelope contains it.

    The envelope is the centerline buffered by the road half-width plus 2 m
    of slack. Returns None (off-road) when no envelope contains the point;
    among containing roads the nearest centerline wins, then the lowest id.
    """
    hits = []
    for road in network.roads:
        limit = road.half_width + CRASH_ENVELOPE_SLACK_M
        if _beyond(road.centerline, road.length, crash, limit):
            continue
        fix = locate_on_polyline(road.centerline, crash)
        if fix.dist > limit:
            continue
        hits.append((fix.dist, road.road_id, fix.s, fix.offset))
    return RoadLocation(*min(hits)[1:]) if hits else None


@dataclass(frozen=True)
class GeoValidationResult:
    sample_points: tuple[tuple[GeoPoint, PlanarPoint], ...]
    max_relative_deviation: float
    passed: bool


def validate_geometry(graph, network: RoadNetwork, origin: GeoPoint) -> GeoValidationResult:
    """Compare geodesic and converted planar distances at 5 spread locations.

    Samples the node nearest the origin plus the four projection extremes,
    then checks all ten pairwise distances: great-circle on the source
    coordinates against Euclidean on the converted ones.
    """
    candidates = [nid for nid in sorted(graph.nodes) if nid in network.node_positions]
    if len(candidates) < 5:
        raise GeometryValidationFailed(
            f"need 5 nodes for geometric validation, have {len(candidates)}")

    projected = project_all(graph.nodes, origin)
    chosen: list[int] = []
    for rank in (lambda p: p.x ** 2 + p.y ** 2, lambda p: -p.x, lambda p: p.x,
                 lambda p: -p.y, lambda p: p.y):
        chosen.append(min((nid for nid in candidates if nid not in chosen),
                          key=lambda nid: (rank(projected[nid]), nid)))

    samples = [(graph.nodes[nid], network.node_positions[nid]) for nid in chosen]
    worst = 0.0
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            geod = haversine_m(samples[i][0], samples[j][0])
            plan = distance(samples[i][1], samples[j][1])
            if geod < 1e-9:
                rel = 0.0 if plan < 1e-9 else math.inf
            else:
                rel = abs(plan - geod) / geod
            worst = max(worst, rel)
    return GeoValidationResult(tuple(samples), worst, worst <= GEO_VALIDATION_TOLERANCE)
