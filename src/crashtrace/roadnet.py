"""Planar road model: construction from OSM, lane unification, and checks.

A :class:`Road` keeps the projected way centerline plus lane counts. Lanes
form a deck of ``lanes_forward + lanes_backward`` slots centered on the
centerline: forward-direction lanes fill the right portion (negative
lateral offsets), backward lanes the left. ``lane_index`` is signed and
counts outward from the centerline on the vehicle's travel-right side;
negative indexes address the opposing side (wrong-side placements).

Junctions are detected at nodes where three or more road ends meet, or
where distinctly named roads cross; their boundary polygon is a 16-gon of
one lane width radius around the node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

from .errors import DegenerateGeometry, TooFewNodes
from .geometry import (
    GeoPoint,
    PlanarPoint,
    bearing,
    distance,
    haversine_m,
    locate_on_polyline,
    point_at,
    polyline_length,
    project,
    resample_count,
    tangent_at,
    wrap_angle,
)

DEFAULT_LANE_WIDTH_M = 3.5
MERGE_MAX_HEADING_DEG = 20.0
FOLD_MAX_SEPARATION_LANE_WIDTHS = 1.5
CRASH_ENVELOPE_SLACK_M = 2.0
GEO_VALIDATION_TOLERANCE = 0.005


@dataclass(frozen=True)
class Road:
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
        return replace(
            self,
            centerline=tuple(reversed(self.centerline)),
            lanes_forward=self.lanes_backward,
            lanes_backward=self.lanes_forward,
            node_ids=tuple(reversed(self.node_ids)),
        )


@dataclass(frozen=True)
class Junction:
    junction_id: int
    node_id: int
    center: PlanarPoint
    members: tuple[int, ...]
    boundary: tuple[PlanarPoint, ...]


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


def _parse_lanes(tags: dict[str, str]) -> tuple[int, int]:
    """(forward, backward) lane counts relative to the drawn direction."""
    oneway = _oneway(tags)

    def _intval(key: str) -> int | None:
        try:
            v = int(tags[key])
            return v if v > 0 else None
        except (KeyError, ValueError):
            return None

    fwd, bwd = _intval("lanes:forward"), _intval("lanes:backward")
    if fwd is not None or bwd is not None:
        return fwd or 0, bwd or 0
    total = _intval("lanes")
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
    """
    node_positions = {nid: project(p, origin) for nid, p in graph.nodes.items()}

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
            raise DegenerateGeometry(f"way {wid} has no extent")
        fwd, bwd = _parse_lanes(way.tags)
        road = Road(wid, tuple(pts), fwd, bwd, DEFAULT_LANE_WIDTH_M, _name_key(way.tags),
                    tuple(ids))
        roads.append(road.reversed() if _oneway(way.tags) < 0 else road)

    junctions = _detect_junctions(roads, node_positions)
    return RoadNetwork(origin, tuple(roads), tuple(junctions), node_positions)


def _detect_junctions(
    roads: list[Road], node_positions: dict[int, PlanarPoint]
) -> list[Junction]:
    incident: dict[int, list[tuple[int, bool]]] = {}
    for road in roads:
        last = len(road.node_ids) - 1
        for i, nid in enumerate(road.node_ids):
            incident.setdefault(nid, []).append((road.road_id, i == 0 or i == last))

    by_id = {r.road_id: r for r in roads}
    junctions = []
    jid = 0
    for nid in sorted(incident):
        entries = incident[nid]
        member_ids = sorted({rid for rid, _ in entries})
        if len(member_ids) < 2:
            continue
        end_count = sum(1 for _, at_end in entries if at_end)
        names = {by_id[rid].name_key for rid in member_ids}
        if end_count < 3 and len(names) < 2:
            continue
        center = node_positions[nid]
        # boundary: 16-gon of one lane width radius, counterclockwise from angle pi
        boundary = tuple(
            PlanarPoint(center.x + DEFAULT_LANE_WIDTH_M * math.cos(a),
                        center.y + DEFAULT_LANE_WIDTH_M * math.sin(a))
            for a in (2 * math.pi * (k % 16) / 16 for k in range(8, 24))
        )
        junctions.append(Junction(jid, nid, center, tuple(member_ids), boundary))
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
    lateral transitions and wrong-way travel stay representable. Every
    possible merge runs before each fold, because a fold can free a node
    for merging. Runs to a fixed point, hence idempotent.
    """
    roads = {r.road_id: r for r in sorted(network.roads, key=lambda r: r.road_id)}
    junction_nodes = {j.node_id for j in network.junctions}
    id_map: dict[int, int] = {}

    while True:
        _merge_all(roads, junction_nodes, id_map)
        folded = _fold_once(list(roads.values()))
        if folded is None:
            break
        a_id, b_id, road = folded
        roads[a_id] = road
        del roads[b_id]
        id_map[b_id] = a_id

    junctions = []
    for j in network.junctions:
        members = tuple(sorted({_resolve(id_map, m) for m in j.members} & roads.keys()))
        junctions.append(replace(j, members=members))

    return RoadNetwork(network.origin, tuple(roads.values()), tuple(junctions),
                       network.node_positions)


def _resolve(id_map: dict[int, int], rid: int) -> int:
    while rid in id_map:
        rid = id_map[rid]
    return rid


def _merge_all(roads: dict[int, Road], junction_nodes: set[int], id_map: dict[int, int]) -> None:
    """Join, in ascending node id, every pair of roads meeting end to end.

    A merge at one node never changes whether another node qualifies: the
    checks read only the end segments, names and lanes at that node, and a
    merge keeps all of them. So one sweep over the endpoints at its start
    finds every merge; the lower road id survives and the merged road runs
    from the lower-id road into the other one, then is reversed if that
    leaves it one-way against its travel.
    """
    ends: dict[int, list[int]] = {}
    for road in roads.values():
        ends.setdefault(road.node_ids[0], []).append(road.road_id)
        ends.setdefault(road.node_ids[-1], []).append(road.road_id)

    for nid in sorted(ends):
        if nid in junction_nodes or len(ends[nid]) != 2:
            continue
        a_id, b_id = sorted(_resolve(id_map, rid) for rid in ends[nid])
        if a_id == b_id:
            continue  # loop way
        a, b = roads[a_id], roads[b_id]
        if a.name_key != b.name_key:
            continue
        # orient a to end at the joint and b to start there
        a_o = a if a.node_ids[-1] == nid else a.reversed()
        b_o = b if b.node_ids[0] == nid else b.reversed()
        h_out = bearing(a_o.centerline[-2], a_o.centerline[-1])
        h_in = bearing(b_o.centerline[0], b_o.centerline[1])
        if abs(wrap_angle(h_in - h_out)) > math.radians(MERGE_MAX_HEADING_DEG):
            continue
        if (a_o.lanes_forward, a_o.lanes_backward) != (b_o.lanes_forward, b_o.lanes_backward):
            continue
        merged = replace(
            a_o,
            centerline=a_o.centerline + b_o.centerline[1:],
            node_ids=a_o.node_ids + b_o.node_ids[1:],
        )
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


def _fold_once(roads: list[Road]) -> tuple[int, int, Road] | None:
    """The first foldable pair in road order, as (lower id, higher id, folded road)."""
    for ia in range(len(roads)):
        a = roads[ia]
        if a.lanes_backward != 0:
            continue
        for ib in range(ia + 1, len(roads)):
            b = roads[ib]
            if b.lanes_backward != 0 or a.name_key != b.name_key:
                continue
            dh = abs(wrap_angle(_mean_heading(a) - _mean_heading(b) + math.pi))
            if dh > math.radians(MERGE_MAX_HEADING_DEG):
                continue
            mid_b = point_at(b.centerline, polyline_length(b.centerline) / 2)
            fix = locate_on_polyline(a.centerline, mid_b)
            if fix.dist > FOLD_MAX_SEPARATION_LANE_WIDTHS * a.lane_width:
                continue
            return a.road_id, b.road_id, _fold_pair(a, b)
    return None


def _fold_pair(a: Road, b: Road) -> Road:
    # the longer side is primary: its direction becomes forward
    if (polyline_length(b.centerline), b.road_id) > (polyline_length(a.centerline), a.road_id):
        a, b = b, a
    b_rev = tuple(reversed(b.centerline))
    n = max(len(a.centerline), len(b_rev), 2)
    pts_a = resample_count(a.centerline, n)
    pts_b = resample_count(b_rev, n)
    midline = tuple(
        PlanarPoint((p.x + q.x) / 2, (p.y + q.y) / 2) for p, q in zip(pts_a, pts_b)
    )
    return Road(
        road_id=min(a.road_id, b.road_id),
        centerline=midline,
        lanes_forward=a.lanes_forward,
        lanes_backward=b.lanes_forward,
        lane_width=a.lane_width,
        name_key=a.name_key,
        node_ids=a.node_ids,
    )


# ---------------------------------------------------------------------------
# crash-point location and geometric validation
# ---------------------------------------------------------------------------


def locate_crash_point(network: RoadNetwork, crash: PlanarPoint) -> RoadLocation | None:
    """Fix the crash point onto the road whose lane envelope contains it.

    The envelope is the centerline buffered by the road half-width plus 2 m
    of slack. Returns None (off-road) when no envelope contains the point;
    among containing roads the nearest centerline wins, then the lowest id.
    """
    best: tuple[float, int, RoadLocation] | None = None
    for road in network.roads:
        fix = locate_on_polyline(road.centerline, crash)
        if fix.dist > road.half_width + CRASH_ENVELOPE_SLACK_M:
            continue
        cand = (fix.dist, road.road_id, RoadLocation(road.road_id, fix.s, fix.offset))
        if best is None or cand[:2] < best[:2]:
            best = cand
    return best[2] if best else None


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
        raise TooFewNodes(f"need 5 nodes for geometric validation, have {len(candidates)}")

    projected = {nid: project(graph.nodes[nid], origin) for nid in candidates}
    selectors = [
        lambda nid: (projected[nid].x ** 2 + projected[nid].y ** 2, nid),
        lambda nid: (-projected[nid].x, nid),
        lambda nid: (projected[nid].x, nid),
        lambda nid: (-projected[nid].y, nid),
        lambda nid: (projected[nid].y, nid),
    ]
    chosen: list[int] = []
    for key in selectors:
        chosen.append(min((nid for nid in candidates if nid not in chosen), key=key))

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
