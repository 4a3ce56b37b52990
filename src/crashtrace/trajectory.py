"""Waypoint synthesis from an initial state to the crash point.

Paths follow the vehicle's lane line and are joined across junctions with
circular-arc fillets; the final 10 m blend linearly onto the exact crash
point so both vehicles' paths intersect where the report says the crash
happened. No road-graph routing rules apply: a spawn heading against the
lane direction simply produces a wrong-way path instead of an error, which
is what reproducing head-on and sideswipe crashes needs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import FailedToCollide
from .geometry import (
    PlanarPoint,
    bearing,
    cumulative_lengths,
    distance,
    locate_on_polyline,
    offset_polyline,
    point_at,
    resample_polyline,
    wrap_angle,
)
from .reports import Maneuver
from .roadnet import Junction, RoadLocation, RoadNetwork, lane_offset, own_lane

WAYPOINT_SPACING_M = 2.0
TERMINAL_BLEND_M = 10.0
PREFERRED_TURN_RADIUS_M = 8.0
STRAIGHT_THRESHOLD_DEG = 30.0
# a turn is judged this near a junction centre: it covers the fillet, trimmed up to
# PREFERRED_TURN_RADIUS_M·tan(θ/2) from the corner (8 m at 90°), and the lane offset
JUNCTION_REACH_M = 15.0
FILLET_MIN_ANGLE_DEG = 15.0


class Waypoint(NamedTuple):
    position: PlanarPoint
    heading: float
    target_speed: float


@dataclass(frozen=True)
class Trajectory:
    vehicle_id: int
    waypoints: tuple[Waypoint, ...]


def classify_track(track: Sequence, junctions: Sequence[Junction]) -> Maneuver:
    """Which way a track of waypoints or poses goes: it turns only at junctions.

    Sums the wrapped heading change between consecutive points that both lie
    within ``JUNCTION_REACH_M`` of a junction centre; within
    ``STRAIGHT_THRESHOLD_DEG`` the track goes straight, however much its road
    bends, otherwise the sign says left or right.
    """
    reach = JUNCTION_REACH_M
    xs, ys = zip(*[p.position for p in track])
    lo_x, hi_x, lo_y, hi_y = min(xs) - reach, max(xs) + reach, min(ys) - reach, max(ys) + reach
    centres = [c for c in (j.center for j in junctions)
               if lo_x <= c.x <= hi_x and lo_y <= c.y <= hi_y]
    if not centres:
        return Maneuver.GOING_STRAIGHT
    near = [False] * len(track)
    for cx, cy in centres:
        near = [n or (x - cx) ** 2 + (y - cy) ** 2 <= reach * reach
                for n, x, y in zip(near, xs, ys)]
    total, previous = 0.0, None  # previous: the last point's heading, if it lay near
    for p, p_near in zip(track, near):
        if p_near and previous is not None:
            total += wrap_angle(p.heading - previous)
        previous = p.heading if p_near else None
    if abs(total) <= math.radians(STRAIGHT_THRESHOLD_DEG):
        return Maneuver.GOING_STRAIGHT
    return Maneuver.TURNING_LEFT if total > 0 else Maneuver.TURNING_RIGHT


# ---------------------------------------------------------------------------
# path assembly
# ---------------------------------------------------------------------------


def _sub_polyline(points, s_from: float, s_to: float) -> list[PlanarPoint]:
    """Directed slice of a polyline between two arc lengths."""
    cum = cumulative_lengths(points)
    lo, hi = min(s_from, s_to), max(s_from, s_to)
    out = [point_at(points, lo, cum)]
    for i, s in enumerate(cum):
        if lo + 1e-9 < s < hi - 1e-9:
            out.append(points[i])
    out.append(point_at(points, hi, cum))
    dedup = [out[0]]
    for p in out[1:]:
        if distance(p, dedup[-1]) > 1e-9:
            dedup.append(p)
    if s_from > s_to:
        dedup.reverse()
    return dedup


def _road_graph(network: RoadNetwork) -> dict[int, list[tuple[int, PlanarPoint]]]:
    """Adjacency between roads via shared endpoints and junction membership."""
    adjacency: dict[int, dict[int, PlanarPoint]] = {r.road_id: {} for r in network.roads}
    by_node: dict[int, list[int]] = {}
    for road in network.roads:
        for nid in (road.node_ids[0], road.node_ids[-1]) if road.node_ids else ():
            by_node.setdefault(nid, []).append(road.road_id)
    for nid, rids in by_node.items():
        pos = network.node_positions.get(nid)
        if pos is None:
            continue
        for a in rids:
            for b in rids:
                if a != b:
                    adjacency[a].setdefault(b, pos)
    for junction in network.junctions:
        for a in junction.members:
            for b in junction.members:
                if a != b and a in adjacency:
                    adjacency[a].setdefault(b, junction.center)
    return {
        rid: sorted(neigh.items()) for rid, neigh in adjacency.items()
    }


def _road_chain(network: RoadNetwork, start: int, goal: int) -> list[tuple[int, PlanarPoint | None]]:
    """Road ids from start to goal with the connection point entering each."""
    if start == goal:
        return [(start, None)]
    graph = _road_graph(network)
    seen = {start}
    queue = deque([[(start, None)]])
    while queue:
        path = queue.popleft()
        if len(path) > 6:
            continue
        rid = path[-1][0]
        for nxt, via in graph.get(rid, ()):
            if nxt in seen:
                continue
            nxt_path = path + [(nxt, via)]
            if nxt == goal:
                return nxt_path
            seen.add(nxt)
            queue.append(nxt_path)
    raise FailedToCollide(f"no road path from {start} to {goal}")


def _leg_points(network: RoadNetwork, road_id: int, s_from: float, s_to: float,
                base_offset: float | None, lane_index: int) -> list[PlanarPoint]:
    """Lane-line slice of one road between two arc positions."""
    road = network.road(road_id)
    direction = 1 if s_to >= s_from else -1
    if base_offset is None:
        base_offset = lane_offset(road, direction, own_lane(road, direction, lane_index))
    sub = _sub_polyline(road.centerline, s_from, s_to)
    if len(sub) < 2:
        return sub
    return offset_polyline(sub, base_offset * direction)


def _intersect_lines(p: PlanarPoint, hp: float, q: PlanarPoint, hq: float):
    """Parameters (t, u) with p + t*dir(hp) == q + u*dir(hq), or None."""
    dx1, dy1 = math.cos(hp), math.sin(hp)
    dx2, dy2 = math.cos(hq), math.sin(hq)
    den = dx1 * dy2 - dy1 * dx2
    if abs(den) < 1e-9:
        return None
    rx, ry = q.x - p.x, q.y - p.y
    t = (rx * dy2 - ry * dx2) / den
    u = (rx * dy1 - ry * dx1) / den
    return t, u


def _fillet(leg_a: list[PlanarPoint], leg_b: list[PlanarPoint]
            ) -> tuple[list[PlanarPoint], list[PlanarPoint], list[PlanarPoint]]:
    """Trim two legs and bridge them with a tangent circular arc."""
    h_a = bearing(leg_a[-2], leg_a[-1])
    h_b = bearing(leg_b[0], leg_b[1])
    theta = wrap_angle(h_b - h_a)
    if abs(theta) < math.radians(FILLET_MIN_ANGLE_DEG):
        return leg_a, [], leg_b

    hit = _intersect_lines(leg_a[-1], h_a, leg_b[0], h_b)
    if hit is None:
        return leg_a, [], leg_b
    # forward distances from leg_a's end to the corner and from the corner to leg_b's
    # start; both are negative where lane lines run past the corner inside a turn
    t1, t2 = hit[0], -hit[1]

    len_a = cumulative_lengths(leg_a)[-1]
    len_b = cumulative_lengths(leg_b)[-1]
    tan_half = math.tan(abs(theta) / 2)  # at least tan(FILLET_MIN_ANGLE_DEG / 2)
    t_max = min(t1 + 0.8 * len_a, t2 + 0.8 * len_b)
    if t_max <= 0:
        # the corner lies too far behind a leg's end: join directly
        return leg_a, [], leg_b
    r_max = t_max / tan_half
    radius = min(PREFERRED_TURN_RADIUS_M, r_max)
    trim = radius * tan_half

    corner = PlanarPoint(leg_a[-1].x + t1 * math.cos(h_a), leg_a[-1].y + t1 * math.sin(h_a))
    ta = PlanarPoint(corner.x - trim * math.cos(h_a), corner.y - trim * math.sin(h_a))
    tb = PlanarPoint(corner.x + trim * math.cos(h_b), corner.y + trim * math.sin(h_b))

    side = 1.0 if theta > 0 else -1.0
    nx, ny = -math.sin(h_a) * side, math.cos(h_a) * side
    center = PlanarPoint(ta.x + radius * nx, ta.y + radius * ny)
    phi0 = math.atan2(ta.y - center.y, ta.x - center.x)
    steps = max(4, int(math.ceil(radius * abs(theta))))
    arc = [
        PlanarPoint(
            center.x + radius * math.cos(phi0 + theta * k / steps),
            center.y + radius * math.sin(phi0 + theta * k / steps),
        )
        for k in range(steps + 1)
    ]
    arc[-1] = tb

    if trim - t1 > 1e-9:
        leg_a = _sub_polyline(leg_a, 0.0, max(len_a - (trim - t1), 1e-6))
    if trim - t2 > 1e-9:
        leg_b = _sub_polyline(leg_b, min(trim - t2, len_b - 1e-6), len_b)
    return leg_a, arc, leg_b


def _concat(legs: list[list[PlanarPoint]]) -> list[PlanarPoint]:
    out: list[PlanarPoint] = []
    for leg in legs:
        for p in leg:
            if not out or distance(p, out[-1]) > 1e-9:
                out.append(p)
    return out


def _terminal_blend(points: list[PlanarPoint], crash: PlanarPoint) -> list[PlanarPoint]:
    """Shift the last stretch of the path linearly onto the crash point."""
    fine = resample_polyline(points, 0.5) if len(points) >= 2 else list(points)
    cum = cumulative_lengths(fine)
    total = cum[-1]
    window = min(TERMINAL_BLEND_M, total)
    end = fine[-1]
    dx, dy = crash.x - end.x, crash.y - end.y
    out = []
    for p, s in zip(fine, cum):
        into = s - (total - window)
        if into <= 0:
            out.append(p)
            continue
        alpha = into / window
        out.append(PlanarPoint(p.x + alpha * dx, p.y + alpha * dy))
    out[-1] = crash
    return out


def generate_trajectory(
    state,
    crash_fix: RoadLocation,
    crash_point: PlanarPoint,
    network: RoadNetwork,
    vehicle_id: int = 0,
) -> Trajectory:
    """Waypoints from the spawn state to the crash point at 2 m spacing.

    ``crash_fix`` is the crash point's place on the crash road. The first
    waypoint repeats the spawn pose exactly; the last lands on the crash
    point. Raises FailedToCollide when no road chain connects the
    spawn road to the crash road.
    """
    spawn_road = network.road(state.road_id)
    spawn_fix = locate_on_polyline(spawn_road.centerline, state.position)

    gap = distance(state.position, crash_point)
    if gap < 2 * WAYPOINT_SPACING_M:
        heading = bearing(state.position, crash_point) if gap > 1e-9 else state.heading
        return Trajectory(vehicle_id, (
            Waypoint(state.position, state.heading, state.speed),
            Waypoint(crash_point, heading, state.speed),
        ))

    chain = _road_chain(network, state.road_id, crash_fix.road_id)

    legs: list[list[PlanarPoint]] = []
    s_here = spawn_fix.s
    for i, (rid, _via) in enumerate(chain):
        road = network.road(rid)
        if i + 1 < len(chain):
            exit_point = chain[i + 1][1]
            s_exit = locate_on_polyline(road.centerline, exit_point).s
        else:
            s_exit = crash_fix.s
        base = spawn_fix.offset if i == 0 else None
        if abs(s_exit - s_here) > 1e-6:
            legs.append(_leg_points(network, rid, s_here, s_exit, base, state.lane_index))
        if i + 1 < len(chain):
            nxt_road = network.road(chain[i + 1][0])
            s_here = locate_on_polyline(nxt_road.centerline, chain[i + 1][1]).s

    legs = [leg for leg in legs if len(leg) >= 2]
    if not legs:
        raise FailedToCollide("degenerate path geometry")

    joined = [legs[0]]
    for leg in legs[1:]:
        prev = joined.pop()
        a_cut, arc, b_cut = _fillet(prev, leg)
        joined.extend([a_cut, arc, b_cut])
    path = _concat([leg for leg in joined if leg])
    path[0] = state.position

    blended = _terminal_blend(path, crash_point)
    samples = resample_polyline(blended, WAYPOINT_SPACING_M)

    waypoints = []
    for i, p in enumerate(samples):
        if i == 0:
            heading = state.heading
        elif i < len(samples) - 1:
            heading = bearing(p, samples[i + 1])
        else:
            heading = bearing(samples[i - 1], p)
        waypoints.append(Waypoint(p, heading, state.speed))
    return Trajectory(vehicle_id, tuple(waypoints))
