"""Deterministic kinematic replay, collision detection, and scoring.

Vehicles advance along their waypoint polylines at their spawn speed with a
fixed timestep; a vehicle that runs out of waypoints continues on its last
heading, so near-miss timings stay physical instead of piling every run up
at the crash point. Collision is a bounding-circle broad phase, then an
oriented-rectangle overlap test (separating axes); the reconstruction is
scored on crash location, impact clock positions, and trajectory direction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .errors import ContactTooFar
from .geometry import PlanarPoint, bearing, cumulative_lengths, distance
from .reports import CrashReport, Maneuver
from .roadnet import Junction
from .trajectory import Trajectory, classify_track

DEFAULT_DT_S = 0.05
GRACE_PERIOD_S = 2.0
LOCATION_TOLERANCE_M = 5.0
CLOCK_TOLERANCE = 2


class VehicleBody(NamedTuple):
    length: float = 4.5
    width: float = 1.9


class Pose(NamedTuple):
    position: PlanarPoint
    heading: float


@dataclass(frozen=True)
class CollisionRecord:
    time: float
    location: PlanarPoint       # midpoint of the contact set
    clocks: tuple[int, int]


@dataclass(frozen=True)
class ReplayOutcome:
    collided: bool
    record: CollisionRecord | None
    paths: tuple[tuple[Pose, ...], tuple[Pose, ...]]
    directions: tuple[Maneuver, Maneuver]


@dataclass(frozen=True)
class ValidationReport:
    location_error: float                     # meters; inf when no collision
    clock_deviation: tuple[int | None, ...]   # None when the report clock is unknown
    direction_match: tuple[bool, ...]
    passed: bool


# ---------------------------------------------------------------------------
# oriented-rectangle overlap
# ---------------------------------------------------------------------------


def _corners(pose: Pose, body: VehicleBody) -> list[PlanarPoint]:
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    hl, hw = body.length / 2, body.width / 2
    out = []
    for ox, oy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw)):
        out.append(PlanarPoint(pose.position.x + c * ox - s * oy,
                               pose.position.y + s * ox + c * oy))
    return out


def overlap_margin(pose_a: Pose, pose_b: Pose,
                   bodies: tuple[VehicleBody, VehicleBody]) -> float:
    """Signed separating-axis margin: positive inside, negative separated."""
    corners_a = _corners(pose_a, bodies[0])
    corners_b = _corners(pose_b, bodies[1])
    margin = math.inf
    for heading in (pose_a.heading, pose_a.heading + math.pi / 2,
                    pose_b.heading, pose_b.heading + math.pi / 2):
        ax, ay = math.cos(heading), math.sin(heading)
        proj_a = [p.x * ax + p.y * ay for p in corners_a]
        proj_b = [p.x * ax + p.y * ay for p in corners_b]
        overlap = min(max(proj_a), max(proj_b)) - max(min(proj_a), min(proj_b))
        margin = min(margin, overlap)
    return margin


def _inside(p: PlanarPoint, pose: Pose, body: VehicleBody, inflate: float = 0.0) -> bool:
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    dx, dy = p.x - pose.position.x, p.y - pose.position.y
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    return abs(lx) <= body.length / 2 + inflate and abs(ly) <= body.width / 2 + inflate


def _reach(bodies: tuple[VehicleBody, VehicleBody]) -> float:
    """Broad phase: rectangles whose centres lie farther apart than this sit
    inside disjoint circumcircles and cannot overlap."""
    return (math.hypot(*bodies[0]) + math.hypot(*bodies[1])) / 2 + 1e-6


def detect_collision(pose_a: Pose, pose_b: Pose,
                     bodies: tuple[VehicleBody, VehicleBody]) -> PlanarPoint | None:
    """Contact point when the two body rectangles overlap, else None.

    The contact is the centroid of the corners each body has inside the
    other (falling back to the midpoint of the centers); the result is
    symmetric in the arguments.
    """
    if (distance(pose_a.position, pose_b.position) > _reach(bodies)
            or overlap_margin(pose_a, pose_b, bodies) < 0):
        return None
    hits = [p for p in _corners(pose_a, bodies[0]) if _inside(p, pose_b, bodies[1])]
    hits += [p for p in _corners(pose_b, bodies[1]) if _inside(p, pose_a, bodies[0])]
    if not hits:
        return PlanarPoint((pose_a.position.x + pose_b.position.x) / 2,
                           (pose_a.position.y + pose_b.position.y) / 2)
    hits = sorted(set(hits))
    x = y = 0.0
    for p in hits:  # left to right: sum() rounds floats differently from Python 3.12 on
        x += p.x
        y += p.y
    return PlanarPoint(x / len(hits), y / len(hits))


# ---------------------------------------------------------------------------
# impact clock
# ---------------------------------------------------------------------------


def impact_clock(pose: Pose, body: VehicleBody, contact: PlanarPoint) -> int:
    """Clock position of the contact: 12 is the front, 6 the rear, 3 the
    right side, measured clockwise around the body."""
    if not _inside(contact, pose, body, inflate=0.5):
        raise ContactTooFar(f"contact {contact} outside inflated body at {pose.position}")
    return _clock_toward(pose, contact)


def _clock_toward(pose: Pose, point: PlanarPoint) -> int:
    """Clock position of the direction from ``pose`` toward ``point``."""
    beta = (math.degrees(pose.heading - bearing(pose.position, point))) % 360.0
    clock = int(beta / 30.0 + 0.5) % 12
    return clock if clock else 12


def circular_clock_distance(a: int, b: int) -> int:
    d = abs(a - b) % 12
    return min(d, 12 - d)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


class _PathFollower:
    """A waypoint polyline driven at constant speed; past the last waypoint
    it continues straight on the final heading."""

    def __init__(self, spawn_position: PlanarPoint, trajectory: Trajectory, speed: float):
        points = [spawn_position]
        for wp in trajectory.waypoints[1:]:
            if distance(wp.position, points[-1]) > 1e-9:
                points.append(wp.position)
        if len(points) < 2:
            points.append(PlanarPoint(spawn_position.x + 1e-6, spawn_position.y))
        self.points = points
        self.headings = [bearing(a, b) for a, b in zip(points, points[1:])]
        self.cum = cumulative_lengths(points)
        self.total = self.cum[-1]
        self.speed = speed
        self.end_heading = self.headings[-1]

    @property
    def exhaust_time(self) -> float:
        return self.total / self.speed if self.speed > 1e-9 else 0.0

    def walk(self, dt: float) -> Iterator[Pose]:
        """Poses at t = 0, dt, 2·dt, ... without end, in one forward pass.

        The pose at ``t`` lies at arc length ``speed·t`` (clamped at 0) on the
        segment holding it, as ``point_at`` and ``tangent_at`` place it, or
        past the end on the final heading. Arc length never falls as ``t``
        rises, so each segment's endpoints are bound once.
        """
        points, cum, headings, speed, total = (
            self.points, self.cum, self.headings, self.speed, self.total)
        last = len(cum) - 2
        idx, start, end = 0, cum[0], cum[1]
        seg_len = end - start
        ax, ay = points[0]
        dx, dy = points[1].x - ax, points[1].y - ay
        end_x, end_y = points[-1]
        end_cos, end_sin = math.cos(self.end_heading), math.sin(self.end_heading)
        k = 0
        while True:
            s = speed * (k * dt)
            if s <= total:
                if s < 0.0:
                    s = 0.0
                if end <= s and idx < last:
                    while idx < last and cum[idx + 1] <= s:
                        idx += 1
                    start, end = cum[idx], cum[idx + 1]
                    seg_len = end - start
                    a, b = points[idx], points[idx + 1]
                    ax, ay, dx, dy = a.x, a.y, b.x - a.x, b.y - a.y
                u = 0.0 if seg_len == 0.0 else (s - start) / seg_len
                yield Pose(PlanarPoint(ax + u * dx, ay + u * dy), headings[idx])
            else:
                over = s - total
                yield Pose(PlanarPoint(end_x + over * end_cos, end_y + over * end_sin),
                           self.end_heading)
            k += 1


def _clock_for(pose: Pose, body: VehicleBody, contact: PlanarPoint, other: Pose) -> int:
    try:
        return impact_clock(pose, body, contact)
    except ContactTooFar:
        return _clock_toward(pose, other.position)  # thin crossing overlap


def simulate(
    scene,
    trajectories: tuple[Trajectory, Trajectory],
    junctions: Sequence[Junction],
    bodies: tuple[VehicleBody, VehicleBody] = (VehicleBody(), VehicleBody()),
    dt: float = DEFAULT_DT_S,
) -> ReplayOutcome:
    """Replay both trajectories until first contact or exhaustion plus grace.

    The scene's spawn states are authoritative: each path starts at the
    spawn position and runs at the spawn speed; its direction is how its
    poses up to contact turn at ``junctions`` (``classify_track``). A run
    with no contact is a valid outcome, not an error.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    followers = [
        _PathFollower(state.position, traj, state.speed)
        for state, traj in zip(scene.states, trajectories)
    ]
    t_end = max(f.exhaust_time for f in followers) + GRACE_PERIOD_S
    steps = int(math.floor(t_end / dt + 1e-9))
    reach = _reach(bodies)

    paths: tuple[list[Pose], list[Pose]] = ([], [])
    record = None
    for k, pose_a, pose_b in zip(range(steps + 1), followers[0].walk(dt), followers[1].walk(dt)):
        paths[0].append(pose_a)
        paths[1].append(pose_b)
        a, b = pose_a.position, pose_b.position
        if math.hypot(b.x - a.x, b.y - a.y) > reach:  # detect_collision's broad phase
            continue
        contact = detect_collision(pose_a, pose_b, bodies)
        if contact is not None:
            record = CollisionRecord(
                time=k * dt,
                location=contact,
                clocks=(
                    _clock_for(pose_a, bodies[0], contact, pose_b),
                    _clock_for(pose_b, bodies[1], contact, pose_a),
                ),
            )
            break

    directions = tuple(classify_track(path, junctions) for path in paths)
    return ReplayOutcome(
        collided=record is not None,
        record=record,
        paths=(tuple(paths[0]), tuple(paths[1])),
        directions=directions,
    )


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def validate_reconstruction(
    outcome: ReplayOutcome,
    report: CrashReport,
    reported_crash: PlanarPoint,
) -> ValidationReport:
    """Score a replay against the report's location, clocks, and directions.

    The location must land within 5 m, every known impact clock within +/-2
    positions, and each executed direction must match the reported maneuver
    (an OTHER maneuver matches anything). A replay without a collision
    fails with an infinite location error.
    """
    direction_match = [record.maneuver in (executed, Maneuver.OTHER)
                       for record, executed in zip(report.vehicles, outcome.directions)]

    if not outcome.collided:
        return ValidationReport(
            location_error=math.inf,
            clock_deviation=tuple(None for _ in report.vehicles),
            direction_match=tuple(direction_match),
            passed=False,
        )

    location_error = distance(outcome.record.location, reported_crash)
    deviations: list[int | None] = []
    for record, sim_clock in zip(report.vehicles, outcome.record.clocks):
        if record.impact_clock is None:
            deviations.append(None)
        else:
            deviations.append(circular_clock_distance(sim_clock, record.impact_clock))

    passed = (
        location_error <= LOCATION_TOLERANCE_M
        and all(d is None or d <= CLOCK_TOLERANCE for d in deviations)
        and all(direction_match)
    )
    return ValidationReport(
        location_error=location_error,
        clock_deviation=tuple(deviations),
        direction_match=tuple(direction_match),
        passed=passed,
    )


def validation_to_json(report: ValidationReport) -> str:
    doc = {
        "location_error_m": None if math.isinf(report.location_error)
        else report.location_error,
        "clock_deviation": ["skipped" if d is None else d for d in report.clock_deviation],
        "direction_match": list(report.direction_match),
        "passed": report.passed,
    }
    return json.dumps(doc, indent=2) + "\n"
