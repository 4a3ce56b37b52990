"""Deterministic kinematic replay, collision detection, and scoring.

Vehicles advance along their waypoint polylines at their spawn speed with a
fixed timestep; a vehicle that runs out of waypoints continues on its last
heading, so near-miss timings stay physical instead of piling every run up
at the crash point. A vehicle's state at a step is one record, a plain
``(x, y, heading)`` triple of floats, and every vehicle has the same body,
``BODY_LENGTH_M`` by ``BODY_WIDTH_M``. Collision is a bounding-circle broad
phase (centres within ``REACH_M``), then, for the steps inside that reach
only, an oriented-rectangle overlap test (separating axes) on the same
triples; the reconstruction is scored on crash location, impact clock
positions, and trajectory direction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .geometry import PlanarPoint, bearing, cumulative_lengths, distance
from .reports import CrashReport, Maneuver
from .roadnet import Junction
from .trajectory import Trajectory, classify_track

DEFAULT_DT_S = 0.05
GRACE_PERIOD_S = 2.0
LOCATION_TOLERANCE_M = 5.0
CLOCK_TOLERANCE = 2
BODY_LENGTH_M = 4.5
BODY_WIDTH_M = 1.9
# broad phase: rectangles whose centres lie farther apart than two
# half-diagonals sit inside disjoint circumcircles and cannot overlap
REACH_M = math.hypot(BODY_LENGTH_M, BODY_WIDTH_M) + 1e-6

Step = tuple[float, float, float]  # x, y, heading of one replay step


@dataclass(frozen=True)
class CollisionRecord:
    time: float
    # centroid of the corners each body has inside the other, or the
    # midpoint of the centres when neither body has one
    location: PlanarPoint
    clocks: tuple[int, int]


@dataclass(frozen=True)
class ReplayOutcome:
    record: CollisionRecord | None  # None when the vehicles never touch
    # each vehicle's steps, one (x, y, heading) triple per step up to and
    # including contact: len(paths[0]) is the number of steps replayed
    paths: tuple[tuple[Step, ...], tuple[Step, ...]]
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


def _corners(step: Step) -> list[tuple[float, float]]:
    x, y, heading = step
    c, s = math.cos(heading), math.sin(heading)
    hl, hw = BODY_LENGTH_M / 2, BODY_WIDTH_M / 2
    return [(x + c * ox - s * oy, y + s * ox + c * oy)
            for ox, oy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw))]


def overlap_margin(a: Step, b: Step) -> float:
    """Signed separating-axis margin: positive inside, negative separated."""
    return _margin(a, b, _corners(a), _corners(b))


def _margin(a: Step, b: Step, corners_a: list[tuple[float, float]],
            corners_b: list[tuple[float, float]]) -> float:
    margin = math.inf
    for heading in (a[2], a[2] + math.pi / 2, b[2], b[2] + math.pi / 2):
        ax, ay = math.cos(heading), math.sin(heading)
        proj_a = [x * ax + y * ay for x, y in corners_a]
        proj_b = [x * ax + y * ay for x, y in corners_b]
        overlap = min(max(proj_a), max(proj_b)) - max(min(proj_a), min(proj_b))
        margin = min(margin, overlap)
    return margin


def _inside(point: tuple[float, float], step: Step, inflate: float = 0.0) -> bool:
    x, y, heading = step
    c, s = math.cos(heading), math.sin(heading)
    dx, dy = point[0] - x, point[1] - y
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    return abs(lx) <= BODY_LENGTH_M / 2 + inflate and abs(ly) <= BODY_WIDTH_M / 2 + inflate


def detect_collision(a: Step, b: Step) -> PlanarPoint | None:
    """Contact point when the two bodies overlap, else None.

    The contact is the centroid of the corners each body has inside the
    other (falling back to the midpoint of the centres); the result is
    symmetric in the arguments. A pair beyond ``REACH_M`` always separates.
    """
    corners_a, corners_b = _corners(a), _corners(b)
    if _margin(a, b, corners_a, corners_b) < 0:
        return None
    hits = [p for p in corners_a if _inside(p, b)]
    hits += [p for p in corners_b if _inside(p, a)]
    if not hits:
        return PlanarPoint((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    hits = sorted(set(hits))
    x = y = 0.0
    for px, py in hits:  # left to right: sum() rounds floats differently from Python 3.12 on
        x += px
        y += py
    return PlanarPoint(x / len(hits), y / len(hits))


# ---------------------------------------------------------------------------
# impact clock
# ---------------------------------------------------------------------------


def impact_clock(step: Step, contact: tuple[float, float], other: Step) -> int:
    """Clock position of the contact: 12 is the front, 6 the rear, 3 the
    right side, measured clockwise around the body.

    A contact outside the body inflated by 0.5 m (a thin crossing overlap,
    or boundary ties at a flush touch) reads as the direction toward the
    ``other`` vehicle's centre.
    """
    x, y, heading = step
    tx, ty = contact if _inside(contact, step, inflate=0.5) else other[:2]
    beta = (math.degrees(heading - math.atan2(ty - y, tx - x))) % 360.0
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

    def walk(self, dt: float) -> Iterator[Step]:
        """Steps ``(x, y, heading)`` at t = 0, dt, 2·dt, ... without end, in one
        forward pass.

        The step at ``t`` lies at arc length ``speed·t`` (clamped at 0) on the
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
        end_heading = self.end_heading
        end_cos, end_sin = math.cos(end_heading), math.sin(end_heading)
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
                yield ax + u * dx, ay + u * dy, headings[idx]
            else:
                over = s - total
                yield end_x + over * end_cos, end_y + over * end_sin, end_heading
            k += 1


def simulate(
    scene,
    trajectories: tuple[Trajectory, Trajectory],
    junctions: Sequence[Junction],
    dt: float = DEFAULT_DT_S,
) -> ReplayOutcome:
    """Replay both trajectories until first contact or exhaustion plus grace.

    The scene's spawn states are authoritative: each path starts at the
    spawn position and runs at the spawn speed; its direction is how its
    steps up to contact turn at ``junctions`` (``classify_track``). A run
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

    paths: tuple[list[Step], list[Step]] = ([], [])
    record = None
    for k, a, b in zip(range(steps + 1), followers[0].walk(dt), followers[1].walk(dt)):
        paths[0].append(a)
        paths[1].append(b)
        if math.hypot(b[0] - a[0], b[1] - a[1]) > REACH_M:
            continue
        contact = detect_collision(a, b)
        if contact is not None:
            record = CollisionRecord(
                time=k * dt,
                location=contact,
                clocks=(impact_clock(a, contact, b), impact_clock(b, contact, a)),
            )
            break

    directions = tuple(classify_track(path, junctions) for path in paths)
    return ReplayOutcome(
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

    if outcome.record is None:
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
