"""Initial-state estimation: where each vehicle was before the crash.

The default estimator is deterministic: it traces a backward trajectory
from the crash point along each vehicle's admissible approach (path
distance = reported speed times the approach horizon, 6 s by default),
assigns the rightmost lane for the travel direction, and aligns the
heading with the lane tangent. When ``EstimationSettings.llm_transport`` is
set, an external text-completion endpoint proposes instead; either way every
proposal passes through the same analytical checks, and rejected proposals
are re-attempted with the violations fed back, up to a retry budget.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from string import Template
from typing import Callable, NamedTuple, Sequence

from .errors import (
    EndpointError, EstimationFailed, FailedToCollide, FetchFailed, UnparseableResponse)
from .geometry import (
    PlanarPoint,
    cumulative_lengths,
    distance,
    locate_on_polyline,
    offset_point,
    tangent_at,
    wrap_angle,
)
from .reports import CaseKey, CrashReport, Maneuver, TrajectoryRelation, VehicleRecord
from .roadnet import (
    Junction,
    Road,
    RoadLocation,
    RoadNetwork,
    lane_offset,
    own_lane,
    travel_direction,
)
from .source import http_text
from .trajectory import Trajectory, classify_track, generate_trajectory

DEFAULT_HORIZON_S = 6.0
DEFAULT_SPEED_MPS = 13.41  # assigned when the report gives no travel speed
DEFAULT_MAX_RETRIES = 3
ORIENTATION_TOLERANCE_DEG = 30.0
CRASH_JUNCTION_REACH_M = 30.0


def canonical_heading(rad: float) -> float:
    """Quantize a heading so the degree serialization round-trips exactly."""
    return math.radians(round(math.degrees(wrap_angle(rad)), 9))


@dataclass(frozen=True)
class InitialState:
    position: PlanarPoint
    heading: float      # radians, counterclockwise from east
    speed: float        # m/s
    road_id: int
    lane_index: int     # signed; positive is right of centerline in travel direction


@dataclass(frozen=True)
class SceneSpec:
    case_key: CaseKey
    crash_point: PlanarPoint
    states: tuple[InitialState, InitialState]
    vehicle_ids: tuple[int, int]
    maneuvers: tuple[Maneuver, Maneuver]


@dataclass(frozen=True)
class EstimatorTrace:
    attempts: tuple[tuple[tuple[InitialState, InitialState] | None, tuple[str, ...]], ...]

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)


class Approach(NamedTuple):
    """One admissible spawn interval: travel along a road toward the crash."""

    road_id: int
    s_contact: float   # arc length where the approach meets the crash/junction
    direction: int     # +1 travels toward increasing s
    run: float         # admissible backward distance from the contact point

    @property
    def interval(self) -> tuple[float, float]:
        lo = self.s_contact - self.run if self.direction > 0 else self.s_contact
        return (lo, lo + self.run)


@dataclass(frozen=True)
class CandidateRegion:
    vehicle_approaches: tuple[tuple[Approach, ...], ...]
    crash: RoadLocation
    crash_point: PlanarPoint  # the crash fix in the plane


@dataclass(frozen=True)
class EstimationSettings:
    max_retries: int = DEFAULT_MAX_RETRIES
    horizon_s: float = DEFAULT_HORIZON_S
    # prompt -> reply of the external estimator; None runs the heuristic
    llm_transport: Callable[[str], str] | None = None


def _speed(record: VehicleRecord) -> float:
    """The reported travel speed, or the fallback when the report gives none."""
    return record.travel_speed if record.travel_speed is not None else DEFAULT_SPEED_MPS


def _road_approaches(road: Road, s_contact: float, d: float) -> list[Approach]:
    """Approaches toward ``s_contact`` from both sides, clipped to the road."""
    out = []
    room_below = s_contact
    room_above = road.length - s_contact
    if room_below > 1.0:
        out.append(Approach(road.road_id, s_contact, 1, min(d, room_below)))
    if room_above > 1.0:
        out.append(Approach(road.road_id, s_contact, -1, min(d, room_above)))
    return out


def _junction_for_crash(network: RoadNetwork, crash_pt: PlanarPoint) -> Junction | None:
    """The junction whose node is nearest the crash point, within
    ``CRASH_JUNCTION_REACH_M``; the lower id wins a tie."""
    near = [(d, j.junction_id, j) for j in network.junctions
            if (d := distance(j.center, crash_pt)) <= CRASH_JUNCTION_REACH_M]
    return min(near)[2] if near else None


def candidate_regions(
    network: RoadNetwork,
    report: CrashReport,
    crash: RoadLocation,
    settings: EstimationSettings = EstimationSettings(),
) -> CandidateRegion:
    """Admissible spawn intervals per vehicle, derived from topology and
    the reported trafficway relation."""
    distances = [_speed(record) * settings.horizon_s for record in report.vehicles]
    crash_road = network.road(crash.road_id)
    crash_point = offset_point(crash_road.centerline, crash.s, crash.offset)
    topology = report.road_topology
    relation = report.trajectory_relation

    junction = None
    if topology is not None and topology.is_intersection:
        junction = _junction_for_crash(network, crash_point)

    per_vehicle: list[tuple[Approach, ...]] = []
    if junction is not None:
        for d in distances:
            approaches = []
            for member in junction.members:
                road = network.road(member)
                fix = locate_on_polyline(road.centerline, junction.center)
                approaches.extend(_road_approaches(road, fix.s, d))
            per_vehicle.append(tuple(approaches))
    else:
        for i, d in enumerate(distances):
            below, above = [], []
            for a in _road_approaches(crash_road, crash.s, d):
                (below if a.direction > 0 else above).append(a)
            if relation is TrajectoryRelation.SAME_TRAFFICWAY_OPPOSITE_DIRECTION:
                chosen = below if i == 0 else above
                chosen = chosen or (above if i == 0 else below)
            elif relation is TrajectoryRelation.SAME_TRAFFICWAY_SAME_DIRECTION:
                options = below + above
                chosen = [max(options, key=lambda a: (a.run, a.direction))] if options else []
            else:
                chosen = below + above
            per_vehicle.append(tuple(chosen))

    for i, approaches in enumerate(per_vehicle):
        if not approaches:
            raise EstimationFailed(
                f"vehicle {report.vehicles[i].vehicle_id}: no admissible approach")
    return CandidateRegion(tuple(per_vehicle), crash, crash_point)


def _approach_heading(network: RoadNetwork, approach: Approach) -> float:
    road = network.road(approach.road_id)
    t = tangent_at(road.centerline, max(approach.s_contact - 0.5 * approach.direction, 0.0))
    return t if approach.direction > 0 else wrap_angle(t + math.pi)


def _pick_approaches(
    region: CandidateRegion, report: CrashReport, network: RoadNetwork
) -> list[Approach]:
    """Deterministic approach assignment; ties break toward low road ids."""
    relation = report.trajectory_relation
    order = lambda a: (a.road_id, -a.direction, a.s_contact)
    chosen: list[Approach] = []

    for i, record in enumerate(report.vehicles):
        options = sorted(region.vehicle_approaches[i], key=order)
        pick = None
        if record.maneuver in (Maneuver.TURNING_LEFT, Maneuver.TURNING_RIGHT):
            # the first approach whose heuristic trajectory turns the reported way
            for a in options:
                try:
                    planned = generate_trajectory(_heuristic_state(network, a, record),
                                                  region.crash, region.crash_point, network)
                except FailedToCollide:  # no road path from this approach
                    continue
                if classify_track(planned.track, network.junctions) is record.maneuver:
                    pick = a
                    break
        elif chosen and relation is TrajectoryRelation.INTERSECTING_PATHS:
            h_prev = _approach_heading(network, chosen[0])
            for a in options:
                dh = abs(wrap_angle(_approach_heading(network, a) - h_prev))
                dh = min(dh, math.pi - dh)
                if math.radians(45.0) <= dh:
                    pick = a
                    break
            if pick is None:
                pick = next((a for a in options if a.road_id != chosen[0].road_id), None)
        elif chosen and relation is TrajectoryRelation.SAME_TRAFFICWAY_OPPOSITE_DIRECTION:
            pick = next(
                (a for a in options
                 if a.road_id == chosen[0].road_id and a.direction != chosen[0].direction),
                None,
            )
            if pick is None:
                # e.g. split arms at a junction: take the antiparallel approach
                h_prev = _approach_heading(network, chosen[0])
                pick = next(
                    (a for a in options
                     if abs(wrap_angle(_approach_heading(network, a) - h_prev - math.pi))
                     <= math.radians(45.0)),
                    None,
                )
        if pick is None:
            pick = options[0]
        chosen.append(pick)
    return chosen


def _lane_state(road: Road, s: float, direction: int, lane_index: int,
                speed: float) -> InitialState:
    """The state at arc length ``s`` in a lane: lane-center position,
    heading along the lane tangent for the travel direction."""
    cum = cumulative_lengths(road.centerline)
    position = offset_point(road.centerline, s, lane_offset(road, direction, lane_index), cum)
    tangent = tangent_at(road.centerline, s, cum)
    heading = tangent if direction > 0 else wrap_angle(tangent + math.pi)
    return InitialState(position, canonical_heading(heading), speed, road.road_id, lane_index)


def _heuristic_state(network: RoadNetwork, approach: Approach,
                     record: VehicleRecord) -> InitialState:
    """The approach's full run (clipped to speed times the horizon) behind the
    contact point, in the rightmost own lane or wrong-way in the opposing one."""
    road = network.road(approach.road_id)
    spawn_s = approach.s_contact - approach.direction * approach.run
    lane_index = own_lane(road, approach.direction, road.lane_count)
    return _lane_state(road, spawn_s, approach.direction, lane_index, _speed(record))


def heuristic_estimate(
    region: CandidateRegion, report: CrashReport, network: RoadNetwork
) -> tuple[InitialState, InitialState]:
    """Backward-trajectory placement with right-hand lane assignment."""
    approaches = _pick_approaches(region, report, network)
    return tuple(_heuristic_state(network, a, r) for r, a in zip(report.vehicles, approaches))


# ---------------------------------------------------------------------------
# analytical checks
# ---------------------------------------------------------------------------


def validate_states(
    states: Sequence[InitialState],
    network: RoadNetwork,
    report: CrashReport,
    region: CandidateRegion,
) -> tuple[list[str], tuple[Trajectory, ...]]:
    """Named violations for every check a proposal fails, empty when valid,
    and the trajectories planned for the vehicles placed in a lane, which
    must go the way the report says (``classify_track``). Raises
    FailedToCollide when no road chain joins a spawn road to the crash road.
    """
    violations, trajectories = [], []
    for state, record in zip(states, report.vehicles):
        tag = f"vehicle {record.vehicle_id}"
        placed = len(violations)
        try:
            road = network.road(state.road_id)
        except KeyError:
            violations.append(f"{tag}: unknown road {state.road_id}")
            continue
        fix = locate_on_polyline(road.centerline, state.position)
        tangent = tangent_at(road.centerline, fix.s)
        heading_dir = travel_direction(road, fix.s, state.heading)

        # the admissible direction is the one whose lane layout puts the
        # claimed lane index at the observed lateral offset
        candidates = []
        for d in (1, -1):
            try:
                exp = lane_offset(road, d, state.lane_index)
            except ValueError:
                continue
            candidates.append((abs(fix.offset - exp), 0 if d == heading_dir else 1, d))
        if not candidates:
            violations.append(f"{tag}: lane index {state.lane_index} not on road")
            continue
        lateral_err, _, direction = min(candidates)

        longitudinal_err = math.sqrt(max(fix.dist**2 - fix.offset**2, 0.0))
        if lateral_err > road.lane_width / 2 + 0.05 or longitudinal_err > 0.05:
            violations.append(
                f"{tag}: position outside road boundary "
                f"(lateral error {lateral_err:.2f} m on road {road.road_id})"
            )

        lane_tangent = tangent if direction > 0 else wrap_angle(tangent + math.pi)
        misalign = abs(wrap_angle(state.heading - lane_tangent))
        if misalign > math.radians(ORIENTATION_TOLERANCE_DEG):
            violations.append(
                f"{tag}: orientation misaligned "
                f"({math.degrees(misalign):.1f} deg off the lane tangent)"
            )
        if len(violations) > placed:
            continue

        trajectories.append(generate_trajectory(
            state, region.crash, region.crash_point, network, record.vehicle_id))
        planned = classify_track(trajectories[-1].track, network.junctions)
        if record.maneuver not in (planned, Maneuver.OTHER):
            violations.append(f"{tag}: maneuver inconsistent: the planned path is "
                              f"{planned.value}, not {record.maneuver.value}")
    return violations, tuple(trajectories)


# ---------------------------------------------------------------------------
# external estimator
# ---------------------------------------------------------------------------


def _load_prompt_template() -> Template:
    text = resources.files("crashtrace").joinpath("templates/estimation_prompt.txt") \
        .read_text(encoding="utf-8")
    return Template(text)


def build_prompt(
    report: CrashReport,
    region: CandidateRegion,
    prior_violations: Sequence[str],
    settings: EstimationSettings,
) -> str:
    narrative = "\n".join(f"  {i + 1}. {ev}" for i, ev in enumerate(report.event_sequence)) \
        or "  (no event narrative)"
    vehicles = []
    for record in report.vehicles:
        speed = f"{record.travel_speed:.2f} m/s" if record.travel_speed is not None \
            else "unknown speed"
        clock = f"impact clock {record.impact_clock}" if record.impact_clock is not None \
            else "impact clock unknown"
        vehicles.append(
            f"  vehicle {record.vehicle_id}: {speed}, {clock}, maneuver {record.maneuver.value}"
        )
    regions = []
    for i, approaches in enumerate(region.vehicle_approaches):
        for a in approaches:
            lo, hi = a.interval
            arrow = "+s" if a.direction > 0 else "-s"
            regions.append(
                f"  vehicle {report.vehicles[i].vehicle_id}: road {a.road_id}, "
                f"s in [{lo:.1f}, {hi:.1f}] m, travel {arrow}"
            )
    if prior_violations:
        block = (
            "\nPrevious attempt was rejected with these violations; "
            "correct every one of them:\n"
            + "\n".join(f"- {v}" for v in prior_violations)
            + "\n"
        )
    else:
        block = ""
    return _load_prompt_template().substitute(
        narrative=narrative,
        vehicles="\n".join(vehicles),
        crash_x=f"{region.crash_point.x:.3f}",
        crash_y=f"{region.crash_point.y:.3f}",
        regions="\n".join(regions),
        horizon_s=f"{settings.horizon_s:g}",
        violations_block=block,
    )


def http_transport(endpoint: str) -> Callable[[str], str]:
    """An ``llm_transport`` that POSTs the prompt as plain text to ``endpoint``;
    any failed fetch raises EndpointError."""

    def send(prompt: str) -> str:
        try:
            return http_text(endpoint, data=prompt.encode("utf-8"),
                             headers={"Content-Type": "text/plain"}, timeout=120)
        except FetchFailed as exc:
            raise EndpointError(str(exc)) from exc

    return send


def _extract_json(text: str) -> dict:
    decoder = json.JSONDecoder()
    for start in range(len(text)):
        if text[start] != "{":
            continue
        try:
            obj, _ = decoder.raw_decode(text[start:])
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict):
            return obj
    raise UnparseableResponse("no JSON object in estimator response")


def llm_estimate(
    report: CrashReport,
    region: CandidateRegion,
    prior_violations: Sequence[str],
    settings: EstimationSettings,
) -> tuple[InitialState, InitialState]:
    """One proposal from ``settings.llm_transport``; speeds stay report-derived."""
    prompt = build_prompt(report, region, prior_violations, settings)
    raw = settings.llm_transport(prompt)
    payload = _extract_json(raw)
    entries = payload.get("vehicles")
    if not isinstance(entries, list) or len(entries) != len(report.vehicles):
        raise UnparseableResponse("response must list exactly the reported vehicles")

    states = []
    for record, entry in zip(report.vehicles, entries):
        try:
            x, y, heading_deg = (float(entry[k]) for k in ("x", "y", "heading_deg"))
            road_id = int(entry["road_id"])
            lane_index = int(entry["lane_index"])
        except (KeyError, TypeError, ValueError) as exc:
            raise UnparseableResponse(f"bad vehicle entry {entry!r}") from exc
        if not all(map(math.isfinite, (x, y, heading_deg))):
            # JSON's NaN and Infinity pass float() but fail every check silently
            raise UnparseableResponse(f"non-finite number in vehicle entry {entry!r}")
        heading = canonical_heading(math.radians(heading_deg))
        states.append(InitialState(PlanarPoint(x, y), heading, _speed(record), road_id, lane_index))
    return tuple(states)


# ---------------------------------------------------------------------------
# feedback loop
# ---------------------------------------------------------------------------


def _snap_state(state: InitialState, network: RoadNetwork) -> InitialState:
    """Clip a heuristic state onto its lane: lane-center position, tangent heading."""
    road = network.road(state.road_id)
    fix = locate_on_polyline(road.centerline, state.position)
    direction = travel_direction(road, fix.s, state.heading)
    return _lane_state(road, fix.s, direction, own_lane(road, direction, state.lane_index),
                       state.speed)


def estimate_with_feedback(
    report: CrashReport,
    network: RoadNetwork,
    region: CandidateRegion,
    settings: EstimationSettings = EstimationSettings(),
) -> tuple[SceneSpec, EstimatorTrace, tuple[Trajectory, Trajectory]]:
    """Propose, check, and re-prompt until a valid scene or the retry budget.

    The external estimator gets ``max_retries`` re-prompts, each fed the
    previous violations; the heuristic makes one estimate and, if a state of
    it fails a placement check, one clip of it onto its lanes. The returned
    scene always passes :func:`validate_states`, and comes with the
    trajectories that function planned for it. On exhaustion raises
    EstimationFailed carrying the full attempt trace.
    """
    attempts: list[tuple[tuple[InitialState, InitialState] | None, tuple[str, ...]]] = []
    violations: list[str] = []
    heuristic = settings.llm_transport is None
    max_attempts = 2 if heuristic else settings.max_retries + 1

    for attempt in range(max_attempts):
        try:
            if not heuristic:
                states = llm_estimate(report, region, violations, settings)
            elif attempt == 0:
                states = heuristic_estimate(region, report, network)
            else:
                states = tuple(_snap_state(s, network) for s in states)
        except UnparseableResponse as exc:
            attempts.append((None, (str(exc),)))
            violations = [str(exc)]
            continue

        violations, trajectories = validate_states(states, network, report, region)
        attempts.append((states, tuple(violations)))
        if not violations:
            scene = SceneSpec(
                case_key=report.case_key,
                crash_point=region.crash_point,
                states=states,
                vehicle_ids=tuple(v.vehicle_id for v in report.vehicles),
                maneuvers=tuple(v.maneuver for v in report.vehicles),
            )
            return scene, EstimatorTrace(tuple(attempts)), trajectories
        if heuristic and len(trajectories) == len(states):
            # every state was placed and planned, so each violation is a planned
            # direction, which clipping the states onto their lanes cannot change
            break

    raise EstimationFailed(
        f"no valid estimate after {len(attempts)} attempts",
        trace=EstimatorTrace(tuple(attempts)),
    )
