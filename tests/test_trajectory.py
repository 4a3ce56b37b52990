import math

import pytest

from crashtrace.errors import FailedToCollide
from crashtrace.estimator import InitialState, canonical_heading
from crashtrace.geometry import PlanarPoint, distance, wrap_angle
from crashtrace.osm import parse_osm
from crashtrace.reports import Maneuver
from crashtrace.roadnet import build_road_network, locate_crash_point, unify_lanes
from crashtrace.trajectory import (
    Trajectory,
    Waypoint,
    classify_headings,
    generate_trajectory,
)

from corpus import case_origin, cross_layout, curve_road_layout, osm_xml

ORIGIN = case_origin(0)


def classify_direction(trajectory: Trajectory) -> Maneuver:
    return classify_headings([w.heading for w in trajectory.waypoints])


def _network(nodes, ways):
    graph = parse_osm(osm_xml(ORIGIN, nodes, ways))
    return unify_lanes(build_road_network(graph, ORIGIN))


def _flat_road(length=400.0):
    half = length / 2
    return _network({1: (-half, 0.0), 2: (half, 0.0)},
                    [(10, [1, 2], {"highway": "secondary", "name": "Mill Road"})])


def _assert_contract(traj: Trajectory, state: InitialState, crash: PlanarPoint):
    assert len(traj.waypoints) >= 2
    assert traj.waypoints[0].position == state.position
    assert traj.waypoints[0].heading == state.heading
    assert distance(traj.waypoints[-1].position, crash) <= 0.5
    for a, b in zip(traj.waypoints, traj.waypoints[1:]):
        assert distance(a.position, b.position) <= 2.0 + 1e-9
    assert all(w.target_speed == state.speed for w in traj.waypoints)


def test_straight_lane_waypoint_count_and_headings():
    network = _flat_road()
    state = InitialState(PlanarPoint(-100.0, -1.75), 0.0, 13.4112, 10, 1)
    crash = PlanarPoint(0.0, -1.75)
    traj = generate_trajectory(state, locate_crash_point(network, crash), crash, network)
    assert len(traj.waypoints) == 51
    for wp in traj.waypoints:
        assert wp.heading == pytest.approx(0.0, abs=1e-6)
    _assert_contract(traj, state, crash)


def test_straight_segment_heading_matches_bearing():
    network = _flat_road()
    state = InitialState(PlanarPoint(-80.0, -1.75), 0.0, 10.0, 10, 1)
    crash = PlanarPoint(0.0, -1.75)
    traj = generate_trajectory(state, locate_crash_point(network, crash), crash, network)
    for a, b in zip(traj.waypoints[1:-1], traj.waypoints[2:]):
        seg = math.atan2(b.position.y - a.position.y, b.position.x - a.position.x)
        assert abs(wrap_angle(a.heading - seg)) <= 1e-6


def test_terminal_blend_reaches_offset_crash():
    network = _flat_road()
    state = InitialState(PlanarPoint(-80.0, -1.75), 0.0, 10.0, 10, 1)
    crash = PlanarPoint(0.0, 0.0)  # on the centerline, off the lane line
    traj = generate_trajectory(state, locate_crash_point(network, crash), crash, network)
    _assert_contract(traj, state, crash)
    assert traj.waypoints[-1].position == crash


def test_left_turn_arc_monotonic_heading():
    network = _network(*cross_layout())
    state = InitialState(PlanarPoint(-80.0, -1.75), 0.0, 8.9408, 12, 1)
    crash = PlanarPoint(1.75, 40.0)  # on the exit lane line: pure arc geometry
    traj = generate_trajectory(state, locate_crash_point(network, crash), crash, network)
    _assert_contract(traj, state, crash)
    headings = [w.heading for w in traj.waypoints]
    deltas = [wrap_angle(b - a) for a, b in zip(headings, headings[1:])]
    assert all(d >= -1e-6 for d in deltas)  # monotonically increasing
    total = math.degrees(sum(deltas))
    assert total == pytest.approx(90.0, abs=2.0)
    assert classify_direction(traj) is Maneuver.TURNING_LEFT


def test_wrong_way_accepted():
    network = _flat_road()
    # heading west on the eastbound lane, against its direction of travel
    state = InitialState(PlanarPoint(80.0, -1.75), canonical_heading(math.pi),
                         13.4112, 10, -1)
    crash = PlanarPoint(0.0, -1.75)
    traj = generate_trajectory(state, locate_crash_point(network, crash), crash, network)
    _assert_contract(traj, state, crash)
    assert classify_direction(traj) is Maneuver.GOING_STRAIGHT


def test_unreachable_crash_point():
    network = _network(
        {1: (-200.0, 0.0), 2: (200.0, 0.0), 3: (-200.0, 500.0), 4: (200.0, 500.0)},
        [
            (10, [1, 2], {"highway": "secondary", "name": "South Road"}),
            (11, [3, 4], {"highway": "secondary", "name": "North Road"}),
        ],
    )
    state = InitialState(PlanarPoint(-80.0, 498.25), 0.0, 10.0, 11, 1)
    crash = PlanarPoint(0.0, 0.0)  # on South Road, which no road chain reaches
    with pytest.raises(FailedToCollide, match="no road path"):
        generate_trajectory(state, locate_crash_point(network, crash), crash, network)


def test_generate_deterministic_bitwise():
    network = _network(*cross_layout())
    state = InitialState(PlanarPoint(-80.0, -1.75), 0.0, 8.9408, 12, 1)
    crash = PlanarPoint(0.0, 40.0)
    a = generate_trajectory(state, locate_crash_point(network, crash), crash, network)
    b = generate_trajectory(state, locate_crash_point(network, crash), crash, network)
    assert a == b


def test_curve_stays_within_spacing():
    nodes, ways = curve_road_layout()
    network = _network(nodes, ways)
    road = network.roads[0]
    state = InitialState(PlanarPoint(-80.0, 8.0), 0.2, 13.4112, road.road_id, 1)
    crash = PlanarPoint(0.0, 0.0)
    traj = generate_trajectory(state, locate_crash_point(network, crash), crash, network)
    for a, b in zip(traj.waypoints, traj.waypoints[1:]):
        assert distance(a.position, b.position) <= 2.0 + 1e-9


# --- direction classification ---


def _traj_from_headings(headings):
    pts = [PlanarPoint(0.0, 0.0)]
    for h in headings[:-1]:
        last = pts[-1]
        pts.append(PlanarPoint(last.x + 2 * math.cos(h), last.y + 2 * math.sin(h)))
    wps = tuple(Waypoint(p, h, 10.0) for p, h in zip(pts, headings))
    return Trajectory(0, wps)


def test_classify_straight():
    traj = _traj_from_headings([0.3] * 20)
    assert classify_direction(traj) is Maneuver.GOING_STRAIGHT


def test_classify_plus_90_is_left():
    headings = [math.radians(90.0 * i / 19) for i in range(20)]
    assert classify_direction(_traj_from_headings(headings)) is Maneuver.TURNING_LEFT


def test_classify_small_drift_is_straight():
    headings = [math.radians(-20.0 * i / 19) for i in range(20)]
    assert classify_direction(_traj_from_headings(headings)) is Maneuver.GOING_STRAIGHT


def test_classify_handles_wraparound():
    # drift across the +/-pi seam must not look like a full turn
    headings = [wrap_angle(math.radians(175 + 0.5 * i)) for i in range(20)]
    assert classify_headings(headings) is Maneuver.GOING_STRAIGHT
