import math

import pytest
from hypothesis import example, given, settings, strategies as st

from crashtrace.errors import FailedToCollide
from crashtrace.estimator import InitialState, canonical_heading
from crashtrace.geometry import PlanarPoint, bearing, cumulative_lengths, distance, wrap_angle
from crashtrace.osm import parse_osm
from crashtrace.reports import Maneuver
from crashtrace.roadnet import build_road_network, locate_crash_point, unify_lanes
from crashtrace.roadnet import Junction
from crashtrace import trajectory
from crashtrace.trajectory import (
    JUNCTION_REACH_M,
    TERMINAL_BLEND_M,
    WAYPOINT_SPACING_M,
    Trajectory,
    Waypoint,
    classify_track,
    generate_trajectory,
)

import corpus
from corpus import case_origin, cross_layout, curve_road_layout, osm_xml

ORIGIN = case_origin(0)


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
    assert classify_track(traj.track, network.junctions) is Maneuver.TURNING_LEFT


def test_wrong_way_accepted():
    network = _flat_road()
    # heading west on the eastbound lane, against its direction of travel
    state = InitialState(PlanarPoint(80.0, -1.75), canonical_heading(math.pi),
                         13.4112, 10, -1)
    crash = PlanarPoint(0.0, -1.75)
    traj = generate_trajectory(state, locate_crash_point(network, crash), crash, network)
    _assert_contract(traj, state, crash)
    assert classify_track(traj.track, network.junctions) is Maneuver.GOING_STRAIGHT


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


# --- the trajectory tail: blend onto the crash point, 2 m samples, headings ---


def _planar_resample(points, spacing):
    """Reference: the 0.5 m and 2 m resample, a PlanarPoint per sample."""
    cum = cumulative_lengths(points)
    total = cum[-1]
    if total == 0.0:
        raise ValueError("zero-length polyline")
    out = [points[0]]
    s = spacing
    for idx in range(len(points) - 1):
        end = cum[idx + 1]
        if s >= end:
            continue
        start = cum[idx]
        seg_len = end - start
        a, b = points[idx], points[idx + 1]
        ax, ay, dx, dy = a.x, a.y, b.x - a.x, b.y - a.y
        while s < end:
            t = (s - start) / seg_len
            out.append(PlanarPoint(ax + t * dx, ay + t * dy))
            s += spacing
    out.append(points[-1])
    return out


def _planar_tail(path, crash, heading, speed):
    """Reference: the tail of ``generate_trajectory`` composed of PlanarPoints."""
    fine = _planar_resample(path, 0.5) if len(path) >= 2 else list(path)
    cum = cumulative_lengths(fine)
    total = cum[-1]
    window = min(TERMINAL_BLEND_M, total)
    end = fine[-1]
    dx, dy = crash.x - end.x, crash.y - end.y
    blended = []
    for p, s in zip(fine, cum):
        into = s - (total - window)
        if into <= 0:
            blended.append(p)
            continue
        alpha = into / window
        blended.append(PlanarPoint(p.x + alpha * dx, p.y + alpha * dy))
    blended[-1] = crash
    samples = _planar_resample(blended, WAYPOINT_SPACING_M)
    waypoints = []
    for i, p in enumerate(samples):
        if i == 0:
            h = heading
        elif i < len(samples) - 1:
            h = bearing(p, samples[i + 1])
        else:
            h = bearing(samples[i - 1], p)
        waypoints.append(Waypoint(p, h, speed))
    return tuple(waypoints)


def _waypoint_bits(waypoints):
    assert all(type(w) is Waypoint and type(w.position) is PlanarPoint for w in waypoints)
    return [(w.position.x.hex(), w.position.y.hex(), w.heading.hex(), w.target_speed.hex())
            for w in waypoints]


def _assert_tail_matches_reference(path, crash, heading, speed):
    try:
        expected = _planar_tail(path, crash, heading, speed)
    except ValueError:  # the blend left no length to resample
        with pytest.raises(ValueError):
            trajectory._tail_waypoints(path, crash, heading, speed)
        return
    assert _waypoint_bits(trajectory._tail_waypoints(path, crash, heading, speed)) \
        == _waypoint_bits(expected)


# whole metres put samples exactly on vertices; small ones make paths under the
# 10 m blend window
_tail_coord = st.one_of(st.integers(-20, 20).map(float), st.floats(-3.0, 3.0),
                        st.floats(-100.0, 100.0))
_tail_point = st.builds(PlanarPoint, _tail_coord, _tail_coord)


@st.composite
def _tail_paths(draw):
    """Paths from a small pool of points, so zero-length segments occur."""
    pool = draw(st.lists(_tail_point, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=12))
    return [pool[i] for i in picks]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(_tail_paths(), st.lists(_tail_point, min_size=2, max_size=2)), _tail_point,
       st.floats(-math.pi, math.pi), st.floats(0.0, 40.0))
@example([PlanarPoint(0.0, 0.0), PlanarPoint(4.0, 0.0)], PlanarPoint(4.0, 1.0), 0.0, 10.0)
@example([PlanarPoint(0.0, 0.0), PlanarPoint(10.0, 0.0), PlanarPoint(10.0, 0.0),
          PlanarPoint(10.0, 6.0)], PlanarPoint(12.0, 6.0), 0.0, 10.0)
@example([PlanarPoint(0.0, 0.0), PlanarPoint(4.0, 0.0)], PlanarPoint(0.0, 0.0), 0.5, 8.0)
def test_tail_matches_planar_reference(path, crash, heading, speed):
    _assert_tail_matches_reference(path, crash, heading, speed)


def test_tail_matches_planar_reference_on_good_corpus(tmp_path):
    from crashtrace.pipeline import PipelineConfig, run_case

    calls = []
    tail = trajectory._tail_waypoints

    def recording(*args):
        calls.append(args)
        return tail(*args)

    keys = corpus.write_good_corpus(tmp_path / "fixtures")
    config = PipelineConfig(offline=True, fixtures_dir=tmp_path / "fixtures",
                            out_dir=tmp_path / "out", parallelism=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trajectory, "_tail_waypoints", recording)
        for key in keys:
            assert run_case(key, config).package is not None
    assert len(calls) >= 2 * len(keys)
    for args in calls:
        _assert_tail_matches_reference(*args)


# --- direction classification ---


def _track_from_headings(headings, step=0.5):
    """(x, y, heading) triples ``step`` apart, each heading toward the next."""
    pts = [PlanarPoint(0.0, 0.0)]
    for h in headings[:-1]:
        last = pts[-1]
        pts.append(PlanarPoint(last.x + step * math.cos(h), last.y + step * math.sin(h)))
    return tuple((p.x, p.y, h) for p, h in zip(pts, headings))


def _junction_at(center):
    return Junction(1, 1, center, (10, 11))


def _mid_junction(track):
    """A junction whose reach covers every point of a short track."""
    return (_junction_at(PlanarPoint(*track[len(track) // 2][:2])),)


def test_classify_straight():
    track = _track_from_headings([0.3] * 20)
    assert classify_track(track, _mid_junction(track)) is Maneuver.GOING_STRAIGHT


def test_classify_plus_90_is_left():
    track = _track_from_headings([math.radians(90.0 * i / 19) for i in range(20)])
    assert classify_track(track, _mid_junction(track)) is Maneuver.TURNING_LEFT
    assert classify_track(track, ()) is Maneuver.GOING_STRAIGHT  # a bend, not a turn


def test_classify_small_drift_is_straight():
    track = _track_from_headings([math.radians(-20.0 * i / 19) for i in range(20)])
    assert classify_track(track, _mid_junction(track)) is Maneuver.GOING_STRAIGHT


def test_classify_handles_wraparound():
    # drift across the +/-pi seam must not look like a full turn
    track = _track_from_headings([wrap_angle(math.radians(175 + 0.5 * i)) for i in range(20)])
    assert classify_track(track, _mid_junction(track)) is Maneuver.GOING_STRAIGHT


def test_classify_counts_only_points_within_reach():
    # a right turn 2 m past the reach of the only junction is a bend
    track = _track_from_headings([-math.pi / 2 * i / 19 for i in range(20)])
    x0, y0, _ = track[0]
    far = _junction_at(PlanarPoint(x0 - JUNCTION_REACH_M - 2.0, y0))
    assert classify_track(track, (far,)) is Maneuver.GOING_STRAIGHT
    assert classify_track(track, _mid_junction(track)) is Maneuver.TURNING_RIGHT


def _lane_point(center, heading, along, right=1.75):
    """``along`` metres on from ``center`` at ``heading``, ``right`` metres to its right."""
    return PlanarPoint(center.x + along * math.cos(heading) + right * math.sin(heading),
                       center.y + along * math.sin(heading) - right * math.cos(heading))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.floats(0.0, 170.0), st.sampled_from([1, -1]), st.floats(0.05, 60.0),
       st.floats(10.0, 200.0))
def test_bend_without_junction_is_straight(theta_deg, side, bend_distance, behind):
    # one way bends once; a side road meets it 200 m past the crash, so the
    # network has a junction, but not on the track
    theta = math.radians(theta_deg) * side
    vertex = PlanarPoint(-20.0 - bend_distance, 0.0)
    network = _network(
        {1: (vertex.x - 300.0 * math.cos(theta), -300.0 * math.sin(theta)),
         2: tuple(vertex), 3: (0.0, 0.0), 4: (200.0, 0.0), 5: (300.0, 0.0), 6: (200.0, -100.0)},
        [(10, [1, 2, 3, 4, 5], {"highway": "secondary", "name": "Mill Road"}),
         (11, [4, 6], {"highway": "secondary", "name": "Short Lane"})],
    )
    assert network.junctions
    spawn = _lane_point(vertex, theta, -behind)
    state = InitialState(spawn, canonical_heading(theta), 10.0,
                         locate_crash_point(network, spawn).road_id, 1)
    crash = PlanarPoint(0.0, 0.0)
    traj = generate_trajectory(state, locate_crash_point(network, crash), crash, network)
    assert classify_track(traj.track, network.junctions) is Maneuver.GOING_STRAIGHT


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 3), st.sampled_from([1, -1]), st.floats(20.0, 150.0),
       st.floats(25.0, 150.0))
def test_turn_at_junction_classifies_by_its_sign(quarter, sign, behind, ahead):
    # in the right-hand lane into the four-way junction, out on the arm a
    # quarter turn to the left (+1) or right (-1)
    network = _network(*cross_layout())
    center = PlanarPoint(0.0, 0.0)
    h_in = quarter * math.pi / 2
    h_out = h_in + sign * math.pi / 2
    spawn = _lane_point(center, h_in, -behind)
    crash = _lane_point(center, h_out, ahead)
    state = InitialState(spawn, canonical_heading(h_in), 8.9408,
                         locate_crash_point(network, spawn).road_id, 1)
    traj = generate_trajectory(state, locate_crash_point(network, crash), crash, network)
    expected = Maneuver.TURNING_LEFT if sign > 0 else Maneuver.TURNING_RIGHT
    assert classify_track(traj.track, network.junctions) is expected


_coordinate = st.floats(-40.0, 40.0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.floats(-math.pi, math.pi), st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=40),
       st.lists(st.tuples(_coordinate, _coordinate), max_size=3))
def test_quarter_turn_leaves_direction_unchanged(h0, turns, centers):
    headings = [h0]
    for d in turns:
        headings.append(wrap_angle(headings[-1] + d))
    track = _track_from_headings(headings, step=2.0)
    junctions = tuple(_junction_at(PlanarPoint(x, y)) for x, y in centers)
    turned_track = tuple((-y, x, wrap_angle(h + math.pi / 2)) for x, y, h in track)
    turned_junctions = tuple(j._replace(center=PlanarPoint(-j.center.y, j.center.x))
                             for j in junctions)
    assert classify_track(turned_track, turned_junctions) is classify_track(track, junctions)
