import math
import random

import pytest
from hypothesis import given, strategies as st

from crashtrace.errors import ContactTooFar
from crashtrace.estimator import InitialState, SceneSpec
from crashtrace.geometry import PlanarPoint, distance
from crashtrace.reports import CaseKey, Maneuver
from crashtrace.simulator import (
    Pose,
    VehicleBody,
    circular_clock_distance,
    detect_collision,
    impact_clock,
    overlap_margin,
    simulate,
    validate_reconstruction,
    validation_to_json,
    ValidationReport,
)
from crashtrace.trajectory import Trajectory, Waypoint

from readback import validation_from_json

BODY = VehicleBody()
BODIES = (BODY, BODY)
KEY = CaseKey(51, 101, 2023)


def _line_trajectory(vid, start, end, speed, n=60):
    pts = [
        PlanarPoint(start.x + (end.x - start.x) * k / n, start.y + (end.y - start.y) * k / n)
        for k in range(n + 1)
    ]
    heading = math.atan2(end.y - start.y, end.x - start.x)
    return Trajectory(vid, tuple(Waypoint(p, heading, speed) for p in pts))


def _scene(states):
    return SceneSpec(
        case_key=KEY,
        crash_point=PlanarPoint(0.0, 0.0),
        states=tuple(states),
        vehicle_ids=(1, 2),
        maneuvers=(Maneuver.GOING_STRAIGHT, Maneuver.GOING_STRAIGHT),
    )


def _head_on(speed=10.0, gap=100.0):
    half = gap / 2
    s1 = InitialState(PlanarPoint(-half, 0.0), 0.0, speed, 10, 1)
    s2 = InitialState(PlanarPoint(half, 0.0), math.pi, speed, 10, 1)
    t1 = _line_trajectory(1, s1.position, PlanarPoint(half, 0.0), speed)
    t2 = _line_trajectory(2, s2.position, PlanarPoint(-half, 0.0), speed)
    return _scene([s1, s2]), (t1, t2)


# --- replay ---


def test_head_on_collision_time_and_location():
    scene, trajectories = _head_on()
    outcome = simulate(scene, trajectories, (), BODIES, dt=0.05)
    assert outcome.collided
    expected_t = (100.0 - 4.5) / 20.0
    assert abs(outcome.record.time - expected_t) <= 0.05 + 1e-9
    assert distance(outcome.record.location, PlanarPoint(0.0, 0.0)) <= 0.5
    assert outcome.record.clocks == (12, 12)


def test_parallel_lanes_no_collision():
    s1 = InitialState(PlanarPoint(-50.0, 0.0), 0.0, 10.0, 10, 1)
    s2 = InitialState(PlanarPoint(50.0, 10.0), math.pi, 10.0, 10, 1)
    t1 = _line_trajectory(1, s1.position, PlanarPoint(50.0, 0.0), 10.0)
    t2 = _line_trajectory(2, s2.position, PlanarPoint(-50.0, 10.0), 10.0)
    outcome = simulate(_scene([s1, s2]), (t1, t2), (), BODIES)
    assert not outcome.collided
    assert outcome.record is None


def test_simulate_deterministic():
    scene, trajectories = _head_on()
    a = simulate(scene, trajectories, (), BODIES)
    b = simulate(scene, trajectories, (), BODIES)
    assert a == b


def test_timestep_robustness():
    scene, trajectories = _head_on()
    coarse = simulate(scene, trajectories, (), BODIES, dt=0.05)
    fine = simulate(scene, trajectories, (), BODIES, dt=0.025)
    assert abs(coarse.record.time - fine.record.time) <= 0.05 + 1e-9
    assert distance(coarse.record.location, fine.record.location) <= 10.0 * 0.05 + 1e-9


def test_vehicle_continues_past_final_waypoint():
    # crossing paths with a big timing gap: no contact, exhaust + grace ends
    s1 = InitialState(PlanarPoint(0.0, -25.0), math.pi / 2, 13.41, 10, 1)
    s2 = InitialState(PlanarPoint(-80.0, 0.0), 0.0, 13.41, 11, 1)
    t1 = _line_trajectory(1, s1.position, PlanarPoint(0.0, 0.0), 13.41)
    t2 = _line_trajectory(2, s2.position, PlanarPoint(0.0, 0.0), 13.41)
    outcome = simulate(_scene([s1, s2]), (t1, t2), (), BODIES)
    assert not outcome.collided
    # vehicle 1 kept moving north after its waypoints ran out
    final_y = outcome.paths[0][-1].position.y
    assert final_y > 50.0


def test_spawn_state_overrides_first_waypoint():
    scene, trajectories = _head_on()
    shifted = InitialState(PlanarPoint(-52.0, 0.0), 0.0, 10.0, 10, 1)
    scene2 = _scene([shifted, scene.states[1]])
    a = simulate(scene, trajectories, (), BODIES)
    b = simulate(scene2, trajectories, (), BODIES)
    assert a.record.time != b.record.time or a.record.location != b.record.location


# --- collision detection ---


def test_identical_poses_contact_at_center():
    pose = Pose(PlanarPoint(3.0, 4.0), 0.7)
    contact = detect_collision(pose, pose, BODIES)
    assert contact is not None
    assert distance(contact, pose.position) < 1e-9


def test_far_apart_no_contact():
    a = Pose(PlanarPoint(0.0, 0.0), 0.0)
    b = Pose(PlanarPoint(100.0, 0.0), 0.0)
    assert detect_collision(a, b, BODIES) is None


def test_small_overlap_detected():
    # nose-to-nose with 5 cm of overlap
    a = Pose(PlanarPoint(0.0, 0.0), 0.0)
    b = Pose(PlanarPoint(4.45, 0.0), math.pi)
    assert overlap_margin(a, b, BODIES) == pytest.approx(0.05, abs=1e-9)
    assert detect_collision(a, b, BODIES) is not None


def test_detect_collision_symmetric():
    rng = random.Random(99)
    for _ in range(200):
        a = Pose(PlanarPoint(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                 rng.uniform(-math.pi, math.pi))
        b = Pose(PlanarPoint(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                 rng.uniform(-math.pi, math.pi))
        ab = detect_collision(a, b, BODIES)
        ba = detect_collision(b, a, (BODY, BODY))
        if ab is None:
            assert ba is None
        else:
            assert distance(ab, ba) <= 1e-9


# --- impact clock ---


def test_clock_cardinal_directions():
    pose = Pose(PlanarPoint(0.0, 0.0), math.pi / 2)  # facing north
    assert impact_clock(pose, BODY, PlanarPoint(0.0, 2.0)) == 12   # dead ahead
    assert impact_clock(pose, BODY, PlanarPoint(1.2, 0.0)) == 3    # right door
    assert impact_clock(pose, BODY, PlanarPoint(0.0, -2.0)) == 6   # dead astern
    assert impact_clock(pose, BODY, PlanarPoint(-1.2, 0.0)) == 9   # left door


def test_clock_total_over_degree_sweep():
    pose = Pose(PlanarPoint(0.0, 0.0), 0.0)
    for beta in range(360):
        rad = math.radians(beta)
        contact = PlanarPoint(1.2 * math.cos(-rad), 1.2 * math.sin(-rad))
        clock = impact_clock(pose, BODY, contact)
        assert 1 <= clock <= 12


def test_clock_contact_too_far():
    pose = Pose(PlanarPoint(0.0, 0.0), 0.0)
    with pytest.raises(ContactTooFar):
        impact_clock(pose, BODY, PlanarPoint(10.0, 0.0))


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
def test_clock_distance_properties(a, b):
    d = circular_clock_distance(a, b)
    assert 0 <= d <= 6
    assert d == circular_clock_distance(b, a)
    assert circular_clock_distance(a, a) == 0


# --- scoring ---


def _outcome_with(clocks, location=PlanarPoint(3.0, 0.0)):
    from crashtrace.simulator import CollisionRecord, ReplayOutcome

    record = CollisionRecord(1.0, location, clocks)
    poses = (Pose(PlanarPoint(0.0, 0.0), 0.0),) * 2
    return ReplayOutcome(True, record, (poses, poses),
                         (Maneuver.GOING_STRAIGHT, Maneuver.GOING_STRAIGHT))


def _report_with(clocks, maneuvers=("Going Straight", "Going Straight")):
    from crashtrace.reports import RawCaseDocument, parse_report
    from corpus import report_xml, case_origin

    xml = report_xml(
        coords=case_origin(0),
        vehicles=[
            {"speed_mph": 30, "clock": clocks[0], "maneuver": maneuvers[0]},
            {"speed_mph": 30, "clock": clocks[1], "maneuver": maneuvers[1]},
        ],
    )
    return parse_report(RawCaseDocument(KEY, xml))


def test_validation_passes_within_thresholds():
    outcome = _outcome_with((12, 6))
    report = _report_with((1, 6))
    result = validate_reconstruction(outcome, report, PlanarPoint(0.0, 0.0))
    assert result.location_error == pytest.approx(3.0)
    assert result.clock_deviation == (1, 0)
    assert result.direction_match == (True, True)
    assert result.passed


def test_validation_fails_beyond_5m():
    outcome = _outcome_with((12, 6), location=PlanarPoint(7.0, 0.0))
    report = _report_with((12, 6))
    result = validate_reconstruction(outcome, report, PlanarPoint(0.0, 0.0))
    assert not result.passed


def test_validation_fails_opposite_clock():
    outcome = _outcome_with((12, 6))
    report = _report_with((6, 6))
    result = validate_reconstruction(outcome, report, PlanarPoint(0.0, 0.0))
    assert result.clock_deviation[0] == 6
    assert not result.passed


def test_validation_skips_unknown_clock():
    outcome = _outcome_with((12, 6))
    report = _report_with((None, 6))
    result = validate_reconstruction(outcome, report, PlanarPoint(0.0, 0.0))
    assert result.clock_deviation[0] is None
    assert result.passed


def test_validation_no_collision():
    from crashtrace.simulator import ReplayOutcome

    poses = (Pose(PlanarPoint(0.0, 0.0), 0.0),) * 2
    outcome = ReplayOutcome(False, None, (poses, poses),
                            (Maneuver.GOING_STRAIGHT, Maneuver.GOING_STRAIGHT))
    report = _report_with((12, 6))
    result = validate_reconstruction(outcome, report, PlanarPoint(0.0, 0.0))
    assert math.isinf(result.location_error)
    assert not result.passed


def test_validation_other_maneuver_matches_anything():
    outcome = _outcome_with((12, 6))
    report = _report_with((12, 6), maneuvers=("Skidding", "Going Straight"))
    result = validate_reconstruction(outcome, report, PlanarPoint(0.0, 0.0))
    assert result.direction_match == (True, True)


def test_validation_json_roundtrip():
    report = ValidationReport(3.25, (1, None), (True, True), True)
    text = validation_to_json(report)
    assert validation_from_json(text) == report
    no_hit = ValidationReport(math.inf, (None, None), (True, False), False)
    text2 = validation_to_json(no_hit)
    assert '"location_error_m": null' in text2
    assert validation_from_json(text2) == no_hit


# --- broad phase and single-lookup poses ---

REACH = math.hypot(BODY.length, BODY.width)  # two half-diagonals


def _agrees(a, b):
    return (detect_collision(a, b, BODIES) is None) == (overlap_margin(a, b, BODIES) < 0)


def test_broad_phase_keeps_separating_axis_verdict_near_reach():
    # half the pairs free, half with B's corner aimed near A's diagonal,
    # where rectangles still touch at a centre distance close to the reach
    rng = random.Random(2004)
    diagonal = math.atan2(BODY.width, BODY.length)
    hits = 0
    for k in range(20000):
        a = Pose(PlanarPoint(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                 rng.uniform(-math.pi, math.pi))
        if k % 2:
            bearing_ab = a.heading + diagonal + rng.uniform(-0.02, 0.02)
            heading_b = a.heading + math.pi + rng.uniform(-0.02, 0.02)
        else:
            bearing_ab = rng.uniform(-math.pi, math.pi)
            heading_b = rng.uniform(-math.pi, math.pi)
        d = REACH + rng.uniform(-0.1, 0.1)
        b = Pose(PlanarPoint(a.position.x + d * math.cos(bearing_ab),
                             a.position.y + d * math.sin(bearing_ab)), heading_b)
        assert _agrees(a, b), (a, b)
        hits += detect_collision(a, b, BODIES) is not None
    assert hits > 100


@pytest.mark.parametrize("flip", [0.0, math.pi])
def test_broad_phase_corner_to_corner_on_the_diagonal(flip):
    # B's corner points at A's corner along A's diagonal; at the reach they touch
    diagonal = math.atan2(BODY.width, BODY.length)
    for heading in (0.0, 0.3, -1.2, 2.5):
        a = Pose(PlanarPoint(1.0, -2.0), heading)
        direction = heading + diagonal
        for d, overlaps in ((REACH - 1e-4, True), (REACH, None), (REACH + 1e-4, False)):
            b = Pose(PlanarPoint(1.0 + d * math.cos(direction), -2.0 + d * math.sin(direction)),
                     heading + math.pi + flip)
            assert _agrees(a, b) and _agrees(b, a), (heading, d, flip)
            if overlaps is not None:
                assert (detect_collision(a, b, BODIES) is not None) == overlaps


@pytest.fixture(scope="module")
def corpus_trajectories(tmp_path_factory):
    import corpus
    from crashtrace.pipeline import PipelineConfig, parse_scenario, run_case

    root = tmp_path_factory.mktemp("sim_corpus")
    keys = corpus.write_good_corpus(root / "fixtures")
    config = PipelineConfig(offline=True, fixtures_dir=root / "fixtures", out_dir=root / "out",
                            parallelism=1)
    out = []
    for key in keys:
        outcome = run_case(key, config)
        assert outcome.package is not None
        text = (outcome.package.directory / "scenario.json").read_text(encoding="utf-8")
        out.append(parse_scenario(text))
    return out


def test_follower_pose_equals_point_and_tangent(corpus_trajectories):
    """The walk ``simulate`` uses places each pose up to the path's end as
    ``point_at`` and ``tangent_at`` do, at every k·dt."""
    from crashtrace.geometry import point_at, tangent_at
    from crashtrace.simulator import DEFAULT_DT_S, _PathFollower

    checked = 0
    for scene, trajectories in corpus_trajectories:
        for state, traj in zip(scene.states, trajectories):
            follower = _PathFollower(state.position, traj, state.speed)
            assert follower.exhaust_time > 0
            for dt in (DEFAULT_DT_S, follower.exhaust_time / 1000):
                for k, pose in enumerate(follower.walk(dt)):
                    s = follower.speed * (k * dt)
                    if s > follower.total:
                        break
                    expected = Pose(point_at(follower.points, s, follower.cum),
                                    tangent_at(follower.points, s, follower.cum))
                    assert _pose_bits(pose) == _pose_bits(expected), (scene.case_key, dt, k)
                    checked += 1
    assert checked > 9000


def _bisect_pose(follower, t):
    """Reference: the pose with one ``_segment_index`` binary search per call."""
    from crashtrace.geometry import _segment_index

    s = follower.speed * t
    if s <= follower.total:
        idx, u = _segment_index(follower.cum, s)
        a, b = follower.points[idx], follower.points[idx + 1]
        return Pose(PlanarPoint(a.x + u * (b.x - a.x), a.y + u * (b.y - a.y)),
                    follower.headings[idx])
    over = s - follower.total
    end = follower.points[-1]
    return Pose(
        PlanarPoint(end.x + over * math.cos(follower.end_heading),
                    end.y + over * math.sin(follower.end_heading)),
        follower.end_heading,
    )


def _pose_bits(pose):
    return pose.position.x.hex(), pose.position.y.hex(), pose.heading.hex()


@st.composite
def _followers(draw):
    from crashtrace.simulator import _PathFollower

    coord = st.one_of(st.integers(-20, 20).map(float), st.floats(-100.0, 100.0))
    pool = draw(st.lists(st.builds(PlanarPoint, coord, coord), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    waypoints = tuple(Waypoint(pool[i], 0.0, 0.0) for i in picks)
    speed = draw(st.one_of(st.just(0.0), st.floats(0.5, 40.0), st.integers(1, 8).map(float),
                           st.sampled_from([-3.0, math.inf, math.nan])))
    return _PathFollower(pool[picks[0]], Trajectory(1, waypoints), speed)


_dts = st.one_of(st.sampled_from([0.05, 0.5, 1.0]), st.floats(1e-3, 5.0))


@given(_followers(), _dts, st.integers(0, 80))
def test_cursor_pose_matches_bisect_pose_for_rising_t(follower, dt, steps):
    for k, pose in zip(range(steps + 1), follower.walk(dt)):
        assert _pose_bits(pose) == _pose_bits(_bisect_pose(follower, k * dt)), k


@given(_followers(), st.lists(_dts, min_size=1, max_size=4), st.data())
def test_cursor_pose_matches_bisect_pose_in_any_order(follower, dts, data):
    # walks of one follower share no state, however they interleave
    walks = [(dt, enumerate(follower.walk(dt))) for dt in dts]
    for i in data.draw(st.lists(st.integers(0, len(walks) - 1), max_size=120)):
        dt, walk = walks[i]
        k, pose = next(walk)
        assert _pose_bits(pose) == _pose_bits(_bisect_pose(follower, k * dt)), (dt, k)


def test_walk_onto_a_vertex_takes_the_next_segment():
    from crashtrace.simulator import _PathFollower

    # speed·k·dt is k metres, so the walk lands on every vertex exactly
    corners = (PlanarPoint(0.0, 0.0), PlanarPoint(3.0, 0.0), PlanarPoint(3.0, 4.0),
               PlanarPoint(-1.0, 4.0))
    follower = _PathFollower(corners[0], Trajectory(1, tuple(
        Waypoint(p, 0.0, 0.0) for p in corners)), 2.0)
    for k, pose in zip(range(14), follower.walk(0.5)):
        assert _pose_bits(pose) == _pose_bits(_bisect_pose(follower, k * 0.5)), k
