import math
import random
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from crashtrace.estimator import InitialState, SceneSpec
from crashtrace.geometry import PlanarPoint, distance
from crashtrace.reports import CaseKey, Maneuver
from crashtrace.simulator import (
    BODY_LENGTH_M,
    BODY_WIDTH_M,
    REACH_M,
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

KEY = CaseKey(51, 101, 2023)


def _line_trajectory(start, end, speed, n=60):
    pts = [
        PlanarPoint(start.x + (end.x - start.x) * k / n, start.y + (end.y - start.y) * k / n)
        for k in range(n + 1)
    ]
    heading = math.atan2(end.y - start.y, end.x - start.x)
    return Trajectory(tuple(Waypoint(p, heading, speed) for p in pts))


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
    t1 = _line_trajectory(s1.position, PlanarPoint(half, 0.0), speed)
    t2 = _line_trajectory(s2.position, PlanarPoint(-half, 0.0), speed)
    return _scene([s1, s2]), (t1, t2)


# --- replay ---


def test_head_on_collision_time_and_location():
    scene, trajectories = _head_on()
    outcome = simulate(scene, trajectories, (), dt=0.05)
    assert outcome.record is not None
    expected_t = (100.0 - 4.5) / 20.0
    assert abs(outcome.record.time - expected_t) <= 0.05 + 1e-9
    assert distance(outcome.record.location, PlanarPoint(0.0, 0.0)) <= 0.5
    assert outcome.record.clocks == (12, 12)


def test_parallel_lanes_no_collision():
    s1 = InitialState(PlanarPoint(-50.0, 0.0), 0.0, 10.0, 10, 1)
    s2 = InitialState(PlanarPoint(50.0, 10.0), math.pi, 10.0, 10, 1)
    t1 = _line_trajectory(s1.position, PlanarPoint(50.0, 0.0), 10.0)
    t2 = _line_trajectory(s2.position, PlanarPoint(-50.0, 10.0), 10.0)
    outcome = simulate(_scene([s1, s2]), (t1, t2), ())
    assert outcome.record is None


def test_simulate_deterministic():
    scene, trajectories = _head_on()
    a = simulate(scene, trajectories, ())
    b = simulate(scene, trajectories, ())
    assert a == b


def test_timestep_robustness():
    scene, trajectories = _head_on()
    coarse = simulate(scene, trajectories, (), dt=0.05)
    fine = simulate(scene, trajectories, (), dt=0.025)
    assert abs(coarse.record.time - fine.record.time) <= 0.05 + 1e-9
    assert distance(coarse.record.location, fine.record.location) <= 10.0 * 0.05 + 1e-9


def test_vehicle_continues_past_final_waypoint():
    # crossing paths with a big timing gap: no contact, exhaust + grace ends
    s1 = InitialState(PlanarPoint(0.0, -25.0), math.pi / 2, 13.41, 10, 1)
    s2 = InitialState(PlanarPoint(-80.0, 0.0), 0.0, 13.41, 11, 1)
    t1 = _line_trajectory(s1.position, PlanarPoint(0.0, 0.0), 13.41)
    t2 = _line_trajectory(s2.position, PlanarPoint(0.0, 0.0), 13.41)
    outcome = simulate(_scene([s1, s2]), (t1, t2), ())
    assert outcome.record is None
    # vehicle 1 kept moving north after its waypoints ran out
    final_y = outcome.paths[0][-1][1]
    assert final_y > 50.0


def _crossing(gap_s):
    """Two vehicles crossing at the origin, vehicle 2 ``gap_s`` seconds late."""
    s1 = InitialState(PlanarPoint(0.0, -25.0), math.pi / 2, 10.0, 10, 1)
    s2 = InitialState(PlanarPoint(-25.0 - 10.0 * gap_s, 0.0), 0.0, 10.0, 11, 1)
    t1 = _line_trajectory(s1.position, PlanarPoint(0.0, 0.0), 10.0)
    t2 = _line_trajectory(s2.position, PlanarPoint(0.0, 0.0), 10.0)
    return _scene([s1, s2]), (t1, t2)


@pytest.mark.parametrize("gap_s", [0.0, 6.0])
def test_paths_hold_every_walk_step_up_to_contact(gap_s):
    # simulator.steps in the benchmark is len(paths[0]): the steps replayed,
    # the contact step included
    from crashtrace.simulator import DEFAULT_DT_S, GRACE_PERIOD_S, _PathFollower

    scene, trajectories = _crossing(gap_s)
    outcome = simulate(scene, trajectories, ())
    followers = [_PathFollower(state.position, traj, state.speed)
                 for state, traj in zip(scene.states, trajectories)]
    if outcome.record is not None:
        replayed = round(outcome.record.time / DEFAULT_DT_S) + 1
        assert outcome.record.time == (replayed - 1) * DEFAULT_DT_S
    else:
        t_end = max(f.exhaust_time for f in followers) + GRACE_PERIOD_S
        replayed = math.floor(t_end / DEFAULT_DT_S + 1e-9) + 1
    assert (outcome.record is not None) is (gap_s == 0.0)
    for path, follower in zip(outcome.paths, followers):
        assert len(path) == replayed
        walked = islice(follower.walk(DEFAULT_DT_S), len(path))
        assert [_step_bits(step) for step in path] == [_step_bits(step) for step in walked]


def test_spawn_state_overrides_first_waypoint():
    scene, trajectories = _head_on()
    shifted = InitialState(PlanarPoint(-52.0, 0.0), 0.0, 10.0, 10, 1)
    scene2 = _scene([shifted, scene.states[1]])
    a = simulate(scene, trajectories, ())
    b = simulate(scene2, trajectories, ())
    assert a.record.time != b.record.time or a.record.location != b.record.location


# --- collision detection ---


def test_identical_poses_contact_at_center():
    step = (3.0, 4.0, 0.7)
    contact = detect_collision(step, step)
    assert contact is not None
    assert distance(contact, PlanarPoint(3.0, 4.0)) < 1e-9


def test_far_apart_no_contact():
    assert detect_collision((0.0, 0.0, 0.0), (100.0, 0.0, 0.0)) is None


def test_small_overlap_detected():
    # nose-to-nose with 5 cm of overlap
    a = (0.0, 0.0, 0.0)
    b = (4.45, 0.0, math.pi)
    assert overlap_margin(a, b) == pytest.approx(0.05, abs=1e-9)
    assert detect_collision(a, b) is not None


def test_detect_collision_symmetric():
    rng = random.Random(99)
    for _ in range(200):
        a = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
        b = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
        ab = detect_collision(a, b)
        ba = detect_collision(b, a)
        if ab is None:
            assert ba is None
        else:
            assert distance(ab, ba) <= 1e-9


# --- impact clock ---


# the other vehicle's centre, beyond any inflated body at the origin and in
# no cardinal direction: a contact on the body must not read it
ELSEWHERE = (40.0, -30.0, 0.0)


def test_clock_cardinal_directions():
    step = (0.0, 0.0, math.pi / 2)  # facing north
    assert impact_clock(step, (0.0, 2.0), ELSEWHERE) == 12   # dead ahead
    assert impact_clock(step, (1.2, 0.0), ELSEWHERE) == 3    # right door
    assert impact_clock(step, (0.0, -2.0), ELSEWHERE) == 6   # dead astern
    assert impact_clock(step, (-1.2, 0.0), ELSEWHERE) == 9   # left door


def test_clock_total_over_degree_sweep():
    step = (0.0, 0.0, 0.0)
    for beta in range(360):
        rad = math.radians(beta)
        contact = (1.2 * math.cos(-rad), 1.2 * math.sin(-rad))
        clock = impact_clock(step, contact, ELSEWHERE)
        assert 1 <= clock <= 12


def test_clock_beyond_inflated_body_reads_toward_other_centre():
    step = (0.0, 0.0, 0.0)  # facing east
    # 2.75 m ahead is on the body inflated by 0.5 m; 2.76 m is beyond it
    assert impact_clock(step, (2.75, 0.0), (0.0, -5.0, 0.0)) == 12
    assert impact_clock(step, (2.76, 0.0), (0.0, -5.0, 0.0)) == 3    # other to the right
    assert impact_clock(step, (10.0, 0.0), (0.0, 5.0, 1.0)) == 9     # other to the left
    assert impact_clock(step, (0.0, -1.46), (-7.0, 0.0, 0.0)) == 6   # beside, past 0.95 + 0.5


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
    steps = ((0.0, 0.0, 0.0),) * 2
    return ReplayOutcome(record, (steps, steps),
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

    steps = ((0.0, 0.0, 0.0),) * 2
    outcome = ReplayOutcome(None, (steps, steps),
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

REACH = math.hypot(BODY_LENGTH_M, BODY_WIDTH_M)  # two half-diagonals


def _beyond_reach(a, b):
    """The broad-phase test ``simulate`` runs before the narrow phase."""
    return math.hypot(b[0] - a[0], b[1] - a[1]) > REACH_M


def _agrees(a, b):
    # a pair the broad phase skips must be one the separating axes separate
    return not _beyond_reach(a, b) or overlap_margin(a, b) < 0


def test_broad_phase_keeps_separating_axis_verdict_near_reach():
    # half the pairs free, half with B's corner aimed near A's diagonal,
    # where rectangles still touch at a centre distance close to the reach
    rng = random.Random(2004)
    diagonal = math.atan2(BODY_WIDTH_M, BODY_LENGTH_M)
    hits = skipped = 0
    for k in range(20000):
        a = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
        if k % 2:
            bearing_ab = a[2] + diagonal + rng.uniform(-0.02, 0.02)
            heading_b = a[2] + math.pi + rng.uniform(-0.02, 0.02)
        else:
            bearing_ab = rng.uniform(-math.pi, math.pi)
            heading_b = rng.uniform(-math.pi, math.pi)
        d = REACH + rng.uniform(-0.1, 0.1)
        b = (a[0] + d * math.cos(bearing_ab), a[1] + d * math.sin(bearing_ab), heading_b)
        assert _agrees(a, b), (a, b)
        hits += detect_collision(a, b) is not None
        skipped += _beyond_reach(a, b)
    assert hits > 100
    assert skipped > 5000


@pytest.mark.parametrize("flip", [0.0, math.pi])
def test_broad_phase_corner_to_corner_on_the_diagonal(flip):
    # B's corner points at A's corner along A's diagonal; at the reach they touch
    diagonal = math.atan2(BODY_WIDTH_M, BODY_LENGTH_M)
    for heading in (0.0, 0.3, -1.2, 2.5):
        a = (1.0, -2.0, heading)
        direction = heading + diagonal
        for d, overlaps in ((REACH - 1e-4, True), (REACH, None), (REACH + 1e-4, False)):
            b = (1.0 + d * math.cos(direction), -2.0 + d * math.sin(direction),
                 heading + math.pi + flip)
            assert _agrees(a, b) and _agrees(b, a), (heading, d, flip)
            assert _beyond_reach(a, b) is (overlaps is False)
            if overlaps is not None:
                assert (detect_collision(a, b) is not None) == overlaps


def _in_body(point, step, inflate):
    """``point`` within the body at ``step``, each half-extent grown by ``inflate``."""
    x, y, heading = step
    dx, dy = point[0] - x, point[1] - y
    along = dx * math.cos(heading) + dy * math.sin(heading)
    across = -dx * math.sin(heading) + dy * math.cos(heading)
    return (abs(along) <= BODY_LENGTH_M / 2 + inflate
            and abs(across) <= BODY_WIDTH_M / 2 + inflate)


def _body_corners(step):
    x, y, heading = step
    return [(x + along * math.cos(heading) - across * math.sin(heading),
             y + along * math.sin(heading) + across * math.cos(heading))
            for along in (BODY_LENGTH_M / 2, -BODY_LENGTH_M / 2)
            for across in (BODY_WIDTH_M / 2, -BODY_WIDTH_M / 2)]


def test_corner_contact_lies_within_both_inflated_bodies():
    # when some corner lies inside the other body (by 1 µm, clear of boundary
    # ties), the contact is on both bodies inflated by 0.5 m, so the clock's
    # fallback to the other centre serves only overlaps with no corner inside
    rng = random.Random(2024)
    checked = 0
    for k in range(4000):
        scale = 3.0 if k % 2 else REACH  # half the pairs spread out to the reach
        a = (rng.uniform(-scale, scale), rng.uniform(-scale, scale),
             rng.uniform(-math.pi, math.pi))
        b = (rng.uniform(-scale, scale), rng.uniform(-scale, scale),
             rng.uniform(-math.pi, math.pi))
        if not (any(_in_body(p, b, -1e-6) for p in _body_corners(a))
                or any(_in_body(p, a, -1e-6) for p in _body_corners(b))):
            continue
        contact = detect_collision(a, b)
        assert contact is not None, (a, b)
        assert _in_body(contact, a, 0.5) and _in_body(contact, b, 0.5), (a, b, contact)
        assert impact_clock(a, contact, ELSEWHERE) == impact_clock(a, contact, b)
        assert impact_clock(b, contact, ELSEWHERE) == impact_clock(b, contact, a)
        checked += 1
    assert checked > 1000


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
    """The walk ``simulate`` uses places each step up to the path's end as
    ``point_at`` and ``tangent_at`` do, at every k·dt."""
    from crashtrace.geometry import point_at, tangent_at
    from crashtrace.simulator import DEFAULT_DT_S, _PathFollower

    checked = 0
    for scene, trajectories in corpus_trajectories:
        for state, traj in zip(scene.states, trajectories):
            follower = _PathFollower(state.position, traj, state.speed)
            assert follower.exhaust_time > 0
            for dt in (DEFAULT_DT_S, follower.exhaust_time / 1000):
                for k, step in enumerate(follower.walk(dt)):
                    s = follower.speed * (k * dt)
                    if s > follower.total:
                        break
                    expected = (*point_at(follower.points, s, follower.cum),
                                tangent_at(follower.points, s, follower.cum))
                    assert _step_bits(step) == _step_bits(expected), (scene.case_key, dt, k)
                    checked += 1
    assert checked > 9000


def _bisect_step(follower, t):
    """Reference: the step with one ``_segment_index`` binary search per call."""
    from crashtrace.geometry import _segment_index

    s = follower.speed * t
    if s <= follower.total:
        idx, u = _segment_index(follower.cum, s)
        a, b = follower.points[idx], follower.points[idx + 1]
        return a.x + u * (b.x - a.x), a.y + u * (b.y - a.y), follower.headings[idx]
    over = s - follower.total
    end = follower.points[-1]
    return (end.x + over * math.cos(follower.end_heading),
            end.y + over * math.sin(follower.end_heading),
            follower.end_heading)


def _step_bits(step):
    return tuple(v.hex() for v in step)


@st.composite
def _followers(draw):
    from crashtrace.simulator import _PathFollower

    coord = st.one_of(st.integers(-20, 20).map(float), st.floats(-100.0, 100.0))
    pool = draw(st.lists(st.builds(PlanarPoint, coord, coord), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    waypoints = tuple(Waypoint(pool[i], 0.0, 0.0) for i in picks)
    speed = draw(st.one_of(st.just(0.0), st.floats(0.5, 40.0), st.integers(1, 8).map(float),
                           st.sampled_from([-3.0, math.inf, math.nan])))
    return _PathFollower(pool[picks[0]], Trajectory(waypoints), speed)


_dts = st.one_of(st.sampled_from([0.05, 0.5, 1.0]), st.floats(1e-3, 5.0))


@given(_followers(), _dts, st.integers(0, 80))
def test_cursor_pose_matches_bisect_pose_for_rising_t(follower, dt, steps):
    for k, step in zip(range(steps + 1), follower.walk(dt)):
        assert _step_bits(step) == _step_bits(_bisect_step(follower, k * dt)), k


@given(_followers(), st.lists(_dts, min_size=1, max_size=4), st.data())
def test_cursor_pose_matches_bisect_pose_in_any_order(follower, dts, data):
    # walks of one follower share no state, however they interleave
    walks = [(dt, enumerate(follower.walk(dt))) for dt in dts]
    for i in data.draw(st.lists(st.integers(0, len(walks) - 1), max_size=120)):
        dt, walk = walks[i]
        k, step = next(walk)
        assert _step_bits(step) == _step_bits(_bisect_step(follower, k * dt)), (dt, k)


def test_walk_onto_a_vertex_takes_the_next_segment():
    from crashtrace.simulator import _PathFollower

    # speed·k·dt is k metres, so the walk lands on every vertex exactly
    corners = (PlanarPoint(0.0, 0.0), PlanarPoint(3.0, 0.0), PlanarPoint(3.0, 4.0),
               PlanarPoint(-1.0, 4.0))
    follower = _PathFollower(corners[0], Trajectory(tuple(
        Waypoint(p, 0.0, 0.0) for p in corners)), 2.0)
    for k, step in zip(range(14), follower.walk(0.5)):
        assert _step_bits(step) == _step_bits(_bisect_step(follower, k * 0.5)), k
