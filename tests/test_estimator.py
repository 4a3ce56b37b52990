import json
import math

import pytest

from crashtrace.errors import EndpointError, EstimationFailed, UnparseableResponse
from crashtrace.estimator import (
    CRASH_JUNCTION_REACH_M,
    EstimationSettings,
    InitialState,
    build_prompt,
    candidate_regions,
    estimate_with_feedback,
    heuristic_estimate,
    http_transport,
    llm_estimate,
    validate_states,
    _junction_for_crash,
)
from crashtrace.geometry import PlanarPoint, distance
from crashtrace.osm import parse_osm
from crashtrace.pipeline import parse_scenario, scenario_document
from crashtrace.reports import CaseKey, RawCaseDocument, parse_report
from crashtrace.roadnet import (
    Junction, RoadNetwork, build_road_network, locate_crash_point, unify_lanes)
from crashtrace.trajectory import Trajectory, classify_track

from corpus import case_origin, cross_layout, osm_xml, report_xml, straight_road_layout
from local_http import closed_port_url, http_endpoint

ORIGIN = case_origin(0)
KEY = CaseKey(51, 101, 2023)
CRASH = PlanarPoint(0.0, 0.0)


def _network(nodes, ways):
    graph = parse_osm(osm_xml(ORIGIN, nodes, ways))
    return unify_lanes(build_road_network(graph, ORIGIN))


def _report(**kwargs):
    kwargs.setdefault("coords", ORIGIN)
    return parse_report(RawCaseDocument(KEY, report_xml(**kwargs)))


def _setup(kind="ftf"):
    if kind == "ftf":
        network = _network(*straight_road_layout())
        report = _report()
    elif kind == "cross":
        network = _network(*cross_layout())
        report = _report(
            collision="Angle",
            topology="Four-Way Intersection",
            relation="Intersecting Paths",
        )
    elif kind == "ftr":
        network = _network(*straight_road_layout())
        report = _report(
            collision="Front-to-Rear",
            relation="Same Trafficway, Same Direction",
            vehicles=[
                {"speed_mph": 45, "clock": 12, "maneuver": "Going Straight"},
                {"speed_mph": 11, "clock": 6, "maneuver": "Going Straight"},
            ],
        )
    else:
        raise ValueError(kind)
    crash = locate_crash_point(network, CRASH)
    region = candidate_regions(network, report, crash)
    return network, report, crash, region


# --- candidate regions ---


def test_regions_opposite_direction_on_crash_road():
    network, report, crash, region = _setup("ftf")
    (a1,), (a2,) = region.vehicle_approaches
    assert a1.road_id == a2.road_id == crash.road_id
    assert a1.direction == 1 and a2.direction == -1


def test_regions_four_way_has_all_approaches():
    network, report, crash, region = _setup("cross")
    assert len(region.vehicle_approaches[0]) == 4
    assert {a.road_id for a in region.vehicle_approaches[0]} == {10, 11, 12, 13}


def test_regions_clip_to_road_extent():
    network = _network(*straight_road_layout(length=100.0))  # 50 m on each side
    report = _report()
    crash = locate_crash_point(network, CRASH)
    region = candidate_regions(network, report, crash)
    for approaches in region.vehicle_approaches:
        for a in approaches:
            lo, hi = a.interval
            assert 0.0 <= lo <= hi <= network.road(a.road_id).length + 1e-9


def test_regions_no_candidates_for_point_road():
    # under a meter of room on either side of the crash
    network = _network({1: (-0.75, 0.0), 2: (0.75, 0.0)},
                       [(10, [1, 2], {"highway": "residential"})])
    report = _report()
    crash = locate_crash_point(network, CRASH)
    with pytest.raises(EstimationFailed, match="no admissible approach"):
        candidate_regions(network, report, crash)


def _crash_junction(centres, crash):
    """The id of the crash junction among junctions at ``centres`` (ids 0, 1, ...)."""
    junctions = tuple(Junction(i, i, c, ()) for i, c in enumerate(centres))
    junction = _junction_for_crash(RoadNetwork(ORIGIN, (), junctions, {}), crash)
    return None if junction is None else junction.junction_id


@pytest.mark.parametrize("turn_deg", [0.0, 11.25, 90.0, 101.25])
def test_crash_junction_does_not_turn_with_the_scene(turn_deg):
    # The crash lies 3.49 m from J0 and 3.45 m from J1, inside the 3.5 m
    # circumradius of both drawn 16-gons but outside the 3.433 m inradius of
    # one of them, which one depending on the turn. The nearer node wins.
    toward_j1 = math.radians(11.25)
    crash = PlanarPoint(3.49, 0.0)
    j1 = PlanarPoint(crash.x + 3.45 * math.cos(toward_j1), crash.y + 3.45 * math.sin(toward_j1))
    c, s = math.cos(math.radians(turn_deg)), math.sin(math.radians(turn_deg))

    def turned(p):
        return PlanarPoint(p.x * c - p.y * s, p.x * s + p.y * c)

    assert _crash_junction([turned(PlanarPoint(0.0, 0.0)), turned(j1)], turned(crash)) == 1


def test_crash_junction_within_reach_only():
    reach = CRASH_JUNCTION_REACH_M
    assert _crash_junction([PlanarPoint(reach, 0.0)], CRASH) == 0
    assert _crash_junction([PlanarPoint(math.nextafter(reach, math.inf), 0.0)], CRASH) is None
    assert _crash_junction([], CRASH) is None


def test_crash_junction_tie_goes_to_the_lower_id():
    junctions = (Junction(1, 1, PlanarPoint(5.0, 0.0), ()),
                 Junction(0, 0, PlanarPoint(-5.0, 0.0), ()))
    assert _junction_for_crash(RoadNetwork(ORIGIN, (), junctions, {}), CRASH).junction_id == 0


# --- deterministic estimator ---


def test_heuristic_backward_distance_and_right_lanes():
    network, report, crash, region = _setup("ftf")
    s1, s2 = heuristic_estimate(region, report, network)
    d = 13.4112 * 6.0
    assert distance(s1.position, CRASH) == pytest.approx(d, abs=0.1)
    assert distance(s2.position, CRASH) == pytest.approx(d, abs=0.1)
    # opposite headings, each on its own right-hand side
    assert abs(math.degrees(s1.heading)) < 5
    assert abs(abs(math.degrees(s2.heading)) - 180) < 5
    assert s1.position.y < 0 < s2.position.y
    assert s1.lane_index == 1 and s2.lane_index == 1


def test_heuristic_default_speed_for_unknown():
    network = _network(*straight_road_layout())
    report = _report(vehicles=[
        {"speed_mph": None, "clock": 12, "maneuver": "Going Straight"},
        {"speed_mph": 30, "clock": 12, "maneuver": "Going Straight"},
    ])
    crash = locate_crash_point(network, CRASH)
    region = candidate_regions(network, report, crash)
    s1, _ = heuristic_estimate(region, report, network)
    assert distance(s1.position, CRASH) == pytest.approx(13.41 * 6.0, abs=0.1)
    assert s1.speed == 13.41


def test_heuristic_clips_to_short_road():
    network = _network(*straight_road_layout(length=80.0))  # 40 m per side
    report = _report()
    crash = locate_crash_point(network, CRASH)
    region = candidate_regions(network, report, crash)
    s1, s2 = heuristic_estimate(region, report, network)
    assert distance(s1.position, CRASH) == pytest.approx(40.0, abs=0.1)
    assert distance(s2.position, CRASH) == pytest.approx(40.0, abs=0.1)


def test_heuristic_crossing_assignment_at_four_way():
    network, report, crash, region = _setup("cross")
    s1, s2 = heuristic_estimate(region, report, network)
    assert s1.road_id == 10  # south arm, northbound
    assert s2.road_id == 12  # west arm, eastbound
    assert s1.position.y < -5 and abs(s1.position.x) < 5
    assert s2.position.x < -5 and abs(s2.position.y) < 5


def test_heuristic_deterministic_bitwise():
    network, report, crash, region = _setup("cross")
    a = heuristic_estimate(region, report, network)
    b = heuristic_estimate(region, report, network)
    assert a == b


def test_heuristic_same_direction_same_lane():
    network, report, crash, region = _setup("ftr")
    s1, s2 = heuristic_estimate(region, report, network)
    assert s1.position.y == pytest.approx(s2.position.y, abs=1e-6)
    assert distance(s1.position, CRASH) > distance(s2.position, CRASH)


# --- analytical checks ---


def test_validate_accepts_heuristic_output():
    network, report, crash, region = _setup("ftf")
    states = heuristic_estimate(region, report, network)
    assert validate_states(states, network, report, region)[0] == []


def test_validate_flags_offroad_position():
    network, report, crash, region = _setup("ftf")
    s1, s2 = heuristic_estimate(region, report, network)
    bad = InitialState(PlanarPoint(s1.position.x, s1.position.y - 10.0),
                       s1.heading, s1.speed, s1.road_id, s1.lane_index)
    violations, _ = validate_states((bad, s2), network, report, region)
    assert any("position outside road boundary" in v for v in violations)


def test_validate_flags_reversed_heading():
    network, report, crash, region = _setup("ftf")
    s1, s2 = heuristic_estimate(region, report, network)
    bad = InitialState(s1.position, s1.heading + math.pi, s1.speed,
                       s1.road_id, s1.lane_index)
    violations, _ = validate_states((bad, s2), network, report, region)
    assert any("orientation misaligned" in v for v in violations)


@pytest.mark.parametrize("road_offset, lane_index, violation", [
    (99, 1, "vehicle 1: unknown road {road}"),
    (0, 0, "vehicle 1: lane index 0 not on road"),
    (0, 3, "vehicle 1: lane index 3 not on road"),  # the road has one lane each way
])
def test_validate_rejects_a_placement_off_the_lanes(road_offset, lane_index, violation):
    network, report, crash, region = _setup("ftf")
    s1, s2 = heuristic_estimate(region, report, network)
    bad = InitialState(s1.position, s1.heading, s1.speed, s1.road_id + road_offset, lane_index)
    violations, trajectories = validate_states((bad, s2), network, report, region)
    assert violations == [violation.format(road=s1.road_id + road_offset)]
    # only the vehicle placed in a lane gets a trajectory
    assert trajectories == validate_states((s1, s2), network, report, region)[1][1:]


def test_validate_wrong_way_lane_is_legal():
    # wrong-way travel is encoded by a negative lane index, not a violation
    network, report, crash, region = _setup("ftf")
    road = network.road(crash.road_id)
    state = InitialState(PlanarPoint(-50.0, -1.75), math.pi, 10.0, road.road_id, -1)
    s1, s2 = heuristic_estimate(region, report, network)
    violations, _ = validate_states((state, s2), network, report, region)
    assert not any("orientation" in v for v in violations)


def test_validate_turning_consistency():
    network = _setup("cross")[0]
    report = _report(
        topology="Four-Way Intersection",
        relation="Changing Trafficway, Vehicle Turning",
        vehicles=[
            {"speed_mph": 20, "clock": 12, "maneuver": "Turning Left"},
            {"speed_mph": 20, "clock": 12, "maneuver": "Going Straight"},
        ],
    )
    # eastbound on the west arm; the crash sits on the north arm: a left turn
    crash = locate_crash_point(network, PlanarPoint(0.0, 40.0))
    region = candidate_regions(network, report, crash)
    v1 = InitialState(PlanarPoint(-60.0, -1.75), 0.0, 8.9408, 12, 1)
    v2 = InitialState(PlanarPoint(-1.75, 120.0), -math.pi / 2, 8.9408, 11, 1)
    assert validate_states((v1, v2), network, report, region)[0] == []

    right_report = _report(
        topology="Four-Way Intersection",
        relation="Changing Trafficway, Vehicle Turning",
        vehicles=[
            {"speed_mph": 20, "clock": 12, "maneuver": "Turning Right"},
            {"speed_mph": 20, "clock": 12, "maneuver": "Going Straight"},
        ],
    )
    violations, _ = validate_states((v1, v2), network, right_report, region)
    assert any("maneuver inconsistent" in v for v in violations)


@pytest.mark.parametrize("maneuver", ["Turning Left", "Turning Right"])
def test_heuristic_picks_an_approach_that_turns_the_reported_way(maneuver):
    # the crash lies on the north arm, 20 m from the junction centre: the west
    # arm turns left into it, the east arm right
    network = _setup("cross")[0]
    report = _report(
        topology="Four-Way Intersection",
        relation="Changing Trafficway, Vehicle Turning",
        vehicles=[{"speed_mph": 20, "clock": 12, "maneuver": maneuver},
                  {"speed_mph": 20, "clock": 12, "maneuver": "Going Straight"}],
    )
    region = candidate_regions(network, report, locate_crash_point(network, PlanarPoint(0.0, 20.0)))
    states = heuristic_estimate(region, report, network)
    violations, (planned, _) = validate_states(states, network, report, region)
    assert not any(v.startswith("vehicle 1") for v in violations)
    assert classify_track(planned.track, network.junctions).value == \
        maneuver.lower().replace(" ", "_")


# --- external estimator ---


def _echo_transport(states, report):
    payload = {
        "vehicles": [
            {
                "id": record.vehicle_id,
                "road_id": s.road_id,
                "lane_index": s.lane_index,
                "x": s.position.x,
                "y": s.position.y,
                "heading_deg": round(math.degrees(s.heading), 9),
            }
            for record, s in zip(report.vehicles, states)
        ]
    }

    def transport(prompt):
        return "Here is the placement:\n" + json.dumps(payload)

    return transport


def test_llm_estimate_parses_valid_mock():
    network, report, crash, region = _setup("ftf")
    states = heuristic_estimate(region, report, network)
    settings = EstimationSettings(llm_transport=_echo_transport(states, report))
    parsed = llm_estimate(report, region, [], settings)
    assert parsed == states


def test_llm_estimate_unparseable():
    network, report, crash, region = _setup("ftf")
    states = heuristic_estimate(region, report, network)
    entries = json.loads(_echo_transport(states, report)("").partition("\n")[2])["vehicles"]
    without_road = [{k: v for k, v in entries[0].items() if k != "road_id"}, entries[1]]
    replies = [
        "no json here",
        json.dumps({"vehicles": {"1": entries[0], "2": entries[1]}}),
        json.dumps({"vehicles": entries[:1]}),
        json.dumps({"vehicles": without_road}),
        json.dumps({"vehicles": [{**entries[0], "x": "west"}, entries[1]]}),
        json.dumps({"vehicles": ["vehicle 1", entries[1]]}),
    ]
    for reply in replies:
        settings = EstimationSettings(llm_transport=lambda prompt, reply=reply: reply)
        with pytest.raises(UnparseableResponse):
            llm_estimate(report, region, [], settings)


def test_llm_default_transport_posts_prompt():
    network, report, crash, region = _setup("ftf")
    states = heuristic_estimate(region, report, network)
    reply = _echo_transport(states, report)("").encode("utf-8")
    with http_endpoint(lambda path: (200, reply, "text/plain")) as (base, received):
        settings = EstimationSettings(llm_transport=http_transport(base + "/v1"))
        assert llm_estimate(report, region, [], settings) == states
    method, path, headers, body = received[0]
    assert (method, path) == ("POST", "/v1")
    assert headers["Content-Type"] == "text/plain"
    assert body.decode("utf-8") == build_prompt(report, region, [], settings)


def test_llm_default_transport_failures_are_endpoint_errors():
    network, report, crash, region = _setup("ftf")
    for status in (404, 503):
        with http_endpoint(lambda path: (status, b"busy", "text/plain")) as (base, _):
            settings = EstimationSettings(llm_transport=http_transport(base))
            with pytest.raises(EndpointError):
                llm_estimate(report, region, [], settings)
    settings = EstimationSettings(llm_transport=http_transport(closed_port_url()))
    with pytest.raises(EndpointError):
        llm_estimate(report, region, [], settings)


def test_prompt_contains_directives_and_violations():
    network, report, crash, region = _setup("ftf")
    settings = EstimationSettings()
    prompt = build_prompt(report, region, [], settings)
    assert "backward trajectory" in prompt
    assert "right-hand traffic" in prompt
    assert "road" in prompt and "s in [" in prompt
    retry = build_prompt(
        report, region,
        ["vehicle 1: position outside road boundary (lateral error 9.99 m on road 10)"],
        settings,
    )
    assert "vehicle 1: position outside road boundary (lateral error 9.99 m on road 10)" in retry


# --- feedback loop ---


def test_feedback_valid_first_attempt():
    network, report, crash, region = _setup("ftf")
    scene, trace, _ = estimate_with_feedback(report, network, region)
    assert trace.attempt_count == 1
    assert validate_states(scene.states, network, report, region)[0] == []
    assert scene.case_key == KEY


def test_feedback_heuristic_snap_rescues_placement_at_bend():
    # vehicle 2 spawns 0.1 m before a 45 deg right bend, 20 m behind the
    # crash; its lane-centre point lies nearer the next segment, so its
    # heading is 45 deg off that segment's tangent until the snap re-derives it
    diag = 200.0 / math.sqrt(2.0)
    nodes = {1: (-20.0 - diag, -diag), 2: (-20.0, 0.0), 3: (0.0, 0.0), 4: (200.0, 0.0)}
    network = _network(nodes, [(10, [1, 2, 3, 4], {"highway": "secondary"})])
    report = _report(collision="Front-to-Rear", relation="Same Trafficway, Same Direction",
                     vehicles=[{"speed_mph": 30, "clock": 12, "maneuver": "Going Straight"},
                               {"speed_mph": 7.5, "clock": 6, "maneuver": "Going Straight"}])
    crash = locate_crash_point(network, CRASH)
    region = candidate_regions(network, report, crash)
    scene, trace, _ = estimate_with_feedback(report, network, region)
    assert trace.attempt_count == 2
    assert trace.attempts[0][1] == ("vehicle 2: orientation misaligned "
                                    "(45.0 deg off the lane tangent)",)
    assert scene.states[1].heading == 0.0
    assert validate_states(scene.states, network, report, region)[0] == []


def test_feedback_heuristic_makes_no_second_attempt_for_a_direction():
    # a left turn with the crash at the junction centre: the plan ends there
    # before it turns, and clipping the placed states onto their lanes cannot
    # change which way it goes
    network = _setup("cross")[0]
    report = _report(collision="Angle", topology="Four-Way Intersection",
                     relation="Changing Trafficway, Vehicle Turning",
                     vehicles=[{"speed_mph": 20, "clock": 12, "maneuver": "Turning Left"},
                               {"speed_mph": 20, "clock": 3, "maneuver": "Going Straight"}])
    region = candidate_regions(network, report, locate_crash_point(network, CRASH))
    with pytest.raises(EstimationFailed) as failed:
        estimate_with_feedback(report, network, region)
    assert failed.value.trace.attempt_count == 1
    assert failed.value.trace.attempts[0][1] == (
        "vehicle 1: maneuver inconsistent: the planned path is going_straight, "
        "not turning_left",)


def test_feedback_second_attempt_valid():
    network, report, crash, region = _setup("ftf")
    good = heuristic_estimate(region, report, network)
    bad_payload = json.dumps({
        "vehicles": [
            {"id": 1, "road_id": 10, "lane_index": 1, "x": 0.0, "y": 500.0,
             "heading_deg": 0.0},
            {"id": 2, "road_id": 10, "lane_index": 1, "x": 80.0, "y": 1.75,
             "heading_deg": 180.0},
        ]
    })
    responses = [bad_payload, _echo_transport(good, report)("")]
    calls = []

    def transport(prompt):
        calls.append(prompt)
        return responses[len(calls) - 1]

    settings = EstimationSettings(llm_transport=transport, max_retries=3)
    scene, trace, _ = estimate_with_feedback(report, network, region, settings)
    assert trace.attempt_count == 2
    assert len(trace.attempts[0][1]) > 0  # first attempt carries violations
    assert trace.attempts[0][1][0] in calls[1]  # fed back verbatim


def test_feedback_exhausts_retries():
    network, report, crash, region = _setup("ftf")
    bad_payload = json.dumps({
        "vehicles": [
            {"id": 1, "road_id": 10, "lane_index": 1, "x": 0.0, "y": 500.0,
             "heading_deg": 0.0},
            {"id": 2, "road_id": 10, "lane_index": 1, "x": 80.0, "y": 1.75,
             "heading_deg": 180.0},
        ]
    })
    settings = EstimationSettings(llm_transport=lambda p: bad_payload,
                                  max_retries=3)
    with pytest.raises(EstimationFailed) as excinfo:
        estimate_with_feedback(report, network, region, settings)
    trace = excinfo.value.trace
    assert trace.attempt_count == 4
    assert all(len(violations) > 0 for _, violations in trace.attempts)


def test_feedback_unparseable_counts_as_attempt():
    network, report, crash, region = _setup("ftf")
    good = heuristic_estimate(region, report, network)
    responses = ["garbage", _echo_transport(good, report)("")]
    calls = []

    def transport(prompt):
        calls.append(prompt)
        return responses[len(calls) - 1]

    settings = EstimationSettings(llm_transport=transport)
    scene, trace, _ = estimate_with_feedback(report, network, region, settings)
    assert trace.attempt_count == 2
    assert trace.attempts[0][0] is None


@pytest.mark.parametrize("field, value", [
    ("heading_deg", math.nan), ("heading_deg", math.inf), ("x", math.nan),
])
def test_feedback_rejects_non_finite_proposal(field, value):
    network, report, crash, region = _setup("ftf")
    reply = _echo_transport(heuristic_estimate(region, report, network), report)("")
    payload = json.loads(reply[reply.index("{"):])
    payload["vehicles"][0][field] = value  # json.dumps writes NaN / Infinity
    settings = EstimationSettings(max_retries=0,
                                  llm_transport=lambda prompt: json.dumps(payload))
    with pytest.raises(EstimationFailed) as excinfo:
        estimate_with_feedback(report, network, region, settings)
    (states, violations), = excinfo.value.trace.attempts
    assert states is None
    assert violations == (f"non-finite number in vehicle entry {payload['vehicles'][0]!r}",)


# --- persistence ---


def _document(scene):
    """The scenario document of ``scene`` with no waypoints."""
    return scenario_document(scene, [Trajectory(())] * len(scene.vehicle_ids))


def test_scene_roundtrip_identity():
    network, report, crash, region = _setup("ftf")
    scene, _, _ = estimate_with_feedback(report, network, region)
    text = _document(scene)
    assert parse_scenario(text)[0] == scene
    assert _document(parse_scenario(text)[0]) == text


def test_scene_serialization_deterministic_and_precise():
    network, report, crash, region = _setup("ftf")
    scene, _, _ = estimate_with_feedback(report, network, region)
    a, b = _document(scene), _document(scene)
    assert a == b
    doc = json.loads(a)
    # full-precision coordinates survive
    assert doc["vehicles"][0]["spawn"]["x"] == scene.states[0].position.x


def test_scene_zero_crash_point():
    import dataclasses

    network, report, crash, region = _setup("ftf")
    scene, _, _ = estimate_with_feedback(report, network, region)
    at_zero = dataclasses.replace(scene, crash_point=PlanarPoint(0.0, 0.0))
    text = _document(at_zero)
    doc = json.loads(text)
    assert doc["crash_point"]["x"] == 0.0
    assert doc["crash_point"]["y"] == 0.0
    assert parse_scenario(text)[0] == at_zero
