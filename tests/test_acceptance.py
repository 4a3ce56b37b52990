"""Acceptance suite: one test per criterion, each printing a verdict line.

Expected values are computed from independent oracles (point-sampling
collision checks, great-circle distances, closed-form placement law) or
authored directly into the fixtures; nothing here goes through the code
path it is checking.
"""

import hashlib
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from crashtrace.errors import EstimationFailed
from crashtrace.estimator import (
    EstimationSettings,
    candidate_regions,
    estimate_with_feedback,
    heuristic_estimate,
    validate_states,
)
from crashtrace.geometry import PlanarPoint, distance, haversine_m, project_all
from crashtrace.opendrive import parse_opendrive
from crashtrace.osm import parse_osm
from crashtrace.pipeline import (
    ExclusionReason,
    PipelineConfig,
    parse_scenario,
    replay_package,
    run_batch,
    run_case,
    scenario_document,
    write_ledger,
)
from crashtrace.reports import CaseKey, RawCaseDocument, parse_report
from crashtrace.roadnet import (
    build_road_network,
    locate_crash_point,
    unify_lanes,
    validate_geometry,
)
from crashtrace.simulator import (
    Pose,
    VehicleBody,
    circular_clock_distance,
    impact_clock,
    overlap_margin,
    validation_to_json,
)

import corpus
from readback import roundtrip_distance_error, validation_from_json


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def good_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc_good")
    fixtures = root / "fixtures"
    keys = corpus.write_good_corpus(fixtures)
    config = PipelineConfig(offline=True, fixtures_dir=fixtures, out_dir=root / "out",
                            parallelism=1)
    clients = None
    outcomes = []
    timings = []
    for key in keys:
        start = time.perf_counter()
        outcomes.append(run_case(key, config))
        timings.append(time.perf_counter() - start)
    return keys, outcomes, timings


# 1. validation-threshold fidelity on the five end-to-end fixture categories


def test_acceptance_1_validation_thresholds(good_run):
    keys, outcomes, timings = good_run
    assert len(keys) >= 5
    details = []
    for kind, key, outcome, elapsed in zip(corpus.GOOD_KINDS, keys, outcomes, timings):
        assert outcome.package is not None, f"{kind} was excluded: {outcome.reason}"
        validation = validation_from_json(
            (outcome.package.directory / "validation.json").read_text("utf-8"))
        assert validation.location_error <= 5.0, kind
        assert all(d is None or d <= 2 for d in validation.clock_deviation), kind
        assert all(validation.direction_match), kind
        assert validation.passed, kind
        assert elapsed <= 10.0, f"{kind} took {elapsed:.2f}s"
        details.append(f"{kind}={validation.location_error:.2f}m/{elapsed:.2f}s")
    _verdict(1, True, "5 categories within 5 m, +/-2 clocks, direction match: "
             + ", ".join(details))


# 2. exclusion-ledger reproduction on the authored 10-case corpus


def test_acceptance_2_exclusion_ledger(tmp_path):
    fixtures = tmp_path / "fixtures"
    keys = corpus.write_ledger_corpus(fixtures)
    config = PipelineConfig(offline=True, fixtures_dir=fixtures, out_dir=tmp_path / "out")
    packages, outcomes = run_batch(keys, config)
    reasons = [o.reason for o in outcomes if o.excluded]
    counts = {
        ExclusionReason.UNSUPPORTED_VERTICAL_GEOMETRY: 3,
        ExclusionReason.INCOMPLETE_INFO: 2,
        ExclusionReason.INCONSISTENT_CRASH_LOCATION: 1,
        ExclusionReason.FAILED_TO_COLLIDE: 1,
    }
    for reason, expected in counts.items():
        assert reasons.count(reason) == expected, reason
    assert len(packages) == 3
    assert len(outcomes) == 10 == len(packages) + len(reasons)
    _verdict(2, True, "10 cases -> 3+2+1+1 exclusions and 3 packages, conservation holds")


# 3. geometric fidelity: 5-point validation and projection isometry


def test_acceptance_3_geometric_fidelity():
    origin = corpus.case_origin(0)
    layouts = [
        corpus.grid_layout(),
        corpus.straight_road_layout(),
        corpus.curve_road_layout(),
        corpus.cross_layout(),
    ]
    for nodes, ways in layouts:
        graph = parse_osm(corpus.osm_xml(origin, nodes, ways))
        network = unify_lanes(build_road_network(graph, origin))
        result = validate_geometry(graph, network, origin)
        assert result.passed, "untampered extract must pass"

    # fault injection: one converted node displaced 50 m
    nodes, ways = corpus.grid_layout()
    graph = parse_osm(corpus.osm_xml(origin, nodes, ways))
    network = build_road_network(graph, origin)
    victim = max(network.node_positions, key=lambda n: network.node_positions[n].x)
    tampered = dict(network.node_positions)
    p = tampered[victim]
    tampered[victim] = PlanarPoint(p.x + 50.0, p.y)
    bad = type(network)(network.origin, network.roads, network.junctions, tampered)
    assert not validate_geometry(graph, bad, origin).passed

    rng = random.Random(20240817)
    worst = 0.0
    checked = 0
    while checked < 1000:
        a = PlanarPoint(rng.uniform(-2000, 2000), rng.uniform(-2000, 2000))
        b = PlanarPoint(rng.uniform(-2000, 2000), rng.uniform(-2000, 2000))
        if distance(a, b) < 1.0:
            continue
        ga, gb = corpus.unproject(a, origin), corpus.unproject(b, origin)
        geod = haversine_m(ga, gb)
        plan = distance(*project_all({1: ga, 2: gb}, origin).values())
        worst = max(worst, abs(plan - geod) / geod)
        checked += 1
    assert worst <= 1e-3
    _verdict(3, True, f"5-point check passes untampered, fails 50 m fault; "
             f"1000-pair projection error max {worst:.2e} <= 1e-3")


# 4. separating-axis detection vs the 1 mm point-sampling oracle


def _sampling_oracle(pose_a: Pose, pose_b: Pose, body: VehicleBody,
                     grid: float = 0.001) -> bool:
    """Any 1 mm lattice point of body A's rectangle inside body B.

    Along one lattice row of A, B's local coordinates are linear in x, so
    the row's points inside B are those in one exact x-interval; the row
    hits when a lattice x lies in it.
    """
    hl, hw = body.length / 2, body.width / 2
    ca, sa = math.cos(pose_a.heading), math.sin(pose_a.heading)
    cb, sb = math.cos(pose_b.heading), math.sin(pose_b.heading)

    # B's world AABB, pulled back into A's local frame
    bx, by = pose_b.position
    corners_b = []
    for ox, oy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw)):
        corners_b.append((bx + cb * ox - sb * oy, by + sb * ox + cb * oy))
    wxmin = min(c[0] for c in corners_b)
    wxmax = max(c[0] for c in corners_b)
    wymin = min(c[1] for c in corners_b)
    wymax = max(c[1] for c in corners_b)
    ax, ay = pose_a.position
    local = []
    for wx, wy in ((wxmin, wymin), (wxmin, wymax), (wxmax, wymin), (wxmax, wymax)):
        dx, dy = wx - ax, wy - ay
        local.append((ca * dx + sa * dy, -sa * dx + ca * dy))
    lxmin = max(-hl, min(p[0] for p in local))
    lxmax = min(hl, max(p[0] for p in local))
    lymin = max(-hw, min(p[1] for p in local))
    lymax = min(hw, max(p[1] for p in local))
    if lxmin > lxmax or lymin > lymax:
        return False

    # lattice columns i0..i1 (x = i * grid - hl) and rows ys
    i0 = math.ceil((lxmin + hl) / grid)
    i1 = math.floor((lxmax + hl) / grid)
    ys = np.arange(math.ceil((lymin + hw) / grid),
                   math.floor((lymax + hw) / grid) + 1) * grid - hw
    if i0 > i1 or ys.size == 0:
        return False
    # the lattice point (x, y) of A sits at p + k * x in B's frame, per axis
    dx, dy = ax - sa * ys - bx, ay + ca * ys - by
    lo = np.full(ys.shape, -math.inf)
    hi = np.full(ys.shape, math.inf)
    for p, k, half in ((cb * dx + sb * dy, cb * ca + sb * sa, hl),
                       (-sb * dx + cb * dy, -sb * ca + cb * sa, hw)):
        if k == 0.0:
            hi[np.abs(p) > half] = -math.inf
            continue
        e1, e2 = (-half - p) / k, (half - p) / k
        lo = np.maximum(lo, np.minimum(e1, e2))
        hi = np.minimum(hi, np.maximum(e1, e2))
    with np.errstate(invalid="ignore"):
        first = np.maximum(np.ceil((lo + hl) / grid), i0)
        last = np.minimum(np.floor((hi + hl) / grid), i1)
    return bool(np.any(first <= last))


def test_acceptance_4_collision_oracle_equivalence():
    body = VehicleBody()
    bodies = (body, body)
    rng = random.Random(424242)
    checked = disagreements = 0
    for _ in range(1000):
        pose_a = Pose(PlanarPoint(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                      rng.uniform(-math.pi, math.pi))
        pose_b = Pose(PlanarPoint(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                      rng.uniform(-math.pi, math.pi))
        margin = overlap_margin(pose_a, pose_b, bodies)
        if abs(margin) <= 0.01:
            continue
        checked += 1
        sat_hit = margin >= 0
        oracle_hit = _sampling_oracle(pose_a, pose_b, body)
        if sat_hit != oracle_hit:
            disagreements += 1
    assert checked > 500  # the draw must actually exercise both sides
    assert disagreements == 0
    _verdict(4, True, f"SAT vs 1 mm sampling oracle: {checked} decisive pairs, "
             "0 disagreements")


# 5. clock convention


def test_acceptance_5_clock_convention():
    body = VehicleBody()
    pose = Pose(PlanarPoint(0.0, 0.0), 0.0)
    cardinal = {0.0: 12, 90.0: 3, 180.0: 6, 270.0: 9}
    for beta, expected in cardinal.items():
        rad = math.radians(beta)
        contact = PlanarPoint(1.2 * math.cos(-rad), 1.2 * math.sin(-rad))
        assert impact_clock(pose, body, contact) == expected, beta
    for beta in range(360):
        rad = math.radians(beta)
        contact = PlanarPoint(1.2 * math.cos(-rad), 1.2 * math.sin(-rad))
        assert 1 <= impact_clock(pose, body, contact) <= 12
    for a in range(1, 13):
        for b in range(1, 13):
            d = circular_clock_distance(a, b)
            assert 0 <= d <= 6
            assert d == circular_clock_distance(b, a)
    _verdict(5, True, "cardinal betas map to 12/3/6/9; 1-degree sweep total; "
             "circular distance bounded by 6")


# 6. backward-trajectory law


def test_acceptance_6_backward_trajectory_law():
    rng = random.Random(77001)
    worst = 0.0
    for i in range(100):
        origin = corpus.case_origin(60)
        angle = rng.uniform(0, 2 * math.pi)
        half = rng.uniform(300.0, 500.0)
        speeds = (rng.uniform(5.0, 25.0), rng.uniform(5.0, 25.0))
        ux, uy = math.cos(angle), math.sin(angle)
        nodes = {
            1: (-half * ux, -half * uy),
            2: (-half * ux / 2, -half * uy / 2),
            3: (0.0, 0.0),
            4: (half * ux / 2, half * uy / 2),
            5: (half * ux, half * uy),
        }
        ways = [(10, [1, 2, 3, 4, 5], {"highway": "secondary", "name": "Test Road"})]
        graph = parse_osm(corpus.osm_xml(origin, nodes, ways))
        network = unify_lanes(build_road_network(graph, origin))
        mph = [s / 0.44704 for s in speeds]
        report = parse_report(RawCaseDocument(
            CaseKey(51, 900 + i, 2023),
            corpus.report_xml(
                coords=origin,
                vehicles=[
                    {"speed_mph": mph[0], "clock": 12, "maneuver": "Going Straight"},
                    {"speed_mph": mph[1], "clock": 12, "maneuver": "Going Straight"},
                ],
            ),
        ))
        crash = locate_crash_point(network, PlanarPoint(0.0, 0.0))
        assert crash is not None
        region = candidate_regions(network, report, crash)
        states = heuristic_estimate(region, report, network)
        road = network.road(crash.road_id)
        from crashtrace.geometry import locate_on_polyline

        from crashtrace.roadnet import travel_direction

        for state, record in zip(states, report.vehicles):
            fix = locate_on_polyline(road.centerline, state.position)
            along = abs(fix.s - crash.s)
            expected = record.travel_speed * 6.0
            worst = max(worst, abs(along - expected))
            # right-hand rule: the assigned lane sits right of the centerline
            # relative to the vehicle's own heading
            direction = travel_direction(road, fix.s, state.heading)
            assert state.lane_index > 0 and fix.offset * direction < 0
    assert worst <= 0.1
    _verdict(6, True, f"100 randomized draws: placement distance error max {worst:.4f} m "
             "<= 0.1 m; right-hand lane sign holds")


# 7. feedback-loop contract


def test_acceptance_7_feedback_loop():
    graph = parse_osm(corpus.osm_xml(corpus.case_origin(0), *corpus.straight_road_layout()))
    network = unify_lanes(build_road_network(graph, corpus.case_origin(0)))
    report = parse_report(RawCaseDocument(
        CaseKey(51, 950, 2023), corpus.report_xml(coords=corpus.case_origin(0))))
    crash = locate_crash_point(network, PlanarPoint(0.0, 0.0))
    region = candidate_regions(network, report, crash)

    bad = json.dumps({"vehicles": [
        {"id": 1, "road_id": 10, "lane_index": 1, "x": 0.0, "y": 400.0, "heading_deg": 0.0},
        {"id": 2, "road_id": 10, "lane_index": 1, "x": 50.0, "y": 1.75, "heading_deg": 180.0},
    ]})
    settings = EstimationSettings(max_retries=3, llm_transport=lambda p: bad)
    with pytest.raises(EstimationFailed) as excinfo:
        estimate_with_feedback(report, network, region, settings)
    trace = excinfo.value.trace
    assert trace.attempt_count == 4
    assert len(trace.attempts) == 4
    assert all(violations for _, violations in trace.attempts)

    good_states = heuristic_estimate(region, report, network)
    good = json.dumps({"vehicles": [
        {"id": vid, "road_id": s.road_id, "lane_index": s.lane_index,
         "x": s.position.x, "y": s.position.y,
         "heading_deg": round(math.degrees(s.heading), 9)}
        for vid, s in zip((1, 2), good_states)
    ]})
    responses = iter([bad, good])
    settings2 = EstimationSettings(max_retries=3,
                                   llm_transport=lambda p: next(responses))
    scene, trace2, _ = estimate_with_feedback(report, network, region, settings2)
    assert trace2.attempt_count == 2
    assert validate_states(scene.states, network, report, region)[0] == []
    _verdict(7, True, "always-invalid: 4 attempts with 4 violation lists; "
             "second-try-valid: 2 attempts, scene validates")


# 8. persistence roundtrips


def test_acceptance_8_persistence_roundtrips(good_run):
    keys, outcomes, _ = good_run
    for outcome in outcomes:
        package = outcome.package
        assert package is not None

        scenario_text = (package.directory / "scenario.json").read_text("utf-8")
        scene, trajectories = parse_scenario(scenario_text)
        assert scenario_document(scene, trajectories) == scenario_text
        scene2, trajectories2 = parse_scenario(scenario_document(scene, trajectories))
        assert scene2 == scene and trajectories2 == trajectories

        xodr_text = (package.directory / "map.xodr").read_text("utf-8")
        network = parse_opendrive(xodr_text)
        from crashtrace.opendrive import emit_opendrive

        again = parse_opendrive(emit_opendrive(network))
        assert len(again.roads) == len(network.roads)
        assert len(again.junctions) == len(network.junctions)
        assert roundtrip_distance_error(network, again) <= 1e-3

        stored = (package.directory / "validation.json").read_text("utf-8")
        assert validation_to_json(replay_package(package.directory)) == stored
    _verdict(8, True, "scenario.json and map.xodr re-parse to equal structures; "
             "replay reproduces validation.json bitwise on all 5 packages")


# 9. determinism under parallelism


def _hash_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_acceptance_9_parallel_determinism(tmp_path):
    fixtures = tmp_path / "fixtures"
    keys = corpus.write_ledger_corpus(fixtures)
    trees = {}
    ledgers = {}
    for workers in (1, 8):
        out_dir = tmp_path / f"out_p{workers}"
        config = PipelineConfig(offline=True, fixtures_dir=fixtures, out_dir=out_dir,
                                parallelism=workers)
        _, outcomes = run_batch(keys, config)
        write_ledger(outcomes, out_dir / "ledger.txt")
        ledgers[workers] = (out_dir / "ledger.txt").read_text("utf-8")
        trees[workers] = _hash_tree(out_dir)
    assert ledgers[1] == ledgers[8]
    assert trees[1] == trees[8]
    _verdict(9, True, "parallelism 1 and 8 produce identical ledgers and package bytes")


# 10. coverage-table rendering with the published distribution


def test_acceptance_10_coverage_table(tmp_path):
    collision = (["Angle"] * 19 + ["Front-to-Front"] * 23 + ["Front-to-Rear"] * 3
                 + ["Sideswipe, Opposite Direction"] * 2 + ["Other"] * 5)
    topology = (["Not an Intersection"] * 36 + ["T-Intersection"] * 8
                + ["Four-Way Intersection"] * 8)
    trajectory = (["Same Trafficway, Same Direction"] * 4
                  + ["Same Trafficway, Opposite Direction"] * 27
                  + ["Changing Trafficway, Vehicle Turning"] * 9
                  + ["Intersecting Paths"] * 7 + ["Other"] * 5)
    assert len(collision) == len(topology) == len(trajectory) == 52
    for i, (coll, topo, rel) in enumerate(zip(collision, topology, trajectory)):
        d = tmp_path / f"case_51_{1000 + i}_2023"
        d.mkdir()
        (d / "report.xml").write_text(
            corpus.report_xml(coords=corpus.case_origin(0), collision=coll,
                              topology=topo, relation=rel),
            encoding="utf-8",
        )

    from crashtrace.pipeline import coverage_stats
    from crashtrace.reports import CollisionType, RoadTopology, TrajectoryRelation

    table = coverage_stats(tmp_path)
    assert table.total == 52
    assert table.collision[CollisionType.ANGLE] == 19
    assert table.collision[CollisionType.FRONT_TO_FRONT] == 23
    assert table.collision[CollisionType.FRONT_TO_REAR] == 3
    assert table.collision[CollisionType.SIDESWIPE_OPPOSITE] == 2
    assert table.collision[CollisionType.OTHER] == 5
    assert table.topology[RoadTopology.NOT_AN_INTERSECTION] == 36
    assert table.topology[RoadTopology.T_INTERSECTION] == 8
    assert table.topology[RoadTopology.FOUR_WAY] == 8
    assert table.trajectory[TrajectoryRelation.SAME_TRAFFICWAY_OPPOSITE_DIRECTION] == 27
    assert sum(table.collision.values()) == 52
    assert sum(table.topology.values()) == 52
    assert sum(table.trajectory.values()) == 52

    rendered = table.render()
    order = [
        "Type of Collision", "Angle", "Front-to-Front", "Front-to-Rear",
        "Sideswipe, Opposite Direction", "Sideswipe, Same Direction", "Rear-to-Side",
        "Rear-to-Rear", "Others",
        "Road Topology", "Not an Intersection", "T-Intersection", "Four-way Intersection",
        "Y-Intersection", "Traffic Circle / Roundabout", "Five-Point, or More",
        "L-Intersection",
        "Vehicle Trajectory", "Same Trafficway, Same Direction",
        "Same Trafficway, Opposite Direction", "Changing Trafficway, Vehicle Turning",
        "Intersecting Paths",
    ]
    cursor = -1
    for label in order:
        found = rendered.index(label, cursor + 1)
        assert found > cursor
        cursor = found
    _verdict(10, True, "table rows render in published order and reproduce the "
             "52-case distribution exactly")
