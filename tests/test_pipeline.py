import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crashtrace import cli, errors
from crashtrace.errors import EmptyDirectory, ParseError
from crashtrace.estimator import EstimationSettings, InitialState, SceneSpec
from crashtrace.geometry import GeoPoint, PlanarPoint
from crashtrace.pipeline import (
    PACKAGE_FILES,
    CaseOutcome,
    ExclusionReason,
    PipelineConfig,
    batch_summary,
    coverage_stats,
    emit_summary,
    parse_scenario,
    replay_package,
    run_batch,
    run_case,
    scenario_document,
    write_ledger,
)
from crashtrace.plotting import _fmt, render_plot
from crashtrace.reports import CaseKey, Maneuver
from crashtrace.trajectory import Trajectory, Waypoint

import corpus
from local_http import closed_port_url
from readback import validation_from_json


@pytest.fixture(scope="module")
def good_batch(tmp_path_factory):
    root = tmp_path_factory.mktemp("good")
    fixtures = root / "fixtures"
    keys = corpus.write_good_corpus(fixtures)
    config = PipelineConfig(offline=True, fixtures_dir=fixtures, out_dir=root / "out",
                            parallelism=1)
    packages, outcomes = run_batch(keys, config)
    return keys, config, packages, outcomes


@pytest.fixture(scope="module")
def ledger_fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("ledger")
    fixtures = root / "fixtures"
    keys = corpus.write_ledger_corpus(fixtures)
    return root, fixtures, keys


# --- single-case staging ---


def test_good_cases_emit_full_packages(good_batch):
    keys, config, packages, outcomes = good_batch
    assert len(packages) == len(keys)
    for package in packages:
        for name in PACKAGE_FILES:
            assert (package.directory / name).is_file(), name
        validation = validation_from_json(
            (package.directory / "validation.json").read_text("utf-8"))
        assert validation.passed


def test_exclusion_reasons_by_kind(ledger_fixtures):
    root, fixtures, keys = ledger_fixtures
    config = PipelineConfig(offline=True, fixtures_dir=fixtures, out_dir=root / "out_single")
    expected = {
        "vertical_tunnel": ExclusionReason.UNSUPPORTED_VERTICAL_GEOMETRY,
        "incomplete_topology": ExclusionReason.INCOMPLETE_INFO,
        "offroad": ExclusionReason.INCONSISTENT_CRASH_LOCATION,
        "no_collision": ExclusionReason.FAILED_TO_COLLIDE,
    }
    for kind, reason in expected.items():
        key = keys[corpus.LEDGER_CORPUS.index(kind)]
        outcome = run_case(key, config)
        assert outcome.reason is reason, kind


def test_fetch_failure_reason(tmp_path):
    config = PipelineConfig(offline=True, fixtures_dir=tmp_path, out_dir=tmp_path / "out")
    outcome = run_case(CaseKey(51, 999999, 2023), config)
    assert outcome.reason is ExclusionReason.FETCH_FAILED


def test_not_dual_vehicle_reason(tmp_path):
    origin = corpus.case_origin(0)
    report = corpus.report_xml(coords=origin, vehicles=[{"speed_mph": 30}])
    (tmp_path / "51_300_2023.xml").write_text(report, encoding="utf-8")
    config = PipelineConfig(offline=True, fixtures_dir=tmp_path, out_dir=tmp_path / "out")
    outcome = run_case(CaseKey(51, 300, 2023), config)
    assert outcome.reason is ExclusionReason.NOT_DUAL_VEHICLE


def test_one_error_class_per_ledger_reason():
    # InternalError is any other error, so it has no class of its own
    own_reason = [cls for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, errors.CrashTraceError)
                  and "reason" in vars(cls) and cls.reason is not None]
    assert {cls.__name__: cls.reason for cls in own_reason} \
        == {r.value: r for r in ExclusionReason if r is not ExclusionReason.INTERNAL_ERROR}


def _l_shaped_way_at_60_north() -> tuple[str, str]:
    """A 10-node way 0.5 degrees north, then 0.8 degrees east: too large for
    the flat-plane projection to keep distances within 0.5%."""
    corners = [(60.0 + 0.1 * i, 10.0) for i in range(6)]
    corners += [(60.5, 10.0 + 0.2 * i) for i in range(1, 5)]
    nodes = "".join(f'  <node id="{i}" lat="{lat!r}" lon="{lon!r}"/>\n'
                    for i, (lat, lon) in enumerate(corners, start=1))
    refs = "".join(f'    <nd ref="{i}"/>\n' for i in range(1, len(corners) + 1))
    osm_text = (f'<osm version="0.6">\n{nodes}  <way id="1">\n{refs}'
                '    <tag k="highway" v="primary"/>\n  </way>\n</osm>\n')
    return corpus.report_xml(coords=GeoPoint(60.0, 10.0)), osm_text


def test_every_ledger_reason_is_reached(tmp_path):
    origin = corpus.case_origin(0)
    straight_report, straight_map = corpus.case_fixture("ftf_straight", origin)

    def served(report, osm_text=None, **settings):
        return PipelineConfig(out_dir=tmp_path / "out", report_transport=lambda url: report,
                              osm_transport=lambda url, query: osm_text,
                              estimation=EstimationSettings(**settings))

    def defective_transport(url):
        raise RuntimeError("not an error crashtrace expects")

    configs = {
        ExclusionReason.FETCH_FAILED:
            PipelineConfig(offline=True, fixtures_dir=tmp_path, out_dir=tmp_path / "out"),
        ExclusionReason.INCOMPLETE_INFO:
            served(*corpus.case_fixture("incomplete_topology", origin)),
        ExclusionReason.NOT_DUAL_VEHICLE:
            served(corpus.report_xml(coords=origin, vehicles=[{"speed_mph": 30}])),
        ExclusionReason.UNSUPPORTED_VERTICAL_GEOMETRY:
            served(*corpus.case_fixture("vertical_tunnel", origin)),
        ExclusionReason.INCONSISTENT_CRASH_LOCATION:
            served(*corpus.case_fixture("offroad", origin)),
        ExclusionReason.GEOMETRY_VALIDATION_FAILED: served(*_l_shaped_way_at_60_north()),
        ExclusionReason.ESTIMATION_FAILED: served(straight_report, straight_map, max_retries=0,
                                                  llm_transport=lambda p: "no json"),
        ExclusionReason.FAILED_TO_COLLIDE: served(*corpus.case_fixture("no_collision", origin)),
        ExclusionReason.VALIDATION_FAILED: served(
            straight_report.replace("<ImpactClock>12<", "<ImpactClock>6<"), straight_map),
        ExclusionReason.INTERNAL_ERROR: PipelineConfig(out_dir=tmp_path / "out",
                                                       report_transport=defective_transport),
    }
    reached = [run_case(CaseKey(51, 330 + i, 2023), config).reason
               for i, config in enumerate(configs.values())]
    assert reached == list(configs)
    assert set(reached) == set(ExclusionReason)
    assert not (tmp_path / "out").exists()


# --- batches ---


def test_ledger_corpus_counts(ledger_fixtures):
    root, fixtures, keys = ledger_fixtures
    config = PipelineConfig(offline=True, fixtures_dir=fixtures, out_dir=root / "out_batch",
                            parallelism=2)
    packages, outcomes = run_batch(keys, config)
    assert len(outcomes) == 10
    assert len(packages) + sum(1 for o in outcomes if o.excluded) == 10
    reasons = [o.reason for o in outcomes if o.excluded]
    assert reasons.count(ExclusionReason.UNSUPPORTED_VERTICAL_GEOMETRY) == 3
    assert reasons.count(ExclusionReason.INCOMPLETE_INFO) == 2
    assert reasons.count(ExclusionReason.INCONSISTENT_CRASH_LOCATION) == 1
    assert reasons.count(ExclusionReason.FAILED_TO_COLLIDE) == 1
    assert len(packages) == 3


def _hash_tree(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_batch_parallelism_independent(ledger_fixtures):
    root, fixtures, keys = ledger_fixtures
    runs = {}
    for workers in (None, 1, 8):  # None: the default width
        out_dir = root / f"out_p{workers}"
        config = PipelineConfig(offline=True, fixtures_dir=fixtures, out_dir=out_dir,
                                parallelism=workers)
        packages, outcomes = run_batch(keys, config)
        write_ledger(outcomes, out_dir / "ledger.txt")
        runs[workers] = (
            (out_dir / "ledger.txt").read_text("utf-8"),
            _hash_tree(out_dir),
        )
    assert runs[1] == runs[None]
    assert runs[8] == runs[None]


def test_rerun_that_excludes_a_case_removes_its_package(good_batch, tmp_path):
    keys, config, _, _ = good_batch
    fixtures, out_dir = tmp_path / "fixtures", tmp_path / "out"
    shutil.copytree(config.fixtures_dir, fixtures)
    shutil.copytree(config.out_dir, out_dir)
    assert coverage_stats(out_dir).total == 5
    (fixtures / "51_101_2023.osm").unlink()
    _, outcomes = run_batch(keys, PipelineConfig(offline=True, fixtures_dir=fixtures,
                                                 out_dir=out_dir))
    assert outcomes[0].ledger_line() == "51_101_2023\texcluded\tFetchFailed"
    assert not (out_dir / "case_51_101_2023").exists()
    assert coverage_stats(out_dir).total == 4


def test_exclusion_keeps_files_the_pipeline_did_not_write(tmp_path):
    report, osm_text = corpus.case_fixture("ftf_straight", corpus.case_origin(0))

    def served(report):
        return PipelineConfig(out_dir=tmp_path / "out", report_transport=lambda url: report,
                              osm_transport=lambda url, query: osm_text)

    key = CaseKey(51, 320, 2023)
    package_dir = run_case(key, served(report)).package.directory
    (package_dir / "plot.svg").write_text("<svg/>\n", encoding="utf-8")
    outcome = run_case(key, served(report.replace("<ImpactClock>12<", "<ImpactClock>6<")))
    assert outcome.reason is ExclusionReason.VALIDATION_FAILED
    assert [path.name for path in package_dir.iterdir()] == ["plot.svg"]


def test_batch_summary_counts():
    outcomes = [
        CaseOutcome(CaseKey(51, 1, 2023)),
        CaseOutcome(CaseKey(51, 2, 2023), reason=ExclusionReason.INCOMPLETE_INFO),
        CaseOutcome(CaseKey(51, 3, 2023), reason=ExclusionReason.INCOMPLETE_INFO),
    ]
    line = batch_summary(outcomes)
    assert "packages=1" in line and "IncompleteInfo=2" in line


def test_batch_rejects_empty_list():
    with pytest.raises(ValueError):
        run_batch([], PipelineConfig())


# --- summary text ---


def test_summary_contents(good_batch):
    keys, config, packages, outcomes = good_batch
    angle = next(p for p in packages if p.case_key.state_case == 101)
    text = (angle.directory / "summary.md").read_text("utf-8")
    assert "Angle" in text
    assert "Four-way Intersection" in text
    assert "Intersecting Paths" in text
    assert "PASSED" in text


def test_summary_skipped_clock():
    from crashtrace.reports import RawCaseDocument, parse_report
    from crashtrace.simulator import ValidationReport

    xml = corpus.report_xml(
        coords=corpus.case_origin(0),
        vehicles=[{"speed_mph": 30, "clock": None}, {"speed_mph": 30, "clock": 6}],
    )
    report = parse_report(RawCaseDocument(CaseKey(51, 1, 2023), xml))
    validation = ValidationReport(2.0, (None, 0), (True, True), True)
    text = emit_summary(report, validation)
    assert "clock check skipped" in text
    assert "PASSED" in text


# --- coverage ---


def test_coverage_counts_and_sums(tmp_path):
    labels = [
        ("Front-to-Front", "Not an Intersection", "Same Trafficway, Opposite Direction"),
        ("Front-to-Front", "T-Intersection", "Intersecting Paths"),
        ("Angle", "Four-Way Intersection", "Intersecting Paths"),
    ]
    for i, (coll, topo, rel) in enumerate(labels):
        d = tmp_path / f"case_51_{400 + i}_2023"
        d.mkdir()
        (d / "report.xml").write_text(
            corpus.report_xml(coords=corpus.case_origin(0), collision=coll,
                              topology=topo, relation=rel),
            encoding="utf-8",
        )
    from crashtrace.reports import CollisionType

    table = coverage_stats(tmp_path)
    assert table.total == 3
    assert table.collision[CollisionType.FRONT_TO_FRONT] == 2
    assert table.collision[CollisionType.ANGLE] == 1
    assert sum(table.collision.values()) == table.total
    assert sum(table.topology.values()) == table.total
    assert sum(table.trajectory.values()) == table.total
    rendered = table.render()
    assert rendered.index("Type of Collision") < rendered.index("Road Topology")
    assert rendered.index("Road Topology") < rendered.index("Vehicle Trajectory")


def test_coverage_empty_directory(tmp_path):
    with pytest.raises(EmptyDirectory):
        coverage_stats(tmp_path)


# --- replay ---


def test_replay_reproduces_validation_bitwise(good_batch):
    keys, config, packages, outcomes = good_batch
    from crashtrace.simulator import validation_to_json

    for package in packages:
        result = replay_package(package.directory)
        stored = (package.directory / "validation.json").read_text("utf-8")
        assert validation_to_json(result) == stored


def test_in_memory_score_equals_replay(good_batch, tmp_path, monkeypatch):
    # run scores the scene it holds; replay scores the one parsed from scenario.json
    from crashtrace import pipeline
    from crashtrace.simulator import validation_to_json

    keys, config, _, _ = good_batch
    scored = []
    score = pipeline.score_scenario

    def recorded(*args):
        outcome, validation = score(*args)
        scored.append(validation)
        return outcome, validation

    monkeypatch.setattr(pipeline, "score_scenario", recorded)
    config = PipelineConfig(offline=True, fixtures_dir=config.fixtures_dir,
                            out_dir=tmp_path / "out")
    for key in keys:
        package = run_case(key, config).package
        assert package is not None, key.slug
        (in_memory,) = scored
        replayed = replay_package(package.directory)
        assert replayed == in_memory, key.slug
        stored = (package.directory / "validation.json").read_text("utf-8")
        assert validation_to_json(replayed) == validation_to_json(in_memory) == stored
        scored.clear()


def test_run_never_parses_its_own_scenario(good_batch, tmp_path, monkeypatch):
    from crashtrace import pipeline

    def unreachable(text):
        raise AssertionError("run parsed a scenario document")

    monkeypatch.setattr(pipeline, "parse_scenario", unreachable)
    keys, config, _, _ = good_batch
    config = PipelineConfig(offline=True, fixtures_dir=config.fixtures_dir,
                            out_dir=tmp_path / "out")
    assert all(run_case(key, config).package is not None for key in keys)


def test_failed_case_serializes_nothing(tmp_path, monkeypatch):
    from crashtrace import opendrive, osm, pipeline

    def unreachable(*args):
        raise AssertionError("a failed case was serialized")

    monkeypatch.setattr(pipeline, "scenario_document", unreachable)
    monkeypatch.setattr(opendrive, "emit_opendrive", unreachable)
    monkeypatch.setattr(osm, "write_osm", unreachable)
    key = corpus.write_case(tmp_path / "fixtures", "no_collision", 1, 0)
    config = PipelineConfig(offline=True, fixtures_dir=tmp_path / "fixtures",
                            out_dir=tmp_path / "out")
    assert run_case(key, config).reason is ExclusionReason.FAILED_TO_COLLIDE


def test_replay_detects_tampered_spawn(good_batch, tmp_path):
    keys, config, packages, outcomes = good_batch
    package = packages[1]
    work = tmp_path / "tampered"
    work.mkdir()
    for name in PACKAGE_FILES:
        (work / name).write_text((package.directory / name).read_text("utf-8"),
                                 encoding="utf-8")
    doc = json.loads((work / "scenario.json").read_text("utf-8"))
    doc["vehicles"][0]["spawn"]["x"] -= 7.0
    (work / "scenario.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    original = validation_from_json((package.directory / "validation.json").read_text("utf-8"))
    tampered = replay_package(work)
    assert tampered.location_error != original.location_error


@pytest.mark.parametrize("count", [0, 1, 3])
def test_replay_rejects_a_scenario_without_two_vehicles(good_batch, tmp_path, capsys, count):
    package = tmp_path / "case"
    shutil.copytree(good_batch[2][0].directory, package)
    scenario = package / "scenario.json"
    doc = json.loads(scenario.read_text("utf-8"))
    doc["vehicles"] = (doc["vehicles"] * 2)[:count]
    scenario.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    message = f"scenario lists {count} vehicles, not 2"
    with pytest.raises(ParseError, match=message):
        replay_package(package)
    assert cli.main(["replay", str(package)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_package_is_a_fixed_point(good_batch, tmp_path):
    # re-running each case from its own package's report and map gives back
    # every package file byte for byte
    keys, _, packages, _ = good_batch
    assert len(packages) == len(keys)
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    for package in packages:
        slug = package.case_key.slug
        shutil.copyfile(package.directory / "report.xml", fixtures / f"{slug}.xml")
        shutil.copyfile(package.directory / "map.osm", fixtures / f"{slug}.osm")
    config = PipelineConfig(offline=True, fixtures_dir=fixtures, out_dir=tmp_path / "out",
                            parallelism=1)
    again = {p.case_key: p for p in run_batch(keys, config)[0]}
    for package in packages:
        rerun = again[package.case_key]
        for name in PACKAGE_FILES:
            assert ((rerun.directory / name).read_bytes()
                    == (package.directory / name).read_bytes()), (package.case_key.slug, name)


def test_replay_missing_map(good_batch, tmp_path):
    keys, config, packages, outcomes = good_batch
    for name in PACKAGE_FILES:
        if name != "map.xodr":
            (tmp_path / name).write_text((packages[0].directory / name).read_text("utf-8"),
                                         encoding="utf-8")
    with pytest.raises(ParseError):
        replay_package(tmp_path)


# --- plotting ---


def test_plot_structure_and_determinism(good_batch):
    keys, config, packages, outcomes = good_batch
    straight = next(p for p in packages if p.case_key.state_case == 102)
    svg = render_plot(straight.directory)
    assert svg == render_plot(straight.directory)
    assert svg.count('class="trajectory"') == 2
    assert 'class="crash"' in svg
    assert svg.count('class="spawn"') == 2

    junctioned = next(p for p in packages if p.case_key.state_case == 101)
    svg2 = render_plot(junctioned.directory)
    assert 'class="junction"' in svg2


def test_plot_draws_a_circle_at_each_junction_centre(good_batch):
    packages = good_batch[2]
    package = next(p for p in packages if p.case_key.state_case == 101)
    text = (package.directory / "map.xodr").read_text("utf-8")
    assert "<boundary>" not in text
    centres = [(_fmt(float(c.get("x"))), _fmt(float(c.get("y"))))
               for c in ET.fromstring(text).iterfind("junction/userData/center")]
    svg = render_plot(package.directory)
    drawn = re.findall(r'<circle class="junction" cx="([^"]*)" cy="([^"]*)" r="3.50" ', svg)
    assert centres and drawn == centres
    assert svg.count('class="junction"') == len(centres)


def test_garbled_boundary_replays_and_plots(good_batch, tmp_path):
    # packages written before the outline was dropped carry a <boundary> in
    # each junction's userData; no reader parses it
    packages = good_batch[2]
    package = next(p for p in packages if p.case_key.state_case == 101)
    work = tmp_path / "garbled"
    shutil.copytree(package.directory, work)
    map_path = work / "map.xodr"
    text = map_path.read_text("utf-8")
    garbled = re.sub(r"(<center [^>]*/>)", r"\1<boundary>1.0,nan,east 2</boundary>", text)
    assert garbled.count("<boundary>") == text.count("<junction ") > 0
    map_path.write_text(garbled, encoding="utf-8")

    from crashtrace.simulator import validation_to_json

    stored = (package.directory / "validation.json").read_text("utf-8")
    assert validation_to_json(replay_package(work)) == stored
    assert render_plot(work) == render_plot(package.directory)


# --- scenario document ---


def test_scenario_document_roundtrip(good_batch):
    keys, config, packages, outcomes = good_batch
    text = (packages[0].directory / "scenario.json").read_text("utf-8")
    scene, trajectories = parse_scenario(text)
    assert len(trajectories) == 2
    assert all(len(t.waypoints) >= 2 for t in trajectories)
    assert scenario_document(scene, trajectories) == text


def test_scenario_waypoint_fields(good_batch):
    keys, config, packages, outcomes = good_batch
    doc = json.loads((packages[0].directory / "scenario.json").read_text("utf-8"))
    wp = doc["vehicles"][0]["waypoints"][0]
    assert set(wp) == {"x", "y", "heading_deg", "target_speed_mps"}


@pytest.mark.parametrize("path", [
    ("map_file",), ("case_key",), ("case_key", "state"), ("crash_point", "y"), ("vehicles",),
    ("vehicles", 0, "id"), ("vehicles", 1, "spawn", "heading_deg"), ("vehicles", 0, "maneuver"),
    ("vehicles", 1, "waypoints", 0, "target_speed_mps"),
])
def test_parse_scenario_rejects_missing_field(good_batch, path):
    keys, config, packages, outcomes = good_batch
    doc = json.loads((packages[0].directory / "scenario.json").read_text("utf-8"))
    *parents, last = path
    parent = doc
    for step in parents:
        parent = parent[step]
    del parent[last]
    with pytest.raises(ParseError):
        parse_scenario(json.dumps(doc))


@pytest.mark.parametrize("text", ["", "{", "[]", '"map.xodr"', "null"])
def test_parse_scenario_rejects_non_document(text):
    with pytest.raises(ParseError):
        parse_scenario(text)


def test_parse_scenario_rejects_unknown_maneuver(good_batch):
    keys, config, packages, outcomes = good_batch
    doc = json.loads((packages[0].directory / "scenario.json").read_text("utf-8"))
    doc["vehicles"][0]["maneuver"] = "reversing"
    with pytest.raises(ParseError):
        parse_scenario(json.dumps(doc))



def _json_dumps_scenario(scene, trajectories):
    """Reference: the whole document through ``json.dumps(indent=2)``; the
    n-th trajectory belongs to the n-th vehicle, whatever their ids."""
    doc = {
        "case_key": {
            "state": scene.case_key.state,
            "state_case": scene.case_key.state_case,
            "case_year": scene.case_key.case_year,
        },
        "crash_point": {"x": scene.crash_point.x, "y": scene.crash_point.y},
        "vehicles": [
            {
                "id": vid,
                "road_id": state.road_id,
                "lane_index": state.lane_index,
                "spawn": {
                    "x": state.position.x,
                    "y": state.position.y,
                    "heading_deg": round(math.degrees(state.heading), 9),
                    "speed_mps": state.speed,
                },
                "maneuver": maneuver.value,
                "waypoints": [
                    {
                        "x": w.position.x,
                        "y": w.position.y,
                        "heading_deg": math.degrees(w.heading),
                        "target_speed_mps": w.target_speed,
                    }
                    for w in trajectory.waypoints
                ],
            }
            for vid, state, maneuver, trajectory in zip(
                scene.vehicle_ids, scene.states, scene.maneuvers, trajectories)
        ],
        "map_file": "map.xodr",
    }
    return json.dumps(doc, indent=2) + "\n"


def _turning_package(directory: Path) -> Path:
    """A package whose vehicle 1 turns left at the four-way junction of its map."""
    from crashtrace.opendrive import emit_opendrive
    from crashtrace.osm import parse_osm
    from crashtrace.roadnet import build_road_network, locate_crash_point, unify_lanes
    from crashtrace.trajectory import generate_trajectory

    origin = corpus.case_origin(7)
    network = unify_lanes(build_road_network(
        parse_osm(corpus.osm_xml(origin, *corpus.cross_layout())), origin))
    crash = PlanarPoint(1.75, 40.0)  # on the north arm's northbound lane line
    states = (InitialState(PlanarPoint(-80.0, -1.75), 0.0, 8.9408, 12, 1),
              InitialState(PlanarPoint(-1.75, 120.0), -math.pi / 2, 8.9408, 11, 1))
    fix = locate_crash_point(network, crash)
    trajectories = tuple(generate_trajectory(state, fix, crash, network) for state in states)
    key = CaseKey(51, 901, 2023)
    scene = SceneSpec(key, crash, states, (1, 2),
                      (Maneuver.TURNING_LEFT, Maneuver.GOING_STRAIGHT))
    report = corpus.report_xml(
        coords=origin, collision="Angle", topology="Four-Way Intersection",
        relation="Changing Trafficway, Vehicle Turning",
        vehicles=[{"speed_mph": 20, "clock": 12, "maneuver": "Turning Left"},
                  {"speed_mph": 20, "clock": 12, "maneuver": "Going Straight"}])
    directory.mkdir(parents=True)
    (directory / "scenario.json").write_text(scenario_document(scene, trajectories), "utf-8")
    (directory / "map.xodr").write_text(emit_opendrive(network), "utf-8")
    (directory / "report.xml").write_text(report, "utf-8")
    return directory


def test_replay_judges_turns_at_the_junctions_of_its_map(tmp_path):
    package = _turning_package(tmp_path / "case_51_901_2023")
    assert replay_package(package).direction_match == (True, True)
    map_path = package / "map.xodr"
    without_junction = re.sub(r"  <junction .*?</junction>\n", "",
                              map_path.read_text("utf-8"), flags=re.S)
    assert "<junction" not in without_junction
    map_path.write_text(without_junction, "utf-8")
    # the same track, on a map where it passes no junction, goes straight
    assert replay_package(package).direction_match == (False, True)


@pytest.mark.parametrize("horizon_s", [12.0, 20.0, 30.0])
def test_curve_packages_at_long_horizons(tmp_path, horizon_s):
    # following a 400 m-radius arc for a long run is no turn
    fixtures = tmp_path / "fixtures"
    key = corpus.write_case(fixtures, "ftf_curve", 103, 2)
    config = PipelineConfig(offline=True, fixtures_dir=fixtures, out_dir=tmp_path / "out",
                            estimation=EstimationSettings(horizon_s=horizon_s))
    outcome = run_case(key, config)
    assert outcome.package is not None, outcome.reason
    assert replay_package(outcome.package.directory).passed


_odd_floats = st.one_of(
    st.floats(),  # nan, +-inf, -0.0 and subnormals included
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300, 1e16, 0.1, 123456789.0,
                     math.nan, math.inf, -math.inf]),
)
_speeds = st.one_of(_odd_floats, st.integers(-5, 10**6))
_waypoints = st.lists(
    st.builds(Waypoint, st.builds(PlanarPoint, _odd_floats, _odd_floats), _odd_floats, _speeds),
    max_size=6,
)
_states = st.builds(InitialState, st.builds(PlanarPoint, _odd_floats, _odd_floats),
                    _odd_floats, _speeds, st.integers(-3, 10**9), st.integers(-3, 3))


_scored_floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308,
                     math.nan, math.inf, -math.inf]),
)
_scored_points = st.builds(PlanarPoint, _scored_floats, _scored_floats)
_scored_states = st.builds(InitialState, _scored_points, st.floats(-math.pi, math.pi),
                           _scored_floats, st.integers(-3, 99), st.integers(-3, 3))
_scored_waypoints = st.lists(st.builds(Waypoint, _scored_points, st.just(0.0), _scored_floats),
                             max_size=5)


def _bits(point):
    return point.x.hex(), point.y.hex()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_scored_points, _scored_states, _scored_states, _scored_waypoints, _scored_waypoints)
def test_scenario_document_roundtrips_every_scored_field(crash, state_a, state_b,
                                                         waypoints_a, waypoints_b):
    # scoring reads these fields alone, so run and replay score the same floats
    scene = SceneSpec(CaseKey(51, 1, 2023), crash, (state_a, state_b), (1, 2),
                      (Maneuver.GOING_STRAIGHT, Maneuver.OTHER))
    trajectories = (Trajectory(tuple(waypoints_a)), Trajectory(tuple(waypoints_b)))
    parsed_scene, parsed_trajectories = parse_scenario(scenario_document(scene, trajectories))
    assert _bits(parsed_scene.crash_point) == _bits(crash)
    for state, parsed in zip(scene.states, parsed_scene.states):
        assert _bits(parsed.position) == _bits(state.position)
        assert parsed.speed.hex() == state.speed.hex()
    for trajectory, parsed in zip(trajectories, parsed_trajectories):
        assert [_bits(w.position) for w in parsed.waypoints] \
            == [_bits(w.position) for w in trajectory.waypoints]


@given(st.builds(CaseKey, st.integers(0, 99), st.integers(0, 10**6), st.integers(1900, 2100)),
       st.builds(PlanarPoint, _odd_floats, _odd_floats), _states, _states,
       st.sampled_from(list(Maneuver)), st.sampled_from(list(Maneuver)),
       _waypoints, _waypoints, st.booleans())
def test_scenario_document_equals_json_dumps(key, crash, state_a, state_b, maneuver_a,
                                             maneuver_b, waypoints_a, waypoints_b, same_ids):
    ids = (7, 7) if same_ids else (1, 2)
    scene = SceneSpec(key, crash, (state_a, state_b), ids, (maneuver_a, maneuver_b))
    trajectories = [Trajectory(tuple(waypoints_a)), Trajectory(tuple(waypoints_b))]
    assert scenario_document(scene, trajectories) == _json_dumps_scenario(scene, trajectories)


# --- CLI ---


def test_cli_run_and_replay_and_stats_and_plot(tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    corpus.write_case(fixtures, "ftf_straight", 501, 30)
    out_dir = tmp_path / "out"
    rc = cli.main([
        "run", "--state", "51", "--case", "501", "--year", "2023",
        "--fixtures", str(fixtures), "--out", str(out_dir),
    ])
    assert rc == 0
    assert "package" in capsys.readouterr().out
    package_dir = out_dir / "case_51_501_2023"
    assert package_dir.is_dir()

    rc = cli.main(["replay", str(package_dir)])
    assert rc == 0
    assert '"passed": true' in capsys.readouterr().out

    rc = cli.main(["stats", str(out_dir)])
    assert rc == 0
    assert "Front-to-Front" in capsys.readouterr().out

    rc = cli.main(["plot", str(package_dir)])
    assert rc == 0
    capsys.readouterr()
    assert (package_dir / "plot.svg").is_file()


@pytest.mark.parametrize("command", ["replay", "plot"])
def test_cli_reports_malformed_map(good_batch, tmp_path, capsys, command):
    package = tmp_path / "case"
    shutil.copytree(good_batch[2][0].directory, package)
    map_path = package / "map.xodr"
    map_path.write_text(re.sub(r' x="[^"]*"', "", map_path.read_text("utf-8"), count=1),
                        "utf-8")
    assert cli.main([command, str(package)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable <geometry>"), err


def test_cli_batch(tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    keys = [
        corpus.write_case(fixtures, "ftf_straight", 601, 40),
        corpus.write_case(fixtures, "incomplete_coords", 602, 41),
    ]
    case_file = tmp_path / "cases.txt"
    case_file.write_text("\n".join(k.slug for k in keys) + "\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = cli.main([
        "batch", "--cases", str(case_file),
        "--fixtures", str(fixtures), "--out", str(out_dir),
        "--parallelism", "2",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "processed 2 cases: packages=1 IncompleteInfo=1\n"
    ledger = (out_dir / "ledger.txt").read_text("utf-8").splitlines()
    assert len(ledger) == 2
    assert ledger[0].startswith("51_601_2023\tpackage")
    assert ledger[1] == "51_602_2023\texcluded\tIncompleteInfo"


def test_cli_replay_reproduces_every_batch_package(tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    keys = corpus.write_good_corpus(fixtures)
    case_file = tmp_path / "cases.txt"
    case_file.write_text("".join(k.slug + "\n" for k in keys), encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = cli.main(["batch", "--cases", str(case_file), "--fixtures", str(fixtures),
                   "--out", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    packages = sorted(out_dir.glob("case_*"))
    assert len(packages) == len(keys)
    for package in packages:
        assert cli.main(["replay", str(package)]) == 0
        assert capsys.readouterr().out == (package / "validation.json").read_text("utf-8")


def test_unreadable_map_fixture_does_not_abort_batch(good_batch, tmp_path, caplog):
    keys, _, _, outcomes = good_batch
    fixtures = tmp_path / "fixtures"
    corpus.write_good_corpus(fixtures)
    # a non-numeric latitude, and a node whose latitude attribute is missing
    bad_keys, bad_paths = [], []
    for case, index, damaged in ((650, 30, ' lat="abc" x="'), (651, 31, ' x="')):
        bad = corpus.write_case(fixtures, "ftf_straight", case, index)
        osm_path = fixtures / f"{bad.slug}.osm"
        text = osm_path.read_text("utf-8")
        osm_path.write_text(text.replace(' lat="', damaged, 1), encoding="utf-8")
        bad_keys.append(bad)
        bad_paths.append(osm_path)
    case_file = tmp_path / "cases.txt"
    case_file.write_text("".join(k.slug + "\n" for k in [*keys, *bad_keys]), encoding="utf-8")
    rc = cli.main(["batch", "--cases", str(case_file), "--fixtures", str(fixtures),
                   "--out", str(tmp_path / "out"), "--parallelism", "2"])
    assert rc == 0
    ledger = (tmp_path / "out" / "ledger.txt").read_text("utf-8").splitlines()
    assert ledger == [o.ledger_line() for o in outcomes] + [
        f"{bad.slug}\texcluded\tFetchFailed" for bad in bad_keys]
    warnings = [r.getMessage() for r in caplog.records if r.name == "crashtrace.osm"]
    assert [m.split(":")[0] for m in warnings] \
        == [f"skipping unreadable map fixture {path.name}" for path in bad_paths]
    assert all("unreadable <node>" in m for m in warnings)


def test_internal_error_is_one_ledger_line(good_batch, tmp_path, monkeypatch, caplog):
    from crashtrace import pipeline

    keys, config, _, outcomes = good_batch
    broken = keys[2]
    reconstruct = pipeline._reconstruct

    def failing(key, *args):
        if key == broken:
            raise RuntimeError("stage bug")
        return reconstruct(key, *args)

    monkeypatch.setattr(pipeline, "_reconstruct", failing)
    config = PipelineConfig(offline=True, fixtures_dir=config.fixtures_dir,
                            out_dir=tmp_path / "out", parallelism=2)
    packages, again = run_batch(keys, config)
    assert len(packages) == len(keys) - 1
    expected = [o.ledger_line() for o in outcomes]
    expected[2] = f"{broken.slug}\texcluded\tInternalError"
    assert [o.ledger_line() for o in again] == expected
    assert again[2].reason is ExclusionReason.INTERNAL_ERROR
    logged = [r.exc_info[1] for r in caplog.records if r.name == "crashtrace.pipeline"]
    assert [str(exc) for exc in logged] == ["stage bug"]


def test_each_case_locates_its_crash_point_once(good_batch, tmp_path, monkeypatch):
    from crashtrace import estimator, pipeline, roadnet, trajectory

    keys, config, _, _ = good_batch
    calls = []

    def counted(network, point):
        calls.append(point)
        return roadnet.locate_crash_point(network, point)

    for module in (pipeline, trajectory, estimator):
        if hasattr(module, "locate_crash_point"):
            monkeypatch.setattr(module, "locate_crash_point", counted)
    config = PipelineConfig(offline=True, fixtures_dir=config.fixtures_dir,
                            out_dir=tmp_path / "out")
    for key in keys:
        calls.clear()
        assert run_case(key, config).package is not None
        assert len(calls) == 1, key.slug


def test_non_finite_speed_is_unknown_speed(tmp_path):
    # 1e309 parses to inf; it must read as "no speed given", not end the case
    origin = corpus.case_origin(0)
    straight = {"clock": 12, "maneuver": "Going Straight"}
    packages = []
    for label, speed in (("inf", "1e309"), ("unknown", None)):
        fixtures = tmp_path / label / "fixtures"
        key = corpus.write_case(fixtures, "ftf_straight", 310, 0)
        (fixtures / f"{key.slug}.xml").write_text(corpus.report_xml(
            coords=origin, vehicles=[{"speed_mph": speed, **straight}, straight]),
            encoding="utf-8")
        config = PipelineConfig(offline=True, fixtures_dir=fixtures,
                                out_dir=tmp_path / label / "out")
        packages.append(run_case(key, config).package)
    inf_case, unknown_case = packages
    assert inf_case is not None and unknown_case is not None
    for name in ("scenario.json", "validation.json"):
        assert (inf_case.directory / name).read_bytes() \
            == (unknown_case.directory / name).read_bytes()


@pytest.mark.parametrize("first, second", [
    ('<Vehicle number="1">', '<Vehicle number="1">'),
    ('<Vehicle number="2">', "<Vehicle>"),  # an unnumbered second vehicle reads as 2
], ids=["both_1", "2_then_unnumbered"])
def test_duplicate_vehicle_ids_keep_their_own_trajectories(tmp_path, first, second):
    fixtures = tmp_path / "fixtures"
    key = corpus.write_case(fixtures, "ftf_straight", 501, 30)
    path = fixtures / f"{key.slug}.xml"
    head, tail = path.read_text("utf-8").split('<Vehicle number="2">')
    path.write_text(head.replace('<Vehicle number="1">', first) + second + tail, encoding="utf-8")
    config = PipelineConfig(offline=True, fixtures_dir=fixtures, out_dir=tmp_path / "out")
    package = run_case(key, config).package
    assert package is not None
    doc = json.loads((package.directory / "scenario.json").read_text("utf-8"))
    assert len({v["id"] for v in doc["vehicles"]}) == 1
    for vehicle in doc["vehicles"]:
        start = vehicle["waypoints"][0]
        assert (start["x"], start["y"]) == (vehicle["spawn"]["x"], vehicle["spawn"]["y"])


_OVERPASS_TIMEOUT = """<?xml version="1.0" encoding="UTF-8"?>
<osm version="0.6" generator="Overpass API">
<remark> runtime error: Query timed out in "query" at line 1 after 61 seconds. </remark>
</osm>
"""


@pytest.mark.parametrize("answer", [
    "<html><body>Too many requests<br></body></html>",
    "truncated",
    "<html>busy</html>",
    _OVERPASS_TIMEOUT,
    "non_finite_node",
], ids=["malformed_html", "truncated", "html", "overpass_timeout", "non_finite_node"])
def test_unreadable_overpass_answer_is_a_fetch_failure_and_not_cached(tmp_path, answer):
    origin = corpus.case_origin(0)
    report, osm_text = corpus.case_fixture("ftf_straight", origin)
    if answer == "truncated":
        answer = osm_text[: len(osm_text) // 2]
    elif answer == "non_finite_node":
        answer = osm_text.replace(' lon="', ' lon="inf" x="', 1)
    cache = tmp_path / "cache"
    config = PipelineConfig(cache_dir=cache, out_dir=tmp_path / "out",
                            report_transport=lambda url: report,
                            osm_transport=lambda url, query: answer)
    key = CaseKey(51, 320, 2023)
    assert run_case(key, config).ledger_line() == f"{key.slug}\texcluded\tFetchFailed"
    assert list(cache.glob("osm_*.osm")) == []


def test_unreadable_crash_api_answer_is_a_fetch_failure_and_not_cached(tmp_path):
    origin = corpus.case_origin(0)
    report, osm_text = corpus.case_fixture("ftf_straight", origin)
    cache = tmp_path / "cache"
    key = CaseKey(51, 321, 2023)

    def config(report_answer):
        return PipelineConfig(cache_dir=cache, out_dir=tmp_path / "out",
                              report_transport=lambda url: report_answer,
                              osm_transport=lambda url, query: osm_text)

    busy = run_case(key, config("<html><body>Service busy<br></body></html>"))
    assert busy.ledger_line() == f"{key.slug}\texcluded\tFetchFailed"
    assert not (cache / f"{key.slug}.xml").exists()
    assert run_case(key, config(report)).ledger_line() == f"{key.slug}\tpackage\t-"


def test_unreadable_report_fixture_is_a_fetch_failure(tmp_path):
    # the same verdict as for an unreadable answer from the service or the cache
    fixtures = tmp_path / "fixtures"
    key = corpus.write_case(fixtures, "ftf_straight", 322, 0)
    path = fixtures / f"{key.slug}.xml"
    text = path.read_text("utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")
    config = PipelineConfig(offline=True, fixtures_dir=fixtures, out_dir=tmp_path / "out")
    assert run_case(key, config).ledger_line() == f"{key.slug}\texcluded\tFetchFailed"


def test_tag_without_key_is_skipped(tmp_path):
    origin = corpus.case_origin(0)
    report, osm_text = corpus.case_fixture("ftf_straight", origin)
    odd = osm_text.replace("    <tag ", '    <tag v="x"/>\n    <tag ', 1)
    assert odd != osm_text
    maps = {}
    for label, answer in (("clean", osm_text), ("odd", odd)):
        config = PipelineConfig(out_dir=tmp_path / label,
                                report_transport=lambda url: report,
                                osm_transport=lambda url, query, answer=answer: answer)
        outcome = run_case(CaseKey(51, 320, 2023), config)
        assert outcome.package is not None, outcome.ledger_line()
        maps[label] = (outcome.package.directory / "map.osm").read_bytes()
    assert maps["odd"] == maps["clean"]


def test_zero_length_way_is_skipped(tmp_path):
    # a way whose nodes coincide makes no road, so the case keeps its own roads' verdict
    origin = corpus.case_origin(0)
    report, _ = corpus.case_fixture("ftf_straight", origin)
    nodes, ways = corpus.straight_road_layout()
    nodes = {**nodes, 39: (100.0, 150.0), 40: (100.0, 150.0)}
    osm_text = corpus.osm_xml(origin, nodes, [*ways, (40, [39, 40], {"highway": "service"})])
    config = PipelineConfig(out_dir=tmp_path / "out", report_transport=lambda url: report,
                            osm_transport=lambda url, query: osm_text)
    outcome = run_case(CaseKey(51, 323, 2023), config)
    assert outcome.ledger_line() == "51_323_2023\tpackage\t-"


@pytest.mark.parametrize("topology, collision, relation, verdict", [
    # both reported straight, but every placement on the ring exits right onto the arm
    ("Traffic Circle / Roundabout", "Angle", "Intersecting Paths",
     "excluded\tEstimationFailed"),
    # off the ring the arm's own approaches serve both vehicles, head-on
    ("Not an Intersection", "Front-to-Front", "Same Trafficway, Opposite Direction",
     "package\t-"),
])
def test_traffic_circle_verdicts(tmp_path, topology, collision, relation, verdict):
    # a closed roundabout way with four arms; the crash lies 25 m down the south arm
    origin = corpus.case_origin(0)
    report = corpus.report_xml(coords=origin, collision=collision, topology=topology,
                               relation=relation)
    osm_text = corpus.osm_xml(origin, *corpus.traffic_circle_layout())
    config = PipelineConfig(out_dir=tmp_path / "out", report_transport=lambda url: report,
                            osm_transport=lambda url, query: osm_text)
    outcome = run_case(CaseKey(51, 330, 2023), config)
    assert outcome.ledger_line() == f"51_330_2023\t{verdict}"


# --- batches: network waits overlap, one case computes at a time ---


@pytest.mark.parametrize("mode, verdict", [
    ("heuristic", "package\t-"),
    ("llm", "excluded\tEstimationFailed"),
])
def test_network_waits_overlap_across_cases(tmp_path, mode, verdict):
    # every transport answers only once both cases wait on it, so a case that
    # kept the compute slot through a wait would break the barrier
    report, osm_text = corpus.case_fixture("ftf_straight", corpus.case_origin(0))
    barriers = [threading.Barrier(2, timeout=5) for _ in range(3)]

    def after_both(barrier, answer):
        barrier.wait()
        return answer

    config = PipelineConfig(
        out_dir=tmp_path / "out", parallelism=2,
        estimation=EstimationSettings(
            max_retries=0,
            llm_transport=(lambda prompt: after_both(barriers[2], "no json"))
            if mode == "llm" else None),
        report_transport=lambda url: after_both(barriers[0], report),
        osm_transport=lambda url, query: after_both(barriers[1], osm_text))
    keys = [CaseKey(51, 320, 2023), CaseKey(51, 321, 2023)]
    _, outcomes = run_batch(keys, config)
    assert [o.ledger_line() for o in outcomes] == [f"{k.slug}\t{verdict}" for k in keys]


def test_one_case_computes_at_a_time(good_batch, tmp_path, monkeypatch):
    from crashtrace import pipeline

    keys, config, _, outcomes = good_batch
    build = pipeline.build_road_network
    lock = threading.Lock()
    inside, most = 0, 0

    def counted(*args):
        nonlocal inside, most
        with lock:
            inside += 1
            most = max(most, inside)
        try:
            time.sleep(0.01)
            return build(*args)
        finally:
            with lock:
                inside -= 1

    monkeypatch.setattr(pipeline, "build_road_network", counted)
    config = PipelineConfig(offline=True, fixtures_dir=config.fixtures_dir,
                            out_dir=tmp_path / "out", parallelism=4)
    _, again = run_batch(keys, config)
    assert [o.ledger_line() for o in again] == [o.ledger_line() for o in outcomes]
    assert most == 1


def test_a_batch_of_width_one_computes_in_the_calling_thread(good_batch, tmp_path,
                                                           monkeypatch):
    from crashtrace import pipeline

    keys, config, _, _ = good_batch
    run, pool = pipeline.run_case, pipeline.ThreadPoolExecutor
    threads = []

    def recorded(*args):
        threads.append(threading.current_thread())
        return run(*args)

    def no_pool(*args, **kwargs):
        raise AssertionError("a batch of width 1 started a thread pool")

    monkeypatch.setattr(pipeline, "run_case", recorded)
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
    report, osm_text = corpus.case_fixture("ftf_straight", corpus.case_origin(0))
    offline = PipelineConfig(offline=True, fixtures_dir=config.fixtures_dir,
                             out_dir=tmp_path / "offline")
    online = PipelineConfig(out_dir=tmp_path / "online", parallelism=1,
                            report_transport=lambda url: report,
                            osm_transport=lambda url, query: osm_text)
    online_keys = [CaseKey(51, 320, 2023), CaseKey(51, 321, 2023)]
    for batch_config, batch_keys in ((offline, keys), (online, online_keys)):
        threads.clear()
        _, outcomes = run_batch(batch_keys, batch_config)
        assert not any(o.excluded for o in outcomes)
        assert threads == [threading.current_thread()] * len(batch_keys)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", pool)
    threads.clear()
    run_batch(keys, PipelineConfig(offline=True, fixtures_dir=config.fixtures_dir,
                                   out_dir=tmp_path / "pool", parallelism=2))
    assert len(threads) == len(keys)
    assert threading.current_thread() not in threads


_OFFLINE_BATCH_WITHOUT_REQUESTS = """
import sys
from pathlib import Path

sys.modules["requests"] = None  # any import of it now fails
import corpus
from crashtrace import cli

root = Path(sys.argv[1])
keys = corpus.write_ledger_corpus(root / "fixtures")
(root / "cases.txt").write_text("".join(k.slug + "\\n" for k in keys), encoding="utf-8")
rc = cli.main(["batch", "--cases", str(root / "cases.txt"),
               "--fixtures", str(root / "fixtures"), "--out", str(root / "out")])
assert rc == 0, rc
assert "urllib.request" not in sys.modules, "offline run loaded the HTTP client"
"""


def test_offline_batch_needs_no_http_client(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _OFFLINE_BATCH_WITHOUT_REQUESTS, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    ledger = (tmp_path / "out" / "ledger.txt").read_text("utf-8").splitlines()
    assert len(ledger) == len(corpus.LEDGER_CORPUS)


_CORPUS_IMPORTS = """
import sys

import corpus

loaded = sorted({"http.server", "unittest.mock", "socket"} & set(sys.modules))
assert not loaded, loaded
"""


def test_corpus_module_imports_no_test_servers():
    # the benchmark imports tests/corpus.py, so what it loads counts toward peak memory
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _CORPUS_IMPORTS],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def one_case_run(tmp_path):
    fixtures = tmp_path / "fixtures"
    key = corpus.write_case(fixtures, "ftf_straight", 702, 47)
    return ["run", "--state", str(key.state), "--case", str(key.state_case),
            "--year", str(key.case_year), "--fixtures", str(fixtures),
            "--out", str(tmp_path / "out")]


def _rejected(argv, capsys, tmp_path):
    rc = cli.main(argv)
    err = capsys.readouterr().err
    return rc == 1 and err.startswith("error: ") and not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
def test_cli_rejects_bad_radius(one_case_run, value, capsys, tmp_path):
    assert _rejected([*one_case_run, "--radius", value], capsys, tmp_path)


@pytest.mark.parametrize("value", ["0", "-6", "nan", "inf"])
def test_cli_rejects_bad_horizon(one_case_run, value, capsys, tmp_path):
    assert _rejected([*one_case_run, "--horizon", value], capsys, tmp_path)


def test_cli_rejects_negative_max_retries(one_case_run, capsys, tmp_path):
    argv = [*one_case_run, "--llm-endpoint", closed_port_url(), "--max-retries", "-1"]
    assert _rejected(argv, capsys, tmp_path)


def test_cli_rejects_parallelism_below_one(one_case_run, capsys, tmp_path):
    assert _rejected([*one_case_run, "--parallelism", "0"], capsys, tmp_path)


@pytest.mark.parametrize("cases_text", [None, "", "\n  \n", "51_702_2023\n51 702\n",
                                        "51 702 twenty\n"],
                         ids=["missing", "empty", "blank", "two_fields", "not_a_number"])
def test_cli_rejects_bad_case_list(cases_text, capsys, tmp_path):
    fixtures = tmp_path / "fixtures"
    corpus.write_case(fixtures, "ftf_straight", 702, 47)
    cases = tmp_path / "cases.txt"
    if cases_text is not None:
        cases.write_text(cases_text, encoding="utf-8")
    argv = ["batch", "--cases", str(cases), "--fixtures", str(fixtures),
            "--out", str(tmp_path / "out")]
    assert _rejected(argv, capsys, tmp_path)


def test_cli_rejects_missing_fixture_directory(one_case_run, capsys, tmp_path):
    argv = [*one_case_run, "--fixtures", str(tmp_path / "absent")]
    assert _rejected(argv, capsys, tmp_path)
    (tmp_path / "cases.txt").write_text("51_702_2023\n", encoding="utf-8")
    argv = ["batch", "--cases", str(tmp_path / "cases.txt"), "--fixtures",
            str(tmp_path / "absent"), "--out", str(tmp_path / "out")]
    assert _rejected(argv, capsys, tmp_path)


def test_cli_llm_endpoint_selects_the_llm_estimator(one_case_run, capsys):
    # the heuristic packages this case, so only the unreachable endpoint can exclude it
    assert cli.main([*one_case_run, "--llm-endpoint", closed_port_url()]) == 0
    assert capsys.readouterr().out.endswith("\texcluded\tEstimationFailed\n")


def test_cli_exit_codes(tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    key = corpus.write_case(fixtures, "ftf_straight", 701, 46)
    (tmp_path / "cases.txt").write_text(key.slug + "\n", encoding="utf-8")
    common = ["--fixtures", str(fixtures), "--out", str(tmp_path / "out")]
    run = ["run", "--state", "51", "--case", "701", "--year", "2023", *common]
    # unknown flags are configuration errors, the flags that once chose a mode included
    for flags in (["--bogus"], ["--offline"], ["--estimator", "heuristic"]):
        assert cli.main([*run, *flags]) == 1
    assert not (tmp_path / "out").exists()
    # the replay timestep is fixed, so a verdict cannot depend on it
    assert cli.main(run) == 0
    assert cli.main([*run, "--dt", "0.2"]) == 1
    assert cli.main(["batch", "--cases", str(tmp_path / "cases.txt"), *common, "--dt", "0.2"]) == 1
    assert cli.main(["replay", str(tmp_path / "out" / f"case_{key.slug}"), "--dt", "0.2"]) == 1
    # an excluded case still exits 0: the case was processed
    corpus.write_case(fixtures, "incomplete_coords", 700, 45)
    rc = cli.main([
        "run", "--state", "51", "--case", "700", "--year", "2023",
        "--fixtures", str(fixtures), "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    capsys.readouterr()
