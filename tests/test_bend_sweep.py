"""Pins the heuristic estimator's verdicts on single-bend roads.

One ``highway=secondary`` way bends once, ``bend_distance`` meters behind a
20 m straight that runs through the crash at (0, 0) and on to (200, 0). The
grid crosses bend angle, bend side, bend distance, lane count, speeds and
the same-trafficway relation; both vehicles are going straight. Every
case's verdict, attempt count and proposed states are hashed together, so
any change to a placement, a check or the clip-and-retry shows here.
"""

import hashlib
import itertools
import math

from crashtrace.errors import EstimationFailed
from crashtrace.estimator import candidate_regions, estimate_with_feedback
from crashtrace.geometry import PlanarPoint
from crashtrace.osm import parse_osm
from crashtrace.reports import CaseKey, RawCaseDocument, parse_report
from crashtrace.roadnet import build_road_network, locate_crash_point, unify_lanes

from corpus import case_origin, osm_xml, report_xml

ORIGIN = case_origin(0)
ANGLES_DEG = range(10, 171, 10)
SIDES = (1, -1)
BEND_DISTANCES = (0.05, 0.3, 1.0, 3.0, 8.0, 20.0, 60.0)
LANES = (None, "4", "6")
SPEEDS_MPH = ((30, 7.5), (20, 20), (45, 11))
RELATIONS = (
    ("Same Trafficway, Opposite Direction", "Front-to-Front", 12),
    ("Same Trafficway, Same Direction", "Front-to-Rear", 6),
)


def _bend_network(theta_deg, side, bend_distance, lanes):
    theta = math.radians(theta_deg)
    vx = -20.0 - bend_distance
    nodes = {
        1: (vx - 300.0 * math.cos(theta), -300.0 * math.sin(theta) * side),
        2: (vx, 0.0),
        3: (0.0, 0.0),
        4: (200.0, 0.0),
    }
    tags = {"highway": "secondary"}
    if lanes is not None:
        tags["lanes"] = lanes
    graph = parse_osm(osm_xml(ORIGIN, nodes, [(10, [1, 2, 3, 4], tags)]))
    return unify_lanes(build_road_network(graph, ORIGIN))


def _report(speeds, relation, collision, clock_2):
    vehicles = [
        {"speed_mph": speeds[0], "clock": 12, "maneuver": "Going Straight"},
        {"speed_mph": speeds[1], "clock": clock_2, "maneuver": "Going Straight"},
    ]
    xml = report_xml(coords=ORIGIN, collision=collision, relation=relation,
                     vehicles=vehicles)
    return parse_report(RawCaseDocument(CaseKey(51, 101, 2023), xml))


def test_heuristic_verdicts_on_single_bend_roads():
    reports = [
        _report(speeds, relation, collision, clock_2)
        for speeds, (relation, collision, clock_2) in itertools.product(SPEEDS_MPH, RELATIONS)
    ]
    counts = {"first": 0, "snap": 0, "failed": 0}
    digest = hashlib.sha256()
    for theta, side, bend_distance, lanes in itertools.product(
            ANGLES_DEG, SIDES, BEND_DISTANCES, LANES):
        network = _bend_network(theta, side, bend_distance, lanes)
        crash = locate_crash_point(network, PlanarPoint(0.0, 0.0))
        for report in reports:
            region = candidate_regions(network, report, crash)
            try:
                _, trace = estimate_with_feedback(report, network, region)
            except EstimationFailed as exc:
                verdict, trace = "failed", exc.trace
            else:
                verdict = "first" if trace.attempt_count == 1 else "snap"
            counts[verdict] += 1
            proposals = tuple(attempt[0] for attempt in trace.attempts)
            digest.update(f"{verdict} {trace.attempt_count} {proposals!r}\n".encode())
    assert counts == {"first": 2899, "snap": 170, "failed": 1215}
    assert digest.hexdigest() == (
        "1c8a4b691bc9055a499088546f8f7d9e79e0e77702733881a65aff7997b67bf1")
