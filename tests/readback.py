"""Readers the tests use to check what the pipeline wrote: a package's
``validation.json`` back into a ValidationReport, and how far two road
networks' shapes differ."""

import json
import math

from crashtrace.geometry import cumulative_lengths, distance, point_at
from crashtrace.roadnet import RoadNetwork
from crashtrace.simulator import ValidationReport


def validation_from_json(text: str) -> ValidationReport:
    doc = json.loads(text)
    err = doc["location_error_m"]
    return ValidationReport(
        location_error=math.inf if err is None else float(err),
        clock_deviation=tuple(
            None if d == "skipped" else int(d) for d in doc["clock_deviation"]
        ),
        direction_match=tuple(bool(d) for d in doc["direction_match"]),
        passed=bool(doc["passed"]),
    )


def roundtrip_distance_error(a: RoadNetwork, b: RoadNetwork, samples: int = 8) -> float:
    """Worst relative pairwise-distance deviation between matched networks."""
    pts_a, pts_b = [], []
    roads_b = {r.road_id: r for r in b.roads}
    for ra in a.roads:
        rb = roads_b[ra.road_id]
        cum_a = cumulative_lengths(ra.centerline)
        cum_b = cumulative_lengths(rb.centerline)
        for k in range(samples):
            s = cum_a[-1] * k / max(samples - 1, 1)
            pts_a.append(point_at(ra.centerline, s, cum_a))
            pts_b.append(point_at(rb.centerline, min(s, cum_b[-1]), cum_b))
    worst = 0.0
    for i in range(len(pts_a)):
        for j in range(i + 1, len(pts_a)):
            da = distance(pts_a[i], pts_a[j])
            db = distance(pts_b[i], pts_b[j])
            if da > 1e-9:
                worst = max(worst, abs(db - da) / da)
    return worst
