"""Spans around the public functions of each crashtrace layer.

The benchmark patches the names where their callers bind them (most of
them in ``crashtrace.pipeline``, which imports them directly) and restores
them afterwards; nothing under ``src/`` changes. Each span records name,
start, end, parent span and case id. Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from crashtrace import crash_api, estimator, opendrive, osm, pipeline, reports


def _case_of_run(args) -> str:
    return args[0].slug


def _case_of_replay(args) -> str:
    return Path(args[0]).name


def _roads(args, result) -> dict:
    return {"roadnet.roads_in": len(args[0].roads), "roadnet.roads_out": len(result.roads)}


# (span name, owner the caller reads the name from, attribute, counter, root case id)
TARGETS = (
    ("pipeline.run_case", pipeline, "run_case", None, _case_of_run),
    ("pipeline.replay_package", pipeline, "replay_package", None, _case_of_replay),
    ("crash_api.fetch_case", crash_api.CrashApiClient, "fetch_case", None, None),
    ("reports.parse_report", reports, "parse_report", None, None),
    ("osm.retrieve_osm", osm.OsmClient, "retrieve_osm", None, None),
    ("osm.parse_osm", osm, "parse_osm", None, None),
    ("osm.prune_osm", osm, "prune_osm", None, None),
    ("osm.write_osm", osm, "write_osm", None, None),
    ("roadnet.build_road_network", pipeline, "build_road_network", None, None),
    ("roadnet.unify_lanes", pipeline, "unify_lanes", _roads, None),
    ("roadnet.validate_geometry", pipeline, "validate_geometry", None, None),
    ("roadnet.locate_crash_point", pipeline, "locate_crash_point", None, None),
    ("estimator.candidate_regions", estimator, "candidate_regions", None, None),
    ("estimator.estimate_with_feedback", estimator, "estimate_with_feedback",
     lambda args, result: {"estimator.attempts": result[1].attempt_count}, None),
    ("trajectory.generate_trajectory", pipeline, "generate_trajectory",
     lambda args, result: {"trajectory.waypoints": len(result.waypoints)}, None),
    ("opendrive.emit_opendrive", opendrive, "emit_opendrive", None, None),
    ("opendrive.parse_opendrive", opendrive, "parse_opendrive", None, None),
    ("pipeline.scenario_document", pipeline, "scenario_document", None, None),
    ("pipeline.parse_scenario", pipeline, "parse_scenario", None, None),
    ("simulator.simulate", pipeline, "simulate",
     lambda args, result: {"simulator.steps": len(result.paths[0])}, None),
    ("simulator.validate_reconstruction", pipeline, "validate_reconstruction", None, None),
)
ROOTS = ("pipeline.run_case", "pipeline.replay_package")
COUNTERS = ("roadnet.roads_in", "roadnet.roads_out", "estimator.attempts",
            "trajectory.waypoints", "simulator.steps")


class Tracer:
    """In-memory span recorder; safe for the pipeline's worker threads."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, str | None, int, int]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn, count=None, case_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent_id, parent_case = stack[-1] if stack else (0, None)
            span_id = next(self._ids)
            case = case_of(args) if case_of else parent_case
            stack.append((span_id, case))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((span_id, parent_id, name, case, start, end))
            if count is not None:
                increments = count(args, result)
                with self._lock:
                    self.counts.update(increments)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for name, owner, attr, count, case_of in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count, case_of))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> tuple[dict[str, int], Counter]:
        """Self time in ns and call count per span name."""
        covered: dict[int, int] = defaultdict(int)
        for _, parent_id, _, _, start, end in self.spans:
            covered[parent_id] += end - start
        totals: dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        for span_id, _, name, _, start, end in self.spans:
            totals[name] += end - start - covered.get(span_id, 0)
            calls[name] += 1
        return totals, calls

    def uncovered_ns(self, start: int, end: int) -> int:
        """Part of [start, end] that no root span covers, across threads."""
        roots = sorted((s, e) for _, parent, _, _, s, e in self.spans if parent == 0)
        covered, reach = 0, start
        for s, e in roots:
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        return (end - start) - covered

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent_id, name, case, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent_id, "name": name,
                                     "case": case, "start_ns": start, "end_ns": end}) + "\n")
