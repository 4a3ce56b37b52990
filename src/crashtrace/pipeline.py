"""End-to-end per-case orchestration, batch runs, and the exclusion ledger.

Every case either yields a package directory (verbatim report, summary,
pruned map, OpenDRIVE map, scene document, validation report) or exactly
one exclusion reason; a batch never aborts on a bad case, so the ledger is
a total accounting of its inputs. Deterministic: the same fixtures produce
byte-identical packages at any parallelism.

``run`` and ``replay`` score through one function, ``score_scenario``,
with the simulator's fixed timestep, grace period and body size. ``run``
scores the scene and trajectories it holds in memory, on its network's
junctions, and serializes the package only once the case has passed;
``replay_package`` scores what it parses back from ``scenario.json``, on the
junctions of the ``map.xodr`` it ships. The two agree byte for byte because
scoring reads only spawn positions and speeds, waypoint positions, the
crash point and junction centres, and the documents write each as its
``repr``, which parses back to the same float.
"""

from __future__ import annotations

import json
import logging
import math
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

from . import crash_api, errors, estimator, opendrive, osm, reports
from .estimator import EstimationSettings, InitialState, SceneSpec
from .errors import ExclusionReason
from .geometry import PlanarPoint
from .reports import CaseKey, CrashReport, Maneuver
from .roadnet import (
    Junction, build_road_network, locate_crash_point, unify_lanes, validate_geometry)
from .simulator import (
    ReplayOutcome,
    ValidationReport,
    simulate,
    validate_reconstruction,
    validation_to_json,
)
# the estimator plans each case's trajectories; bench/tracer.py patches this name
from .trajectory import Trajectory, Waypoint, generate_trajectory  # noqa: F401

logger = logging.getLogger(__name__)


PACKAGE_FILES = (
    "report.xml", "summary.md", "map.osm", "map.xodr", "scenario.json", "validation.json",
)


@dataclass(frozen=True)
class CasePackage:
    case_key: CaseKey
    directory: Path


@dataclass(frozen=True)
class CaseOutcome:
    case_key: CaseKey
    package: CasePackage | None = None
    reason: ExclusionReason | None = None

    @property
    def excluded(self) -> bool:
        return self.reason is not None

    def ledger_line(self) -> str:
        if self.excluded:
            return f"{self.case_key.slug}\texcluded\t{self.reason.value}"
        return f"{self.case_key.slug}\tpackage\t-"


@dataclass
class PipelineConfig:
    api_base_url: str = crash_api.DEFAULT_API_BASE
    overpass_url: str = osm.DEFAULT_OVERPASS_URL
    cache_dir: Path | None = None
    offline: bool = False
    fixtures_dir: Path | None = None
    out_dir: Path = field(default_factory=lambda: Path("out"))
    radius_m: float = 500.0
    estimation: EstimationSettings = EstimationSettings()
    parallelism: int | None = None
    # test seams: injectable transports
    report_transport: Callable[[str], str] | None = None
    osm_transport: Callable[[str, str], str] | None = None


# One case computes at a time, and gives the lock up while a transport waits
# on a remote answer, so waits overlap across a pool's cases. Under the
# interpreter lock, threads that compute at once only interleave, and each
# keeps its working set alive while the others run, so memory would grow with
# the pool width; one lock per process, as the interpreter lock is. A batch of
# width 1 (the offline default) runs its cases in the calling thread, where
# nothing contends for it.
_COMPUTE = threading.Lock()


def _releasing(wait: Callable[..., str]) -> Callable[..., str]:
    """``wait`` with ``_COMPUTE``, which the calling case holds, given up meanwhile."""

    def call(*args):
        _COMPUTE.release()
        try:
            return wait(*args)
        finally:
            _COMPUTE.acquire()

    return call


@dataclass(frozen=True)
class Clients:
    """A run's document sources and estimation settings, for ``run_case`` alone:
    their transports expect the calling thread to hold ``_COMPUTE``."""

    report_client: crash_api.CrashApiClient
    osm_client: osm.OsmClient
    estimation: EstimationSettings


def build_clients(config: PipelineConfig) -> Clients:
    report_client = crash_api.CrashApiClient(
        base_url=config.api_base_url,
        cache_dir=config.cache_dir,
        offline=config.offline,
        fixtures_dir=config.fixtures_dir,
        transport=config.report_transport,
    )
    osm_client = osm.OsmClient(
        url=config.overpass_url,
        cache_dir=config.cache_dir,
        offline=config.offline,
        fixtures_dir=config.fixtures_dir,
        transport=config.osm_transport,
    )
    for client in (report_client, osm_client):
        client.transport = _releasing(client.transport)
    estimation = config.estimation
    if estimation.llm_transport is not None:
        estimation = replace(estimation, llm_transport=_releasing(estimation.llm_transport))
    return Clients(report_client, osm_client, estimation)


# ---------------------------------------------------------------------------
# scenario document (scene schema plus embedded waypoints)
# ---------------------------------------------------------------------------


def scenario_document(scene: SceneSpec, trajectories: Sequence[Trajectory]) -> str:
    """The scene with each vehicle's waypoints, byte for byte as ``json.dumps(doc,
    indent=2) + "\\n"`` writes it; every number is written as its ``repr``."""
    vehicles = []
    for vid, state, maneuver, trajectory in zip(
            scene.vehicle_ids, scene.states, scene.maneuvers, trajectories):
        waypoints = [f"""
        {{
          "x": {w.position.x!r},
          "y": {w.position.y!r},
          "heading_deg": {math.degrees(w.heading)!r},
          "target_speed_mps": {w.target_speed!r}
        }}""" for w in trajectory.waypoints]
        vehicles.append(f"""
    {{
      "id": {vid!r},
      "road_id": {state.road_id!r},
      "lane_index": {state.lane_index!r},
      "spawn": {{
        "x": {state.position.x!r},
        "y": {state.position.y!r},
        "heading_deg": {round(math.degrees(state.heading), 9)!r},
        "speed_mps": {state.speed!r}
      }},
      "maneuver": "{maneuver.value}",
      "waypoints": {_array(waypoints, "      ")}
    }}""")
    key, crash = scene.case_key, scene.crash_point
    text = f"""{{
  "case_key": {{
    "state": {key.state!r},
    "state_case": {key.state_case!r},
    "case_year": {key.case_year!r}
  }},
  "crash_point": {{
    "x": {crash.x!r},
    "y": {crash.y!r}
  }},
  "vehicles": {_array(vehicles, "  ")},
  "map_file": "map.xodr"
}}
"""
    # JSON spells repr's nan and inf as NaN and Infinity; no key or maneuver has them
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _array(items: list[str], closing_indent: str) -> str:
    return "[" + ",".join(items) + "\n" + closing_indent + "]" if items else "[]"


def parse_scenario(text: str) -> tuple[SceneSpec, tuple[Trajectory, ...]]:
    """Inverse of ``scenario_document``. ParseError on a malformed document,
    on one that does not list exactly two vehicles, and on one without
    ``map_file`` (although replay is given the map path)."""
    try:
        doc = json.loads(text)
        key, crash, _ = doc["case_key"], doc["crash_point"], doc["map_file"]
        vehicle_ids, states, maneuvers, trajectories = [], [], [], []
        for entry in doc["vehicles"]:
            spawn = entry["spawn"]
            vehicle_ids.append(int(entry["id"]))
            states.append(InitialState(
                _point(spawn), math.radians(float(spawn["heading_deg"])),
                float(spawn["speed_mps"]), int(entry["road_id"]), int(entry["lane_index"])))
            maneuvers.append(Maneuver(entry["maneuver"]))
            trajectories.append(Trajectory(tuple(
                Waypoint(_point(w), math.radians(float(w["heading_deg"])),
                         float(w["target_speed_mps"]))
                for w in entry.get("waypoints", ()))))
        scene = SceneSpec(
            CaseKey(int(key["state"]), int(key["state_case"]), int(key["case_year"])),
            _point(crash), tuple(states), tuple(vehicle_ids), tuple(maneuvers))
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise errors.ParseError(f"bad scenario document: {exc}") from exc
    if len(states) != 2:
        raise errors.ParseError(f"scenario lists {len(states)} vehicles, not 2")
    return scene, tuple(trajectories)


def _point(doc: dict) -> PlanarPoint:
    return PlanarPoint(float(doc["x"]), float(doc["y"]))


def score_scenario(
    scene: SceneSpec, trajectories: Sequence[Trajectory], report: CrashReport,
    junctions: Sequence[Junction],
) -> tuple[ReplayOutcome, ValidationReport]:
    """Replay a scene and score it against its case's report.

    ``run`` scores the scene it estimated, ``replay`` the one it parses from
    ``scenario.json``; both at the simulator's fixed timestep, grace period
    and body size, on the junctions of the case's map. Scoring reads each
    spawn's position and speed, each waypoint's position, the crash point
    and the junction centres, and no other field. The documents write each
    as its ``repr``, which parses back to the same float, so a replay
    reproduces the ``validation.json`` that ``run`` wrote. Waypoint headings
    do not round-trip, and are not read.
    """
    outcome = simulate(scene, trajectories, junctions)
    return outcome, validate_reconstruction(outcome, report, scene.crash_point)


# ---------------------------------------------------------------------------
# single case
# ---------------------------------------------------------------------------


def run_case(key: CaseKey, config: PipelineConfig, clients: Clients | None = None) -> CaseOutcome:
    """Run one case through every stage; failures become exclusion reasons.

    The case computes holding ``_COMPUTE``, which its transports give up only
    while they wait on a remote answer; the package is written without it. An
    excluded case deletes the package files an earlier run left in its
    directory, and the directory if that empties it.
    """
    clients = clients or build_clients(config)
    package_dir = Path(config.out_dir) / f"case_{key.slug}"
    try:
        with _COMPUTE:
            artifacts = _reconstruct(key, config, clients)
    except Exception as exc:
        reason = exc.reason if isinstance(exc, errors.CrashTraceError) else None
        if reason is None:
            logger.exception("case %s: internal error", key.slug)
            reason = ExclusionReason.INTERNAL_ERROR
        if package_dir.is_dir():  # an earlier run packaged the case: drop its files
            for name in PACKAGE_FILES:
                (package_dir / name).unlink(missing_ok=True)
            if not any(package_dir.iterdir()):
                package_dir.rmdir()
        return CaseOutcome(key, reason=reason)

    package_dir.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts.items():
        (package_dir / name).write_text(content, encoding="utf-8")
    return CaseOutcome(key, package=CasePackage(key, package_dir))


def _reconstruct(key: CaseKey, config: PipelineConfig, clients: Clients) -> dict[str, str]:
    raw = clients.report_client.fetch_case(key)
    report = reports.parse_report(raw)
    reports.check_reconstructable(report)

    origin = report.crash_coords
    graph = clients.osm_client.retrieve_osm(origin, config.radius_m)
    pruned = osm.prune_osm(graph, origin, config.radius_m)
    osm.check_flat(pruned)

    network = unify_lanes(build_road_network(pruned, origin))
    validate_geometry(pruned, network, origin)
    # the crash site is the projection origin, so it lands at planar (0, 0)
    crash_fix = locate_crash_point(network, PlanarPoint(0.0, 0.0))

    settings = clients.estimation
    region = estimator.candidate_regions(network, report, crash_fix, settings)
    scene, _trace, trajectories = estimator.estimate_with_feedback(
        report, network, region, settings)

    outcome, validation = score_scenario(scene, trajectories, report, network.junctions)
    if outcome.record is None:
        raise errors.FailedToCollide("the vehicles never touch in the replay")
    if not validation.passed:
        raise errors.ValidationFailed(
            f"location error {validation.location_error:.3f} m, clock deviations "
            f"{validation.clock_deviation}, direction matches {validation.direction_match}")

    # only a case that passed is serialized
    return {
        "report.xml": raw.body,
        "summary.md": emit_summary(report, validation),
        "map.osm": osm.write_osm(pruned),
        "map.xodr": opendrive.emit_opendrive(network),
        "scenario.json": scenario_document(scene, trajectories),
        "validation.json": validation_to_json(validation),
    }


# ---------------------------------------------------------------------------
# batches and the ledger
# ---------------------------------------------------------------------------


def run_batch(
    case_list: Sequence[CaseKey], config: PipelineConfig
) -> tuple[list[CasePackage], list[CaseOutcome]]:
    """Run cases with at most ``config.parallelism`` in flight; the ledger
    covers every input once.

    The default width is 1 offline and ``min(os.cpu_count(), 4)`` online (a
    politeness cap on the services). A pool only overlaps the waits on remote
    answers, which an offline case does not have, so a width of 1 runs the
    cases one after another in the calling thread, with no pool. Results are
    ordered by the input list, so they do not depend on worker scheduling.
    """
    if not case_list:
        raise ValueError("case list is empty")
    clients = build_clients(config)
    workers = config.parallelism
    if workers is None:
        workers = 1 if config.offline else min(os.cpu_count() or 1, 4)

    if workers == 1:
        outcomes = [run_case(key, config, clients) for key in case_list]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda key: run_case(key, config, clients), case_list))

    packages = [o.package for o in outcomes if o.package is not None]
    return packages, outcomes


def batch_summary(outcomes: Sequence[CaseOutcome]) -> str:
    counts = Counter(o.reason for o in outcomes if o.excluded)
    parts = [f"packages={sum(1 for o in outcomes if not o.excluded)}"]
    for reason in ExclusionReason:
        if counts[reason]:
            parts.append(f"{reason.value}={counts[reason]}")
    return f"processed {len(outcomes)} cases: " + " ".join(parts)


def write_ledger(outcomes: Sequence[CaseOutcome], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(o.ledger_line() + "\n" for o in outcomes), encoding="utf-8")


# ---------------------------------------------------------------------------
# summary, coverage, replay
# ---------------------------------------------------------------------------


def _display(category) -> str:
    return category.value if category is not None else "(not reported)"


def emit_summary(report: CrashReport, validation: ValidationReport) -> str:
    """Human-readable case digest; deterministic for identical inputs."""
    lines = [f"# Crash case {report.case_key.slug}", ""]
    if report.crash_coords is not None:
        lines.append(
            f"Location: {report.crash_coords.latitude!r}, {report.crash_coords.longitude!r}"
        )
    lines.append(f"Type of collision: {_display(report.collision_type)}")
    lines.append(f"Road topology: {_display(report.road_topology)}")
    lines.append(f"Vehicle trajectory: {_display(report.trajectory_relation)}")
    lines.append("")
    lines.append("## Vehicles")
    lines.append("")
    for v in report.vehicles:
        speed = f"{v.travel_speed:.4f} m/s" if v.travel_speed is not None else "speed unknown"
        clock = f"impact clock {v.impact_clock}" if v.impact_clock is not None \
            else "impact clock unknown"
        lines.append(f"- Vehicle {v.vehicle_id}: {v.maneuver.value}, {speed}, {clock}")
    if report.event_sequence:
        lines.append("")
        lines.append("## Events")
        lines.append("")
        for i, ev in enumerate(report.event_sequence, start=1):
            lines.append(f"{i}. {ev}")
    lines.append("")
    lines.append("## Reconstruction validation")
    lines.append("")
    lines.append("PASSED" if validation.passed else "FAILED")
    if math.isinf(validation.location_error):
        lines.append("- no collision reproduced")
    else:
        lines.append(f"- location error: {validation.location_error:.3f} m")
    for v, dev in zip(report.vehicles, validation.clock_deviation):
        if dev is None:
            lines.append(f"- vehicle {v.vehicle_id}: clock check skipped")
        else:
            lines.append(f"- vehicle {v.vehicle_id}: clock deviation {dev}")
    for v, ok in zip(report.vehicles, validation.direction_match):
        lines.append(f"- vehicle {v.vehicle_id}: direction match {'yes' if ok else 'no'}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CoverageTable:
    collision: dict
    topology: dict
    trajectory: dict
    total: int

    def render(self) -> str:
        from .reports import CollisionType, RoadTopology, TrajectoryRelation

        sections = [
            ("Type of Collision", CollisionType, self.collision),
            ("Road Topology", RoadTopology, self.topology),
            ("Vehicle Trajectory", TrajectoryRelation, self.trajectory),
        ]
        lines = []
        for title, enum_cls, counts in sections:
            lines.append(title)
            for member in enum_cls:
                lines.append(f"  {member.value:<36} {counts.get(member, 0)}")
        return "\n".join(lines) + "\n"


def coverage_stats(package_root: Path) -> CoverageTable:
    """Tally the three category dimensions over every package's report."""
    package_root = Path(package_root)
    report_paths = sorted(package_root.glob("case_*/report.xml"))
    if not report_paths:
        raise errors.EmptyDirectory(f"no case packages under {package_root}")

    from .reports import CollisionType, RoadTopology, TrajectoryRelation

    collision: Counter = Counter()
    topology: Counter = Counter()
    trajectory: Counter = Counter()
    for path in report_paths:
        slug = path.parent.name.removeprefix("case_")
        try:
            state, case, year = (int(v) for v in slug.split("_"))
            key = CaseKey(state, case, year)
        except ValueError:
            key = CaseKey(0, 0, 0)
        report = reports.parse_report(reports.RawCaseDocument(key, path.read_text("utf-8")))
        collision[report.collision_type or CollisionType.OTHER] += 1
        topology[report.road_topology or RoadTopology.OTHER] += 1
        trajectory[report.trajectory_relation or TrajectoryRelation.OTHER] += 1
    return CoverageTable(dict(collision), dict(topology), dict(trajectory), len(report_paths))


def replay_package(package_dir: Path) -> ValidationReport:
    """Re-run the replay of a package from its ``scenario.json``, ``map.xodr``
    and ``report.xml``; identical inputs reproduce the stored validation
    verdict exactly."""
    scenario_path, map_path, report_path = (
        Path(package_dir) / name for name in ("scenario.json", "map.xodr", "report.xml"))
    for path in (scenario_path, map_path):
        if not path.is_file():
            raise errors.ParseError(f"missing {path}")
    network = opendrive.parse_opendrive(map_path.read_text("utf-8"))
    scene, trajectories = parse_scenario(scenario_path.read_text("utf-8"))
    if not report_path.is_file():
        raise errors.ParseError(f"missing report document {report_path}")
    report = reports.parse_report(
        reports.RawCaseDocument(scene.case_key, report_path.read_text("utf-8")))
    return score_scenario(scene, trajectories, report, network.junctions)[1]
