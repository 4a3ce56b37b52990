"""Seeded inputs for the benchmark workloads.

Report documents and map extracts reuse the layouts and XML builders of
``tests/corpus.py``; only the case origins, the case order and the dense
street grids are made here. The seed changes case order, origin
assignment and grid jitter, never the verdict a case kind is expected to
reach.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import corpus
from crashtrace.geometry import GeoPoint
from crashtrace.pipeline import ExclusionReason
from crashtrace.reports import CaseKey

# Ledger reason per authored kind, as tests/test_pipeline.py pins them;
# None means the case yields a package.
EXPECTED_REASON: dict[str, ExclusionReason | None] = {
    "angle_fourway": None,
    "ftf_straight": None,
    "ftf_curve": None,
    "ftr_straight": None,
    "sideswipe_opposite": None,
    "vertical_tunnel": ExclusionReason.UNSUPPORTED_VERTICAL_GEOMETRY,
    "vertical_bridge": ExclusionReason.UNSUPPORTED_VERTICAL_GEOMETRY,
    "vertical_layer": ExclusionReason.UNSUPPORTED_VERTICAL_GEOMETRY,
    "incomplete_coords": ExclusionReason.INCOMPLETE_INFO,
    "incomplete_topology": ExclusionReason.INCOMPLETE_INFO,
    "offroad": ExclusionReason.INCONSISTENT_CRASH_LOCATION,
    "no_collision": ExclusionReason.FAILED_TO_COLLIDE,
}
KINDS = tuple(EXPECTED_REASON)

# Lattice spacing in degrees. A fixture's bounding box is its roads (at most
# 250 m from the origin) plus the 0.01 degree lookup margin, so boxes of
# neighbouring cases stay disjoint.
LATTICE_STEP_DEG = 0.1
MAX_ABS_LATITUDE = 60.0


@dataclass(frozen=True)
class Case:
    key: CaseKey
    kind: str
    report_xml: str
    osm_xml: str | None

    def expected_line(self) -> str:
        """The ledger line ``tests/test_pipeline.py`` expects for this kind."""
        reason = EXPECTED_REASON[self.kind]
        if reason is None:
            return f"{self.key.slug}\tpackage\t-"
        return f"{self.key.slug}\texcluded\t{reason.value}"


def lattice_origins(count: int, rng: random.Random) -> list[GeoPoint]:
    """``count`` origins on a square lat/lon lattice, in seeded order.

    ``corpus.case_origin`` walks north 0.1 degree per case and passes the
    pole at index 530, so large batches need a second dimension.
    """
    side = math.ceil(math.sqrt(count))
    span = side * LATTICE_STEP_DEG
    lat0 = rng.uniform(-MAX_ABS_LATITUDE + 5.0, MAX_ABS_LATITUDE - 5.0 - span)
    lon0 = rng.uniform(-175.0, 175.0 - span)
    points = [
        GeoPoint(round(lat0 + r * LATTICE_STEP_DEG, 6), round(lon0 + c * LATTICE_STEP_DEG, 6))
        for r in range(side) for c in range(side)
    ]
    rng.shuffle(points)
    return points[:count]


def corpus_cases(count: int, rng: random.Random, first_case: int = 1000) -> list[Case]:
    """A mixed batch cycling through all authored kinds, in seeded order."""
    kinds = [KINDS[i % len(KINDS)] for i in range(count)]
    rng.shuffle(kinds)
    origins = lattice_origins(count, rng)
    cases = []
    for i, (kind, origin) in enumerate(zip(kinds, origins)):
        report, osm = corpus.case_fixture(kind, origin)
        cases.append(Case(CaseKey(corpus.STATE, first_case + i, corpus.YEAR), kind, report, osm))
    return cases


def write_fixtures(cases: list[Case], fixtures_dir: Path) -> None:
    """One ``<slug>.xml`` and, where the kind has a map, ``<slug>.osm`` per case."""
    fixtures_dir.mkdir(parents=True, exist_ok=True)
    for case in cases:
        (fixtures_dir / f"{case.key.slug}.xml").write_text(case.report_xml, encoding="utf-8")
        if case.osm_xml is not None:
            (fixtures_dir / f"{case.key.slug}.osm").write_text(case.osm_xml, encoding="utf-8")


# ---------------------------------------------------------------------------
# dense city grids
# ---------------------------------------------------------------------------

CARRIAGEWAY_HALF_GAP_M = 2.5  # one-way pairs 5 m apart fold (limit 1.5 lane widths)


@dataclass(frozen=True)
class GridSpec:
    kind: str        # report kind; the crash sits mid-block on a street
    streets: int     # streets per direction
    pitch_m: float   # street spacing
    pieces: int      # two-node ways per block edge
    on_dual: bool    # crash street is a folded pair of one-way carriageways


# A handful of equal-sized grids, about 1,400 two-node ways after pruning, so
# the cases the pool runs side by side take about the same time.
DENSE_GRIDS = (
    GridSpec("ftf_straight", 12, 85.0, 5, False),
    GridSpec("sideswipe_opposite", 12, 85.0, 5, False),
    GridSpec("ftf_straight", 12, 85.0, 5, True),
    GridSpec("sideswipe_opposite", 12, 85.0, 5, True),
)


def grid_layout(spec: GridSpec, rng: random.Random) -> tuple[dict, list]:
    """Fragmented street grid in planar meters; every fourth street is dual.

    Each block edge is cut at jittered points into ``pieces`` two-node ways,
    so unification merges them back; each dual street is two antiparallel
    ``oneway=yes`` carriageways that unification folds into one road.
    """
    n, h = spec.streets, CARRIAGEWAY_HALF_GAP_M
    dual = [i % 4 == 1 for i in range(n)]
    # crash at (0, 0): mid-block on the central row street of the wanted type
    crash_row = min((i for i in range(n) if dual[i] == spec.on_dual), key=lambda i: abs(i - n // 2))
    base = [(i - crash_row) * spec.pitch_m for i in range(n)]
    xs = [(i - n // 2) * spec.pitch_m + spec.pitch_m / 2 for i in range(n)]

    def lines(positions: list[float], i: int) -> list[float]:
        return [positions[i] - h, positions[i] + h] if dual[i] else [positions[i]]

    nodes: dict[int, tuple[float, float]] = {}
    ids: dict[tuple[float, float], int] = {}

    def node(x: float, y: float) -> int:
        nid = ids.setdefault((x, y), len(ids) + 1)
        nodes[nid] = (x, y)
        return nid

    ways: list = []

    def street(name: str, stations: list[float], at: float, side: int, horizontal: bool):
        along = []
        for a, b in zip(stations, stations[1:]):
            along.append(a)
            if b - a > 3 * h:  # a block edge, not the gap inside a dual crossing
                along.extend(a + (b - a) * f
                             for f in sorted(rng.uniform(0.1, 0.9) for _ in range(spec.pieces - 1)))
        along.append(stations[-1])
        refs = [node(p, at) if horizontal else node(at, p) for p in along]
        tags = {"highway": "residential", "name": name}
        if side:
            tags["oneway"] = "yes"
            if side > 0:  # right-hand traffic: the upper/right carriageway runs backwards
                refs.reverse()
        for u, v in zip(refs, refs[1:]):
            ways.append((10_000 + len(ways), [u, v], tags))

    col_stations = [x for c in range(n) for x in lines(xs, c)]
    row_stations = [y for r in range(n) for y in lines(base, r)]
    for r in range(n):
        for j, y in enumerate(lines(base, r)):
            street(f"row {r}", col_stations, y, (2 * j - 1) if dual[r] else 0, True)
    for c in range(n):
        for j, x in enumerate(lines(xs, c)):
            street(f"col {c}", row_stations, x, (2 * j - 1) if dual[c] else 0, False)
    return nodes, ways


def dense_cases(rng: random.Random, first_case: int = 5000) -> list[Case]:
    """One case per ``DENSE_GRIDS`` entry, in seeded order."""
    specs = list(DENSE_GRIDS)
    rng.shuffle(specs)
    origins = lattice_origins(len(specs), rng)
    cases = []
    for i, (spec, origin) in enumerate(zip(specs, origins)):
        report, _ = corpus.case_fixture(spec.kind, origin)
        nodes, ways = grid_layout(spec, rng)
        cases.append(Case(CaseKey(corpus.STATE, first_case + i, corpus.YEAR), spec.kind,
                          report, corpus.osm_xml(origin, nodes, ways)))
    return cases
