import hashlib
import itertools
import math
import random

import pytest

from crashtrace.errors import GeometryValidationFailed, InconsistentCrashLocation
from crashtrace.geometry import (
    GeoPoint,
    PlanarPoint,
    bearing,
    distance,
    haversine_m,
    locate_on_polyline,
    point_at,
    polyline_length,
    project_all,
    wrap_angle,
)
from crashtrace.opendrive import emit_opendrive
from crashtrace.osm import parse_osm, prune_osm, write_osm
from crashtrace.roadnet import (
    CRASH_ENVELOPE_SLACK_M,
    FOLD_MAX_SEPARATION_LANE_WIDTHS,
    LANE_WIDTH_M,
    MERGE_MAX_HEADING_DEG,
    Road,
    RoadNetwork,
    _fold_pair,
    _oneway,
    _parse_lanes,
    build_road_network,
    lane_offset,
    locate_crash_point,
    travel_direction,
    unify_lanes,
    validate_geometry,
)

from corpus import case_origin, cross_layout, grid_layout, osm_xml, t_layout, unproject

ORIGIN = case_origin(0)


def _network(nodes, ways, origin=ORIGIN, unify=False):
    """The built network, unified when asked, and its graph.

    Every unification here is also checked against the fixed-point oracle.
    """
    graph = parse_osm(osm_xml(origin, nodes, ways))
    network = build_road_network(graph, origin)
    return (_unified(network) if unify else network), graph


def _unified(network):
    unified = unify_lanes(network)
    assert unified == _fixed_point_unify(network)
    return unified


# --- reference unification: merge everything, fold the first pair, repeat ---


def _fixed_point_unify(network):
    """Lane unification as a fixed-point loop, an oracle for ``unify_lanes``.

    Before each fold every endpoint is swept for merges; then the first
    foldable pair in road-id order is folded, until none is left.
    """
    roads = {r.road_id: r for r in sorted(network.roads, key=lambda r: r.road_id)}
    junction_nodes = {j.node_id for j in network.junctions}
    id_map = {}

    def resolve(rid):
        while rid in id_map:
            rid = id_map[rid]
        return rid

    def merge_all():
        ends = {}
        for road in roads.values():
            ends.setdefault(road.node_ids[0], []).append(road.road_id)
            ends.setdefault(road.node_ids[-1], []).append(road.road_id)
        for nid in sorted(ends):
            if nid in junction_nodes or len(ends[nid]) != 2:
                continue
            a_id, b_id = sorted(resolve(rid) for rid in ends[nid])
            if a_id == b_id:
                continue
            a, b = roads[a_id], roads[b_id]
            if a.name_key != b.name_key:
                continue
            a_o = a if a.node_ids[-1] == nid else a.reversed()
            b_o = b if b.node_ids[0] == nid else b.reversed()
            h_out = bearing(a_o.centerline[-2], a_o.centerline[-1])
            h_in = bearing(b_o.centerline[0], b_o.centerline[1])
            if abs(wrap_angle(h_in - h_out)) > math.radians(MERGE_MAX_HEADING_DEG):
                continue
            if (a_o.lanes_forward, a_o.lanes_backward) != (b_o.lanes_forward, b_o.lanes_backward):
                continue
            merged = a_o._replace(centerline=a_o.centerline + b_o.centerline[1:],
                                  node_ids=a_o.node_ids + b_o.node_ids[1:])
            roads[a_id] = merged.reversed() if merged.lanes_forward == 0 else merged
            del roads[b_id]
            id_map[b_id] = a_id

    def mean_heading(road):
        sx = sy = 0.0
        for p, q in zip(road.centerline, road.centerline[1:]):
            h = bearing(p, q)
            w = distance(p, q)
            sx += w * math.cos(h)
            sy += w * math.sin(h)
        return math.atan2(sy, sx)

    def fold_once():
        ordered = list(roads.values())
        for ia, a in enumerate(ordered):
            if a.lanes_backward != 0:
                continue
            for b in ordered[ia + 1:]:
                if b.lanes_backward != 0 or a.name_key != b.name_key:
                    continue
                dh = abs(wrap_angle(mean_heading(a) - mean_heading(b) + math.pi))
                if dh > math.radians(MERGE_MAX_HEADING_DEG):
                    continue
                mid_b = point_at(b.centerline, polyline_length(b.centerline) / 2)
                if locate_on_polyline(a.centerline, mid_b).dist > (
                        FOLD_MAX_SEPARATION_LANE_WIDTHS * LANE_WIDTH_M):
                    continue
                longer_b = (polyline_length(b.centerline), b.road_id) > (
                    polyline_length(a.centerline), a.road_id)
                return a.road_id, b.road_id, _fold_pair(*((b, a) if longer_b else (a, b)))
        return None

    while True:
        merge_all()
        folded = fold_once()
        if folded is None:
            break
        a_id, b_id, road = folded
        roads[a_id] = road
        del roads[b_id]
        id_map[b_id] = a_id

    junctions = tuple(
        j._replace(members=tuple(sorted({resolve(m) for m in j.members} & roads.keys())))
        for j in network.junctions
    )
    return RoadNetwork(network.origin, tuple(roads.values()), junctions, network.node_positions)


# --- projection ---


def _project(p: GeoPoint, origin: GeoPoint) -> PlanarPoint:
    return project_all({0: p}, origin)[0]


def test_project_origin_identity():
    # the pipeline fixes the crash at planar (0, 0) without projecting it
    assert _project(ORIGIN, ORIGIN) == PlanarPoint(0.0, 0.0)


def test_project_equator_milli_degree():
    p = _project(GeoPoint(0.0, 0.001), GeoPoint(0.0, 0.0))
    assert p.x == pytest.approx(111.195, abs=1e-3)
    assert p.y == pytest.approx(0.0, abs=1e-9)


def test_project_cos_scaling_at_60_north():
    p = _project(GeoPoint(60.0, 0.001), GeoPoint(60.0, 0.0))
    assert p.x == pytest.approx(55.597, abs=1e-3)


def test_project_extent_guard():
    assert project_all({1: GeoPoint(39.0, -77.0)}, GeoPoint(37.0, -77.0)) == {}


@pytest.mark.parametrize("point", [
    GeoPoint(math.nan, -77.0), GeoPoint(37.0, math.nan), GeoPoint(math.inf, -77.0),
    GeoPoint(37.0, -math.inf),
])
def test_project_extent_guard_drops_non_finite(point):
    origin = GeoPoint(37.0, -77.0)
    edge = GeoPoint(38.0, -76.0)  # exactly one degree off in both: still projected
    assert set(project_all({1: point, 2: edge, 3: origin}, origin)) == {2, 3}


def test_projection_local_isometry():
    rng = random.Random(1234)
    for _ in range(1000):
        a = PlanarPoint(rng.uniform(-2000, 2000), rng.uniform(-2000, 2000))
        b = PlanarPoint(rng.uniform(-2000, 2000), rng.uniform(-2000, 2000))
        if distance(a, b) < 1.0:
            continue
        ga, gb = unproject(a, ORIGIN), unproject(b, ORIGIN)
        planar = distance(*project_all({1: ga, 2: gb}, ORIGIN).values())
        geod = haversine_m(ga, gb)
        assert abs(planar - geod) / geod <= 1e-3


# --- construction ---


def test_build_defaults_two_way():
    network, _ = _network({1: (0.0, 0.0), 2: (100.0, 0.0)},
                          [(10, [1, 2], {"highway": "residential"})])
    (road,) = network.roads
    assert (road.lanes_forward, road.lanes_backward) == (1, 1)
    assert road.half_width == 3.5  # one 3.5 m lane each way
    assert road.length == pytest.approx(100.0)


def test_build_oneway_lanes_tag():
    # (tags, lanes forward/backward, node chain in the direction of travel)
    cases = [
        ({"oneway": "yes", "lanes": "2"}, (2, 0), (1, 2)),
        ({"oneway": "-1", "lanes": "2"}, (2, 0), (2, 1)),
        ({"oneway": "-1"}, (1, 0), (2, 1)),
        ({"junction": "roundabout"}, (1, 0), (1, 2)),
        ({"junction": "roundabout", "oneway": "no"}, (1, 1), (1, 2)),
        ({"junction": "circular"}, (1, 0), (1, 2)),
        ({"junction": "circular", "oneway": "no"}, (1, 1), (1, 2)),
        ({"highway": "motorway"}, (1, 0), (1, 2)),
        ({"highway": "motorway", "lanes": "3"}, (3, 0), (1, 2)),
        ({"highway": "motorway", "oneway": "no"}, (1, 1), (1, 2)),
        ({"highway": "motorway", "oneway": "-1"}, (1, 0), (2, 1)),
    ]
    for tags, lanes, chain in cases:
        network, _ = _network(
            {1: (0.0, 0.0), 2: (100.0, 0.0)}, [(10, [1, 2], {"highway": "residential", **tags})]
        )
        (road,) = network.roads
        assert (road.lanes_forward, road.lanes_backward) == lanes, tags
        assert road.node_ids == chain, tags
        assert road.centerline[0] == network.node_positions[chain[0]], tags


@pytest.mark.parametrize("oneway, default, total_three", [
    ("yes", (1, 0), (3, 0)), ("-1", (0, 1), (0, 3)), ("no", (1, 1), (2, 1)),
])
def test_lane_tags_without_a_positive_count_are_ignored(oneway, default, total_three):
    keys = ("lanes", "lanes:forward", "lanes:backward")
    for values in itertools.product((None, "0", "-1", "abc"), repeat=3):  # None: no tag
        tags = {"oneway": oneway, **{k: v for k, v in zip(keys, values) if v is not None}}
        assert _parse_lanes(tags, _oneway(tags)) == default, tags
        for extra, lanes in (({"lanes": "3"}, total_three), ({"lanes:forward": "2"}, (2, 0)),
                             ({"lanes:backward": "2"}, (0, 2))):
            both = {**tags, **extra}
            assert _parse_lanes(both, _oneway(both)) == lanes, both


def test_build_cross_junction():
    network, _ = _network(*cross_layout())
    assert len(network.junctions) == 1
    assert network.junctions[0].members == (10, 11, 12, 13)


def test_build_degenerate_way():
    # a way whose nodes all coincide makes no road; the others are built as usual
    network, _ = _network({1: (5.0, 5.0), 2: (5.0, 5.0), 3: (0.0, 0.0), 4: (100.0, 0.0)},
                          [(10, [1, 2], {"highway": "service"}),
                           (11, [3, 4], {"highway": "residential"})])
    assert [road.road_id for road in network.roads] == [11]


# --- lane geometry ---


def test_lane_offset_right_hand_signs():
    network, _ = _network({1: (0.0, 0.0), 2: (100.0, 0.0)},
                          [(10, [1, 2], {"highway": "residential"})])
    road = network.roads[0]
    # forward travel (east): lane 1 sits south of the centerline
    assert lane_offset(road, 1, 1) == pytest.approx(-1.75)
    # backward travel (west): its own right side is north of the centerline
    assert lane_offset(road, -1, 1) == pytest.approx(1.75)
    # wrong-side placements via negative indexes
    assert lane_offset(road, 1, -1) == pytest.approx(1.75)
    assert lane_offset(road, -1, -1) == pytest.approx(-1.75)
    with pytest.raises(ValueError):
        lane_offset(road, 1, 2)


def test_travel_direction_from_heading():
    network, _ = _network({1: (0.0, 0.0), 2: (100.0, 0.0)},
                          [(10, [1, 2], {"highway": "residential"})])
    road = network.roads[0]
    assert travel_direction(road, 50.0, 0.0) == 1
    assert travel_direction(road, 50.0, math.pi) == -1


# --- unification ---


def test_unify_merges_collinear_same_name():
    network, _ = _network(
        {1: (-100.0, 0.0), 2: (0.0, 0.0), 3: (100.0, 0.0)},
        [
            (10, [1, 2], {"highway": "residential", "name": "High Street"}),
            (11, [2, 3], {"highway": "residential", "name": "High Street"}),
        ],
        unify=True,
    )
    assert len(network.roads) == 1
    road = network.roads[0]
    assert road.road_id == 10
    assert road.length == pytest.approx(200.0)
    assert road.centerline[0].x == pytest.approx(-100.0, abs=1e-6)
    assert road.centerline[-1].x == pytest.approx(100.0, abs=1e-6)


def test_unify_preserves_t_junction():
    network, _ = _network(*t_layout(), unify=True)
    assert len(network.roads) == 3
    assert len(network.junctions) == 1


def test_unify_idempotent():
    network, _ = _network(*cross_layout())
    once = _unified(network)
    twice = _unified(once)
    assert once == twice


def test_unify_concatenation_preserves_length():
    nodes, ways = grid_layout()
    network, _ = _network(nodes, ways)
    total = sum(r.length for r in network.roads)
    unified = _unified(network)
    assert sum(r.length for r in unified.roads) == pytest.approx(total, rel=1e-9)


def test_unify_folds_opposing_carriageways():
    network, _ = _network(
        {1: (0.0, 2.0), 2: (200.0, 2.0), 3: (200.0, -2.0), 4: (0.0, -2.0)},
        [
            (10, [1, 2], {"highway": "primary", "name": "Dual Road", "oneway": "yes"}),
            (11, [3, 4], {"highway": "primary", "name": "Dual Road", "oneway": "yes"}),
        ],
        unify=True,
    )
    assert len(network.roads) == 1
    road = network.roads[0]
    assert road.lanes_forward == 1 and road.lanes_backward == 1
    # midline between the carriageways
    assert all(abs(p.y) < 1e-6 for p in road.centerline)


def _structure(network):
    roads = [(r.road_id, r.lanes_forward, r.lanes_backward, r.node_ids) for r in network.roads]
    return roads, [(j.node_id, j.members) for j in network.junctions]


def test_unify_one_way_chain_runs_in_travel_direction():
    # carriageway 12+13 runs west and its lower way id is downstream
    dual = {"highway": "primary", "name": "Dual Road", "oneway": "yes"}
    nodes = {1: (0.0, 2.0), 2: (200.0, 2.0), 3: (200.0, -2.0), 4: (100.0, -2.0), 5: (0.0, -2.0)}
    west = [(13, [3, 4], dual), (12, [4, 5], dual)]
    network, _ = _network(nodes, west, unify=True)
    assert _structure(network)[0] == [(12, 1, 0, (3, 4, 5))]
    network, _ = _network(nodes, [(10, [1, 2], dual), *west], unify=True)
    assert [(r.road_id, r.lanes_forward, r.lanes_backward) for r in network.roads] == [(10, 1, 1)]


def test_unify_merges_mixed_direction_chain():
    nodes = {i: (100.0 * (i - 1), 0.0) for i in range(1, 7)}
    street = {"highway": "residential", "name": "Long Street"}
    ways = [(13, [2, 1], street), (11, [3, 2], street), (10, [3, 4], street),
            (14, [4, 5], street), (12, [6, 5], street)]
    network, _ = _network(nodes, ways, unify=True)
    assert _structure(network)[0] == [(10, 1, 1, (1, 2, 3, 4, 5, 6))]
    assert [p.x for p in network.roads[0].centerline] == pytest.approx(
        [0.0, 100.0, 200.0, 300.0, 400.0, 500.0], abs=1e-6)


def test_unify_fold_frees_node_for_merge():
    # node 2 joins a one-way carriageway to a two-way road: it merges after the fold
    dual = {"highway": "primary", "name": "Dual Road", "oneway": "yes"}
    network, _ = _network(
        {1: (0.0, 2.0), 2: (200.0, 2.0), 3: (190.0, -2.0), 4: (0.0, -2.0), 5: (300.0, 2.0)},
        [(10, [1, 2], dual), (11, [3, 4], dual),
         (12, [2, 5], {"highway": "primary", "name": "Dual Road"})],
        unify=True,
    )
    assert _structure(network)[0] == [(10, 1, 1, (1, 2, 5))]


def test_unify_keeps_apart_roads_whose_lane_counts_differ():
    street = {"highway": "residential", "name": "High Street"}
    network, _ = _network(
        {1: (-100.0, 0.0), 2: (0.0, 0.0), 3: (100.0, 0.0)},
        [(10, [1, 2], {**street, "lanes": "4"}), (11, [2, 3], {**street, "lanes": "2"})],
        unify=True,
    )
    assert _structure(network) == ([(10, 2, 2, (1, 2)), (11, 1, 1, (2, 3))], [])


def test_unify_leaves_a_loop_way_whole():
    # both ends of the ring are node 1, which is no junction: nothing to merge there
    network, _ = _network(
        {1: (0.0, 0.0), 2: (100.0, 0.0), 3: (100.0, 100.0), 4: (0.0, 100.0)},
        [(10, [1, 2, 3, 4, 1], {"highway": "residential", "name": "Ring Road"})],
        unify=True,
    )
    assert _structure(network) == ([(10, 1, 1, (1, 2, 3, 4, 1))], [])


def _fragmented_grid(seed: int, n: int = 3, pitch: float = 60.0,
                     dual: tuple[int, ...] = (1,)) -> tuple[dict, list]:
    """n x n street grid cut at seeded points into two-node ways.

    The streets numbered in ``dual`` (in each direction) are pairs of one-way
    carriageways 5 m apart whose ways are numbered along travel; two-way
    pieces are drawn in random directions and node ids are shuffled.
    """
    rng = random.Random(seed)
    lines = [[i * pitch - 2.5, i * pitch + 2.5] if i in dual else [i * pitch] for i in range(n)]
    stations = [p for line in lines for p in line]
    index: dict[tuple[float, float], int] = {}
    ways = []
    for horizontal in (True, False):
        for i, line in enumerate(lines):
            for j, at in enumerate(line):
                along = list(stations)
                for a, b in zip(stations, stations[1:]):
                    if b - a > 10.0:
                        along += [rng.uniform(a + 5.0, b - 5.0) for _ in range(2)]
                along.sort(reverse=j == 1)  # right-hand traffic: the second carriageway runs back
                pts = [(p, at) if horizontal else (at, p) for p in along]
                refs = [index.setdefault(pt, len(index)) for pt in pts]
                tags = {"highway": "residential", "name": f"{'row' if horizontal else 'col'} {i}"}
                if len(line) == 2:
                    tags["oneway"] = "yes"
                for u, v in zip(refs, refs[1:]):
                    if len(line) == 1 and rng.random() < 0.5:
                        u, v = v, u
                    ways.append((100 + len(ways), [u, v], tags))
    ids = rng.sample(range(1, 10 * len(index)), len(index))
    nodes = {ids[k]: pt for pt, k in index.items()}
    return nodes, [(wid, [ids[u], ids[v]], tags) for wid, (u, v), tags in ways]


# integer structure of the unified _fragmented_grid(7): roads and junctions
GRID_STRUCTURE = (
    [
        (100, 1, 1, (449, 419, 161, 175)),
        (103, 1, 1, (175, 356)),
        (104, 1, 1, (356, 180, 305, 255)),
        (107, 1, 1, (375, 360, 159, 332)),
        (110, 1, 1, (32, 375)),
        (111, 1, 1, (357, 341, 34, 32)),
        (121, 1, 1, (296, 349, 421, 229)),
        (124, 1, 1, (146, 229)),
        (125, 1, 1, (146, 367, 198, 455)),
        (128, 1, 1, (449, 343, 178, 297)),
        (131, 1, 1, (332, 297)),
        (132, 1, 1, (332, 12, 237, 296)),
        (135, 1, 1, (431, 112, 394, 356)),
        (138, 1, 1, (32, 431)),
        (139, 1, 1, (146, 253, 31, 32)),
        (149, 1, 1, (255, 148, 67, 243)),
        (152, 1, 1, (357, 243)),
        (153, 1, 1, (357, 379, 127, 455)),
    ],
    [
        (32, (110, 111, 138, 139)),
        (36, (107, 110, 135, 138)),
        (146, (124, 125, 139)),
        (175, (100, 103, 135)),
        (229, (121, 124, 139)),
        (243, (111, 149, 152)),
        (255, (104, 149)),
        (296, (121, 132)),
        (297, (107, 128, 131)),
        (332, (107, 131, 132)),
        (356, (103, 104, 135)),
        (357, (111, 152, 153)),
        (375, (107, 110, 138, 139)),
        (431, (110, 111, 135, 138)),
        (449, (100, 128)),
        (455, (125, 153)),
    ],
)

def test_unify_fragmented_grid_structure():
    network, _ = _network(*_fragmented_grid(7), unify=True)
    assert _structure(network) == GRID_STRUCTURE


def test_unify_matches_fixed_point_oracle_on_fragmented_grids():
    # seeded grids with no, one and several dual streets; _network checks each
    layouts = [(seed, n, dual) for seed in range(6) for n, dual in
               ((3, ()), (3, (1,)), (4, (0, 2)), (5, (1, 3)))]
    layouts.append((99, 9, (1, 4, 7)))
    for seed, n, dual in layouts:
        network, _ = _network(*_fragmented_grid(seed, n, dual=dual), unify=True)
        assert network.roads


def _fix_or_none(network, crash):
    """``locate_crash_point``, with None for a point off every road."""
    try:
        return locate_crash_point(network, crash)
    except InconsistentCrashLocation:
        return None


# sha256 over map.osm, map.xodr, the largest geometric deviation and 300
# crash fixes (None off every road) of each pruned, built and unified
# _fragmented_grid(seed, n, dual=dual)
GRID_BYTES = {
    (1, 3, (1,)): "6b7673310eb5b8ad8e1ab00b48decf6243143d2fd6055cce05a40e086cc71737",
    (2, 3, (1,)): "6f0468b76a1bc5db78fa2d6dac4d14692781549d8e67dd6c42ad07355bcf6707",
    (3, 3, (0, 2)): "b812c259dd6e543c8975be4aa4e21871417cace76bfc5a0dd5d1c3d209c7d8d9",
    (4, 10, (1, 4, 7)): "b45c30dc54e26a6c820522a34f62ec5c2eea09f2f3d64cab361c6b155f3a126c",
}


@pytest.mark.parametrize("seed, n, dual", sorted(GRID_BYTES),
                         ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_fragmented_grid_bytes(seed, n, dual):
    pitch = 60.0
    nodes, ways = _fragmented_grid(seed, n, pitch, dual)
    graph = prune_osm(parse_osm(osm_xml(ORIGIN, nodes, ways)), ORIGIN, 0.8 * n * pitch)
    network = unify_lanes(build_road_network(graph, ORIGIN))
    rng = random.Random(seed)
    fixes = [
        _fix_or_none(network, PlanarPoint(rng.uniform(-10.0, n * pitch),
                                          rng.uniform(-10.0, n * pitch)))
        for _ in range(300)
    ]
    digest = hashlib.sha256()
    for part in (write_osm(graph), emit_opendrive(network),
                 repr(validate_geometry(graph, network, ORIGIN)), repr(fixes)):
        digest.update(part.encode("utf-8"))
    assert digest.hexdigest() == GRID_BYTES[seed, n, dual]


# --- crash-point location ---


def test_locate_on_centerline():
    network, _ = _network({1: (-50.0, 0.0), 2: (50.0, 0.0)},
                          [(10, [1, 2], {"highway": "residential"})])
    fix = locate_crash_point(network, PlanarPoint(10.0, 0.0))
    assert fix is not None
    assert fix.road_id == 10
    assert fix.s == pytest.approx(60.0)
    assert fix.offset == pytest.approx(0.0, abs=1e-12)


def test_locate_offroad():
    network, _ = _network({1: (-50.0, 50.0), 2: (50.0, 50.0)},
                          [(10, [1, 2], {"highway": "residential"})])
    with pytest.raises(InconsistentCrashLocation, match=r"crash site \(0\.0, 0\.0\) m from"):
        locate_crash_point(network, PlanarPoint(0.0, 0.0))


def test_locate_inside_envelope_edge():
    # two-lane road: half-width 3.5, envelope 5.5; a point 1 m inside its edge
    network, _ = _network({1: (-50.0, 0.0), 2: (50.0, 0.0)},
                          [(10, [1, 2], {"highway": "residential"})])
    fix = locate_crash_point(network, PlanarPoint(0.0, 4.5))
    assert fix is not None
    assert abs(fix.offset) == pytest.approx(4.5)


def test_locate_ignores_footway():
    # the crash lies inside the street's envelope and nearer the footway
    network, _ = _network(
        {1: (-50.0, 0.0), 2: (50.0, 0.0), 3: (-50.0, 6.0), 4: (50.0, 6.0)},
        [(10, [1, 2], {"highway": "residential"}), (11, [3, 4], {"highway": "footway"})],
    )
    assert [r.road_id for r in network.roads] == [10]
    fix = locate_crash_point(network, PlanarPoint(0.0, 4.5))
    assert fix is not None and fix.road_id == 10
    assert fix.offset == pytest.approx(4.5)


def _nearest_envelope(network, crash):
    """``locate_crash_point`` without any reject: every road is projected."""
    best = None
    for road in network.roads:
        fix = locate_on_polyline(road.centerline, crash)
        if fix.dist > road.half_width + CRASH_ENVELOPE_SLACK_M:
            continue
        cand = (fix.dist, road.road_id, (road.road_id, fix.s, fix.offset))
        if best is None or cand[:2] < best[:2]:
            best = cand
    return best[2] if best else None


def test_locate_matches_unfiltered_scan():
    rng = random.Random(5)
    checked = hits = 0
    for trial in range(60):
        roads = []
        for rid in range(8):
            # a random walk; every third road doubles back on itself (a hairpin)
            x, y = rng.randint(-60, 60), rng.randint(-60, 60)
            h = rng.uniform(-math.pi, math.pi)
            pts = [PlanarPoint(float(x), float(y))]
            for k in range(rng.randint(1, 6)):
                h += math.pi * 0.97 if rid % 3 == 0 and k == 1 else rng.uniform(-0.8, 0.8)
                step = rng.uniform(2.0, 40.0)
                x, y = x + step * math.cos(h), y + step * math.sin(h)
                pts.append(PlanarPoint(x, y))
            roads.append(Road(rid + 1, tuple(pts), rng.randint(1, 2), rng.randint(0, 2), ""))
        # axis-aligned road: points exactly on its envelope edge are exact in binary
        edge = Road(20, (PlanarPoint(-50.0, 0.0), PlanarPoint(50.0, 0.0)), 1, 1, "")
        network = RoadNetwork(ORIGIN, (*roads, edge), (), {})
        limit = edge.half_width + CRASH_ENVELOPE_SLACK_M
        points = [PlanarPoint(rng.uniform(-120, 120), rng.uniform(-120, 120)) for _ in range(40)]
        points += [PlanarPoint(float(x), side * limit)
                   for x in (-50, -7, 0, 31, 50) for side in (1, -1)]
        points += [PlanarPoint(-50.0 - limit, 0.0), PlanarPoint(50.0 + limit, 0.0)]
        points += [road.centerline[0] for road in roads] + [road.centerline[-1] for road in roads]
        for p in points:
            got = _fix_or_none(network, p)
            assert (tuple(got) if got else None) == _nearest_envelope(network, p), (trial, p)
            checked += 1
            hits += got is not None
    assert checked == 4080 and hits > 1000


# --- geometric validation ---


def test_validate_geometry_grid_passes():
    network, graph = _network(*grid_layout())
    assert validate_geometry(graph, network, ORIGIN) < 1e-3


def test_validate_geometry_detects_displaced_node():
    network, graph = _network(*grid_layout())
    # displace one extreme node's converted position by 50 m
    victim = max(network.node_positions, key=lambda nid: network.node_positions[nid].x)
    tampered = dict(network.node_positions)
    p = tampered[victim]
    tampered[victim] = PlanarPoint(p.x + 50.0, p.y)
    bad = type(network)(network.origin, network.roads, network.junctions, tampered)
    with pytest.raises(GeometryValidationFailed, match="planar distances deviate up to"):
        validate_geometry(graph, bad, ORIGIN)


def test_validate_geometry_too_few_nodes():
    network, graph = _network(
        {1: (0.0, 0.0), 2: (100.0, 0.0), 3: (100.0, 100.0), 4: (0.0, 100.0)},
        [(10, [1, 2, 3, 4], {"highway": "residential"})],
    )
    with pytest.raises(GeometryValidationFailed, match="need 5 nodes"):
        validate_geometry(graph, network, ORIGIN)
