import math
from urllib.parse import parse_qs

import pytest

from crashtrace.errors import CacheMiss, EmptyAfterPrune, EmptyExtract, NetworkError
from crashtrace.geometry import EARTH_RADIUS_M, GeoPoint
from crashtrace.osm import (
    OsmClient,
    bounding_box,
    detect_vertical_geometry,
    overpass_query,
    parse_osm,
    prune_osm,
    write_osm,
)

from corpus import case_origin, osm_xml, straight_road_layout
from local_http import closed_port_url, http_endpoint

ORIGIN = case_origin(0)


def _graph(nodes, ways, origin=ORIGIN):
    return parse_osm(osm_xml(origin, nodes, ways))


def test_parse_write_roundtrip():
    nodes, ways = straight_road_layout()
    text = osm_xml(ORIGIN, nodes, ways)
    graph = parse_osm(text)
    again = parse_osm(write_osm(graph))
    assert again.nodes == graph.nodes
    assert again.ways == graph.ways


def test_bounding_box_500m_around_case_site():
    center = GeoPoint(37.22810833, -77.40179167)
    south, west, north, east = bounding_box(center, 500.0)
    dlat = math.degrees(500.0 / EARTH_RADIUS_M)
    dlon = math.degrees(500.0 / (EARTH_RADIUS_M * math.cos(math.radians(center.latitude))))
    assert south == pytest.approx(center.latitude - dlat, abs=1e-12)
    assert north == pytest.approx(center.latitude + dlat, abs=1e-12)
    assert west == pytest.approx(center.longitude - dlon, abs=1e-12)
    assert east == pytest.approx(center.longitude + dlon, abs=1e-12)
    query = overpass_query(center, 500.0)
    assert 'way["highway"]' in query
    assert f"{south}" in query


def test_retrieve_offline_fixture_unmodified(tmp_path):
    nodes, ways = straight_road_layout()
    ways = ways + [(99, [1, 4], {"building": "yes"})]
    (tmp_path / "site.osm").write_text(osm_xml(ORIGIN, nodes, ways), encoding="utf-8")
    client = OsmClient(offline=True, fixtures_dir=tmp_path)
    graph = client.retrieve_osm(ORIGIN, 500.0)
    assert set(graph.ways) == {10, 99}  # nothing filtered on retrieval


def test_retrieve_empty_extract(tmp_path):
    # ocean fixture: nodes but no road-bearing way
    (tmp_path / "ocean.osm").write_text(
        osm_xml(ORIGIN, {1: (0, 0), 2: (10, 10)}, [(5, [1, 2], {"natural": "coastline"})]),
        encoding="utf-8",
    )
    client = OsmClient(offline=True, fixtures_dir=tmp_path)
    with pytest.raises(EmptyExtract):
        client.retrieve_osm(ORIGIN, 500.0)


def test_retrieve_offline_no_fixture(tmp_path):
    client = OsmClient(offline=True, fixtures_dir=tmp_path)
    with pytest.raises(CacheMiss):
        client.retrieve_osm(ORIGIN, 500.0)


def test_retrieve_caches_transport_result(tmp_path):
    nodes, ways = straight_road_layout()
    payload = osm_xml(ORIGIN, nodes, ways)
    calls = []

    def transport(url, query):
        calls.append(query)
        return payload

    client = OsmClient(cache_dir=tmp_path, transport=transport)
    client.retrieve_osm(ORIGIN, 500.0)
    client.retrieve_osm(ORIGIN, 500.0)
    assert len(calls) == 1
    fresh = OsmClient(cache_dir=tmp_path, transport=transport)
    fresh.retrieve_osm(ORIGIN, 500.0)
    assert len(calls) == 1  # disk cache hit


def test_default_transport_posts_overpass_form(tmp_path):
    nodes, ways = straight_road_layout()
    payload = osm_xml(ORIGIN, nodes, ways)
    served = lambda path: (200, payload.encode("utf-8"), "application/osm3s+xml")
    with http_endpoint(served) as (base, received):
        client = OsmClient(url=base + "/api/interpreter", cache_dir=tmp_path)
        graph = client.retrieve_osm(ORIGIN, 500.0)
    assert set(graph.ways) == {10}
    method, path, headers, body = received[0]
    assert (method, path) == ("POST", "/api/interpreter")
    assert headers["Content-Type"] == "application/x-www-form-urlencoded"
    assert parse_qs(body.decode("ascii")) == {"data": [overpass_query(ORIGIN, 500.0)]}
    assert [p.read_text(encoding="utf-8") for p in tmp_path.iterdir()] == [payload]


def test_default_transport_overpass_errors():
    served = lambda path: (429, b"rate limited", "text/plain")
    with http_endpoint(served) as (base, _):
        with pytest.raises(NetworkError):
            OsmClient(url=base).retrieve_osm(ORIGIN, 500.0)
    with pytest.raises(NetworkError):
        OsmClient(url=closed_port_url()).retrieve_osm(ORIGIN, 500.0)


def test_prune_drops_buildings_keeps_roads():
    nodes, ways = straight_road_layout()
    graph = _graph(nodes, ways + [(99, [1, 5], {"building": "yes"})])
    pruned = prune_osm(graph, ORIGIN, 500.0)
    assert set(pruned.ways) == {10}
    assert set(pruned.nodes) == set(nodes)


def test_prune_idempotent():
    nodes, ways = straight_road_layout()
    graph = _graph(nodes, ways)
    once = prune_osm(graph, ORIGIN, 500.0)
    twice = prune_osm(once, ORIGIN, 500.0)
    assert once.nodes == twice.nodes and once.ways == twice.ways


def test_prune_empty_when_all_far():
    graph = _graph({1: (5000.0, 0.0), 2: (6000.0, 0.0)},
                   [(10, [1, 2], {"highway": "residential"})])
    with pytest.raises(EmptyAfterPrune):
        prune_osm(graph, ORIGIN, 500.0)


def test_prune_keeps_crash_adjacent_long_way():
    # both nodes outside the radius, but the segment passes through the center
    graph = _graph({1: (-900.0, 5.0), 2: (900.0, 5.0)},
                   [(10, [1, 2], {"highway": "primary"})])
    pruned = prune_osm(graph, ORIGIN, 500.0)
    assert set(pruned.ways) == {10}


def test_prune_drops_far_flung_way_without_error():
    # a way over a degree away must prune cleanly, not trip the extent guard
    nodes, ways = straight_road_layout()
    nodes = dict(nodes)
    nodes.update({90: (200000.0, 0.0), 91: (201000.0, 0.0)})
    graph = _graph(nodes, ways + [(40, [90, 91], {"highway": "residential"})])
    pruned = prune_osm(graph, ORIGIN, 500.0)
    assert set(pruned.ways) == {10}


def test_vertical_geometry_detection():
    nodes = {1: (0.0, 0.0), 2: (100.0, 0.0), 3: (0.0, 10.0), 4: (100.0, 10.0),
             5: (0.0, 20.0), 6: (100.0, 20.0)}
    graph = _graph(
        nodes,
        [
            (10, [1, 2], {"highway": "residential"}),
            (11, [3, 4], {"highway": "residential", "tunnel": "yes"}),
            (12, [5, 6], {"highway": "residential", "layer": "1"}),
        ],
    )
    assert detect_vertical_geometry(graph) == [11, 12]


def test_vertical_geometry_flat_grid_clean():
    nodes, ways = straight_road_layout()
    assert detect_vertical_geometry(_graph(nodes, ways)) == []
