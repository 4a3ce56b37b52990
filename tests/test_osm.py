import errno
import gc
import io
import logging
import math
import random
import threading
import time
import weakref
import xml.etree.ElementTree as ET
from urllib.parse import parse_qs
from xml.sax import saxutils

import pytest
from hypothesis import given, settings, strategies as st

from crashtrace import osm
from crashtrace.errors import (
    CacheMiss, InconsistentCrashLocation, NetworkError, NotFound, UnsupportedVerticalGeometry)
from crashtrace.geometry import EARTH_RADIUS_M, GeoPoint
from crashtrace.osm import (
    OsmClient,
    OsmGraph,
    OsmWay,
    bounding_box,
    check_flat,
    overpass_query,
    parse_osm,
    prune_osm,
    write_osm,
    xml_escape,
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


# --- reference parser: the ElementTree walk that parse_osm replaced ---


def _element_tree_parse(text):
    """``parse_osm`` as a walk over an ElementTree, an oracle for the expat handlers.

    This is the walk ``parse_osm`` used to be, plus its rejection of non-finite
    coordinates. On malformed XML it raises ElementTree's ParseError, which is
    a SyntaxError.
    """
    root = ET.fromstring(text)
    remark = root.findtext("remark")
    if root.tag != "osm" or remark is not None:
        raise ValueError(f"not an OSM extract: <{root.tag}> {(remark or '').strip()}")
    nodes = {}
    ways = {}
    way_elements = []
    try:
        for el in root:  # ways wait for every node
            if el.tag == "node":
                point = GeoPoint(float(el.get("lat")), float(el.get("lon")))
                if not all(map(math.isfinite, point)):
                    raise ValueError("non-finite coordinate")
                nodes[int(el.get("id"))] = point
            elif el.tag == "way":
                way_elements.append(el)
        for el in way_elements:
            refs = tuple(ref for nd in el
                         if nd.tag == "nd" and (ref := int(nd.get("ref"))) in nodes)
            if len(refs) < 2:
                continue
            tags = {t.get("k"): t.get("v", "") for t in el
                    if t.tag == "tag" and t.get("k") is not None}  # OSM has no key-less tags
            ways[int(el.get("id"))] = OsmWay(refs, tags)
    except (TypeError, ValueError) as exc:  # int(None)/float(None) raise TypeError
        raise ValueError(f"unreadable <{el.tag}> {el.attrib}: {exc}") from exc
    return OsmGraph(nodes, ways)


_ODD_NUMBERS = ("", "abc", "2.5", " 4 ", "1_0", "0x1f", "-3", "nan", "NaN", "inf", "-inf", "1e400")
_TAG_VALUES = ("residential", "", "a &amp; b", "&lt;x&gt;", "caf&#233; &#xE9;", "&quot;q&quot;",
               "'", "&apos;", "x&#10;y")


def _random_extract(rng):
    """An ``.osm``-like document drawn from ``rng``: ways before or after their
    nodes, refs to missing nodes, nested and unknown elements, entity-escaped
    values, other roots, remarks, bad numbers and, now and then, broken XML."""

    def number(good):
        return rng.choice(_ODD_NUMBERS) if rng.random() < 0.01 else good

    def attrs(**values):
        return "".join(f' {k}="{v}"' for k, v in values.items() if rng.random() > 0.005)

    def nd():
        return f"<nd{attrs(ref=number(rng.randint(1, 7)))}/>"

    def tag():
        k = rng.choice(("highway", "name", "oneway", "lanes", "k&amp;1"))
        return f"<tag{attrs(k=k, v=rng.choice(_TAG_VALUES))}/>"

    def node():
        lat, lon = (number(repr(rng.uniform(-0.01, 0.01))) for _ in "ll")
        inner = rng.choice(("", "", tag(), "<foo>text</foo>"))
        return f"<node{attrs(id=number(rng.randint(1, 6)), lat=lat, lon=lon)}>{inner}</node>"

    def way():
        children = [rng.choice((nd, nd, nd, tag, tag))() for _ in range(rng.randint(0, 7))]
        if rng.random() < 0.2:
            children.append(rng.choice((
                "<foo/>", f"<nd ref=\"{rng.randint(1, 8)}\">{nd()}</nd>", "<bar>" + nd() + "</bar>",
                node(), f"<way id=\"77\">{nd()}{nd()}</way>", "<!-- c -->", "<?pi x?>")))
        rng.shuffle(children)
        return f"<way{attrs(id=number(rng.randint(10, 14)))}>{''.join(children)}</way>"

    def other():
        return rng.choice((
            "<bounds minlat=\"0\"/>", "<meta osm_base=\"x\"/>", "<note>a &amp; b</note>",
            f"<relation id=\"5\">{nd()}<member ref=\"1\"/></relation>",
            f"<group>{node()}{way()}</group>", "<!-- comment -->", "<![CDATA[<way>]]>"))

    parts = [rng.choice((node, node, node, way, way, other))() for _ in range(rng.randint(0, 16))]
    if rng.random() < 0.05:
        parts.insert(rng.randint(0, len(parts)), "<remark> runtime error: timed out </remark>")
    opening, closing = rng.choice((('<osm version="0.6">', "</osm>"),) * 28 + (
        ("<html>", "</html>"), ('<osm xmlns="http://openstreetmap.org/">', "</osm>"),
        ('<o:osm xmlns:o="http://o/">', "</o:osm>"), ("<o:osm>", "</o:osm>")))
    prolog = rng.choice(('<?xml version="1.0" encoding="UTF-8"?>\n', "") * 4 + (
        '<!DOCTYPE osm [<!ENTITY e "5">]>', '<!DOCTYPE osm SYSTEM "osm.dtd">'))
    text = prolog + opening + "\n".join(["", *parts, ""]) + closing
    if prolog.startswith("<!DOCTYPE"):  # an entity that is defined in one prolog only
        old, new = rng.choice((("</node>", "&e;</node>"), ('<nd ref="', '<nd ref="&e;')))
        text = text.replace(old, new, 1)
    if rng.random() < 0.1:  # broken XML, or a document cut short
        cut = rng.randrange(len(text) + 1)
        junk = rng.choice(("", "<", "&", "&bogus;", "</x>", "<x/>"))
        text = text[:cut] + junk + (text[cut:] if rng.random() < 0.5 else "")
    return text


def _assert_same_verdict(text):
    """``parse_osm`` and the oracle give equal graphs, or both raise."""
    try:
        expected = _element_tree_parse(text)
    except (SyntaxError, ValueError):
        expected = None
    try:
        got = parse_osm(text)
    except ValueError:
        got = None
    assert got == expected, text


# a seed per example: st.randoms() skews every draw towards its edge values
# and takes ten times as long
@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_parse_matches_element_tree_oracle(seed):
    _assert_same_verdict(_random_extract(random.Random(seed)))


@given(st.one_of(st.text(), st.text(alphabet='&<>"a;q')))
def test_xml_escape_matches_saxutils(s):
    assert xml_escape(s) == saxutils.escape(s, {'"': "&quot;"})


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
    # ocean fixture: nodes but no road-bearing way; retrieval serves it, pruning rejects it
    (tmp_path / "ocean.osm").write_text(
        osm_xml(ORIGIN, {1: (0, 0), 2: (10, 10)}, [(5, [1, 2], {"natural": "coastline"})]),
        encoding="utf-8",
    )
    graph = OsmClient(offline=True, fixtures_dir=tmp_path).retrieve_osm(ORIGIN, 500.0)
    assert set(graph.ways) == {5}
    with pytest.raises(InconsistentCrashLocation, match="no road within"):
        prune_osm(graph, ORIGIN, 500.0)


def test_retrieve_offline_no_fixture(tmp_path):
    client = OsmClient(offline=True, fixtures_dir=tmp_path)
    with pytest.raises(CacheMiss):
        client.retrieve_osm(ORIGIN, 500.0)


def _box_osm(way_id, south, west, north, east):
    """A fixture whose node bounding box is exactly the given one, in degrees."""
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n<osm version="0.6">\n'
        f'  <node id="1" lat="{south!r}" lon="{west!r}"/>\n'
        f'  <node id="2" lat="{north!r}" lon="{east!r}"/>\n'
        f'  <way id="{way_id}"><nd ref="1"/><nd ref="2"/><tag k="highway" v="primary"/></way>\n'
        "</osm>\n"
    )


def _picked_way(client, lat, lon):
    return set(client.retrieve_osm(GeoPoint(lat, lon), 500.0).ways)


def test_fixture_tie_break_nearest_center_then_name(tmp_path):
    # both cover (37.05, -77.05); b's center is nearer, a sorts first by name
    (tmp_path / "a.osm").write_text(_box_osm(1, 37.0, -77.1, 37.2, -77.0), encoding="utf-8")
    (tmp_path / "b.osm").write_text(_box_osm(2, 37.0, -77.1, 37.1, -77.0), encoding="utf-8")
    assert _picked_way(OsmClient(offline=True, fixtures_dir=tmp_path), 37.05, -77.05) == {2}
    (tmp_path / "c.osm").write_text(_box_osm(3, 37.0, -77.1, 37.1, -77.0), encoding="utf-8")
    # b and c tie on distance; the file name decides
    assert _picked_way(OsmClient(offline=True, fixtures_dir=tmp_path), 37.05, -77.05) == {2}


def test_fixture_margin_is_one_hundredth_degree(tmp_path):
    (tmp_path / "site.osm").write_text(_box_osm(1, 37.0, -77.1, 37.1, -77.0), encoding="utf-8")
    client = OsmClient(offline=True, fixtures_dir=tmp_path)
    assert _picked_way(client, 37.1 + 0.009, -77.05) == {1}
    assert _picked_way(client, 37.05, -77.1 - 0.009) == {1}
    with pytest.raises(CacheMiss):
        client.retrieve_osm(GeoPoint(37.1 + 0.011, -77.05), 500.0)
    with pytest.raises(CacheMiss):
        client.retrieve_osm(GeoPoint(37.05, -77.1 - 0.011), 500.0)


def test_fixture_without_xml_or_nodes_is_skipped(tmp_path):
    (tmp_path / "a_truncated.osm").write_text('<osm version="0.6"><node id="1"', encoding="utf-8")
    (tmp_path / "b_empty.osm").write_text('<osm version="0.6"/>', encoding="utf-8")
    client = OsmClient(offline=True, fixtures_dir=tmp_path)
    with pytest.raises(CacheMiss):
        client.retrieve_osm(GeoPoint(37.05, -77.05), 500.0)
    (tmp_path / "c.osm").write_text(_box_osm(3, 37.0, -77.1, 37.1, -77.0), encoding="utf-8")
    assert _picked_way(OsmClient(offline=True, fixtures_dir=tmp_path), 37.05, -77.05) == {3}


def test_unreadable_fixtures_are_skipped_and_logged(tmp_path, caplog):
    good = _box_osm(1, 37.0, -77.1, 37.1, -77.0)
    (tmp_path / "bad_lat.osm").write_text(
        _box_osm(2, 38.0, -77.1, 38.1, -77.0).replace('lat="38.0"', 'lat="abc"'), encoding="utf-8")
    (tmp_path / "bad_nan.osm").write_text(
        _box_osm(3, 39.0, -77.1, 39.1, -77.0).replace('lat="39.0"', 'lat="nan"'), encoding="utf-8")
    (tmp_path / "bad_bytes.osm").write_bytes(b"\xff\xfe" + good.encode("utf-16-le"))
    (tmp_path / "dir.osm").mkdir()
    (tmp_path / "good.osm").write_text(good, encoding="utf-8")
    client = OsmClient(offline=True, fixtures_dir=tmp_path)
    with caplog.at_level(logging.WARNING, logger="crashtrace.osm"):
        assert _picked_way(client, 37.05, -77.05) == {1}
        for lat in (38.05, 39.05):  # the only maps here were bad_lat.osm and bad_nan.osm
            with pytest.raises(CacheMiss):
                client.retrieve_osm(GeoPoint(lat, -77.05), 500.0)
    warned = sorted(r.getMessage().split(":")[0] for r in caplog.records)
    assert warned == [f"skipping unreadable map fixture {name}"
                      for name in ("bad_bytes.osm", "bad_lat.osm", "bad_nan.osm", "dir.osm")]


@pytest.mark.parametrize("lat, lon", [
    ("nan", "-77.1"), ("37.0", "inf"), ("-inf", "-77.1"), ("1e400", "-77.1"), ("NaN", "-77.1"),
])
def test_non_finite_coordinate_is_unreadable(lat, lon):
    text = _box_osm(1, 37.0, -77.1, 37.1, -77.0).replace(
        'lat="37.0" lon="-77.1"', f'lat="{lat}" lon="{lon}"')
    with pytest.raises(ValueError, match=r"unreadable <node> .*non-finite coordinate"):
        parse_osm(text)


def test_parse_osm_needs_no_element_tree(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ElementTree's parser was used")

    monkeypatch.setattr(ET, "XMLParser", refuse)
    (tmp_path / "site.osm").write_text(_box_osm(3, 37.0, -77.1, 37.1, -77.0), encoding="utf-8")
    assert _picked_way(OsmClient(offline=True, fixtures_dir=tmp_path), 37.05, -77.05) == {3}
    nodes, ways = straight_road_layout()
    assert set(parse_osm(osm_xml(ORIGIN, nodes, ways)).ways) == {10}


def _count_parses(monkeypatch, delay_s=0.0):
    calls = []
    real = osm.parse_osm

    def counting(text):
        calls.append(1)
        time.sleep(delay_s)
        return real(text)

    monkeypatch.setattr(osm, "parse_osm", counting)
    return calls


def _write_boxes(directory, count):
    for i in range(count):
        lat = 37.0 + 0.5 * i
        (directory / f"site{i}.osm").write_text(
            _box_osm(i + 1, lat, -77.1, lat + 0.1, -77.0), encoding="utf-8")


def test_fixtures_parsed_once_per_client(tmp_path, monkeypatch):
    _write_boxes(tmp_path, 4)
    calls = _count_parses(monkeypatch)
    client = OsmClient(offline=True, fixtures_dir=tmp_path)
    for i in range(4):
        assert _picked_way(client, 37.05 + 0.5 * i, -77.05) == {i + 1}
    assert _picked_way(client, 37.06, -77.05) == {1}
    assert len(calls) == 4  # one per fixture; retrieve_osm reuses the scanned graph


def test_concurrent_first_lookups_build_index_once(tmp_path, monkeypatch):
    _write_boxes(tmp_path, 3)
    calls = _count_parses(monkeypatch, delay_s=0.02)
    client = OsmClient(offline=True, fixtures_dir=tmp_path)
    barrier = threading.Barrier(2)
    picked = {}

    def lookup(i):
        barrier.wait(timeout=10)
        picked[i] = _picked_way(client, 37.05 + 0.5 * i, -77.05)

    threads = [threading.Thread(target=lookup, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert picked == {0: {1}, 1: {2}}
    assert len(calls) == 3


def test_cases_sharing_a_fixture_share_one_parse_and_disk_cache_parses_once(
        tmp_path, monkeypatch):
    from crashtrace.roadnet import build_road_network

    fixtures, cache = tmp_path / "fixtures", tmp_path / "cache"
    fixtures.mkdir()
    nodes, ways = straight_road_layout()
    (fixtures / "site.osm").write_text(osm_xml(ORIGIN, nodes, ways), encoding="utf-8")
    (fixtures / "far.osm").write_text(_box_osm(1, 38.0, -77.1, 38.1, -77.0), encoding="utf-8")
    cached_center = case_origin(40)
    payload = osm_xml(cached_center, nodes, ways)
    expected_from_disk = write_osm(parse_osm(payload))
    OsmClient(cache_dir=cache, transport=lambda url, query: payload).retrieve_osm(
        cached_center, 500.0)

    calls = _count_parses(monkeypatch)
    client = OsmClient(cache_dir=cache, offline=True, fixtures_dir=fixtures)
    near = GeoPoint(ORIGIN.latitude + 0.001, ORIGIN.longitude - 0.001)
    first = client.retrieve_osm(ORIGIN, 500.0)
    second = client.retrieve_osm(near, 500.0)  # another case, the same fixture
    assert second is first
    assert len(calls) == 2  # the directory scan, once per fixture
    assert write_osm(client.retrieve_osm(cached_center, 500.0)) == expected_from_disk
    assert len(calls) == 3  # plus the disk-cache text
    for center in (ORIGIN, near, cached_center):
        client.retrieve_osm(center, 500.0)
    assert len(calls) == 4  # fixture hits parse nothing; the cached file is parsed again

    before = write_osm(first)
    for center in (ORIGIN, near):
        build_road_network(prune_osm(first, center, 500.0), center)
    assert write_osm(first) == before
    assert write_osm(client.retrieve_osm(near, 500.0)) == before


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


def test_online_client_keeps_no_graph():
    nodes, ways = straight_road_layout()
    payload = osm_xml(ORIGIN, nodes, ways)
    client = OsmClient(transport=lambda url, query: payload)
    graph = client.retrieve_osm(ORIGIN, 500.0)
    released = weakref.ref(graph)
    del graph
    gc.collect()
    assert released() is None


@pytest.mark.parametrize("center, radius_m, name", [
    (GeoPoint(37.123456789, -77.98765432), 500.0, "osm_37.1234568_-77.9876543_500.osm"),
    (GeoPoint(37.5, -77.25), 1.46, "osm_37.5000000_-77.2500000_2.osm"),  # 1.46 -> 1.5 -> "2"
])
def test_disk_cache_file_name(tmp_path, center, radius_m, name):
    nodes, ways = straight_road_layout()
    payload = osm_xml(center, nodes, ways)
    OsmClient(cache_dir=tmp_path, transport=lambda url, query: payload).retrieve_osm(
        center, radius_m)
    assert [p.name for p in tmp_path.iterdir()] == [name]


class _FullDisk:
    """A text file whose ``write`` stores half the text, then fails."""

    def __init__(self, file):
        self._file = file

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._file.close()

    def write(self, text):
        self._file.write(text[: len(text) // 2])
        self._file.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_interrupted_cache_write_leaves_no_file(tmp_path, monkeypatch):
    nodes, ways = straight_road_layout()
    payload = osm_xml(ORIGIN, nodes, ways)
    calls = []

    def transport(url, query):
        calls.append(query)
        return payload

    real_open = io.open

    def open_on_full_disk(file, mode="r", *args, **kwargs):
        opened = real_open(file, mode, *args, **kwargs)
        return _FullDisk(opened) if "w" in mode else opened

    with monkeypatch.context() as patch:
        patch.setattr(io, "open", open_on_full_disk)
        with pytest.raises(OSError):
            OsmClient(cache_dir=tmp_path, transport=transport).retrieve_osm(ORIGIN, 500.0)
    assert list(tmp_path.iterdir()) == []  # neither a truncated file nor a temporary one
    graph = OsmClient(cache_dir=tmp_path, transport=transport).retrieve_osm(ORIGIN, 500.0)
    assert set(graph.ways) == {10}
    assert len(calls) == 2  # the fresh client fetched again
    assert [p.read_text(encoding="utf-8") for p in tmp_path.iterdir()] == [payload]


def test_unparseable_cache_file_is_a_miss(tmp_path, caplog):
    fixtures, cache = tmp_path / "fixtures", tmp_path / "cache"
    fixtures.mkdir()
    nodes, ways = straight_road_layout()
    payload = osm_xml(ORIGIN, nodes, ways)
    (fixtures / "site.osm").write_text(payload, encoding="utf-8")
    calls = []

    def transport(url, query):
        calls.append(query)
        return payload

    OsmClient(cache_dir=cache, transport=transport).retrieve_osm(ORIGIN, 500.0)
    (cached,) = cache.iterdir()
    cached.write_text(payload[: payload.index("<node") + len("<node")], encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="crashtrace.source"):
        offline = OsmClient(cache_dir=cache, offline=True, fixtures_dir=fixtures)
        assert write_osm(offline.retrieve_osm(ORIGIN, 500.0)) == write_osm(parse_osm(payload))
        graph = OsmClient(cache_dir=cache, transport=transport).retrieve_osm(ORIGIN, 500.0)
    assert set(graph.ways) == {10}
    assert len(calls) == 2  # the online client fetched again
    assert cached.read_text(encoding="utf-8") == payload  # and its write-back replaced the file
    assert [r.getMessage().split(":")[0] for r in caplog.records] == \
        [f"ignoring unreadable cache file {cached}"] * 2


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
    for status, error in ((429, NetworkError), (404, NotFound)):
        with http_endpoint(lambda path: (status, b"rate limited", "text/plain")) as (base, _):
            with pytest.raises(error):
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
    with pytest.raises(InconsistentCrashLocation, match="no road within"):
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
    with pytest.raises(UnsupportedVerticalGeometry,
                       match=r"^ways \[11, 12\] are bridges, tunnels or layered$"):
        check_flat(graph)


def test_street_level_tunnels_are_flat():
    # building passages and avalanche protectors roof a road at street level
    # (OSM wiki, Key:tunnel); a non-zero layer still lifts one off the plane
    nodes = {1: (0.0, 0.0), 2: (100.0, 0.0), 3: (0.0, 10.0), 4: (100.0, 10.0),
             5: (0.0, 20.0), 6: (100.0, 20.0)}
    ways = [
        (10, [1, 2], {"highway": "residential", "tunnel": "building_passage"}),
        (11, [3, 4], {"highway": "residential", "tunnel": "Avalanche_Protector"}),
    ]
    assert check_flat(_graph(nodes, ways)) is None
    layered = (12, [5, 6], {"highway": "residential", "tunnel": "building_passage",
                            "layer": "-1"})
    with pytest.raises(UnsupportedVerticalGeometry,
                       match=r"^ways \[12\] are bridges, tunnels or layered$"):
        check_flat(_graph(nodes, ways + [layered]))


def test_vertical_geometry_flat_grid_clean():
    nodes, ways = straight_road_layout()
    assert check_flat(_graph(nodes, ways)) is None
