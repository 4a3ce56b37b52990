import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from crashtrace.errors import ParseError, SerializationError
from crashtrace.geometry import PlanarPoint
from crashtrace.opendrive import emit_opendrive, parse_opendrive
from crashtrace.osm import parse_osm
from crashtrace.roadnet import Junction, Road, RoadNetwork, build_road_network, unify_lanes

from corpus import case_origin, grid_layout, osm_xml
from readback import roundtrip_distance_error

ORIGIN = case_origin(0)


def _network(nodes, ways):
    graph = parse_osm(osm_xml(ORIGIN, nodes, ways))
    return unify_lanes(build_road_network(graph, ORIGIN))


def test_straight_road_length_attribute():
    network = _network({1: (0.0, 0.0), 2: (100.0, 0.0)},
                       [(10, [1, 2], {"highway": "residential"})])
    doc = emit_opendrive(network)
    root = ET.fromstring(doc)
    roads = root.findall("road")
    assert len(roads) == 1
    assert float(roads[0].get("length")) == pytest.approx(100.0, abs=1e-6)
    # one driving lane each side plus a center lane
    assert len(roads[0].findall("lanes/laneSection/left/lane")) == 1
    assert len(roads[0].findall("lanes/laneSection/right/lane")) == 1


def test_junction_element_emitted():
    network = _network(
        {1: (-50.0, 0.0), 2: (0.0, 0.0), 3: (50.0, 0.0), 4: (0.0, -50.0)},
        [
            (10, [1, 2, 3], {"highway": "residential", "name": "A Street"}),
            (11, [4, 2], {"highway": "residential", "name": "B Street"}),
        ],
    )
    doc = emit_opendrive(network)
    root = ET.fromstring(doc)
    assert len(root.findall("junction")) == 1


def test_roundtrip_counts_and_distances():
    network = _network(*grid_layout())
    doc = emit_opendrive(network)
    parsed = parse_opendrive(doc)
    assert len(parsed.roads) == len(network.roads)
    assert len(parsed.junctions) == len(network.junctions)
    assert {r.road_id for r in parsed.roads} == {r.road_id for r in network.roads}
    for road in network.roads:
        twin = parsed.road(road.road_id)
        assert (twin.lanes_forward, twin.lanes_backward) == (
            road.lanes_forward, road.lanes_backward)
    assert roundtrip_distance_error(network, parsed) <= 1e-3


def test_roundtrip_origin_preserved():
    network = _network({1: (0.0, 0.0), 2: (100.0, 0.0)},
                       [(10, [1, 2], {"highway": "residential"})])
    parsed = parse_opendrive(emit_opendrive(network))
    assert parsed.origin == ORIGIN


def test_emit_deterministic():
    network = _network(*grid_layout())
    assert emit_opendrive(network) == emit_opendrive(network)


def test_empty_network_serialization_error():
    empty = RoadNetwork(ORIGIN, (), (), {})
    with pytest.raises(SerializationError):
        emit_opendrive(empty)


def test_parse_error_on_garbage():
    with pytest.raises(ParseError):
        parse_opendrive("<not! xml")
    with pytest.raises(ParseError):
        parse_opendrive("<OpenDRIVE><header/></OpenDRIVE>")


def _junction_document():
    return emit_opendrive(_network(
        {1: (-50.0, 0.0), 2: (0.0, 0.0), 3: (50.0, 0.0), 4: (0.0, -50.0)},
        [
            (10, [1, 2, 3], {"highway": "residential", "name": "A Street"}),
            (11, [4, 2], {"highway": "residential", "name": "B Street"}),
        ],
    ))


def _first_geometry_x(doc, value):
    head, tail = doc.split("<geometry ", 1)
    attrs, rest = tail.split(">", 1)
    attrs = re.sub(r' x="[^"]*"', "" if value is None else f' x="{value}"', attrs)
    return f"{head}<geometry {attrs}>{rest}"


@pytest.mark.parametrize("malform, element", [
    (lambda doc: _first_geometry_x(doc, None), "<geometry>"),
    (lambda doc: _first_geometry_x(doc, "nan"), "<geometry>"),
    (lambda doc: _first_geometry_x(doc, "inf"), "<geometry>"),
    (lambda doc: _first_geometry_x(doc, "east"), "<geometry>"),
    (lambda doc: re.sub(r' id="10"', "", doc, count=1), "<road>"),
    (lambda doc: re.sub(r'(<width [^>]*) a="[^"]*"', r"\1", doc), "<width>"),
    (lambda doc: re.sub(r'incomingRoad="11"', 'incomingRoad="eleven"', doc), "<connection>"),
    (lambda doc: re.sub(r'(<center [^>]*) y="[^"]*"', r"\1", doc), "<center>"),
])
def test_parse_error_names_malformed_element(malform, element):
    doc = _junction_document()
    broken = malform(doc)
    assert broken != doc
    with pytest.raises(ParseError, match=element):
        parse_opendrive(broken)


_centre_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 0.1]),
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.builds(PlanarPoint, _centre_floats, _centre_floats), min_size=1, max_size=4))
def test_junction_centres_roundtrip_bit_for_bit(centres):
    # scoring reads junction centres, so run and replay classify on the same floats
    road = Road(1, (PlanarPoint(0.0, 0.0), PlanarPoint(10.0, 0.0)), 1, 1, "")
    junctions = tuple(Junction(i, i, c, (1,)) for i, c in enumerate(centres))
    parsed = parse_opendrive(emit_opendrive(RoadNetwork(ORIGIN, (road,), junctions, {})))
    assert [(j.center.x.hex(), j.center.y.hex()) for j in parsed.junctions] \
        == [(c.x.hex(), c.y.hex()) for c in centres]
