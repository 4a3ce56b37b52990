import math

import pytest
from hypothesis import given, strategies as st

from crashtrace.crash_api import CrashApiClient, build_case_url
from crashtrace.errors import CacheMiss, MalformedDocument, NetworkError, NotFound
from crashtrace.geometry import GeoPoint
from crashtrace.reports import (
    CaseKey,
    CollisionType,
    Maneuver,
    RawCaseDocument,
    RoadTopology,
    TrajectoryRelation,
    filter_dual_vehicle,
    missing_fields,
    parse_report,
)

from corpus import report_xml
from local_http import closed_port_url, http_endpoint

KEY = CaseKey(51, 510179, 2023)


def _doc(**kwargs) -> RawCaseDocument:
    kwargs.setdefault("coords", GeoPoint(37.0, -77.0))
    return RawCaseDocument(KEY, report_xml(**kwargs))


def test_parse_two_vehicle_front_to_front():
    report = parse_report(_doc(collision="Front-to-Front"))
    assert len(report.vehicles) == 2
    assert report.collision_type is CollisionType.FRONT_TO_FRONT
    assert report.crash_coords == GeoPoint(37.0, -77.0)


def test_parse_real_case_coordinates():
    coords = GeoPoint(37.22810833, -77.40179167)
    report = parse_report(_doc(coords=coords))
    assert report.crash_coords.latitude == pytest.approx(37.22810833, abs=0)
    assert report.crash_coords.longitude == pytest.approx(-77.40179167, abs=0)


@pytest.mark.parametrize("field, label, member", [
    ("collision", "Front-to-Front", CollisionType.FRONT_TO_FRONT),
    ("collision", "Sideswipe - Opposite Direction", CollisionType.SIDESWIPE_OPPOSITE),
    ("collision", "Sideswipe - Same Direction", CollisionType.SIDESWIPE_SAME),
    ("collision", "Other", CollisionType.OTHER),
    ("topology", "Four-Way Intersection", RoadTopology.FOUR_WAY),
    ("topology", "Other", RoadTopology.OTHER),
    ("relation", "Other", TrajectoryRelation.OTHER),
    ("maneuver", "Going Straight", Maneuver.GOING_STRAIGHT),
    ("maneuver", "going_straight", Maneuver.GOING_STRAIGHT),
    ("maneuver", "Turning Left", Maneuver.TURNING_LEFT),
    ("maneuver", "turning_left", Maneuver.TURNING_LEFT),
    ("maneuver", "Turning Right", Maneuver.TURNING_RIGHT),
    ("maneuver", "turning_right", Maneuver.TURNING_RIGHT),
    ("maneuver", "other", Maneuver.OTHER),
])
def test_label_spellings_parse_to_member(field, label, member):
    if field == "maneuver":
        vehicle = {"speed_mph": 30, "clock": 12, "maneuver": label}
        report = parse_report(_doc(vehicles=[vehicle, vehicle]))
        assert report.vehicles[0].maneuver is member
    else:
        report = parse_report(_doc(**{field: label}))
        attr = {"collision": "collision_type", "topology": "road_topology",
                "relation": "trajectory_relation"}[field]
        assert getattr(report, attr) is member


def test_unknown_collision_code_maps_to_other():
    report = parse_report(_doc(collision="Spontaneous Disassembly"))
    assert report.collision_type is CollisionType.OTHER


def test_unknown_topology_and_relation_map_to_other():
    report = parse_report(_doc(topology="Dodecagon", relation="Brownian"))
    assert report.road_topology is RoadTopology.OTHER
    assert report.trajectory_relation is TrajectoryRelation.OTHER


def test_missing_fields_parse_to_none():
    report = parse_report(_doc(coords=None, topology=None, relation=None))
    assert report.crash_coords is None
    assert report.road_topology is None
    assert report.trajectory_relation is None


def test_speed_unit_conversion_exact():
    report = parse_report(_doc(vehicles=[{"speed_mph": 30}, {"speed_mph": None}]))
    assert math.isclose(report.vehicles[0].travel_speed, 13.4112, abs_tol=1e-9)
    assert report.vehicles[1].travel_speed is None


@pytest.mark.parametrize("text", ["1e309", "inf", "-inf", "nan"])
def test_non_finite_number_is_unknown(text):
    report = parse_report(_doc(vehicles=[{"speed_mph": text, "clock": text}] * 2))
    assert report.vehicles[0].travel_speed is None
    assert report.vehicles[0].impact_clock is None


def test_vehicle_fields():
    report = parse_report(
        _doc(
            vehicles=[
                {"speed_mph": 25, "clock": 3, "maneuver": "Turning Left"},
                {"speed_mph": None, "clock": None, "maneuver": "Pirouette"},
            ]
        )
    )
    v1, v2 = report.vehicles
    assert v1.impact_clock == 3
    assert v1.maneuver is Maneuver.TURNING_LEFT
    assert v2.impact_clock is None
    assert v2.maneuver is Maneuver.OTHER


def test_malformed_markup_raises():
    with pytest.raises(MalformedDocument):
        parse_report(RawCaseDocument(KEY, "<CrashCase><unclosed>"))


@given(
    st.booleans(), st.booleans(), st.booleans(), st.booleans(),
    st.integers(min_value=0, max_value=3),
)
def test_parse_total_on_wellformed_markup(no_coords, no_coll, no_topo, no_rel, n_vehicles):
    doc = RawCaseDocument(
        KEY,
        report_xml(
            coords=None if no_coords else GeoPoint(37.0, -77.0),
            collision=None if no_coll else "Angle",
            topology=None if no_topo else "T-Intersection",
            relation=None if no_rel else "Intersecting Paths",
            vehicles=[{"speed_mph": 20}] * n_vehicles,
        ),
    )
    report = parse_report(doc)  # must never raise
    assert len(report.vehicles) == n_vehicles


def test_parse_deterministic():
    doc = _doc()
    assert parse_report(doc) == parse_report(doc)


def test_completeness_all_present():
    assert missing_fields(parse_report(_doc())) == ()


def test_completeness_missing_coords():
    assert missing_fields(parse_report(_doc(coords=None))) == ("crash_coords",)


def test_completeness_missing_topology_and_relation():
    missing = missing_fields(parse_report(_doc(topology=None, relation=None)))
    assert missing == ("road_topology", "trajectory_relation")


def test_completeness_unrecognized_but_present_is_known():
    assert missing_fields(parse_report(_doc(topology="Enneagram"))) == ()


def test_dual_vehicle_filter():
    assert filter_dual_vehicle(parse_report(_doc()))
    assert not filter_dual_vehicle(parse_report(_doc(vehicles=[{"speed_mph": 30}])))
    assert not filter_dual_vehicle(parse_report(_doc(vehicles=[{"speed_mph": 30}] * 3)))


# --- fetching ---


def test_case_url_shape():
    url = build_case_url("https://example.test/CrashAPI/crashes", KEY)
    assert url == (
        "https://example.test/CrashAPI/crashes/GetCaseDetails"
        "?stateCase=510179&caseYear=2023&state=51&format=xml"
    )


def test_offline_fixture_passthrough(tmp_path):
    body = report_xml(coords=GeoPoint(37.0, -77.0))
    (tmp_path / f"{KEY.slug}.xml").write_text(body, encoding="utf-8")
    client = CrashApiClient(offline=True, fixtures_dir=tmp_path)
    assert client.fetch_case(KEY).body == body


def test_offline_missing_fixture_is_cache_miss(tmp_path):
    client = CrashApiClient(offline=True, fixtures_dir=tmp_path)
    with pytest.raises(CacheMiss):
        client.fetch_case(CaseKey(51, 999999, 2023))


def test_fetch_caches_in_memory_and_on_disk(tmp_path):
    calls = []

    def transport(url):
        calls.append(url)
        return "<CrashCase/>"

    client = CrashApiClient(cache_dir=tmp_path / "cache", transport=transport)
    client.fetch_case(KEY)
    client.fetch_case(KEY)
    assert len(calls) == 1
    # a second client sees the disk cache and never hits the transport
    def exploding(url):
        raise AssertionError("should not fetch")

    again = CrashApiClient(cache_dir=tmp_path / "cache", transport=exploding)
    assert again.fetch_case(KEY).body == "<CrashCase/>"


def test_fetch_not_found_propagates():
    def transport(url):
        raise NotFound(url)

    client = CrashApiClient(transport=transport)
    with pytest.raises(NotFound):
        client.fetch_case(KEY)


def _served(status, body, content_type="text/xml"):
    return lambda path: (status, body, content_type)


def test_default_transport_returns_report_body():
    body = report_xml(coords=GeoPoint(37.0, -77.0), events=["Caf\u00e9 parking lot"])
    with http_endpoint(_served(200, body.encode("utf-8"))) as (base, received):
        doc = CrashApiClient(base_url=base).fetch_case(KEY)
    assert doc.body == body  # no declared charset: decoded as UTF-8
    method, path, _, _ = received[0]
    assert method == "GET"
    assert base + path == build_case_url(base, KEY)


def test_default_transport_declared_charset():
    body = "<CrashCase>Caf\u00e9</CrashCase>"
    served = _served(200, body.encode("latin-1"), "text/xml; charset=ISO-8859-1")
    with http_endpoint(served) as (base, _):
        assert CrashApiClient(base_url=base).fetch_case(KEY).body == body


@pytest.mark.parametrize("status, body, error", [
    (404, b"<html>missing</html>", NotFound),
    (500, b"<html>boom</html>", NetworkError),
    (200, b"  \n", NotFound),
])
def test_default_transport_error_statuses(status, body, error, tmp_path):
    with http_endpoint(_served(status, body)) as (base, _):
        client = CrashApiClient(base_url=base, cache_dir=tmp_path)
        with pytest.raises(error):
            client.fetch_case(KEY)
    assert not any(tmp_path.iterdir())  # failures are never cached


def test_default_transport_closed_port_is_network_error():
    with pytest.raises(NetworkError):
        CrashApiClient(base_url=closed_port_url()).fetch_case(KEY)
