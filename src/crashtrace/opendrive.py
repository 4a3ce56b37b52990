"""OpenDRIVE 1.4 emission and the matching reader.

The plan view approximates each centerline as a chain of line geometries;
lane sections carry a center lane plus the forward lanes on the right and
backward lanes on the left, all at the road's lane width. The header's
geoReference records the projection so the document stands alone.

Junction centres are not part of OpenDRIVE 1.4, so they ride in a
``userData`` block; other consumers see a standard document. That block
holds only the ``<center>``: the junction's node and its position, which
the reader takes back bit for bit and scoring reads. The reader skips
any other element there, such as the outline older packages carry.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET

from .errors import ParseError, SerializationError
from .geometry import GeoPoint, PlanarPoint, bearing, cumulative_lengths
from .osm import xml_escape
from .roadnet import Junction, Road, RoadNetwork


def emit_opendrive(network: RoadNetwork) -> str:
    """Serialize a road network as an OpenDRIVE document."""
    if not network.roads:
        raise SerializationError("empty road network")

    xs = [p.x for r in network.roads for p in r.centerline]
    ys = [p.y for r in network.roads for p in r.centerline]
    origin = network.origin
    geo_ref = (
        f"+proj=eqc +lat_ts={origin.latitude!r} +lat_0={origin.latitude!r} "
        f"+lon_0={origin.longitude!r} +x_0=0 +y_0=0 +R=6371000 +units=m +no_defs"
    )

    out = ['<?xml version="1.0" encoding="UTF-8"?>', "<OpenDRIVE>"]
    out.append(
        f'  <header revMajor="1" revMinor="4" name="" version="1.00" '
        f'north="{max(ys)!r}" south="{min(ys)!r}" '
        f'east="{max(xs)!r}" west="{min(xs)!r}">'
    )
    out.append(f"    <geoReference><![CDATA[{geo_ref}]]></geoReference>")
    out.append("  </header>")

    for road in sorted(network.roads, key=lambda r: r.road_id):
        out.extend(_road_xml(road))
    for junction in sorted(network.junctions, key=lambda j: j.junction_id):
        out.extend(_junction_xml(junction))
    out.append("</OpenDRIVE>")
    return "\n".join(out) + "\n"


def _road_xml(road: Road) -> list[str]:
    cum = cumulative_lengths(road.centerline)
    lines = [
        f'  <road name="{xml_escape(road.name_key)}" length="{cum[-1]!r}" '
        f'id="{road.road_id}" junction="-1">'
    ]
    lines.append("    <planView>")
    for i in range(len(road.centerline) - 1):
        a, b = road.centerline[i], road.centerline[i + 1]
        lines.append(
            f'      <geometry s="{cum[i]!r}" x="{a.x!r}" y="{a.y!r}" '
            f'hdg="{bearing(a, b)!r}" length="{cum[i + 1] - cum[i]!r}">'
            "<line/></geometry>"
        )
    lines.append("    </planView>")

    def lane_xml(lane_id: int) -> str:
        return (
            f'          <lane id="{lane_id}" type="driving" level="false">'
            f'<width sOffset="0.0" a="{road.lane_width!r}" b="0.0" c="0.0" d="0.0"/>'
            "</lane>"
        )

    lines.append("    <lanes>")
    lines.append('      <laneSection s="0.0">')
    if road.lanes_backward:
        lines.append("        <left>")
        for lid in range(road.lanes_backward, 0, -1):
            lines.append(lane_xml(lid))
        lines.append("        </left>")
    lines.append('        <center><lane id="0" type="none" level="false"/></center>')
    if road.lanes_forward:
        lines.append("        <right>")
        for lid in range(1, road.lanes_forward + 1):
            lines.append(lane_xml(-lid))
        lines.append("        </right>")
    lines.append("      </laneSection>")
    lines.append("    </lanes>")
    lines.append("  </road>")
    return lines


def _junction_xml(junction: Junction) -> list[str]:
    lines = [f'  <junction id="{junction.junction_id}" name="">']
    for i, member in enumerate(junction.members):
        lines.append(
            f'    <connection id="{i}" incomingRoad="{member}" '
            f'connectingRoad="{member}" contactPoint="start"/>'
        )
    lines.append("    <userData>")
    lines.append(
        f'      <center node="{junction.node_id}" x="{junction.center.x!r}" '
        f'y="{junction.center.y!r}"/>'
    )
    lines.append("    </userData>")
    lines.append("  </junction>")
    return lines


_LAT_RE = re.compile(r"\+lat_0=([-+0-9.eE]+)")
_LON_RE = re.compile(r"\+lon_0=([-+0-9.eE]+)")


def _number(element: ET.Element, text: str | None, kind: type = float):
    """``text`` as a finite float (or an int); ParseError naming ``element`` otherwise."""
    try:
        if math.isfinite(value := kind(text)):
            return value
    except (TypeError, ValueError):
        pass
    raise ParseError(f"unreadable <{element.tag}> {element.attrib}: {text!r} "
                     f"is not a finite {kind.__name__}")


def parse_opendrive(text: str) -> RoadNetwork:
    """Read a document produced by :func:`emit_opendrive` back into a network.

    Source node bookkeeping does not survive the format; the returned
    network carries geometry, lanes, and junctions only. A number that is
    missing, unreadable or not finite raises ParseError naming its element.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ParseError(f"bad OpenDRIVE document: {exc}") from exc

    geo_el = root.find("header/geoReference")
    geo_ref = root.findtext("header/geoReference") or ""
    lat_m, lon_m = _LAT_RE.search(geo_ref), _LON_RE.search(geo_ref)
    if not lat_m or not lon_m:
        raise ParseError("geoReference missing projection origin")
    origin = GeoPoint(_number(geo_el, lat_m.group(1)), _number(geo_el, lon_m.group(1)))

    roads = []
    for road_el in root.iterfind("road"):
        road_id = _number(road_el, road_el.get("id"), int)
        geoms = list(road_el.iterfind("planView/geometry"))
        if not geoms:
            raise ParseError(f"road {road_id} has no plan view")
        pts = [PlanarPoint(_number(g, g.get("x")), _number(g, g.get("y"))) for g in geoms]
        last = geoms[-1]
        hdg, length = _number(last, last.get("hdg")), _number(last, last.get("length"))
        pts.append(
            PlanarPoint(
                pts[-1].x + length * math.cos(hdg), pts[-1].y + length * math.sin(hdg)
            )
        )
        backward = len(road_el.findall("lanes/laneSection/left/lane"))
        forward = len(road_el.findall("lanes/laneSection/right/lane"))
        width_el = road_el.find("lanes/laneSection/right/lane/width")
        if width_el is None:
            width_el = road_el.find("lanes/laneSection/left/lane/width")
        lane_width = _number(width_el, width_el.get("a")) if width_el is not None else 3.5
        roads.append(
            Road(
                road_id=road_id,
                centerline=tuple(pts),
                lanes_forward=forward,
                lanes_backward=backward,
                lane_width=lane_width,
                name_key=road_el.get("name", ""),
            )
        )

    junctions = []
    for j_el in root.iterfind("junction"):
        junction_id = _number(j_el, j_el.get("id"), int)
        members = tuple(sorted(
            {_number(c, c.get("incomingRoad"), int) for c in j_el.iterfind("connection")}))
        center_el = j_el.find("userData/center")
        if center_el is None:
            raise ParseError(f"junction {junction_id} missing center")
        center = PlanarPoint(_number(center_el, center_el.get("x")),
                             _number(center_el, center_el.get("y")))
        junctions.append(
            Junction(
                junction_id=junction_id,
                node_id=_number(center_el, center_el.get("node", "0"), int),
                center=center,
                members=members,
            )
        )

    if not roads:
        raise ParseError("document contains no roads")
    return RoadNetwork(origin, tuple(roads), tuple(junctions), {})
