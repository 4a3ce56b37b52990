"""OpenStreetMap retrieval, parsing, pruning, and the vertical-geometry gate.

Extracts come from an Overpass-style bounding-box query online, or from
local ``.osm`` files in offline mode. Either way the result is an
:class:`OsmGraph`: plain node coordinates plus tagged node chains. Pruning
keeps only road-bearing ways near the crash site; anything tagged as a
bridge, tunnel, or non-zero layer disqualifies the whole case because the
flat-world conversion cannot represent it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from urllib.parse import urlencode
from xml.parsers import expat

from .errors import InconsistentCrashLocation
from .geometry import EARTH_RADIUS_M, GeoPoint, PlanarPoint, project_all
from .source import ReadThroughSource, http_text

DEFAULT_OVERPASS_URL = "https://overpass-api.de/api/interpreter"

logger = logging.getLogger(__name__)


# drivable ``highway=*`` classes (OSM wiki, Key:highway); footways, paths,
# cycleways and the like carry no vehicle lanes
DRIVABLE_HIGHWAYS = frozenset({
    "motorway", "trunk", "primary", "secondary", "tertiary", "unclassified", "residential",
    "motorway_link", "trunk_link", "primary_link", "secondary_link", "tertiary_link",
    "living_street", "service", "road",
})


@dataclass(frozen=True)
class OsmWay:
    nodes: tuple[int, ...]
    tags: dict[str, str]

    @property
    def is_road(self) -> bool:
        return self.tags.get("highway") in DRIVABLE_HIGHWAYS


@dataclass(frozen=True)
class OsmGraph:
    nodes: dict[int, GeoPoint]
    ways: dict[int, OsmWay]


def parse_osm(text: str) -> OsmGraph:
    """Parse ``.osm`` XML; ways keep only references to nodes that exist.

    A missing or non-numeric id, ref or coordinate, or a non-finite
    coordinate, is a ValueError that names the element; so are malformed XML,
    a root other than ``<osm>`` and a ``<remark>``, by which Overpass reports
    a query that failed (a timeout, say). Only the root's ``<node>`` and
    ``<way>`` children and a way's own ``<nd>`` and ``<tag>`` children are read;
    a ``<tag>`` without ``k`` is skipped, as OSM has no key-less tags.
    """
    nodes: dict[int, GeoPoint] = {}
    way_parts: list[tuple[dict[str, str], list[int], dict[str, str]]] = []
    refs: list[int] | None = None  # of the way open at depth 2, else None
    tags: dict[str, str] = {}
    remark: list[str] = []
    depth = 0
    # the separator makes a namespaced name "uri}local", never a bare "osm"
    parser = expat.ParserCreate(namespace_separator="}")

    def start(tag: str, attrs: dict[str, str]) -> None:
        nonlocal depth, refs, tags
        depth += 1
        try:
            if depth == 3:  # most elements are a way's <nd> and <tag>
                if refs is not None:
                    if tag == "nd":
                        refs.append(int(attrs["ref"]))
                    elif tag == "tag" and "k" in attrs:
                        tags[attrs["k"]] = attrs.get("v", "")
            elif depth == 2:
                refs = None
                if tag == "node":
                    lat, lon = float(attrs["lat"]), float(attrs["lon"])
                    if not (math.isfinite(lat) and math.isfinite(lon)):
                        raise ValueError("non-finite coordinate")
                    nodes[int(attrs["id"])] = GeoPoint(lat, lon)
                elif tag == "way":
                    refs, tags = [], {}
                    way_parts.append((attrs, refs, tags))
                elif tag == "remark":
                    parser.CharacterDataHandler = remark.append
                    parser.EndElementHandler = end_remark
        except (KeyError, ValueError) as exc:
            raise ValueError(f"unreadable <{tag}> {attrs}: {exc}") from exc
        if depth == 1 and tag != "osm":
            raise ValueError(f"not an OSM extract: <{tag}>")

    def end(tag: str) -> None:
        nonlocal depth
        depth -= 1

    def end_remark(tag: str) -> None:
        end(tag)
        if depth == 1:
            raise ValueError(f"not an OSM extract: <osm> {''.join(remark).strip()}")

    def unresolved_entity(*args) -> None:  # ElementTree rejects what expat would skip
        raise ValueError(f"undefined or external entity: {args}")

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.SkippedEntityHandler = parser.ExternalEntityRefHandler = unresolved_entity
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise ValueError(f"malformed OSM XML: {exc}") from exc
    finally:
        parser.StartElementHandler = None  # it refers to the parser: break the cycle
    ways: dict[int, OsmWay] = {}
    for attrs, way_refs, way_tags in way_parts:  # ways wait for every node
        known = tuple(filter(nodes.__contains__, way_refs))
        if len(known) < 2:
            continue
        try:
            ways[int(attrs["id"])] = OsmWay(known, way_tags)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"unreadable <way> {attrs}: {exc}") from exc
    return OsmGraph(nodes, ways)


def write_osm(graph: OsmGraph) -> str:
    """Serialize a graph back to ``.osm`` XML, deterministically ordered."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', '<osm version="0.6" generator="crashtrace">']
    for nid in sorted(graph.nodes):
        p = graph.nodes[nid]
        lines.append(f'  <node id="{nid}" lat="{p.latitude!r}" lon="{p.longitude!r}"/>')
    for wid in sorted(graph.ways):
        way = graph.ways[wid]
        lines.append(f'  <way id="{wid}">')
        for ref in way.nodes:
            lines.append(f'    <nd ref="{ref}"/>')
        for k in sorted(way.tags):
            lines.append(f'    <tag k="{xml_escape(k)}" v="{xml_escape(way.tags[k])}"/>')
        lines.append("  </way>")
    lines.append("</osm>")
    return "\n".join(lines) + "\n"


def xml_escape(s: str) -> str:
    """``s`` escaped for a double-quoted XML attribute value.

    ``xml.sax.saxutils.escape`` gives the same text, but importing it loads
    ``urllib.request``, which an offline run never needs.
    """
    if "&" not in s and "<" not in s and ">" not in s and '"' not in s:
        return s
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def bounding_box(center: GeoPoint, radius_m: float) -> tuple[float, float, float, float]:
    """(south, west, north, east) of the square of half-width ``radius_m``."""
    dlat = math.degrees(radius_m / EARTH_RADIUS_M)
    dlon = math.degrees(radius_m / (EARTH_RADIUS_M * math.cos(math.radians(center.latitude))))
    return (
        center.latitude - dlat,
        center.longitude - dlon,
        center.latitude + dlat,
        center.longitude + dlon,
    )


def overpass_query(center: GeoPoint, radius_m: float) -> str:
    s, w, n, e = bounding_box(center, radius_m)
    return (
        "[out:xml][timeout:60];"
        f'(way["highway"]({s},{w},{n},{e});>;);'
        "out body;"
    )


def _http_post_overpass(url: str, query: str) -> str:
    return http_text(url, data=urlencode({"data": query}).encode("ascii"), timeout=120)


class OsmClient(ReadThroughSource):
    """Bounding-box extract retrieval through a read-through disk cache.

    An offline client parses its fixture directory once, when it is made, and
    serves every request from that index; the indexed graphs are shared
    between requests and never mutated. Fetched and disk-cached extracts are
    parsed on each request and not kept.
    """

    def __init__(
        self,
        url: str = DEFAULT_OVERPASS_URL,
        cache_dir: Path | None = None,
        offline: bool = False,
        fixtures_dir: Path | None = None,
        transport: Callable[[str, str], str] | None = None,
    ):
        super().__init__(cache_dir, offline, fixtures_dir, transport or _http_post_overpass)
        self.url = url
        self._fixture_maps = _scan_fixtures(self.fixtures_dir) if offline else []

    def retrieve_osm(self, center: GeoPoint, radius_m: float) -> OsmGraph:
        """Extract around ``center``, unpruned: ``prune_osm`` finds whether it has a road."""
        if radius_m <= 0:
            raise ValueError("radius must be positive")
        return self._load((center, radius_m))

    def _cache_name(self, request: tuple[GeoPoint, float]) -> str:
        center, radius_m = request
        # rounding before formatting keeps the names earlier runs wrote:
        # a radius of 1.46 m rounds to 1.5, which formats as 2
        lat, lon, rad = round(center.latitude, 7), round(center.longitude, 7), round(radius_m, 1)
        return f"osm_{lat:.7f}_{lon:.7f}_{rad:.0f}.osm"

    def _parse(self, text: str) -> OsmGraph:
        return parse_osm(text)

    def _fixture(self, request: tuple[GeoPoint, float]) -> OsmGraph | None:
        """The fixture map whose node bounding box covers the request's center.

        Ties resolve to the bbox center nearest the crash site, then file name.
        """
        margin = 0.01  # ~1 km; fixtures need not extend past their roads
        lat, lon = request[0]
        hits = [
            (math.hypot((south + north) / 2 - lat, (west + east) / 2 - lon), path.name, graph)
            for south, west, north, east, path, graph in self._fixture_maps
            if south - margin <= lat <= north + margin and west - margin <= lon <= east + margin
        ]
        return min(hits, key=lambda hit: hit[:2])[2] if hits else None

    def _remote(self, request: tuple[GeoPoint, float]) -> str:
        return self.transport(self.url, overpass_query(*request))


def _scan_fixtures(
    directory: Path | None,
) -> list[tuple[float, float, float, float, Path, OsmGraph]]:
    """(south, west, north, east, path, graph) of each readable ``.osm`` file
    with nodes.

    Unreadable files are skipped with a warning.
    """
    if directory is None or not directory.is_dir():
        return []
    boxes = []
    for path in sorted(directory.glob("*.osm")):
        try:
            graph = parse_osm(path.read_text(encoding="utf-8"))
        except (ValueError, OSError) as exc:  # ValueError covers bad XML and decoding
            logger.warning("skipping unreadable map fixture %s: %s", path.name, exc)
            continue
        if graph.nodes:
            lats = [p.latitude for p in graph.nodes.values()]
            lons = [p.longitude for p in graph.nodes.values()]
            boxes.append((min(lats), min(lons), max(lats), max(lons), path, graph))
    return boxes


def _way_within(positions: dict[int, PlanarPoint], way: OsmWay, radius_m: float) -> bool:
    """True when any part of the way passes within ``radius_m`` of the origin of ``positions``."""
    try:
        pts = [positions[ref] for ref in way.nodes]
    except KeyError:
        return False  # over a degree away: certainly outside any sane radius
    for a, b in zip(pts, pts[1:]):
        dx, dy = b.x - a.x, b.y - a.y
        seg2 = dx * dx + dy * dy
        t = 0.0 if seg2 == 0.0 else min(max(-(a.x * dx + a.y * dy) / seg2, 0.0), 1.0)
        if math.hypot(a.x + t * dx, a.y + t * dy) <= radius_m:
            return True
    return False


def prune_osm(graph: OsmGraph, center: GeoPoint, radius_m: float) -> OsmGraph:
    """Drop non-road ways, far-away ways, and nodes nothing references.

    Distance is measured from ``center`` to the nearest point of the way, so
    roads running past the crash site survive even when all their nodes sit
    outside the radius. Idempotent.
    """
    positions = project_all(graph.nodes, center)
    kept_ways = {
        wid: way
        for wid, way in graph.ways.items()
        if way.is_road and _way_within(positions, way, radius_m)
    }
    if not kept_ways:
        raise InconsistentCrashLocation(f"no road within {radius_m} m of {center}")
    referenced = {ref for way in kept_ways.values() for ref in way.nodes}
    kept_nodes = {nid: p for nid, p in graph.nodes.items() if nid in referenced}
    return OsmGraph(kept_nodes, kept_ways)


_FLAT_VALUES = {"no", "false", "0"}


def detect_vertical_geometry(graph: OsmGraph) -> list[int]:
    """Way ids carrying bridge/tunnel/layer markers the converter rejects."""
    flagged = []
    for wid, way in graph.ways.items():
        bridge = way.tags.get("bridge", "no").lower()
        tunnel = way.tags.get("tunnel", "no").lower()
        try:
            layer = int(way.tags.get("layer", "0"))
        except ValueError:
            layer = 0
        if bridge not in _FLAT_VALUES or tunnel not in _FLAT_VALUES or layer != 0:
            flagged.append(wid)
    return sorted(flagged)
