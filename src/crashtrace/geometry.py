"""Planar and geodetic geometry shared by the map, estimator, and replay stages.

Geodetic points are projected onto a local tangent plane centered at the
crash site (equirectangular, spherical earth radius 6,371,000 m). At the
extents this pipeline works with (a few km) the projection is isometric to
better than 0.1%, which is what the downstream geometric validation checks.

Headings are radians, counterclockwise from +x (east). Signed lateral
offsets from a polyline are positive to the LEFT of the direction of
increasing arc length.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple, Sequence

EARTH_RADIUS_M = 6_371_000.0
MPH_TO_MPS = 0.44704

# local-extent guard for the flat-plane projection
MAX_EXTENT_DEG = 1.0


class GeoPoint(NamedTuple):
    latitude: float
    longitude: float


class PlanarPoint(NamedTuple):
    x: float
    y: float


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters on the spherical earth."""
    phi1 = math.radians(a.latitude)
    phi2 = math.radians(b.latitude)
    dphi = math.radians(b.latitude - a.latitude)
    dlam = math.radians(b.longitude - a.longitude)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return EARTH_RADIUS_M * 2 * math.atan2(math.sqrt(h), math.sqrt(1 - h))


def project_all(points: dict[int, GeoPoint], origin: GeoPoint) -> dict[int, PlanarPoint]:
    """Each point within 1 degree of ``origin`` on the local tangent plane
    there, x east and y north; the rest, and points with a NaN coordinate,
    are left out."""
    lat0, lon0 = origin
    kx = EARTH_RADIUS_M * math.cos(math.radians(lat0))
    return {
        nid: PlanarPoint(kx * math.radians(lon - lon0), EARTH_RADIUS_M * math.radians(lat - lat0))
        for nid, (lat, lon) in points.items()
        if abs(lat - lat0) <= MAX_EXTENT_DEG and abs(lon - lon0) <= MAX_EXTENT_DEG
    }


def wrap_angle(a: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return (a + math.pi) % (2 * math.pi) - math.pi


def distance(a: PlanarPoint, b: PlanarPoint) -> float:
    return math.hypot(b.x - a.x, b.y - a.y)


def bearing(a: PlanarPoint, b: PlanarPoint) -> float:
    """Heading of the segment a->b."""
    return math.atan2(b.y - a.y, b.x - a.x)


# ---------------------------------------------------------------------------
# polyline utilities
# ---------------------------------------------------------------------------

Polyline = Sequence[PlanarPoint]


def cumulative_lengths(points: Polyline) -> list[float]:
    return list(accumulate(map(math.dist, points, points[1:]), initial=0.0))


def polyline_length(points: Polyline) -> float:
    return cumulative_lengths(points)[-1]


def _segment_index(cum: list[float], s: float) -> tuple[int, float]:
    """Segment index and parameter along it for clamped arc length ``s``."""
    total = cum[-1]
    s = min(max(s, 0.0), total)
    # rightmost segment whose start is <= s; last point belongs to last segment
    idx = min(bisect_right(cum, s) - 1, len(cum) - 2)
    seg_len = cum[idx + 1] - cum[idx]
    t = 0.0 if seg_len == 0.0 else (s - cum[idx]) / seg_len
    return idx, t


def _segment_after(cum: list[float], idx: int, s: float) -> tuple[int, float]:
    """``_segment_index(cum, s)``, found by walking forward from segment ``idx``.

    ``idx`` must not lie past the answer (the answer for a smaller ``s`` never
    does), so a caller whose ``s`` only grows walks each segment once.
    """
    s = min(max(s, 0.0), cum[-1])
    last = len(cum) - 2
    while idx < last and cum[idx + 1] <= s:
        idx += 1
    seg_len = cum[idx + 1] - cum[idx]
    return idx, 0.0 if seg_len == 0.0 else (s - cum[idx]) / seg_len


def point_at(points: Polyline, s: float, cum: list[float] | None = None) -> PlanarPoint:
    """Point at arc length ``s`` (clamped to the polyline extent)."""
    cum = cum or cumulative_lengths(points)
    idx, t = _segment_index(cum, s)
    a, b = points[idx], points[idx + 1]
    return PlanarPoint(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def tangent_at(points: Polyline, s: float, cum: list[float] | None = None) -> float:
    """Heading of the segment containing arc length ``s``."""
    cum = cum or cumulative_lengths(points)
    idx, _ = _segment_index(cum, s)
    return bearing(points[idx], points[idx + 1])


class PolylineFix(NamedTuple):
    """Nearest-point projection of a point onto a polyline."""

    s: float        # arc length of the foot point
    offset: float   # signed lateral offset, positive left of travel
    dist: float     # absolute distance to the foot point


def locate_on_polyline(points: Polyline, p: PlanarPoint) -> PolylineFix:
    """Project ``p`` onto the polyline; ties resolve to the lowest arc length."""
    cum = cumulative_lengths(points)
    best: PolylineFix | None = None
    for i in range(len(points) - 1):
        a, b = points[i], points[i + 1]
        dx, dy = b.x - a.x, b.y - a.y
        seg2 = dx * dx + dy * dy
        if seg2 == 0.0:
            continue
        t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / seg2
        t = min(max(t, 0.0), 1.0)
        fx, fy = a.x + t * dx, a.y + t * dy
        d = math.hypot(p.x - fx, p.y - fy)
        # left normal of the segment direction
        seg_len = math.sqrt(seg2)
        nx, ny = -dy / seg_len, dx / seg_len
        off = (p.x - fx) * nx + (p.y - fy) * ny
        s = cum[i] + t * seg_len
        if best is None or d < best.dist - 1e-12:
            best = PolylineFix(s, off, d)
    if best is None:
        raise ValueError("degenerate polyline")
    return best


def offset_point(points: Polyline, s: float, offset: float,
                 cum: list[float] | None = None) -> PlanarPoint:
    """Point at arc length ``s`` displaced ``offset`` to the left of travel."""
    cum = cum or cumulative_lengths(points)
    base = point_at(points, s, cum)
    h = tangent_at(points, s, cum)
    return PlanarPoint(base.x - offset * math.sin(h), base.y + offset * math.cos(h))


_MITER_LIMIT = 4.0


def offset_polyline(points: Polyline, offset: float) -> list[PlanarPoint]:
    """Parallel polyline displaced ``offset`` left of travel (miter joins)."""
    n = len(points)
    if n < 2:
        raise ValueError("need at least two points")
    headings = [bearing(points[i], points[i + 1]) for i in range(n - 1)]
    out: list[PlanarPoint] = []
    for i in range(n):
        if i == 0:
            h = headings[0]
            scale = 1.0
        elif i == n - 1:
            h = headings[-1]
            scale = 1.0
        else:
            h0, h1 = headings[i - 1], headings[i]
            h = h0 + wrap_angle(h1 - h0) / 2.0
            cos_half = math.cos(wrap_angle(h1 - h0) / 2.0)
            scale = min(_MITER_LIMIT, 1.0 / cos_half) if cos_half > 1e-9 else _MITER_LIMIT
        d = offset * scale
        out.append(PlanarPoint(points[i].x - d * math.sin(h), points[i].y + d * math.cos(h)))
    return out


def resample_polyline(points: Sequence[tuple[float, float]], spacing: float
                      ) -> list[tuple[float, float]]:
    """Points every ``spacing`` meters of arc, always keeping both endpoints;
    ``(x, y)`` pairs in and out."""
    cum = cumulative_lengths(points)
    total = cum[-1]
    if total == 0.0:
        raise ValueError("zero-length polyline")
    out = [points[0]]
    s = spacing
    # 0 < s < total: point_at without its clamps, one forward walk over the segments
    for idx in range(len(points) - 1):
        end = cum[idx + 1]
        if s >= end:
            continue
        start = cum[idx]
        seg_len = end - start
        ax, ay = points[idx]
        bx, by = points[idx + 1]
        dx, dy = bx - ax, by - ay
        while s < end:
            t = (s - start) / seg_len
            out.append((ax + t * dx, ay + t * dy))
            s += spacing
    out.append(points[-1])
    return out


def resample_count(points: Polyline, n: int) -> list[PlanarPoint]:
    """Exactly ``n`` points equally spaced in arc length, endpoints included."""
    if n < 2:
        raise ValueError("need at least two samples")
    cum = cumulative_lengths(points)
    total = cum[-1]
    out = [points[0]]
    idx = 0
    for k in range(1, n - 1):  # arc lengths only grow
        idx, t = _segment_after(cum, idx, total * k / (n - 1))
        a, b = points[idx], points[idx + 1]
        out.append(PlanarPoint(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    out.append(points[-1])
    return out
