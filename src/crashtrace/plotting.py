"""Deterministic SVG rendering of a case package.

Draws the road envelopes, each junction as a circle of one lane width
around the centre ``map.xodr`` gives it, both trajectories, the spawn
markers, and the crash point. The output is plain hand-assembled SVG with
fixed number formatting, so the same package always renders to identical
bytes.
"""

from __future__ import annotations

from pathlib import Path

from .geometry import PlanarPoint, offset_polyline
from .opendrive import parse_opendrive
from .pipeline import parse_scenario
from .roadnet import LANE_WIDTH_M

_TRAJECTORY_COLORS = ("#c0392b", "#2471a3")
_MARGIN = 25.0  # metres of background around the drawing


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _points_attr(points) -> str:
    return " ".join(f"{_fmt(p.x)},{_fmt(p.y)}" for p in points)


def _road_envelope(road) -> list[PlanarPoint]:
    left = offset_polyline(road.centerline, road.half_width)
    right = offset_polyline(road.centerline, -road.half_width)
    return left + list(reversed(right))


def render_plot(package_dir: Path) -> str:
    """SVG for one case package (map, trajectories, spawns, crash point)."""
    package_dir = Path(package_dir)
    network = parse_opendrive((package_dir / "map.xodr").read_text("utf-8"))
    scene, trajectories = parse_scenario((package_dir / "scenario.json").read_text("utf-8"))

    xs = [p.x for road in network.roads for p in road.centerline]
    ys = [p.y for road in network.roads for p in road.centerline]
    for traj in trajectories:
        xs.extend(w.position.x for w in traj.waypoints)
        ys.extend(w.position.y for w in traj.waypoints)
    min_x, max_x = min(xs) - _MARGIN, max(xs) + _MARGIN
    min_y, max_y = min(ys) - _MARGIN, max(ys) + _MARGIN
    width, height = max_x - min_x, max_y - min_y

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(min_x)} {_fmt(-max_y)} {_fmt(width)} {_fmt(height)}" '
        f'width="{_fmt(width)}" height="{_fmt(height)}">',
        '<g transform="scale(1,-1)">',
        f'<rect x="{_fmt(min_x)}" y="{_fmt(min_y)}" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" fill="#f4f1ea"/>',
    ]
    for road in sorted(network.roads, key=lambda r: r.road_id):
        lines.append(
            f'<polygon class="road" points="{_points_attr(_road_envelope(road))}" '
            'fill="#c9c9c9" stroke="none"/>'
        )
    for road in sorted(network.roads, key=lambda r: r.road_id):
        lines.append(
            f'<polyline class="centerline" points="{_points_attr(road.centerline)}" '
            'fill="none" stroke="#ffffff" stroke-width="0.4" stroke-dasharray="3,3"/>'
        )
    for junction in sorted(network.junctions, key=lambda j: j.junction_id):
        center = junction.center
        lines.append(
            f'<circle class="junction" cx="{_fmt(center.x)}" cy="{_fmt(center.y)}" '
            f'r="{_fmt(LANE_WIDTH_M)}" fill="none" stroke="#8a8a5c" stroke-width="0.5"/>'
        )
    for i, traj in enumerate(trajectories):
        color = _TRAJECTORY_COLORS[i % len(_TRAJECTORY_COLORS)]
        pts = [w.position for w in traj.waypoints]
        lines.append(
            f'<polyline class="trajectory" points="{_points_attr(pts)}" '
            f'fill="none" stroke="{color}" stroke-width="1.2"/>'
        )
    for i, spawn in enumerate(state.position for state in scene.states):
        color = _TRAJECTORY_COLORS[i % len(_TRAJECTORY_COLORS)]
        lines.append(
            f'<circle class="spawn" cx="{_fmt(spawn.x)}" cy="{_fmt(spawn.y)}" r="3" '
            f'fill="{color}"/>'
        )
    crash, r = scene.crash_point, 4.0
    lines.append(
        f'<path class="crash" d="M {_fmt(crash.x - r)} {_fmt(crash.y - r)} '
        f'L {_fmt(crash.x + r)} {_fmt(crash.y + r)} '
        f'M {_fmt(crash.x - r)} {_fmt(crash.y + r)} '
        f'L {_fmt(crash.x + r)} {_fmt(crash.y - r)}" '
        'stroke="#1d1d1d" stroke-width="1.5" fill="none"/>'
    )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
