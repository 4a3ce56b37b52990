import random

import pytest
from hypothesis import given, strategies as st

from crashtrace.geometry import (
    PlanarPoint,
    _segment_after,
    _segment_index,
    cumulative_lengths,
    distance,
    point_at,
    resample_count,
    resample_polyline,
)


def _loop_segment_index(cum, s):
    """Reference: explicit binary search for the rightmost segment start <= s."""
    total = cum[-1]
    s = min(max(s, 0.0), total)
    lo, hi = 0, len(cum) - 2
    idx = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        if cum[mid] <= s:
            idx = mid
            lo = mid + 1
        else:
            hi = mid - 1
    seg_len = cum[idx + 1] - cum[idx]
    t = 0.0 if seg_len == 0.0 else (s - cum[idx]) / seg_len
    return idx, t


def _cum(steps):
    out = [0.0]
    for step in steps:
        out.append(out[-1] + step)
    return out


# zero steps make repeated values, i.e. zero-length segments
_steps = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 50.0)), min_size=1, max_size=30)


@given(_steps, st.data())
def test_segment_index_matches_loop(steps, data):
    cum = _cum(steps)
    total = cum[-1]
    s = data.draw(st.one_of(
        st.floats(-10.0, total + 10.0),
        st.sampled_from(cum),
        st.sampled_from([-1e-12, 0.0, total, total + 1e-12]),
    ))
    assert _segment_index(cum, s) == _loop_segment_index(cum, s)


def test_segment_index_matches_loop_on_seeded_lists():
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(1, 12)
        cum = _cum([rng.choice((0.0, 0.0, rng.uniform(0, 5), float(rng.randint(1, 3))))
                    for _ in range(n)])
        total = cum[-1]
        probes = [-1.0, 0.0, total, total + 1.0, *cum]
        probes += [rng.uniform(-1.0, total + 1.0) for _ in range(10)]
        for s in probes:
            assert _segment_index(cum, s) == _loop_segment_index(cum, s), (cum, s)


@given(_steps, st.data())
def test_segment_after_matches_segment_index_from_any_earlier_segment(steps, data):
    cum = _cum(steps)
    total = cum[-1]
    s = data.draw(st.one_of(
        st.floats(-10.0, total + 10.0),
        st.sampled_from(cum),
        st.sampled_from([-1e-12, -0.0, 0.0, total, total + 1e-12]),
    ))
    idx, t = _segment_index(cum, s)
    start = data.draw(st.integers(0, idx))
    after_idx, after_t = _segment_after(cum, start, s)
    assert (after_idx, after_t.hex()) == (idx, t.hex())


def test_segment_index_zero_length_segments_pick_rightmost():
    cum = [0.0, 1.0, 1.0, 1.0, 2.0]
    assert _segment_index(cum, 1.0) == (3, 0.0)
    assert _segment_index([0.0, 1.0, 1.0], 1.0) == (1, 0.0)
    assert _segment_index([0.0, 0.0], 0.0) == (0, 0.0)


# --- forward arc-length walks against the per-sample lookups they replace ---


def _loop_cumulative_lengths(points):
    """Reference: the running sum of segment lengths, one ``distance`` at a time."""
    out = [0.0]
    for a, b in zip(points, points[1:]):
        out.append(out[-1] + distance(a, b))
    return out


def _point_at_resample_polyline(points, spacing):
    """Reference: ``point_at`` per sample."""
    cum = cumulative_lengths(points)
    total = cum[-1]
    if total == 0.0:
        raise ValueError("zero-length polyline")
    out = [points[0]]
    s = spacing
    while s < total:
        out.append(point_at(points, s, cum))
        s += spacing
    out.append(points[-1])
    return out


def _point_at_resample_count(points, n):
    """Reference: ``point_at`` per sample."""
    if n < 2:
        raise ValueError("need at least two samples")
    cum = cumulative_lengths(points)
    total = cum[-1]
    out = [points[0]]
    for k in range(1, n - 1):
        out.append(point_at(points, total * k / (n - 1), cum))
    out.append(points[-1])
    return out


def _bits(points):
    return [(x.hex(), y.hex()) for x, y in points]


# whole-metre coordinates land samples exactly on vertices
_coord = st.one_of(st.integers(-20, 20).map(float), st.floats(-100.0, 100.0))


@st.composite
def _polylines(draw, coord=_coord):
    """Polylines drawn from a small pool of points, so points and segments repeat."""
    pool = draw(st.lists(st.builds(PlanarPoint, coord, coord), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=12))
    return [pool[i] for i in picks]


@given(_polylines(coord=st.floats()))
def test_cumulative_lengths_bit_for_bit(points):
    assert [c.hex() for c in cumulative_lengths(points)] \
        == [c.hex() for c in _loop_cumulative_lengths(points)]
    assert cumulative_lengths(points[:1]) == [0.0]


@given(_polylines(), st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.25, 2000.0)))
def test_resample_polyline_matches_point_at(points, spacing):
    if cumulative_lengths(points)[-1] == 0.0:
        with pytest.raises(ValueError):
            resample_polyline(points, spacing)
        return
    assert _bits(resample_polyline(points, spacing)) \
        == _bits(_point_at_resample_polyline(points, spacing))


@given(_polylines(), st.integers(2, 60))
def test_resample_count_matches_point_at(points, n):
    assert _bits(resample_count(points, n)) == _bits(_point_at_resample_count(points, n))


def test_resample_edge_cases_match_point_at():
    square = [PlanarPoint(0.0, 0.0), PlanarPoint(1.0, 0.0), PlanarPoint(1.0, 0.0),
              PlanarPoint(1.0, 1.0), PlanarPoint(1.0, 1.0)]
    for spacing in (0.5, 1.0, 2.0, 2.5):  # on vertices, and at and past the length
        assert _bits(resample_polyline(square, spacing)) \
            == _bits(_point_at_resample_polyline(square, spacing))
    for n in (2, 3, 5, 9):
        assert _bits(resample_count(square, n)) == _bits(_point_at_resample_count(square, n))
    # a sample exactly on an inexact vertex: a + 1.0 * (b - a) is not b there
    bent = [PlanarPoint(3.4, 0.0), PlanarPoint(-0.7, 0.0), PlanarPoint(-0.7, 1.3),
            PlanarPoint(2.0, 1.3)]
    cum = cumulative_lengths(bent)
    for spacing in cum[1:]:
        assert _bits(resample_polyline(bent, spacing)) \
            == _bits(_point_at_resample_polyline(bent, spacing))
    still = [PlanarPoint(3.0, 4.0)] * 3
    assert resample_count(still, 4) == _point_at_resample_count(still, 4) == still + still[:1]
    with pytest.raises(ValueError):
        resample_polyline(still, 1.0)
