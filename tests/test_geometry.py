import random

from hypothesis import given, strategies as st

from crashtrace.geometry import _segment_index


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


def test_segment_index_zero_length_segments_pick_rightmost():
    cum = [0.0, 1.0, 1.0, 1.0, 2.0]
    assert _segment_index(cum, 1.0) == (3, 0.0)
    assert _segment_index([0.0, 1.0, 1.0], 1.0) == (1, 0.0)
    assert _segment_index([0.0, 0.0], 0.0) == (0, 0.0)
