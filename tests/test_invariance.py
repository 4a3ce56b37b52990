"""Metamorphic relations: the verdict belongs to the crash, not to how its
map is encoded.

Each relation re-encodes a good-corpus scene without changing a fact of the
crash: a quarter turn of the whole layout about the crash site, every way
reversed, the way order reversed, and every way split at its middle node.
The case must end with the same ledger line, the same clock deviations and
direction matches, and a location error within 0.05 m of the plain
encoding's. A quarter turn maps the planar layout exactly; a turn by an
arbitrary angle also moves every node by rounding, which is the sub-micron
shift that the contact-point scoring does not yet withstand (ROADMAP items
2 and 13), as do way-id permutations, swapping the vehicles and moving the
origin.
"""

from __future__ import annotations

import functools
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import corpus
from crashtrace.pipeline import PipelineConfig, run_case
from crashtrace.reports import CaseKey

KEY = CaseKey(corpus.STATE, 1, corpus.YEAR)
ORIGIN = corpus.case_origin(0)


def _verdict(report: str, nodes: dict, ways: list) -> tuple[str, dict | None]:
    """Ledger line and ``validation.json`` of one case served from memory."""
    extract = corpus.osm_xml(ORIGIN, nodes, ways)
    with tempfile.TemporaryDirectory() as out:
        config = PipelineConfig(out_dir=Path(out), report_transport=lambda url: report,
                                osm_transport=lambda url, query: extract)
        outcome = run_case(KEY, config)
        if outcome.package is None:
            return outcome.ledger_line(), None
        text = (outcome.package.directory / "validation.json").read_text("utf-8")
        return outcome.ledger_line(), json.loads(text)


@functools.cache
def _plain(kind: str) -> tuple[str, dict | None]:
    report, (nodes, ways) = corpus.case_layout(kind, ORIGIN)
    return _verdict(report, nodes, ways)


def _quarter_turns(nodes: dict, turns: int) -> dict:
    out = {}
    for nid, (x, y) in nodes.items():
        for _ in range(turns):
            x, y = -y, x
        out[nid] = (x, y)
    return out


def _split_at_middle(ways: list) -> list:
    """Each way of three or more nodes as two ways sharing its middle node;
    the second half gets a fresh id and the same tags."""
    fresh = max(wid for wid, _, _ in ways) + 1
    out = []
    for wid, refs, tags in ways:
        if len(refs) < 3:
            out.append((wid, refs, tags))
            continue
        middle = len(refs) // 2
        out += [(wid, refs[:middle + 1], tags), (fresh, refs[middle:], dict(tags))]
        fresh += 1
    return out


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(corpus.GOOD_KINDS), st.integers(0, 3),
       st.booleans(), st.booleans(), st.booleans())
def test_verdict_survives_reencoding(kind, turns, reverse_ways, reverse_order, split):
    report, (nodes, ways) = corpus.case_layout(kind, ORIGIN)
    if split:
        ways = _split_at_middle(ways)
    if reverse_ways:
        ways = [(wid, refs[::-1], tags) for wid, refs, tags in ways]
    if reverse_order:
        ways = ways[::-1]
    line, validation = _verdict(report, _quarter_turns(nodes, turns), ways)

    plain_line, plain = _plain(kind)
    assert line == plain_line
    assert plain is not None, plain_line
    assert validation["clock_deviation"] == plain["clock_deviation"]
    assert validation["direction_match"] == plain["direction_match"]
    assert abs(validation["location_error_m"] - plain["location_error_m"]) <= 0.05
