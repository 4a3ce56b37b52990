"""Smoke test of the benchmark at a tiny size.

Run from the root of a checkout: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run._import_program()

import inputs  # noqa: E402  (needs the paths set above)
from crashtrace.pipeline import ExclusionReason  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.06  # 12 corpus cases, 12 cases to produce replay packages from


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    result = run.measure_untraced(workload, 3, 0.01, tmp_path, scale=TINY)
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = run.measure_traced(workload, 3, 0.01, tmp_path / "work", scale=TINY,
                                spans_path=spans)
    assert result["correct"], result
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    first = json.loads(spans.read_text(encoding="utf-8").splitlines()[0])
    assert set(first) == {"id", "parent", "name", "case", "start_ns", "end_ns"}


def test_wrong_expected_verdict_is_flagged(tmp_path, monkeypatch):
    monkeypatch.setitem(inputs.EXPECTED_REASON, "offroad", ExclusionReason.FAILED_TO_COLLIDE)
    # in this process: the patch does not reach the processes measure_untraced starts
    result = run.end_to_end([run.measure_process("corpus_batch", 3, 0.01, tmp_path, TINY)])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // len(inputs.KINDS)


def test_changed_replay_bytes_are_flagged(tmp_path):
    workload = run.make_workload("replay_packages", tmp_path, 3, TINY)
    workload.setup()
    assert workload.setup_failed == 0 and workload.check(workload.run_once()) == 0
    workload.stored[workload.packages[0]] += b" "
    assert workload.check(workload.run_once()) == 1


def test_outputs_repeat_for_a_seed(tmp_path):
    a = run.measure_untraced("corpus_batch", 5, 0.01, tmp_path / "a", scale=TINY)
    b = run.measure_untraced("corpus_batch", 5, 0.01, tmp_path / "b", scale=TINY)
    assert a["info"]["out_tree_sha256"] == b["info"]["out_tree_sha256"]
    assert a["info"]["ledger_sha256"] == b["info"]["ledger_sha256"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
