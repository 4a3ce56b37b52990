"""crashtrace benchmark: seeded workloads through the public pipeline API.

Usage, from the root of a checkout::

    python3 bench/run.py --workload corpus_batch --seed 1 --seconds 56 --trace 0

``BENCHMARK.json`` declares ``corpus_batch`` and ``dense_city``;
``replay_packages`` runs by hand (``bench/README.md`` says why). Each
workload is a closed loop driven from one process: the next repetition
starts when the previous one has finished. With ``--trace 0`` the end-to-end
metrics of ``BENCHMARK.json`` are measured with only the request boundary
timed, in ``PROCESSES`` fresh interpreters run one after the other; with
``--trace 1`` every layer is traced, in this process, and the per-layer
metrics are reported. The last line of stdout is the JSON
result; a human summary goes to stderr and the full record, with the
spans of a traced run, to ``.bench_out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus_batch", "dense_city", "replay_packages")
SETUP_REPEATS = 3
PROCESSES = 4


def _import_program() -> None:
    """Put the checkout's sources first on the path; fail outside a checkout."""
    if not (ROOT / "src" / "crashtrace" / "pipeline.py").is_file() \
            or not (ROOT / "tests" / "corpus.py").is_file():
        raise SystemExit(f"error: no crashtrace sources under {ROOT} "
                         "(need src/crashtrace and tests/corpus.py)")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads: setup() builds inputs, run_once() is one timed repetition and
# check() compares its outputs with what the inputs must produce
# ---------------------------------------------------------------------------


class _Batch:
    """Shared part of the two ``run_batch`` workloads."""

    def __init__(self, work: Path, seed: int, size: int = 0):
        self.work, self.seed, self.size = work, seed, size
        self.digests: set[str] = set()
        self.ledger_digests: set[str] = set()
        self.summary = ""
        self.repetition = 0

    def run_once(self):
        from crashtrace.pipeline import run_batch

        # a fresh directory per repetition: nothing is deleted while timing
        self.repetition += 1
        self.config.out_dir = self.out_dir = self.work / f"out-{self.repetition}"
        keys = [case.key for case in self.cases]
        captured = io.StringIO()  # run_batch prints a summary line to stdout
        try:
            with contextlib.redirect_stdout(captured):
                _, outcomes = run_batch(keys, self.config)
        except Exception:  # one raising case aborts the batch: all its cases fail
            traceback.print_exc(file=sys.stderr)
            return [None] * len(keys)
        self.summary = captured.getvalue().strip()
        return outcomes

    def check(self, outcomes) -> int:
        from crashtrace.pipeline import write_ledger

        if None in outcomes:
            self.digests.add("aborted")
            return len(outcomes)
        failed = 0
        for case, outcome in zip(self.cases, outcomes, strict=True):
            if outcome.ledger_line() != case.expected_line():
                failed += 1
        write_ledger(outcomes, self.out_dir / "ledger.txt")
        self.digests.add(tree_digest(self.out_dir))
        self.ledger_digests.add(hashlib.sha256((self.out_dir / "ledger.txt").read_bytes())
                                .hexdigest())
        return failed


class CorpusBatch(_Batch):
    """About 200 mixed cases from one offline fixture directory."""

    def setup(self):
        import inputs
        from crashtrace.pipeline import PipelineConfig

        self.cases = inputs.corpus_cases(self.size, random.Random(self.seed))
        fixtures = self.work / "fixtures"
        start = time.process_time()
        inputs.write_fixtures(self.cases, fixtures)
        self.untimed_s = time.process_time() - start
        self.config = PipelineConfig(offline=True, fixtures_dir=fixtures)


class DenseCity(_Batch):
    """A handful of cases on large fragmented grids, served from memory."""

    def setup(self):
        import inputs
        from crashtrace import crash_api, osm, reports
        from crashtrace.errors import NotFound
        from crashtrace.pipeline import PipelineConfig

        self.cases = inputs.dense_cases(random.Random(self.seed))
        config = PipelineConfig()
        documents, maps = {}, {}
        for case in self.cases:
            documents[crash_api.build_case_url(config.api_base_url, case.key)] = case.report_xml
            center = reports.parse_report(
                reports.RawCaseDocument(case.key, case.report_xml)).crash_coords
            maps[osm.overpass_query(center, config.radius_m)] = case.osm_xml

        def serve(table, key):
            if key not in table:
                raise NotFound(key)
            return table[key]

        config.report_transport = lambda url: serve(documents, url)
        config.osm_transport = lambda url, query: serve(maps, query)
        self.config = config


class ReplayPackages:
    """Serial re-validation of the packages a corpus-style batch wrote."""

    def __init__(self, producer: CorpusBatch):
        self.producer = producer
        self.digests = self.producer.digests
        self.ledger_digests = self.producer.ledger_digests
        self.summary = ""

    def setup(self):
        from crashtrace.pipeline import PACKAGE_FILES

        self.producer.setup()
        self.untimed_s = self.producer.untimed_s
        self.setup_failed = self.producer.check(self.producer.run_once())
        self.summary = self.producer.summary
        self.packages = sorted(p for p in self.producer.out_dir.glob("case_*") if p.is_dir())
        self.stored = {p: (p / "validation.json").read_bytes() for p in self.packages
                       if all((p / name).is_file() for name in PACKAGE_FILES)}

    def run_once(self):
        from crashtrace.pipeline import replay_package

        results = []
        for package in self.packages:
            try:
                results.append((package, replay_package(package)))
            except Exception:  # counted as a failed case by check()
                traceback.print_exc(file=sys.stderr)
                results.append((package, None))
        return results

    def check(self, results) -> int:
        from crashtrace.simulator import validation_to_json

        return sum(1 for package, report in results if report is None
                   or validation_to_json(report).encode() != self.stored.get(package))


def make_workload(name: str, work: Path, seed: int, scale: float = 1.0):
    """``scale`` shrinks the case counts, for the smoke test."""
    if name == "corpus_batch":
        return CorpusBatch(work, seed, max(12, round(204 * scale)))
    if name == "dense_city":
        return DenseCity(work, seed)
    return ReplayPackages(CorpusBatch(work, seed, max(12, round(60 * scale))))


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def request_timer(samples: list[float]):
    """Time each ``run_case`` / ``replay_package`` call, the request boundary."""
    from crashtrace import pipeline

    saved = {name: pipeline.__dict__[name] for name in ("run_case", "replay_package")}

    def timed(fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append((time.perf_counter() - start) * 1000.0)
        return call

    try:
        for name, fn in saved.items():
            setattr(pipeline, name, timed(fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(pipeline, name, fn)


def closed_loop(workload, seconds: float,
                between=None) -> tuple[list[tuple[int, float]], int, int]:
    """Repeat for about ``seconds``; returns (cases, wall s) per repetition
    plus cases attempted and failed.

    At least one repetition runs. No repetition starts that would, at the
    last one's speed, end more than half its length past the deadline, so a
    run lasts ``seconds`` give or take half a repetition. ``between``, if
    given, is called untimed before every repetition but the first.
    """
    reps: list[tuple[int, float]] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        if reps and between is not None:
            between()
        start = time.perf_counter()
        result = workload.run_once()
        wall = time.perf_counter() - start
        reps.append((len(result), wall))
        attempted += len(result)
        failed += workload.check(result)
        if time.perf_counter() + wall / 2 >= deadline:
            return reps, attempted, failed


def cases_per_s(reps: list[tuple[int, float]]) -> float:
    """Cases finished per second of the timed phase."""
    return sum(n for n, _ in reps) / sum(wall for _, wall in reps)


def median_cases_per_s(reps: list[tuple[int, float]]) -> float:
    """Median over repetitions of each one's cases per second."""
    return statistics.median(n / wall for n, wall in reps)


def percentile_with_support(samples: list[float], q: float) -> float | None:
    """The q-quantile, or None when fewer than ten samples lie beyond it."""
    if len(samples) * (1 - q) < 10:
        return None
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def timed_set_up(name: str, work: Path, seed: int, scale: float):
    """Set a new workload up in ``work``; returns it and the CPU seconds
    (all threads of this process) the set-up took, less the writing of
    fixture files (``untimed_s``).

    CPU time, not wall time, and without the fixture writes: on a shared
    disk, creating a few hundred files stalls or burns 10 to 200 ms of
    kernel time depending on what ran before, and rewriting them took 14 to
    25 ms of CPU time against about 10 ms for generating their contents.
    That would drown the work set-up does, and the program can change
    neither. Later set-ups still rewrite the files of the first.
    """
    workload = make_workload(name, work, seed, scale)
    start = time.process_time()
    workload.setup()
    return workload, time.process_time() - start - getattr(workload, "untimed_s", 0.0)


def set_up(name: str, work: Path, seed: int, scale: float):
    """Set the workload up ``SETUP_REPEATS`` times in ``work``; returns the
    last workload and each set-up's CPU seconds."""
    import inputs  # noqa: F401  (imports are not part of set-up)

    work.mkdir(parents=True, exist_ok=True)
    times = []
    for _ in range(SETUP_REPEATS):
        workload, cpu = timed_set_up(name, work, seed, scale)
        times.append(cpu)
    return workload, times


def measure_process(name: str, seed: int, seconds: float, work: Path,
                    scale: float = 1.0) -> dict:
    """One process's share of an untraced run, as raw samples.

    Set-up is timed ``SETUP_REPEATS`` times before the timed phase and once
    more between any two repetitions: a set-up takes tens of ms on one core,
    so set-ups made back to back all caught the same moment of the host's
    speed swings.
    """
    workload, setup_times = set_up(name, work, seed, scale)
    samples: list[float] = []

    def set_up_again():
        n = len(samples)
        setup_times.append(timed_set_up(name, work / "again", seed, scale)[1])
        del samples[n:]  # a replay_packages set-up runs a batch of its own

    with request_timer(samples):
        reps, attempted, failed = closed_loop(workload, seconds, set_up_again)
    return {
        "reps": reps, "case_ms": samples, "setup_s": setup_times,
        "attempted": attempted, "failed": failed + getattr(workload, "setup_failed", 0),
        "peak_rss_mb": peak_rss_mb(), "digests": sorted(workload.digests),
        "ledger_digests": sorted(workload.ledger_digests), "summary": workload.summary,
    }


def end_to_end(parts: list[dict]) -> dict:
    """The end-to-end metrics of a run from its processes' raw samples."""
    reps = [rep for part in parts for rep in part["reps"]]
    samples = [ms for part in parts for ms in part["case_ms"]]
    setup_times = [s for part in parts for s in part["setup_s"]]
    metrics = {
        "cases_per_s": (median_cases_per_s(reps), "1/s"),
        "case_ms.p50": (statistics.median(samples), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (max(part["peak_rss_mb"] for part in parts), "MB"),
    }
    info = {"processes": len(parts), "case_samples": len(samples),
            "case_ms.p95": percentile_with_support(samples, 0.95), "repetitions": len(reps),
            "repetition_s": [round(wall, 4) for _, wall in reps],
            "setup_s_each": setup_times}
    return _result(sum(part["attempted"] for part in parts),
                   sum(part["failed"] for part in parts),
                   {d for part in parts for d in part["digests"]},
                   {d for part in parts for d in part["ledger_digests"]},
                   parts[-1]["summary"], metrics, info)


def measure_untraced(name: str, seed: int, seconds: float, work: Path,
                     scale: float = 1.0) -> dict:
    """Untraced run split over ``PROCESSES`` fresh interpreters, one after
    the other, each with its own string-hash seed derived from ``seed``.

    Python randomizes string hashing per process, which reorders sets and
    dicts: in seven interleaved pairs of 30-second one-process runs of
    ``corpus_batch`` on one seed, runs with a random hash seed spread 0.096
    in ``cases_per_s`` and runs with a fixed one 0.039. Sampling several hash
    seeds in every run keeps that spread out of the median without
    measuring one chosen layout. Each process gets an equal part of the
    time still left, so a repetition that ran long shortens the next
    processes.
    """
    work.mkdir(parents=True, exist_ok=True)
    parts, hash_seeds = [], []
    deadline = time.perf_counter() + seconds
    for i in range(PROCESSES):
        share = max(0.0, deadline - time.perf_counter()) / (PROCESSES - i)
        hash_seed = (seed * PROCESSES + i) % 2**32
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", repr(share), "--scale", repr(scale),
                   "--worker", str(work / f"process-{i}")]
        out = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True,
                             timeout=share + 120,
                             env={**os.environ, "PYTHONHASHSEED": str(hash_seed)})
        parts.append(json.loads(out.stdout.strip().splitlines()[-1]))
        hash_seeds.append(hash_seed)
    result = end_to_end(parts)
    result["info"]["hash_seeds"] = hash_seeds
    return result


def measure_traced(name: str, seed: int, seconds: float, work: Path,
                   scale: float = 1.0, spans_path: Path | None = None) -> dict:
    """Half the time untraced, half traced; per-layer self time per case."""
    from tracer import COUNTERS, ROOTS, TARGETS, Tracer

    workload, _ = set_up(name, work, seed, scale)
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    plain, attempted, failed = closed_loop(workload, seconds / 2)
    cores = (cpu_seconds() - cpu0) / (time.perf_counter() - wall0)

    tracer = Tracer()
    start = time.perf_counter_ns()
    with tracer.installed():
        traced, n, f = closed_loop(workload, seconds / 2)
    end = time.perf_counter_ns()
    attempted, failed = attempted + n, failed + f + getattr(workload, "setup_failed", 0)
    if spans_path is not None:
        tracer.write(spans_path)

    self_ns, calls = tracer.self_times()
    cases = sum(calls[root] for root in ROOTS)
    metrics = {}
    for span, *_ in TARGETS:
        suffix = ".self_ms" if span in ROOTS else ".ms"
        metrics[span + suffix] = (self_ns.get(span, 0) / 1e6 / cases, "ms")
    metrics["osm.parse_osm.calls"] = (calls["osm.parse_osm"] / cases, "count")
    for counter in COUNTERS:
        metrics[counter] = (tracer.counts[counter] / cases, "count")
    metrics["pipeline.cpu_cores_used"] = (cores, "cores")
    metrics["trace.uncovered_ms"] = (tracer.uncovered_ns(start, end) / 1e6 / cases, "ms")
    metrics["trace.overhead"] = (1.0 - cases_per_s(traced) / cases_per_s(plain), "ratio")
    info = {"traced_cases": cases, "spans": len(tracer.spans)}
    return _result(attempted, failed, workload.digests, workload.ledger_digests,
                   workload.summary, metrics, info)


def _result(attempted: int, failed: int, digests: set[str], ledger_digests: set[str],
            summary: str, metrics: dict, info: dict) -> dict:
    consistent = len(digests) == 1 and len(ledger_digests) == 1
    info.update({
        "out_tree_sha256": sorted(digests),
        "ledger_sha256": sorted(ledger_digests),
        "batch_summary": summary,
    })
    return {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment() -> dict:
    return {
        "commit": _commit(),
        "source_sha256": tree_digest(ROOT / "src" / "crashtrace"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the case counts (smoke test)")
    parser.add_argument("--worker", type=Path, metavar="DIR",
                        help="measure one process's share of an untraced run in DIR "
                             "and print its raw samples")
    args = parser.parse_args(argv)
    _import_program()

    if args.worker is not None:
        print(json.dumps(measure_process(args.workload, args.seed, args.seconds, args.worker,
                                         args.scale)))
        return 0

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed, args.seconds, work, args.scale,
                                    ROOT / ".bench_out" / f"spans-{args.workload}-s{args.seed}.jsonl")
        else:
            result = measure_untraced(args.workload, args.seed, args.seconds, work, args.scale)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = result.pop("info")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **environment(), **info, **result}
    out = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for key, value in record.items():
        if key != "metrics":
            print(f"{key}: {value}", file=sys.stderr)
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
