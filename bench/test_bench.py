"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Runs one tiny job per workload, plain and traced; checks that a wrong
reference or a timeout counts as a failure; checks the tracer's span and
self-time arithmetic on synthetic calls; and checks the counting oracles.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import tracer
from jobs import HERE, Outcome, load_references, run_job
from run import job_metrics, metric_specs, pick
from workloads import DOMINANT, SETUP_JOB, SMOKE_JOBS, WORKLOADS, Job, all_jobs


@pytest.fixture(scope="module")
def refs():
    return load_references()


def test_every_job_has_a_reference(refs):
    assert sorted(refs) == sorted(j.key for j in all_jobs())


@pytest.mark.parametrize("workload", sorted(SMOKE_JOBS))
def test_tiny_job_passes_plain_and_traced(workload, refs):
    job = SMOKE_JOBS[workload]
    plain = run_job(job, refs[job.key])
    assert plain.ok, plain.reason
    assert plain.wall_s > 0 and plain.cpu_s > 0 and plain.rss_mb > 0
    traced = run_job(job, refs[job.key], traced=True)
    assert traced.ok, traced.reason
    for name in DOMINANT[workload]:
        assert traced.trace["spans"].get(name), f"{name} recorded no span"
    assert traced.trace["spans"]["cli.main"] == 1


def test_wrong_digest_counts_as_failed(refs):
    expected = dict(refs[SETUP_JOB.key], sha256="0" * 64)
    outcome = run_job(SETUP_JOB, expected)
    assert not outcome.ok
    assert "digest" in outcome.reason


def test_wrong_exit_code_counts_as_failed(refs):
    expected = dict(refs[SETUP_JOB.key], exit_code=1)
    assert not run_job(SETUP_JOB, expected).ok


def test_timeout_counts_as_failed(refs):
    job = Job(SMOKE_JOBS["gram"].argv, "q", 0.01)
    outcome = run_job(job, refs[job.key])
    assert not outcome.ok
    assert "timed out" in outcome.reason


def test_missing_program_exits_without_result(tmp_path: Path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gram", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_times_on_a_synthetic_tree():
    spans = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["b", 1, 2.0, 3.0],
        ["a", 0, 5.0, 9.0],
        ["b", 3, 6.0, 6.5],
    ]
    dur, own = tracer.self_times(spans)
    assert dur == {"root": 10.0, "a": 7.0, "b": 1.5}
    assert own == {"root": 3.0, "a": 5.5, "b": 1.5}


def test_spans_open_only_across_layers():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    # "verma.gram" and "verma.apply_mode" share a layer; "linalg.elim" does not.
    mode = t.wrap(lambda: None, "verma.apply_mode", count="modes")
    elim = t.wrap(lambda: mode(), "linalg.elim")

    def gram_body():
        mode()
        mode()
        elim()

    gram = t.wrap(gram_body, "verma.gram")
    gram()
    assert [s[0] for s in t.spans] == ["verma.gram", "linalg.elim", "verma.apply_mode"]
    assert [s[1] for s in t.spans] == [-1, 0, 1]
    assert t.counts["modes"] == 3
    dur, own = tracer.self_times(t.spans)
    assert own["verma.gram"] + own["linalg.elim"] + own["verma.apply_mode"] == dur["verma.gram"]


def test_layer_metrics_match_benchmark_json():
    summary = tracer.Tracer().summary(0.1)
    names = set(tracer.layer_metrics(tracer.merge([summary]))) | {"trace.overhead_ratio"}
    assert names == {m["name"] for m in metric_specs("per_layer")}
    assert set(WORKLOADS) == {w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]}


def test_pick_interleaves_fields_and_fills_the_time():
    long_q = Job(("long",), "q", 10)
    short_q = Job(("short",), "q", 10)
    fp = Job(("fp",), "fp", 10)
    jobs = [long_q, short_q, fp]
    runs = {job: [] for job in jobs}
    cost = {long_q: 8.0, short_q: 0.5, fp: 1.0}
    order = []
    while (job := pick(jobs, runs, 30.0 - sum(o.wall_s for outs in runs.values() for o in outs))) is not None:
        order.append(job)
        runs[job].append(Outcome(job, "", cost[job], cost[job], 10.0))
    # The F_p job follows the first Q job and catches up with its time
    # before the next Q job runs; the Q jobs take turns.
    assert order[:10] == [long_q] + [fp] * 8 + [short_q]
    assert len(runs[long_q]) == len(runs[short_q]) == 2
    assert len(runs[fp]) == 13
    assert 30.0 - sum(cost[j] for j in order) < 0.5
    runs[fp][0] = Outcome(fp, "", 5.0, 5.0, 12.0)
    metrics = job_metrics(runs)
    assert metrics["wall_s"] == metrics["cpu_s"] == 9.5
    assert metrics["cpu_q_s"] == 8.5 and metrics["cpu_fp_s"] == 1.0
    assert metrics["peak_rss_mb"] == 12.0


def test_counting_oracles():
    assert oracles.partition_counts(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert oracles.strict_partitions(10) == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]
    assert oracles.vacuum_dims(10) == [1, 0, 1, 1, 2, 2, 3, 3, 5, 5, 7]
    assert oracles.half_dims(10) == [1, 1, 1, 1, 2, 2, 3, 4, 5, 6, 8]


def test_oracle_rejects_a_wrong_table():
    check = oracles.irrdims(oracles.strict_partitions, exact=True)
    rows = [{"degree": 0, "verma": 1, "radical": 0, "irreducible": 1}, {"degree": 1, "verma": 1, "radical": 0, "irreducible": 1}]
    assert check({"rows": rows}) is None
    rows[1] = {"degree": 1, "verma": 1, "radical": 1, "irreducible": 0}
    assert check({"rows": rows})
