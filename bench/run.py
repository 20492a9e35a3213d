"""Benchmark of the virfock command line.

    python3 bench/run.py --workload gram --seed 1 --seconds 20 --trace 0

Run from the repository root.  One client runs a workload's jobs as a closed
loop: one fresh `python -m virfock` process at a time, never more than one.
Fresh processes are the model because a CLI user pays the cold memo caches
on every call.  Every job's exit code and stdout digest are checked against
bench/references.json, and its parsed output against an oracle where one
exists (bench/oracles.py).

--trace 0 runs the jobs repeatedly for about --seconds (see `pick`) and
reports the end-to-end metrics from the per-job medians:
  wall_s       wall seconds for one pass over the job list: the sum over
               jobs of each job's median wall time
  cpu_s        the same sum of medians for user + sys CPU seconds
  cpu_q_s      the part of cpu_s spent on jobs over Q and Q[h]
  cpu_fp_s     the part of cpu_s spent on jobs over F_p and F_p[h]
  peak_rss_mb  the largest max-RSS among the job processes
  setup_s      median wall time of a call that does no work; SETUP_SAMPLES
               such calls, evenly spread over the run
On a shared host the speed of a job drifts by 10-30 % over tens of seconds,
so each field's jobs are sampled throughout the run rather than in a burst:
a metric then rests on the whole run, not on one stretch of host load.  The
field split is in CPU seconds: the jobs are single-threaded, so their CPU
time is their wall time less the time the hypervisor gave other guests
(steal), which on a shared host adds up to 20 % to wall time for minutes.
The seed only shuffles the order in which jobs that tie are run.
--trace 1 runs whole passes over the job list in seed-shuffled order, each
twice, plainly and under bench/tracer.py, and reports the per-layer metrics
of tracer.layer_metrics (medians over the passes) plus trace.overhead_ratio
(traced / plain wall - 1).

The last stdout line is the result object; the line before it is a run
record (Python version, CPU count, commit, seed, load average at start and
end, and the CPU time the hypervisor stole from this machine during the run).  Failed jobs are listed on stderr.  The failed / attempted ratio is the
result's `failed` and `attempted`.  Without the program under src/ the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from typing import Dict, List, Optional

import tracer
from jobs import HERE, ROOT, Outcome, git_commit, load_references, program_present, run_job
from workloads import DOMINANT, SETUP_JOB, WORKLOADS, Job

# No-work calls per run, for setup_s.
SETUP_SAMPLES = 8


def _loadavg() -> Optional[str]:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _steal_s() -> Optional[float]:
    """CPU seconds stolen by the hypervisor so far, summed over this
    machine's CPUs (the steal column of /proc/stat)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def metric_specs(kind: str) -> List[dict]:
    """Names and units of the "end_to_end" or "per_layer" metrics."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def pick(jobs: List[Job], runs: Dict[Job, List[Outcome]], left: float) -> Optional[Job]:
    """The job to run next, or None when no job fits in `left` seconds.

    A job fits when its slowest run so far takes at most `left` seconds; a
    job that has not run yet always does, so every job runs at least once.
    The next job is from the field (Q or F_p) with the least time spent so
    far, and within it the job with the fewest runs.  The two fields thus
    share the run evenly and interleave from its start: the F_p span, often
    a single short job, is sampled all through the run.  Ties go to the job
    listed first."""
    spent: Dict[str, float] = {}
    for job in jobs:
        spent[job.field] = spent.get(job.field, 0.0) + sum(o.wall_s for o in runs[job])
    fits = [j for j in jobs if not runs[j] or max(o.wall_s for o in runs[j]) <= left]
    if not fits:
        return None
    return min(fits, key=lambda j: (spent[j.field], len(runs[j])))


def job_metrics(runs: Dict[Job, List[Outcome]]) -> Dict[str, float]:
    """End-to-end metrics from each job's median wall and CPU time."""
    wall = {job: statistics.median(o.wall_s for o in outs) for job, outs in runs.items()}
    cpu = {job: statistics.median(o.cpu_s for o in outs) for job, outs in runs.items()}
    return {
        "wall_s": sum(wall.values()),
        "cpu_s": sum(cpu.values()),
        "cpu_q_s": sum(t for job, t in cpu.items() if job.field == "q"),
        "cpu_fp_s": sum(t for job, t in cpu.items() if job.field == "fp"),
        "peak_rss_mb": max(o.rss_mb for outs in runs.values() for o in outs),
    }


def medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print(f"error: no virfock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "loadavg_start": _loadavg(),
    }
    steal_start = _steal_s()
    refs = load_references()
    outcomes: List[Outcome] = []

    def run(job, traced=False) -> Outcome:
        o = run_job(job, refs.get(job.key), traced)
        outcomes.append(o)
        if not o.ok:
            print(f"FAIL {'traced ' if traced else ''}{job.key}: {o.reason}", file=sys.stderr)
        return o

    run(SETUP_JOB)  # writes the bytecode caches of a fresh checkout
    jobs = list(WORKLOADS[args.workload])
    rng = random.Random(args.seed)
    rng.shuffle(jobs)
    start = time.perf_counter()
    if args.trace:
        plain_passes: List[List[Outcome]] = []
        traced_passes: List[List[Outcome]] = []
        # Stop when one more pass would end further past --seconds than
        # stopping now falls short of it.
        while not plain_passes or (time.perf_counter() - start) * (1 + 0.5 / len(plain_passes)) <= args.seconds:
            rng.shuffle(jobs)
            plain_passes.append([run(j) for j in jobs])
            traced_passes.append([run(j, traced=True) for j in jobs])
    else:
        runs: Dict[Job, List[Outcome]] = {job: [] for job in jobs}
        setup: List[float] = []
        while True:
            elapsed = time.perf_counter() - start
            # Set-up samples are spread over the run, so that their median
            # does not rest on one stretch of host load.
            if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * args.seconds / SETUP_SAMPLES:
                setup.append(run(SETUP_JOB).wall_s)
                continue
            job = pick(jobs, runs, args.seconds - elapsed)
            if job is None:
                break
            runs[job].append(run(job))

    correct = all(o.ok for o in outcomes)
    if args.trace:
        rows = []
        for plain, traced in zip(plain_passes, traced_passes):
            merged = tracer.merge([o.trace for o in traced if o.trace])
            row = tracer.layer_metrics(merged)
            row["trace.overhead_ratio"] = sum(o.wall_s for o in traced) / sum(o.wall_s for o in plain) - 1
            dominant = DOMINANT[args.workload]
            silent = [name for name in dominant if not merged["spans"].get(name)]
            if correct and silent:
                print(f"error: dominant layer {silent} of {args.workload} recorded no span", file=sys.stderr)
                return 1
            own = sum(merged["self_s"].get(n, 0.0) for n in dominant)
            row["trace.dominant_share"] = own / row["trace.inprocess_s"] if row["trace.inprocess_s"] else 0.0
            rows.append(row)
        values = medians(rows)
        record["passes"] = len(plain_passes)
        record["dominant"] = {"spans": DOMINANT[args.workload], "share": values.pop("trace.dominant_share")}
        if record["dominant"]["share"] < 0.5:
            print(f"note: {record['dominant']} is under half of the traced in-process time", file=sys.stderr)
        specs = metric_specs("per_layer")
    else:
        values = job_metrics(runs)
        values["setup_s"] = statistics.median(setup)
        specs = metric_specs("end_to_end")
        record["samples"] = {job.key: len(outs) for job, outs in runs.items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    record["loadavg_end"] = _loadavg()
    steal_end = _steal_s()
    record["steal_s"] = None if steal_start is None or steal_end is None else steal_end - steal_start
    print(json.dumps({"run_record": record}))
    failed = sum(not o.ok for o in outcomes)
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
