"""Record the reference outputs the benchmark checks jobs against.

    python3 bench/make_references.py

Runs every job of bench/workloads.py twice, under two hash seeds, and writes
bench/references.json with each job's exit code and stdout digest.  A job is
accepted only when both runs agree and its oracle (bench/oracles.py), which
does not import virfock, accepts the output; otherwise nothing is written.
Re-record only when a change is meant to alter a command's output.
"""

from __future__ import annotations

import json
import os
import sys

from jobs import REFERENCES, digest, execute, git_commit
from workloads import all_jobs


def main() -> int:
    jobs = {}
    problems = []
    for job in all_jobs():
        seen = set()
        for hash_seed in ("1", "2"):
            os.environ["PYTHONHASHSEED"] = hash_seed
            code, stdout, _, wall, _ = execute([sys.executable, "-m", "virfock", *job.argv], 10 * job.timeout)
            seen.add((code, digest(job, stdout)))
        print(f"{wall:7.2f}s  exit {code}  {job.key}", file=sys.stderr)
        problem = job.oracle(json.loads(stdout)) if job.oracle else None
        if len(seen) != 1:
            problems.append(f"{job.key}: output differs between runs")
        elif code is None:
            problems.append(f"{job.key}: timed out")
        elif problem:
            problems.append(f"{job.key}: oracle: {problem}")
        jobs[job.key] = {"exit_code": code, "sha256": seen.pop()[1]}
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"commit": git_commit(), "jobs": jobs}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
