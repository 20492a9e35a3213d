"""Running one job as a fresh process and checking what it printed.

A job passes when it exits with the recorded code before its timeout, its
stdout digest equals the recorded one, and its oracle (if any) accepts the
parsed output.  Wall time is taken around the child process; CPU time and
max RSS come from the child's own rusage (os.wait4).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from tracer import MARKER
from workloads import Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"


@dataclass
class Outcome:
    job: Job
    reason: str  # why the job failed; empty when it passed
    wall_s: float
    cpu_s: float
    rss_mb: float
    trace: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.reason


def program_present() -> bool:
    return (ROOT / "src" / "virfock" / "__init__.py").is_file()


def git_commit() -> Optional[str]:
    """The checked-out commit, or None outside a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def load_references() -> Dict[str, dict]:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def digest(job: Job, stdout: bytes) -> str:
    """sha256 of stdout; verify-paper output loses its wall-clock `elapsed`
    fields first, keeping key order."""
    if job.argv[0] == "verify-paper":
        data = json.loads(stdout)
        for check in data["checks"]:
            check.pop("elapsed", None)
        stdout = (json.dumps(data, separators=(",", ":")) + "\n").encode()
    return hashlib.sha256(stdout).hexdigest()


def _drain(stream, sink: List[bytes]) -> None:
    sink.append(stream.read())


def execute(argv: List[str], timeout: float):
    """Run argv to completion with PYTHONPATH=src.  Returns (exit code or
    None on timeout, stdout, stderr, wall seconds, rusage)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out: List[bytes] = []
    err: List[bytes] = []
    readers = [threading.Thread(target=_drain, args=(s, sink)) for s, sink in ((proc.stdout, out), (proc.stderr, err))]
    for r in readers:
        r.start()
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill() -> None:
        with lock:
            if not state["exited"]:
                state["killed"] = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    # Wait without reaping, so the timer can never signal a recycled pid.
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - start
    with lock:
        state["exited"] = True
    timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    code = None if state["killed"] else proc.returncode
    return code, out[0], err[0], wall, usage


def run_job(job: Job, expected: Optional[dict], traced: bool = False) -> Outcome:
    """Run one job (under the tracer when `traced`) and check it against its
    reference {"exit_code", "sha256"}; a missing reference fails the job."""
    if traced:
        argv = [sys.executable, str(HERE / "tracer.py"), *job.argv]
        timeout = 2 * job.timeout
    else:
        argv = [sys.executable, "-m", "virfock", *job.argv]
        timeout = job.timeout
    code, stdout, stderr, wall, usage = execute(argv, timeout)
    outcome = Outcome(job, "", wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
    if traced:
        lines = [ln for ln in stderr.decode(errors="replace").splitlines() if ln.startswith(MARKER)]
        outcome.trace = json.loads(lines[-1][len(MARKER):]) if lines else None
    outcome.reason = _verdict(job, expected, timeout, code, stdout, stderr)
    if traced and outcome.trace is None and not outcome.reason:
        outcome.reason = "tracer wrote no summary"
    return outcome


def _verdict(job: Job, expected: Optional[dict], timeout: float, code, stdout: bytes, stderr: bytes) -> str:
    if code is None:
        return f"timed out after {timeout:g}s"
    if expected is None:
        return "no reference output recorded"
    if code != expected["exit_code"]:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return f"exit code {code}, expected {expected['exit_code']}: {tail[0]}"
    try:
        got = digest(job, stdout)
        problem = job.oracle(json.loads(stdout)) if job.oracle else None
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if got != expected["sha256"]:
        return f"stdout digest {got[:12]} differs from reference {expected['sha256'][:12]}"
    if problem:
        return f"oracle: {problem}"
    return ""
