"""The benchmark's fixed job lists.

Each workload is a list of `python -m virfock ...` invocations.  Sizes are
fixed because cost depends strongly on (h, p) and on the degree: the seed only
shuffles the order in which a pass runs its jobs.  Each workload leans on a
different layer, named in DOMINANT, so that a change to one layer shows on
one workload and is predicted to leave the others alone:

* gram   -- Gram construction with memo reuse across degrees 0..N
            (VermaModule.gram_matrix straightening); elimination is minor.
* kernel -- one L(1)/L(2) pass with mostly memo misses, then batch Bareiss
            elimination and back substitution (linalg rank/nullspace).
* fock   -- the Fock Virasoro action and incremental span closure
            (SpanBuilder); no Verma module at all.
* modes  -- composite-state modes (ModeEngine, Poly arithmetic over Q[h]);
            six short processes, so interpreter start-up weighs most here.

`field` says which part of the end-to-end CPU time a job belongs to:
"q" for Q and Q[h], "fp" for F_p and F_p[h].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from oracles import (
    Check,
    battery_ok,
    half_dims,
    homogeneous_vectors,
    irrdims,
    mode_degree,
    no_vectors,
    strict_partitions,
    vacuum_dims,
    vir_span,
)


@dataclass(frozen=True)
class Job:
    argv: Tuple[str, ...]
    field: str
    timeout: float
    oracle: Optional[Check] = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


MODE_TARGET = "[-4,-3,-2,-1]"

WORKLOADS: Dict[str, Tuple[Job, ...]] = {
    "gram": (
        Job(("irrdims", "--h", "1/16", "--max", "14"), "q", 30, irrdims(strict_partitions, exact=True)),
        Job(("irrdims", "--h", "0", "--char", "7", "--max", "15"), "fp", 15, irrdims(vacuum_dims, exact=False)),
    ),
    "kernel": (
        Job(("singvec", "--h", "1/16", "--degree", "16"), "q", 25, homogeneous_vectors),
        Job(("singvec", "--h", "0", "--degree", "18", "--char", "7"), "fp", 12, homogeneous_vectors),
        Job(("singvec", "--h", "1/16", "--degree", "19", "--char", "11"), "fp", 15, homogeneous_vectors),
    ),
    "fock": (
        Job(("verify-paper", "--only", "fock"), "q", 30, battery_ok(allow_values=False)),
        Job(("vir-span", "--sector", "NS", "--parity", "1", "--max", "17"), "q", 12, vir_span(half_dims, exact=True)),
        Job(("hwvec", "--sector", "NS", "--parity", "0", "--degree", "24"), "q", 8, no_vectors),
        Job(("vir-span", "--sector", "R", "--parity", "0", "--max", "18", "--char", "7"), "fp", 10,
            vir_span(strict_partitions, exact=False)),
    ),
    "modes": (
        Job(("mode-apply", "--state", "[-2,-2,-2,-2]", "--n", "-4", "--target", MODE_TARGET, "--h", "h"), "q", 12,
            mode_degree(8)),
        Job(("mode-apply", "--state", "[-3,-2,-2,-2]", "--n", "-4", "--target", MODE_TARGET, "--h", "h"), "q", 12,
            mode_degree(9)),
        Job(("mode-apply", "--state", "s", "--n", "-6", "--target", "[-6,-4,-3,-2,-1]", "--h", "h"), "q", 8,
            mode_degree(6)),
        Job(("mode-apply", "--state", "[-2,-2,-2,-2]", "--n", "-4", "--target", MODE_TARGET, "--h", "h",
             "--char", "7"), "fp", 8, mode_degree(8)),
        Job(("verify-paper", "--only", "classify"), "q", 8, battery_ok(allow_values=False)),
        Job(("verify-paper", "--only", "expansion"), "q", 8, battery_ok(allow_values=True)),
    ),
}

# Span names (see tracer.py) whose self time should be at least half of the
# traced in-process time on each workload.
DOMINANT: Dict[str, Tuple[str, ...]] = {
    "gram": ("verma.gram",),
    "kernel": ("linalg.elim",),
    "fock": ("fock.virasoro", "linalg.span"),
    "modes": ("modes.apply",),
}

# A call that does no work: interpreter start, `import virfock`, argparse.
SETUP_JOB = Job(("fock-dims", "--max", "0"), "q", 10)

# Jobs whose answers are checked against an oracle when references are
# recorded, beyond those the workloads run.
ORACLE_JOBS: Tuple[Job, ...] = (
    Job(("irrdims", "--h", "0", "--max", "10"), "q", 10, irrdims(vacuum_dims, exact=True)),
)

# One tiny job per workload, for the smoke test.
SMOKE_JOBS: Dict[str, Job] = {
    "gram": Job(("irrdims", "--h", "1/16", "--max", "4"), "q", 10, irrdims(strict_partitions, exact=True)),
    "kernel": Job(("singvec", "--h", "0", "--degree", "6", "--char", "7"), "fp", 10, homogeneous_vectors),
    "fock": Job(("vir-span", "--sector", "NS", "--parity", "1", "--max", "4"), "q", 10,
                vir_span(half_dims, exact=True)),
    "modes": Job(("mode-apply", "--state", "[-2,-2]", "--n", "-1", "--target", "[-2]", "--h", "h"), "q", 10,
                 mode_degree(4)),
}


def all_jobs() -> Tuple[Job, ...]:
    """Every job that has a reference output, without duplicates."""
    seen: Dict[str, Job] = {}
    for job in (SETUP_JOB, *ORACLE_JOBS, *SMOKE_JOBS.values(), *(j for js in WORKLOADS.values() for j in js)):
        seen.setdefault(job.key, job)
    return tuple(seen.values())
