"""Per-layer tracing of one virfock CLI call, from outside the package.

    PYTHONPATH=src python bench/tracer.py <virfock arguments>

runs the command in this interpreter with the public entry points of each
`virfock` module wrapped, writes the command's stdout unchanged, and writes a
summary of spans and counts to stderr as one line starting with MARKER.
Nothing in the package changes.

A span opens only when a call enters a layer from another layer; nested calls
within the same layer only add to the counts.  Spans are kept in memory and
reduced to per-name totals when the command ends.  A span's self time is its
duration minus the durations of its direct children.

Names are imported by value (`singular` binds `rank` and `nullspace`, `cli`
binds `irreducible_dims`, `battery` binds the Fock functions), so every
`virfock.*` module attribute bound to a wrapped function is replaced, not just
the defining one.  Methods are patched on their classes.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

MARKER = "virfock-trace "

# Span name -> layer.  Calls between two names of one layer open no span.
LAYERS = {
    "cli.main": "cli",
    "cli.render": "cli.render",
    "battery": "battery",
    "singular": "singular",
    "verma.gram": "verma",
    "verma.apply_mode": "verma",
    "linalg.elim": "linalg",
    "linalg.span": "linalg",
    "fock": "fock",
    "fock.virasoro": "fock.action",
    "fock.fermion": "fock.action",
    "modes.apply": "modes",
    "modes.annihilation": "modes",
}

SINGULAR_API = (
    "singular_space",
    "is_singular",
    "singular_degrees",
    "radical_basis",
    "irreducible_dims",
    "reduce_vector_mod_p",
    "generated_submodule_dims",
)
FOCK_API = (
    "fermion_monomial",
    "sector_basis",
    "sector_dims",
    "sector_hw_vector",
    "vir_span_dims",
    "fock_hw_vectors",
    "sigma",
    "fock_form",
    "reduce_fock_mod_p",
)
MODES_API = ("build_state", "named_state", "named_state_verma", "engine_for", "mode_apply")

Span = List  # [name, parent index or -1, start, end]
After = Callable[[tuple, dict, object], None]


class Tracer:
    """Spans and counters for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[Tuple[str, int]] = []

    def wrap(self, fn: Callable, name: str, count: Optional[str] = None, after: Optional[After] = None) -> Callable:
        layer = LAYERS[name]
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append([name, stack[-1][1] if stack else -1, clock(), 0.0])
                stack.append((layer, idx))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[idx][3] = clock()
                    stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def summary(self, import_s: float) -> dict:
        dur, own = self_times(self.spans)
        return {
            "import_s": import_s,
            "spans": dict(Counter(s[0] for s in self.spans)),
            "dur_s": dur,
            "self_s": own,
            "counts": dict(self.counts),
        }


def self_times(spans: Sequence[Span]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per span name: total duration, and total self time (duration minus
    the durations of direct children)."""
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    dur: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    for i, (name, _, start, end) in enumerate(spans):
        dur[name] += end - start
        own[name] += end - start - child[i]
    return dict(dur), dict(own)


def _elim_cells(counts: Counter) -> After:
    def after(args: tuple, kwargs: dict, result) -> None:
        rows = args[0]
        if not rows:
            return
        ncols = args[2] if len(args) > 2 else kwargs.get("ncols")
        counts["linalg.elim.cells"] += len(rows) * (len(rows[0]) if ncols is None else ncols)

    return after


def _gram_cells(counts: Counter) -> After:
    seen = set()

    def after(args: tuple, kwargs: dict, result) -> None:
        key = (args[0], result.degree)  # the module is hashed by identity
        if key not in seen:
            seen.add(key)
            counts["verma.gram.cells"] += len(result.basis) ** 2

    return after


def _span_grew(counts: Counter) -> After:
    def after(args: tuple, kwargs: dict, result) -> None:
        if result:
            counts["linalg.span.grew"] += 1

    return after


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every virfock layer."""
    import virfock
    from virfock import battery, cli, fock, linalg, modes, singular, verma

    c = tracer.counts
    functions = [
        (cli, "render", "cli.render", None, None),
        (battery, "run_battery", "battery", None, None),
        *((singular, n, "singular", None, None) for n in SINGULAR_API),
        *((linalg, n, "linalg.elim", None, _elim_cells(c)) for n in ("rank", "nullspace", "det")),
        *((fock, n, "fock", None, None) for n in FOCK_API),
        (fock, "apply_virasoro_fock", "fock.virasoro", "fock.virasoro.calls", None),
        (fock, "apply_fermion", "fock.fermion", "fock.fermion.calls", None),
        *((modes, n, "modes.apply", None, None) for n in MODES_API),
        (modes, "verify_annihilation", "modes.annihilation", None, None),
    ]
    methods = [
        (verma.VermaModule, "gram_matrix", "verma.gram", None, _gram_cells(c)),
        (verma.VermaModule, "apply_mode", "verma.apply_mode", "verma.apply_mode.calls", None),
        (linalg.SpanBuilder, "add", "linalg.span", "linalg.span.adds", _span_grew(c)),
        (linalg.SpanBuilder, "contains", "linalg.span", None, None),
        (modes.ModeEngine, "apply", "modes.apply", "modes.apply.calls", None),
    ]
    for owner, attr, name, count, after in methods:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count, after))
    replace = {}
    for owner, attr, name, count, after in functions:
        fn = getattr(owner, attr)
        replace[id(fn)] = (fn, tracer.wrap(fn, name, count, after))
    packages = [m for n, m in sys.modules.items() if m is virfock or n.startswith("virfock.")]
    for module in packages:
        for attr, value in list(vars(module).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def run(argv: Sequence[str]) -> int:
    start = time.perf_counter()
    from virfock import cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    try:
        code = tracer.wrap(cli.main, "cli.main")(list(argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    sys.stderr.write(MARKER + json.dumps(tracer.summary(import_s)) + "\n")
    return code


# ------------------------------------------------------ per-pass reduction

# Per-layer metric -> (summary table, span or counter names summed).
SUMMED = {
    "cli.render_s": ("dur_s", ("cli.render",)),
    "singular.self_s": ("self_s", ("singular",)),
    "battery.self_s": ("self_s", ("battery",)),
    "verma.gram_self_s": ("self_s", ("verma.gram",)),
    "verma.gram_cells": ("counts", ("verma.gram.cells",)),
    "verma.apply_mode_calls": ("counts", ("verma.apply_mode.calls",)),
    "verma.apply_mode_self_s": ("self_s", ("verma.apply_mode",)),
    "linalg.elim_self_s": ("self_s", ("linalg.elim",)),
    "linalg.elim_cells": ("counts", ("linalg.elim.cells",)),
    "linalg.span_self_s": ("self_s", ("linalg.span",)),
    "linalg.span_adds": ("counts", ("linalg.span.adds",)),
    "fock.virasoro_self_s": ("self_s", ("fock.virasoro",)),
    "fock.virasoro_calls": ("counts", ("fock.virasoro.calls",)),
    "fock.fermion_calls": ("counts", ("fock.fermion.calls",)),
    "fock.self_s": ("self_s", ("fock", "fock.virasoro", "fock.fermion")),
    "modes.apply_self_s": ("self_s", ("modes.apply",)),
    "modes.apply_calls": ("counts", ("modes.apply.calls",)),
    "modes.annihilation_self_s": ("self_s", ("modes.annihilation",)),
    "trace.unattributed_s": ("self_s", ("cli.main",)),
    "trace.inprocess_s": ("dur_s", ("cli.main",)),
}


def merge(summaries: Sequence[dict]) -> dict:
    """Sum the span counts, durations, self times and counters of several
    processes; keep each process's import time."""
    out = {"import_s": [s["import_s"] for s in summaries]}
    for table in ("spans", "dur_s", "self_s", "counts"):
        acc: Dict[str, float] = defaultdict(float)
        for s in summaries:
            for k, v in s[table].items():
                acc[k] += v
        out[table] = dict(acc)
    return out


def layer_metrics(merged: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (see SUMMED)."""
    out = {name: sum(merged[table].get(k, 0) for k in keys) for name, (table, keys) in SUMMED.items()}
    out["cli.import_s"] = statistics.median(merged["import_s"]) if merged["import_s"] else 0.0
    adds = out["linalg.span_adds"]
    out["linalg.span_useful_ratio"] = merged["counts"].get("linalg.span.grew", 0) / adds if adds else 0.0
    return out


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
