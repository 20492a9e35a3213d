"""Command line front end: exact serialization of engine results and the
`verify-paper` check battery.

Every scalar crosses this boundary as an exact string ("num/den", "k mod p",
or a polynomial in h); there is no floating point anywhere.  JSON output is
deterministic: identical configurations produce byte-identical bytes.

Each command imports the engine modules it runs inside its own function, so
a call loads only those, with `scalars`, `lincomb` and `linalg` beneath
them: `singvec` and `irrdims` load `verma` and `singular`; `fock-dims`,
`vir-span` and `hwvec` load `fock`; `mode-apply` loads `verma` and `modes`;
`verify-paper` loads the battery and with it every module.  This module
itself imports only `scalars`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .scalars import (
    QQ,
    CharacteristicTwoError,
    DenominatorDivisibleByP,
    Ring,
    scalar_to_str,
)

if TYPE_CHECKING:
    from .fock import FockVector
    from .verma import VermaModule

FORMATS = ("json", "csv", "pretty")


def _module(cfg: argparse.Namespace) -> VermaModule:
    from .verma import verma_module

    ring = Ring(cfg.char, cfg.h.strip() == "h")
    if cfg.c.strip() == "h":
        raise ValueError("--c must be a number: only --h may be the formal weight h")
    return verma_module(ring.parse(cfg.c), ring.parse(cfg.h), ring)


def _fock_display(v: FockVector) -> str:
    from .fock import monomial_str

    return " + ".join(f"({scalar_to_str(cv)})*{monomial_str(t)}" for t, cv in v.items()) or "0"


# ------------------------------------------------------------------ commands


def cmd_singvec(cfg: argparse.Namespace) -> Tuple[dict, int]:
    from .singular import singular_space

    mod = _module(cfg)
    sb = singular_space(mod, cfg.degree)
    return sb.to_json(), 0


def cmd_irrdims(cfg: argparse.Namespace) -> Tuple[dict, int]:
    from .singular import irreducible_dims
    from .verma import verma_module

    mod = _module(cfg)
    table = irreducible_dims(mod, cfg.max_degree)
    data = table.to_json()
    if cfg.compare_char0 and cfg.char != 0:
        base = irreducible_dims(
            verma_module(QQ.parse(cfg.c), QQ.parse(cfg.h), QQ), cfg.max_degree
        )
        for row, dim0 in zip(data["rows"], base.irreducible()):
            row["char0"] = dim0
            row["flag"] = "DIFF" if dim0 != row["irreducible"] else ""
    return data, 0


def cmd_fock_dims(cfg: argparse.Namespace) -> Tuple[dict, int]:
    from .fock import mode_str, sector_dims, slice_weight2

    dims = sector_dims(cfg.sector, cfg.parity, cfg.max_degree)
    return {
        "sector": cfg.sector,
        "parity": cfg.parity,
        "rows": [
            {"degree": d, "weight": mode_str(slice_weight2(cfg.sector, cfg.parity, d)), "dim": n}
            for d, n in enumerate(dims)
        ],
    }, 0


def cmd_vir_span(cfg: argparse.Namespace) -> Tuple[dict, int]:
    from .fock import sector_hw_vector, vir_span_dims

    ring = Ring(cfg.char)
    start = sector_hw_vector(cfg.sector, cfg.parity, ring)
    dims = vir_span_dims(start, cfg.max_degree)
    return {
        "sector": cfg.sector,
        "parity": cfg.parity,
        "char": cfg.char,
        "start": _fock_display(start),
        "rows": [{"degree": d, "dim": n} for d, n in enumerate(dims)],
    }, 0


def cmd_hwvec(cfg: argparse.Namespace) -> Tuple[dict, int]:
    from .fock import fock_hw_vectors, mode_str, slice_weight2

    ring = Ring(cfg.char)
    w2 = slice_weight2(cfg.sector, cfg.parity, cfg.degree)
    vecs = fock_hw_vectors(cfg.sector, cfg.parity, Fraction(w2, 2), ring)
    return {
        "sector": cfg.sector,
        "parity": cfg.parity,
        "char": cfg.char,
        "weight": mode_str(w2),
        "vectors": [{"terms": v.to_json(), "display": _fock_display(v)} for v in vecs],
    }, 0


def _parse_word(text: str) -> List[int]:
    word = json.loads(text)
    if not isinstance(word, list) or not all(isinstance(m, int) for m in word):
        raise ValueError("expected a JSON array of integers")
    return word


def cmd_mode_apply(cfg: argparse.Namespace) -> Tuple[dict, int]:
    from .modes import build_state, mode_apply, named_state

    mod = _module(cfg)
    ring = mod.ring
    if cfg.state in ("s", "u"):
        state = named_state(cfg.state, ring)
    else:
        state = build_state(_parse_word(cfg.state), ring)
    word = _parse_word(cfg.target)
    if any(m >= 0 for m in word):
        raise ValueError("target word must consist of negative modes")
    target = mod.apply_word(word, mod.vacuum())
    result = mode_apply(state, cfg.n, target, mod)
    return {
        "c": cfg.c,
        "h": cfg.h,
        "char": cfg.char,
        "state": cfg.state,
        "n": cfg.n,
        "target": word,
        "result": result.to_json(),
        "display": repr(result),
    }, 0


def cmd_verify_paper(cfg: argparse.Namespace) -> Tuple[dict, int]:
    from .battery import run_battery

    report = run_battery(cfg.only)
    if not report.results:
        raise ValueError(f"no checks match --only {cfg.only!r}")
    return report.to_json(), 0 if report.ok else 1


COMMANDS: Dict[str, Callable[[argparse.Namespace], Tuple[dict, int]]] = {
    "singvec": cmd_singvec,
    "irrdims": cmd_irrdims,
    "fock-dims": cmd_fock_dims,
    "vir-span": cmd_vir_span,
    "hwvec": cmd_hwvec,
    "mode-apply": cmd_mode_apply,
    "verify-paper": cmd_verify_paper,
}


# ---------------------------------------------------------------- formatting


def render_json(data: dict) -> str:
    return json.dumps(data, separators=(",", ":")) + "\n"


def _csv_rows(command: str, data: dict) -> Tuple[List[str], List[List]]:
    if command == "singvec":
        rows = []
        for i, vec in enumerate(data["vectors"]):
            for term in vec:
                rows.append([i, "+".join(str(x) for x in term["partition"]), _coeff_str(term["coeff"])])
        return ["vector", "partition", "coeff"], rows
    if command == "irrdims":
        head = ["degree", "verma", "radical", "irreducible"]
        extra = "char0" in (data["rows"][0] if data["rows"] else {})
        if extra:
            head += ["char0", "flag"]
        rows = []
        for r in data["rows"]:
            row = [r["degree"], r["verma"], r["radical"], r["irreducible"]]
            if extra:
                row += [r["char0"], r["flag"]]
            rows.append(row)
        return head, rows
    if command in ("fock-dims", "vir-span"):
        keys = ["degree", "weight", "dim"] if command == "fock-dims" else ["degree", "dim"]
        return keys, [[r[k] for k in keys] for r in data["rows"]]
    if command == "hwvec":
        rows = []
        for i, vec in enumerate(data["vectors"]):
            for term in vec["terms"]:
                rows.append([i, "+".join(str(x) for x in term["modes"]), _coeff_str(term["coeff"])])
        return ["vector", "modes2", "coeff"], rows
    if command == "mode-apply":
        rows = [["+".join(str(x) for x in t["partition"]), _coeff_str(t["coeff"])] for t in data["result"]]
        return ["partition", "coeff"], rows
    if command == "verify-paper":
        rows = [
            [c["name"], c["group"], c["criterion"], c["status"], c["elapsed"], c["detail"]]
            for c in data["checks"]
        ]
        return ["name", "group", "criterion", "status", "elapsed", "detail"], rows
    raise ValueError(f"no csv layout for {command}")


def _coeff_str(coeff) -> str:
    if isinstance(coeff, list):
        return "poly:" + ",".join(str(x) for x in coeff)
    return str(coeff)


def render_csv(command: str, data: dict) -> str:
    import csv

    head, rows = _csv_rows(command, data)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(head)
    writer.writerows(rows)
    return buf.getvalue()


def render_pretty(command: str, data: dict) -> str:
    lines: List[str] = []
    if command == "singvec":
        lines.append(
            f"singular vectors  c={data['c']}  h={data['h']}  char={data['char']}  degree={data['degree']}"
        )
        if not data["vectors"]:
            lines.append("  (none)")
        for vec in data["vectors"]:
            parts = [
                f"({_coeff_str(t['coeff'])})*" + "".join(f"L(-{x})" for x in t["partition"]) + "v"
                for t in vec
            ]
            lines.append("  " + " + ".join(parts))
    elif command == "irrdims":
        lines.append(f"character table  c={data['c']}  h={data['h']}  char={data['char']}")
        extra = data["rows"] and "char0" in data["rows"][0]
        head = f"{'degree':>6} {'verma':>6} {'radical':>8} {'irreducible':>12}"
        if extra:
            head += f" {'char0':>6} flag"
        lines.append(head)
        for r in data["rows"]:
            line = f"{r['degree']:>6} {r['verma']:>6} {r['radical']:>8} {r['irreducible']:>12}"
            if extra:
                line += f" {r['char0']:>6} {r['flag']}"
            lines.append(line)
    elif command in ("fock-dims", "vir-span"):
        title = "fock monomial counts" if command == "fock-dims" else "virasoro span dims"
        suffix = f"  char={data['char']}" if command == "vir-span" else ""
        lines.append(f"{title}  sector={data['sector']}  parity={data['parity']}{suffix}")
        for r in data["rows"]:
            lines.append(f"  degree {r['degree']:>2}: {r['dim']}")
    elif command == "hwvec":
        lines.append(
            f"highest weight vectors  sector={data['sector']}  parity={data['parity']}"
            f"  weight={data['weight']}  char={data['char']}"
        )
        if not data["vectors"]:
            lines.append("  (none)")
        for vec in data["vectors"]:
            lines.append("  " + vec["display"])
    elif command == "mode-apply":
        lines.append(
            f"state={data['state']}  n={data['n']}  target={data['target']}"
            f"  c={data['c']}  h={data['h']}  char={data['char']}"
        )
        lines.append("  " + data["display"])
    elif command == "verify-paper":
        for c in data["checks"]:
            tag = {"pass": "PASS ", "fail": "FAIL ", "value": "VALUE"}[c["status"]]
            lines.append(f"[{tag}] {c['name']} ({c['elapsed']:.2f}s) {c['detail']}")
        n = len(data["checks"])
        lines.append(f"{n} checks: {n - data['failed']} ok, {data['failed']} failed")
    else:
        raise ValueError(f"no pretty layout for {command}")
    return "\n".join(lines) + "\n"


def render(cfg: argparse.Namespace, data: dict) -> str:
    if cfg.fmt == "json":
        return render_json(data)
    if cfg.fmt == "csv":
        return render_csv(cfg.command, data)
    return render_pretty(cfg.command, data)


# ------------------------------------------------------------------- parser


def _sector_arg(text: str) -> str:
    from .fock import NS, RAMOND

    key = text.strip().upper()
    if key in ("NS", "N"):
        return NS
    if key in ("R", "RAMOND"):
        return RAMOND
    raise argparse.ArgumentTypeError(f"unknown sector {text!r} (use NS or R)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="virfock",
        description="Exact Virasoro Verma-module and free-fermion Fock-space computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, *flags: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_)
        if "c" in flags:
            sp.add_argument("--c", default="1/2", help="central charge (exact string, e.g. 1/2)")
            sp.add_argument("--h", default="0", help="highest weight (exact string, or 'h' for formal)")
            sp.add_argument("--char", type=int, default=0, help="field characteristic: 0 or an odd prime")
        if "degree" in flags:
            sp.add_argument("--degree", type=int, default=1, help="graded degree (sector-adjusted for hwvec)")
        if "max" in flags:
            sp.add_argument("--max", dest="max_degree", type=int, default=10, help="maximum degree")
        if "sector" in flags:
            sp.add_argument("--sector", type=_sector_arg, default="NS", help="fermion sector: NS or R")
            sp.add_argument("--parity", type=int, choices=(0, 1), default=0, help="monomial length parity")
        if "charonly" in flags:
            sp.add_argument("--char", type=int, default=0, help="field characteristic: 0 or an odd prime")
        sp.add_argument("--format", dest="fmt", choices=FORMATS, default="json", help="output format")
        sp.add_argument("--out", default=None, help="write output to this path instead of stdout")
        return sp

    add("singvec", "basis of singular vectors at one degree", "c", "degree")
    irr = add("irrdims", "graded character table of the irreducible quotient", "c", "max")
    irr.add_argument(
        "--compare-char0",
        action="store_true",
        help="add the characteristic-0 column and flag differing rows",
    )
    add("fock-dims", "monomial counts of a Fock sector/parity slice", "sector", "max")
    add("vir-span", "graded dims of the Virasoro span of the sector bottom vector", "sector", "max", "charonly")
    add("hwvec", "Virasoro highest weight vectors in one weight slice", "sector", "degree", "charonly")
    ma = add("mode-apply", "apply a composite state mode u_n to a Verma vector", "c")
    ma.add_argument("--state", default="s", help="'s', 'u', or a JSON array of negative modes")
    ma.add_argument("--n", type=int, required=True, help="mode index n of u_n")
    ma.add_argument(
        "--target",
        default="[]",
        help="JSON array of negative modes applied to the highest weight vector",
    )
    vp = add("verify-paper", "run the verification battery")
    vp.add_argument("--only", default=None, help="restrict to one check group or name prefix")
    return parser


def _attach_negative_values(argv: List[str]) -> List[str]:
    """argv with a value such as -1/5 that follows --c or --h joined to it,
    as --h=-1/5: argparse reads a token that starts with '-' and is not a
    plain negative number as an option, not as the preceding option's value.
    No option name starts with '-' and a digit."""
    out: List[str] = []
    for arg in argv:
        if out and out[-1] in ("--c", "--h") and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _write_out(path: str, text: str) -> None:
    """Write text to path.  When the write itself fails, a regular file the
    open created or truncated is removed, so no partial output is left."""
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
    except OSError:
        if os.path.isfile(path):
            os.remove(path)
        raise


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    cfg = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        if getattr(cfg, "degree", 0) < 0 or getattr(cfg, "max_degree", 0) < 0:
            raise ValueError("degree bounds must be nonnegative")
        data, code = COMMANDS[cfg.command](cfg)
        text = render(cfg, data)
    except (CharacteristicTwoError, DenominatorDivisibleByP, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.out:
        try:
            _write_out(cfg.out, text)
        except OSError as exc:
            print(f"error: cannot write {cfg.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
