"""Independent answers for the benchmark jobs, computed without virfock.

Each check takes a job's parsed JSON output and returns an error message, or
None when the output agrees.  The counting oracles come from the free-fermion
realization of the c = 1/2 irreducibles, not from Gram ranks:

* L(1/2, 1/16) is one parity slice of the Ramond Fock space, so its graded
  dimension at degree n is the number of partitions of n into distinct parts.
* L(1/2, 0) is the even NS slice: partitions of 2n into an even number of
  distinct odd parts.
* L(1/2, 1/2) is the odd NS slice: partitions of 2n + 1 into an odd number
  of distinct odd parts.

Over F_p the quotients can only shrink, so F_p answers are bounded above by
the same counts.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

Check = Callable[[dict], Optional[str]]


def partition_counts(n_max: int) -> List[int]:
    """p(n) for n = 0..n_max."""
    p = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return p


def distinct_part_counts(total_max: int, parts: Sequence[int]) -> List[List[int]]:
    """counts[k][t]: subsets of `parts` with k mod 2 elements summing to t."""
    counts = [[1] + [0] * total_max, [0] * (total_max + 1)]
    for part in parts:
        for t in range(total_max, part - 1, -1):
            even, odd = counts[0][t - part], counts[1][t - part]
            counts[0][t] += odd
            counts[1][t] += even
    return counts


def strict_partitions(n_max: int) -> List[int]:
    """Partitions of n into distinct parts, n = 0..n_max."""
    c = distinct_part_counts(n_max, range(1, n_max + 1))
    return [c[0][n] + c[1][n] for n in range(n_max + 1)]


def vacuum_dims(n_max: int) -> List[int]:
    """Partitions of 2n into an even number of distinct odd parts."""
    c = distinct_part_counts(2 * n_max, range(1, 2 * n_max + 1, 2))
    return [c[0][2 * n] for n in range(n_max + 1)]


def half_dims(n_max: int) -> List[int]:
    """Partitions of 2n + 1 into an odd number of distinct odd parts."""
    c = distinct_part_counts(2 * n_max + 1, range(1, 2 * n_max + 2, 2))
    return [c[1][2 * n + 1] for n in range(n_max + 1)]


def _column(data: dict, key: str) -> List[int]:
    return [row[key] for row in data["rows"]]


def _compare(name: str, got: List[int], want: List[int], exact: bool) -> Optional[str]:
    if len(got) != len(want):
        return f"{name}: {len(got)} rows, expected {len(want)}"
    if exact and got != want:
        return f"{name}: got {got}, oracle gives {want}"
    if not exact and any(g > w or g < 0 for g, w in zip(got, want)):
        return f"{name}: got {got}, which exceeds the oracle {want}"
    return None


def irrdims(dims: Callable[[int], List[int]], exact: bool) -> Check:
    """Character table: Verma column p(n), radical consistent, and the
    irreducible column equal to (or, over F_p, at most) `dims`."""

    def check(data: dict) -> Optional[str]:
        irr = _column(data, "irreducible")
        n_max = len(irr) - 1
        verma = _column(data, "verma")
        if verma != partition_counts(n_max):
            return f"verma column {verma} is not p(n)"
        if [v - i for v, i in zip(verma, irr)] != _column(data, "radical"):
            return "radical column is not verma - irreducible"
        return _compare("irreducible", irr, dims(n_max), exact)

    return check


def vir_span(dims: Callable[[int], List[int]], exact: bool) -> Check:
    """Virasoro span of a sector bottom vector: the whole irreducible slice
    over Q, at most that over F_p."""

    def check(data: dict) -> Optional[str]:
        got = _column(data, "dim")
        return _compare("span dims", got, dims(len(got) - 1), exact)

    return check


def no_vectors(data: dict) -> Optional[str]:
    """An irreducible slice has no highest weight vectors above its bottom."""
    if data["vectors"]:
        return f"expected no highest weight vectors, got {len(data['vectors'])}"
    return None


def homogeneous_vectors(data: dict) -> Optional[str]:
    """Singular vectors: every term has the requested degree, and each vector
    is normalized to a leading coefficient 1."""
    degree = data["degree"]
    for vec in data["vectors"]:
        if not vec:
            return "zero vector in a basis"
        if vec[0]["coeff"].split(" mod ")[0] != "1":
            return f"vector not normalized: leading coefficient {vec[0]['coeff']}"
        for term in vec:
            part = term["partition"]
            if sum(part) != degree or part != sorted(part, reverse=True):
                return f"term {part} is not a partition of {degree}"
    return None


def mode_degree(state_degree: int) -> Check:
    """u_n of a degree-D state maps degree d to degree d + D - n - 1."""

    def check(data: dict) -> Optional[str]:
        want = -sum(data["target"]) + state_degree - data["n"] - 1
        if not data["result"]:
            return "mode image is zero"
        for term in data["result"]:
            if sum(term["partition"]) != want:
                return f"term {term['partition']} is not of degree {want}"
        return None

    return check


def battery_ok(allow_values: bool) -> Check:
    """verify-paper: every check passes (or, where the group reports
    computed quantities, at least none fails)."""
    allowed = {"pass", "value"} if allow_values else {"pass"}

    def check(data: dict) -> Optional[str]:
        if not data["checks"]:
            return "no checks ran"
        bad = [c["name"] for c in data["checks"] if c["status"] not in allowed]
        if bad or not data["ok"]:
            return f"checks not passing: {bad}"
        return None

    return check
