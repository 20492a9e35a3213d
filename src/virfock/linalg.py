"""Exact linear algebra over Q and F_p.

Over Q the forward elimination is fraction-free (Bareiss): rows are cleared
to integers and every update divides exactly by the previous pivot, which
keeps intermediate entries polynomial-sized instead of letting gcd work
dominate.  Over F_p a plain modular elimination is used.  Both paths report
pivot columns so null spaces come out of one back substitution.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, List, Sequence, Tuple

from .scalars import Fp, Ring, RingMismatchError, Scalar


def _int_rows(rows: Sequence[Sequence[Fraction]]) -> List[List[int]]:
    out = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        out.append([int(x * den) for x in row])
    return out


def _echelon_q(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free row echelon form; returns integer rows and pivot columns."""
    a = _int_rows(rows)
    m = len(a)
    n = len(a[0]) if m else 0
    pivots: List[int] = []
    r = 0
    prev = 1
    for col in range(n):
        pr = next((i for i in range(r, m) if a[i][col] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        piv = a[r][col]
        # Every row below the pivot is updated at every step: the exact
        # division by the previous pivot is only valid on rows that were
        # rescaled in the preceding step, including rows with a zero lead.
        for i in range(r + 1, m):
            lead = a[i][col]
            for j in range(col, n):
                a[i][j] = (piv * a[i][j] - lead * a[r][j]) // prev
        pivots.append(col)
        prev = piv
        r += 1
        if r == m:
            break
    return a[:r], pivots


def _echelon_fp(rows: Sequence[Sequence[Fp]], p: int) -> Tuple[List[List[int]], List[int]]:
    """Modular row echelon form; returns residue rows and pivot columns."""
    a = [[x.v for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots: List[int] = []
    r = 0
    for col in range(n):
        pr = next((i for i in range(r, m) if a[i][col] % p != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][col], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(r + 1, m):
            f = a[i][col] % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return a[:r], pivots


def _as_field_rows(rows, ring: Ring):
    if ring.formal:
        raise RingMismatchError("linear algebra needs a field, not a polynomial ring")
    return [[ring.coerce(x) for x in row] for row in rows]


def rank(rows: Sequence[Sequence[Scalar]], ring: Ring) -> int:
    """Rank of a matrix given as a list of rows of ring scalars."""
    if not rows or not rows[0]:
        return 0
    rows = _as_field_rows(rows, ring)
    if ring.char == 0:
        return len(_echelon_q(rows)[1])
    return len(_echelon_fp(rows, ring.char)[1])


def nullspace(rows: Sequence[Sequence[Scalar]], ring: Ring, ncols: int | None = None) -> List[List[Scalar]]:
    """Basis of the right null space {x : A x = 0}.

    One basis vector per free column, each with a 1 in its free coordinate,
    produced by back substitution from the echelon form.  Column order of the
    free coordinates follows the input, so results are deterministic.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows or ncols == 0:
        return [[ring.one() if i == j else ring.zero() for i in range(ncols)] for j in range(ncols)]
    rows = _as_field_rows(rows, ring)
    if ring.char == 0:
        ech, pivots = _echelon_q(rows)
        ech = [[Fraction(x) for x in row] for row in ech]
    else:
        p = ring.char
        ech, pivots = _echelon_fp(rows, p)
        ech = [[Fp(x, p) for x in row] for row in ech]
    free = [j for j in range(ncols) if j not in pivots]
    zero, one = ring.zero(), ring.one()
    out = []
    for f in free:
        x = [zero] * ncols
        x[f] = one
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            if pc > f:
                continue
            s = zero
            for j in range(pc + 1, ncols):
                if x[j]:
                    s = s + ech[i][j] * x[j]
            x[pc] = -s / ech[i][pc]
        out.append(x)
    return out


def joint_kernel(basis: Sequence, maps: Sequence[Tuple[Sequence, Sequence[dict]]], ring: Ring) -> List[dict]:
    """Basis of the common kernel of linear maps on the span of basis.

    maps holds one (target basis, images) pair per map, images[j] being the
    term dict of the image of basis[j].  The coordinate rows of every map are
    stacked into one matrix; each null vector comes back as a term dict on
    basis with its zero coordinates dropped.
    """
    zero = ring.zero()
    rows = [[img.get(q, zero) for img in images] for target, images in maps for q in target]
    return [{k: cv for k, cv in zip(basis, x) if cv} for x in nullspace(rows, ring, ncols=len(basis))]


def det(rows: Sequence[Sequence[Scalar]], ring: Ring) -> Scalar:
    """Determinant of a square matrix, exact in the given field."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return ring.one()
    rows = _as_field_rows(rows, ring)
    a = [list(r) for r in rows]
    sign = 1
    acc = ring.one()
    for col in range(n):
        pr = next((i for i in range(col, n) if a[i][col]), None)
        if pr is None:
            return ring.zero()
        if pr != col:
            a[col], a[pr] = a[pr], a[col]
            sign = -sign
        piv = a[col][col]
        acc = acc * piv
        for i in range(col + 1, n):
            if a[i][col]:
                f = a[i][col] / piv
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return acc if sign == 1 else -acc


class SpanBuilder:
    """Incrementally maintained row space over a field.

    add() reduces the incoming coordinate row against the stored pivots and
    reports whether it enlarged the span.  contains() is the same reduction
    without insertion.  Pivot rows are stored sparse, as (pivot column,
    [(column, entry), ...]) over their nonzero entries with entry 1 at the
    pivot, so a reduction step touches only those columns.
    """

    def __init__(self, ring: Ring):
        if ring.formal:
            raise RingMismatchError("SpanBuilder needs a field, not a polynomial ring")
        self.ring = ring
        self._rows: List[Tuple[int, List[Tuple[int, Scalar]]]] = []

    def _reduce(self, row: Sequence[Scalar]) -> List[Scalar]:
        row = [self.ring.coerce(x) for x in row]
        for pc, pr in self._rows:
            f = row[pc]
            if f:
                for j, y in pr:
                    row[j] = row[j] - f * y
        return row

    def contains(self, row: Sequence[Scalar]) -> bool:
        return not any(self._reduce(row))

    def add(self, row: Sequence[Scalar]) -> bool:
        red = self._reduce(row)
        pc = next((j for j, x in enumerate(red) if x), None)
        if pc is None:
            return False
        inv = red[pc]
        self._rows.append((pc, [(j, x / inv) for j, x in enumerate(red) if x]))
        return True

    @property
    def dim(self) -> int:
        return len(self._rows)


def lowering_closure(seeds: Sequence[tuple], max_degree: int, ring: Ring, basis: Callable, lower: Callable) -> List[int]:
    """Graded dimensions, degrees 0..max_degree, of the span of all lowering
    words L(-k_1)...L(-k_j) applied to homogeneous seed vectors.

    seeds holds (degree, vector) pairs; basis(d) is the coordinate basis of
    degree d, and lower(k, w) applies L(-k), raising the degree by k.  Slices
    are saturated degree by degree with the generators L(-1)..L(-max_degree);
    deeper words are reached iteratively.
    """
    zero = ring.zero()
    spans = [SpanBuilder(ring) for _ in range(max_degree + 1)]
    slices: List[list] = [[] for _ in range(max_degree + 1)]

    def push(d: int, w) -> None:
        if w and d <= max_degree and spans[d].add(w.coords(basis(d), zero)):
            slices[d].append(w)

    for d, w in seeds:
        push(d, w)
    for d in range(max_degree + 1):
        for w in slices[d]:
            for k in range(1, max_degree - d + 1):
                push(d + k, lower(k, w))
    return [b.dim for b in spans]
