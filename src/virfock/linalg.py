"""Exact linear algebra over Q and F_p.

Every entry point first turns its rows into sparse {key: entry} dicts
without zero entries (int residues in [0, p) over F_p, Fractions over Q);
that one pass also rejects scalars of another ring.

There is one sparse reduction loop, `_reduce`: a row is reduced against the
pivot rows by its smallest key until it is zero or its smallest key has no
pivot row yet; scaled to 1 there, it becomes that key's pivot row.  The
sparse echelon feeds it matrix rows in descending order of their smallest
column, SpanBuilder feeds it term dicts one at a time.  The echelon's pivot
columns are the RREF pivot columns, which depend only on the row space, so
the free columns and the kernel basis with unit free coordinates do not
depend on the row order.  Over F_p rank, nullspace and det all use it.
Over Q, nullspace first runs it mod the prime P = 2^31 - 1: rank mod P is
at most the rank over Q, so full column rank mod P proves the kernel empty.
Otherwise the echelon runs on the Fractions themselves.  rank and det over
Q use dense fraction-free Bareiss elimination, which suits the dense Gram
matrices they are called on.

SpanBuilder and joint_kernel take sparse term dicts {basis key: nonzero
scalar}, the `terms` of every vector class, so callers never build
coordinate rows or pass a target basis.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from .lincomb import Terms
from .scalars import Fp, Ring, RingMismatchError, Scalar

Entry = Union[int, Fraction]  # an int residue mod p, or a rational
SparseRow = Dict[Hashable, Entry]  # {column or basis key: nonzero entry}
Rowlike = Union[Sequence[Scalar], Dict[int, Scalar]]  # a dense row, or {column: scalar}

# The prime of the empty-kernel certificate in nullspace over Q.
CERTIFICATE_PRIME = 2**31 - 1


def _field_char(ring: Ring) -> int:
    """ring's characteristic; RingMismatchError unless ring is a field."""
    if ring.formal:
        raise RingMismatchError("linear algebra needs a field, not a polynomial ring")
    return ring.char


def _entries(items: Iterable[Tuple[Hashable, Scalar]], p: int) -> SparseRow:
    """The (key, scalar) pairs as a {key: entry} dict without zero entries:
    int residues over F_p (p > 0), Fractions over Q (p = 0).  Raises
    RingMismatchError on a scalar of another ring."""
    d: SparseRow = {}
    for j, x in items:
        if p:
            if not isinstance(x, Fp) or x.p != p:
                raise RingMismatchError(f"{x!r} is not an element of F_{p}")
            if x.v:
                d[j] = x.v
        elif isinstance(x, Fraction):
            if x:
                d[j] = x
        elif isinstance(x, int):
            if x:
                d[j] = Fraction(x)
        else:
            raise RingMismatchError(f"{x!r} is not a rational number")
    return d


def _sparse_rows(rows: Sequence[Rowlike], ring: Ring) -> List[SparseRow]:
    """Dense rows or {column: scalar} dicts as {column: entry} dicts."""
    p = _field_char(ring)
    return [_entries(row.items() if isinstance(row, dict) else enumerate(row), p) for row in rows]


def _reduce(row: SparseRow, pivots: Dict[Hashable, SparseRow], p: int) -> Optional[Tuple[Hashable, Entry]]:
    """Reduce row in place by the pivot rows, smallest key first.  Returns
    None if it reduces to zero, else the first key c with no pivot row and
    its entry f; c is then popped and the rest divided by f, which makes the
    row c's pivot row.  Pivot rows hold only keys above their own, with the
    pivot entry 1 left out, so eliminating a key only brings in larger ones.
    """
    # The row's keys, smallest first; a key that cancelled stays in the heap
    # and is skipped when it comes up.
    heap = list(row)
    heapify(heap)
    while heap:
        c = heappop(heap)
        f = row.pop(c, None)
        if f is None:
            continue
        tail = pivots.get(c)
        if tail is None:
            inv = pow(f, -1, p) if p else 1 / f
            for j in row:
                row[j] = row[j] * inv % p if p else row[j] * inv
            return c, f
        for j, y in tail.items():
            x = row.get(j)
            if x is None:
                row[j] = -f * y % p if p else -f * y
                heappush(heap, j)
            else:
                v = (x - f * y) % p if p else x - f * y
                if v:
                    row[j] = v
                else:
                    del row[j]
    return None


def _sparse_echelon(rows: List[SparseRow], p: int) -> Tuple[Dict[int, SparseRow], List[Tuple[int, int, Entry]]]:
    """Row echelon form of sparse rows over F_p (p > 0, int residues) or
    Q (p = 0, Fractions); the rows are consumed.

    Returns the pivot rows keyed by pivot column, each without its pivot
    entry, which is 1, and per pivot the input row index it came from, its
    column and its lead before scaling, in the order the rows were taken.
    """
    pivots: Dict[int, SparseRow] = {}
    leads = []
    for i in sorted((i for i, row in enumerate(rows) if row), key=lambda i: min(rows[i]), reverse=True):
        lead = _reduce(rows[i], pivots, p)
        if lead is not None:
            pivots[lead[0]] = rows[i]
            leads.append((i, *lead))
    return pivots, leads


def _certified_empty_kernel(rows: List[SparseRow], ncols: int) -> bool:
    """True when the rational rows have full column rank mod
    CERTIFICATE_PRIME, which proves their kernel over Q is empty.  False
    proves nothing; it is also the answer when the prime divides a
    denominator, since the rows then have no image mod it."""
    P = CERTIFICATE_PRIME
    if len(rows) < ncols:
        return False
    inverses: Dict[int, int] = {}
    reduced = []
    for row in rows:
        d = {}
        for j, x in row.items():
            q = x.denominator
            inv = inverses.get(q)
            if inv is None:
                if q % P == 0:
                    return False
                inv = inverses[q] = pow(q, -1, P)
            v = x.numerator * inv % P
            if v:
                d[j] = v
        reduced.append(d)
    return len(_sparse_echelon(reduced, P)[0]) == ncols


def _bareiss(rows: List[SparseRow], ncols: int) -> Tuple[int, Fraction]:
    """Rank and determinant of rational rows by dense fraction-free
    elimination.

    Rows are cleared to integers and every update divides exactly by the
    previous pivot, which keeps intermediate entries polynomial-sized
    instead of letting gcd work dominate.  The last pivot, the row-swap sign
    and the clearing multipliers give the determinant, which is zero unless
    the matrix is square of full rank.
    """
    a = []
    scale = 1
    for row in rows:
        den = 1
        for x in row.values():
            den = den * x.denominator // gcd(den, x.denominator)
        a.append([int(row[j] * den) if j in row else 0 for j in range(ncols)])
        scale *= den
    m = len(a)
    r = 0
    sign = 1
    prev = 1
    for col in range(ncols):
        pr = next((i for i in range(r, m) if a[i][col] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            sign = -sign
        piv = a[r][col]
        # Every row below the pivot is updated at every step: the exact
        # division by the previous pivot is only valid on rows that were
        # rescaled in the preceding step, including rows with a zero lead.
        for i in range(r + 1, m):
            lead = a[i][col]
            for j in range(col, ncols):
                a[i][j] = (piv * a[i][j] - lead * a[r][j]) // prev
        prev = piv
        r += 1
        if r == m:
            break
    if r < ncols or r < m:
        return r, Fraction(0)
    return r, Fraction(sign * prev, scale)


def rank(rows: Sequence[Sequence[Scalar]], ring: Ring) -> int:
    """Rank of a matrix given as a list of rows of ring scalars."""
    if not rows or not rows[0]:
        return 0
    a = _sparse_rows(rows, ring)
    if ring.char:
        return len(_sparse_echelon(a, ring.char)[0])
    return _bareiss(a, len(rows[0]))[0]


def nullspace(rows: Sequence[Rowlike], ring: Ring, ncols: int | None = None) -> List[List[Scalar]]:
    """Basis of the right null space {x : A x = 0}.

    Rows are dense rows of ring scalars, or {column: scalar} dicts when
    ncols is given.

    One basis vector per free column, in increasing column order, each with
    a 1 in its free coordinate and 0 in the other free coordinates, read off
    the sparse echelon by back substitution.  Over Q the mod-P certificate
    is tried first and answers [] when it proves the kernel empty.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows or ncols == 0:
        return [[ring.one() if i == j else ring.zero() for i in range(ncols)] for j in range(ncols)]
    a = _sparse_rows(rows, ring)
    p = ring.char
    if not p and _certified_empty_kernel(a, ncols):
        return []
    pivots = _sparse_echelon(a, p)[0]
    descending = sorted(pivots, reverse=True)
    zero = ring.zero()
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        x: SparseRow = {f: 1}
        for c in descending:
            if c < f:
                s = sum(y * x[j] for j, y in pivots[c].items() if j in x)
                if p:
                    s %= p
                if s:
                    x[c] = (-s) % p if p else -s
        vec = [zero] * ncols
        for j, v in x.items():
            vec[j] = Fp(v, p) if p else Fraction(v)
        out.append(vec)
    return out


def joint_kernel(basis: Sequence, maps: Sequence[Sequence[Terms]], ring: Ring) -> List[Terms]:
    """Basis of the common kernel of linear maps on the span of basis.

    maps holds, for each map, the term dicts of the images of the basis
    vectors in basis order.  Each map contributes one sparse row
    {basis index: coefficient} per target key that occurs in its images;
    each null vector comes back as a term dict on basis with its zero
    coordinates dropped.
    """
    rows: List[Dict[int, Scalar]] = []
    for images in maps:
        by_key: Dict[Hashable, Dict[int, Scalar]] = {}
        for j, img in enumerate(images):
            for q, x in img.items():
                by_key.setdefault(q, {})[j] = x
        rows.extend(by_key.values())
    return [{k: cv for k, cv in zip(basis, x) if cv} for x in nullspace(rows, ring, ncols=len(basis))]


def det(rows: Sequence[Sequence[Scalar]], ring: Ring) -> Scalar:
    """Determinant of a square matrix, exact in the given field.

    Over F_p it is the product of the sparse echelon's leads, signed by the
    permutation that takes each input row to its pivot column: a row is only
    ever changed by adding multiples of rows taken before it.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return ring.one()
    a = _sparse_rows(rows, ring)
    p = ring.char
    if not p:
        return _bareiss(a, n)[1]
    leads = _sparse_echelon(a, p)[1]
    if len(leads) < n:
        return ring.zero()
    cols = [c for _, c, _ in sorted(leads)]
    d = -1 if sum(x > y for k, x in enumerate(cols) for y in cols[k + 1:]) % 2 else 1
    for _, _, lead in leads:
        d = d * lead % p
    return Fp(d, p)


class SpanBuilder:
    """Incrementally maintained row space over a field: the sparse echelon
    fed one term dict {basis key: nonzero scalar} at a time, keys being
    mutually ordered (ints, or tuples of ints).  Each row is converted and
    checked against the ring as matrix rows are, then reduced.  add() keeps
    a nonzero remainder as a new pivot row and reports whether the span
    grew; contains() reduces a copy and stores nothing.
    """

    def __init__(self, ring: Ring):
        self._p = _field_char(ring)
        self._pivots: Dict[Hashable, SparseRow] = {}

    def contains(self, terms: Terms) -> bool:
        return _reduce(_entries(terms.items(), self._p), self._pivots, self._p) is None

    def add(self, terms: Terms) -> bool:
        row = _entries(terms.items(), self._p)
        lead = _reduce(row, self._pivots, self._p)
        if lead is not None:
            self._pivots[lead[0]] = row
        return lead is not None

    @property
    def dim(self) -> int:
        return len(self._pivots)


def lowering_closure(seeds: Sequence[tuple], max_degree: int, ring: Ring, lower: Callable) -> List[int]:
    """Graded dimensions, degrees 0..max_degree, of the span of all lowering
    words L(-k_1)...L(-k_j) applied to homogeneous seed vectors.

    seeds holds (degree, vector) pairs, and lower(k, w) applies L(-k) to a
    vector, raising its degree by k.  Each degree keeps a SpanBuilder over
    the term dicts of the vectors reaching it.  Slices are saturated degree
    by degree with the generators L(-1)..L(-max_degree); deeper words are
    reached iteratively.
    """
    spans = [SpanBuilder(ring) for _ in range(max_degree + 1)]
    slices: List[list] = [[] for _ in range(max_degree + 1)]

    def push(d: int, w) -> None:
        if w and d <= max_degree and spans[d].add(w.terms):
            slices[d].append(w)

    for d, w in seeds:
        push(d, w)
    for d in range(max_degree + 1):
        for w in slices[d]:
            for k in range(1, max_degree - d + 1):
                push(d + k, lower(k, w))
    return [b.dim for b in spans]
