"""Exact linear algebra over Q and F_p.

row_basis, rank and nullspace take int rows, dense int sequences or
{column: int} dicts: over Q integer numerators, over F_p any ints, reduced
mod p.  Scaling a row by a nonzero rational changes neither the rank nor
the kernel, so a row of rationals is passed times a common denominator and
no denominator is needed; a Gram slice's `rows` are such a matrix
already.  row_basis gives the echelon's pivot rows as
{column: int} dicts: int rows again, with the same row space, so one
echelon gives a slice's rank (their count) and its kernel (nullspace).
A formal ring, checked first, or a non-int entry raises
RingMismatchError.  det and SpanBuilder take scalars, turned into int
rows through the codec in `scalars`, whose `numerators` also rejects
scalars of another ring: a determinant changes when a row is scaled, and
SpanBuilder's callers hold scalar term dicts.  Scalars are built, by
`field_value`, only where a result is returned: nullspace's vectors,
det's quotient and SpanBuilder's basis.

There is one sparse reduction loop, `_reduce`, the same over both fields.
A row is reduced against the pivot rows by its smallest key until it is
zero or its smallest key has no pivot row yet; it then becomes that key's
pivot row, stored as (lead, rest): scaled to lead 1 over F_p, divided by
its content over Q with the lead made positive.  Clearing a key against a
pivot row with lead a never divides: the row is first multiplied by
a / gcd(a, f).  The sparse echelon feeds the loop matrix rows in
descending order of their smallest column, SpanBuilder feeds it term dicts
one at a time.  The echelon's pivot columns are the RREF pivot columns,
which depend only on the row space, so the free columns and the kernel
basis with unit free coordinates do not depend on the row order.
row_basis, rank, nullspace and det all run it, the same echelon over Q
and F_p: the kernel is empty exactly when every column has a pivot.

Rows that reduce to zero cost a full echelon almost all its time, so
nullspace verifies rather than reduces them.  Its echelon gives each row
a budget of _STEPS pivot-row subtractions, and defers a row that runs out
instead of reducing it further.  Back substitution in the pivot rows gives
a candidate kernel K0, kept over Q as ints over one denominator; each
deferred row is multiplied into K0, and K0 is the kernel when every such
residual is 0.  Otherwise the kernel is K0 times the kernel of the
residual matrix, found by the same routine.  The basis is exactly the one
a full echelon gives (see nullspace); row_basis, det and SpanBuilder reduce
every row fully.

joint_kernel takes each image of a basis vector as the canonical entry
(den, {target key: (int,)}) that the Verma and Fock memos hold over a
field, makes each target key one int row over the lcm of that row's own
denominators, and gives the kernel as term dicts {basis key: nonzero
scalar}; SpanBuilder and lowering_closure take and give term dicts, the
`terms` of every vector class.  So linalg never handles a vector class and
callers never build coordinate rows.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from .lincomb import Terms
from .scalars import Entry, Ring, RingMismatchError, Scalar, field_value, numerators

SparseRow = Dict[Hashable, int]  # {column or basis key: nonzero int entry}
Pivots = Dict[Hashable, Tuple[int, SparseRow]]  # {pivot key: (lead, rest of the row)}
IntRow = Union[Sequence[int], Dict[int, int]]  # a dense int row, or {column: int}
IntVector = Tuple[int, Dict[Hashable, int]]  # (den, {key: int}): the vector {key: int / den}; den is 1 over F_p

# Pivot rows a row may subtract in nullspace's echelon before it is deferred
# to the kernel check; row_basis, det and SpanBuilder reduce every row fully.
_STEPS = 48
# _reduce's result for a row that ran out of steps.
_DEFERRED = object()


def _field_char(ring: Ring) -> int:
    """ring's characteristic; RingMismatchError unless ring is a field."""
    if ring.formal:
        raise RingMismatchError("linear algebra needs a field, not a polynomial ring")
    return ring.char


def _int_row(row: IntRow, p: int) -> SparseRow:
    """An int row, dense or {column: int}, as a {column: int} dict without
    zero entries, reduced mod p over F_p, in one pass; RingMismatchError
    for any entry that is not an int."""
    out = {}
    for j, x in row.items() if isinstance(row, dict) else enumerate(row):
        if not isinstance(x, int):
            raise RingMismatchError(f"{x!r} is not an int row entry")
        x = x % p if p else x
        if x:
            out[j] = x
    return out


def _reduce(
    row: SparseRow, pivots: Pivots, p: int, steps: Optional[int] = None
) -> Union[None, Tuple[Hashable, int, int], object]:
    """Reduce row in place by the pivot rows, smallest key first, without
    dividing.  Returns None if it reduces to zero, else (c, f, m): c is the
    first key with no pivot row, and m times the input row, plus multiples
    of pivot rows, has entry f at c and the rest left in row, c popped.
    Pivot rows hold only keys above their own, so eliminating a key only
    brings in larger ones.  Over F_p every pivot lead is 1, so m is 1.

    With steps given, the row may subtract at most that many pivot rows:
    when its next key has a pivot row and no steps are left, it returns
    _DEFERRED and leaves row partly reduced.
    """
    # The row's keys, smallest first; a key that cancelled stays in the heap
    # and is skipped when it comes up.
    heap = list(row)
    heapify(heap)
    m = 1
    while heap:
        c = heappop(heap)
        f = row.pop(c, None)
        if f is None:
            continue
        pivot = pivots.get(c)
        if pivot is None:
            return c, f, m
        if steps is not None:
            if not steps:
                return _DEFERRED
            steps -= 1
        a, tail = pivot
        if a != 1:
            g = gcd(a, f)
            k, f = a // g, f // g
            if k != 1:
                for j in row:
                    row[j] *= k
                m *= k
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


def _add_pivot(pivots: Pivots, c: Hashable, f: int, row: SparseRow, p: int) -> None:
    """Store row, reduced to entry f at c with c popped, as c's pivot row:
    scaled to lead 1 over F_p, divided by its content over Q with the sign
    that makes the lead positive, so that a lead of 1 needs no scaling in
    _reduce."""
    if p:
        inv = pow(f, -1, p)
        for j in row:
            row[j] = row[j] * inv % p
        pivots[c] = (1, row)
        return
    g = gcd(f, *row.values())
    if f < 0:
        g = -g
    if g != 1:
        for j in row:
            row[j] //= g
    pivots[c] = (f // g, row)


def _sparse_echelon(
    rows: List[SparseRow], p: int, deferred: Optional[List[int]] = None
) -> Tuple[Pivots, List[Tuple[int, int, int, int]]]:
    """Row echelon form of sparse int rows over F_p (p > 0) or Q (p = 0);
    the rows are consumed.

    Returns the pivot rows keyed by pivot column, and per pivot, in the
    order the rows were taken, (i, c, f, m): m times input row i, plus
    multiples of the pivot rows before it, has lead f in column c.

    Given a deferred list, each row may subtract at most _STEPS pivot rows;
    the index of a row that runs out is appended to deferred, and the row
    becomes no pivot row.
    """
    steps = None if deferred is None else _STEPS
    pivots: Pivots = {}
    leads = []
    for i in sorted((i for i, row in enumerate(rows) if row), key=lambda i: min(rows[i]), reverse=True):
        lead = _reduce(rows[i], pivots, p, steps)
        if lead is _DEFERRED:
            deferred.append(i)
        elif lead is not None:
            _add_pivot(pivots, lead[0], lead[1], rows[i], p)
            leads.append((i, *lead))
    return pivots, leads


def row_basis(rows: Sequence[IntRow], ring: Ring) -> List[SparseRow]:
    """The sparse echelon's pivot rows of a matrix given as int rows, dense
    or {column: int}: integer numerators over Q, any ints over F_p.  Each
    comes back as a {column: int} dict, its pivot column first, in the
    order the rows became pivot rows.  They span the row space of rows, so
    they have its rank and its kernel, and they are int rows again."""
    p = _field_char(ring)
    pivots = _sparse_echelon([_int_row(row, p) for row in rows], p)[0]
    return [{c: a, **rest} for c, (a, rest) in pivots.items()]


def rank(rows: Sequence[IntRow], ring: Ring) -> int:
    """Rank of a matrix given as int rows, as row_basis takes them."""
    return len(row_basis(rows, ring))


def _back_substitute(pivots: Pivots, ncols: int, p: int) -> List[IntVector]:
    """The kernel basis of the pivot rows, one vector per free column f in
    increasing order, with x_f = 1, 0 in the other free columns, and
    x_c = -sum_j y_j x_j / a for the pivot row (a, {j: y_j}) of each pivot
    column c < f; x_c = 0 for c > f, so f is the vector's largest key.
    Over Q the vector is kept as ints over one denominator, which grows by
    a / gcd(a, s) whenever a pivot lead a does not divide the sum s."""
    descending = sorted(pivots, reverse=True)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = {f: 1}
        den = 1
        for c in descending:
            if c < f:
                lead, tail = pivots[c]
                s = sum(y * x[j] for j, y in tail.items() if j in x)
                if p:
                    s %= p
                if not s:
                    continue
                if lead != 1:
                    g = gcd(s, lead)
                    k, s = lead // g, s // g
                    if k != 1:
                        for j in x:
                            x[j] *= k
                        den *= k
                x[c] = -s % p if p else -s
        out.append((den, x))
    return out


def _kernel(rows: List[SparseRow], ncols: int, p: int) -> List[IntVector]:
    """nullspace on sparse int rows, which are left unchanged: the basis
    vectors as (den, {column: numerator}).  See nullspace."""
    deferred: List[int] = []
    pivots = _sparse_echelon([dict(row) for row in rows], p, deferred)[0]
    basis = _back_substitute(pivots, ncols, p)
    # The transpose of K0's numerators N_k, so that a residual row D.N
    # touches only the columns a deferred row shares with K0.
    by_col: Dict[int, List[Tuple[int, int]]] = {}
    for k, (_, x) in enumerate(basis):
        for j, v in x.items():
            by_col.setdefault(j, []).append((k, v))
    residuals = []
    for i in deferred:
        r: Dict[int, int] = {}
        for j, d in rows[i].items():
            for k, v in by_col.get(j, ()):
                r[k] = r.get(k, 0) + d * v
        r = _int_row(r, p)
        if r:
            residuals.append(r)
    if not residuals:
        return basis
    # With x_k = y_k N_k / den_k, D.x = 0 reads sum_k (y_k / den_k) D.N_k = 0:
    # z = (y_k / den_k) is a kernel vector of the residual rows D.N.  The
    # free columns and the largest key of every vector carry over from z
    # to x = sum_k z_k N_k, whose free coordinate at z's free column g is
    # z_g den_g, so that (sum_k z_k N_k) / den_g has unit free coordinates.
    out = []
    for dz, z in _kernel(residuals, len(basis), p):
        g = max(z)
        acc: Dict[int, int] = {}
        for k, w in z.items():
            for j, v in basis[k][1].items():
                acc[j] = acc.get(j, 0) + w * v
        out.append((dz * basis[g][0], _int_row(acc, p)))
    return out


def nullspace(rows: Sequence[IntRow], ring: Ring, ncols: int | None = None) -> List[List[Scalar]]:
    """Basis of the right null space {x : A x = 0}, as Fraction or Fp
    vectors.

    Rows are int rows, as rank takes them: dense, or {column: int} dicts
    when ncols is given.  With no rows every column is free.

    One basis vector per free column, in increasing column order, each with
    a 1 in its free coordinate and 0 in the other free coordinates.  Q and
    F_p run the same steps; the basis is empty when every column has a
    pivot.

    Most of a full echelon's time goes into rows that reduce to zero, so
    each row, taken in the echelon's order, may subtract at most _STEPS
    pivot rows; a row that runs out is deferred.  Back substitution in the
    pivot rows P gives K0, one vector per free column of P.  The deferred
    rows D, as given, are then checked against K0: if D.K0 = 0, K0 is the
    kernel; otherwise the kernel is K0 . ker(D.K0), from this same routine
    on the residual matrix with columns in K0's order, which has fewer
    columns than A because P has at least one pivot (the first nonzero
    row needs no steps).  Over any field
    ker A = {x in ker P : D x = 0} = K0 . ker(D.K0).

    The basis equals the one a full echelon of A gives: a vector of K0 or
    of ker(D.K0) has its free column as its largest key, so the free
    columns of A are the columns of K0 picked by the free columns of
    D.K0, and a basis with unit free coordinates is unique.
    """
    p = _field_char(ring)
    sparse = [_int_row(row, p) for row in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    zero = ring.zero()
    return [[field_value(x[j], den, p) if j in x else zero for j in range(ncols)] for den, x in _kernel(sparse, ncols, p)]


def joint_kernel(basis: Sequence, maps: Sequence[Sequence[Entry]], ring: Ring) -> List[Terms]:
    """Basis of the common kernel of linear maps on the span of basis.

    maps holds, for each map, the images of the basis vectors in basis
    order, each a canonical entry (den, {target key: (int,)}) of the int
    form in `scalars`, as the Verma and Fock memos hold them over a field:
    the image {q: x / den}, den 1 over F_p.  Each target key of a map gives
    one int row {basis index: numerator}, scaled by the lcm of that row's
    own denominators; a row scaled by a nonzero int keeps its kernel.  A
    formal ring raises RingMismatchError before any entry is read.  Each
    null vector comes back as a term dict on basis with its zero
    coordinates dropped.
    """
    _field_char(ring)
    rows: List[SparseRow] = []
    for images in maps:
        by_key: Dict[Hashable, Dict[int, Tuple[int, int]]] = {}
        for j, (d, img) in enumerate(images):
            for q, (x,) in img.items():
                by_key.setdefault(q, {})[j] = d, x
        for row in by_key.values():
            den = lcm(*(d for d, _ in row.values()))
            rows.append({j: x * (den // d) for j, (d, x) in row.items()})
    return [{k: v for k, v in zip(basis, y) if v} for y in nullspace(rows, ring, ncols=len(basis))]


def det(rows: Sequence[Sequence[Scalar]], ring: Ring) -> Scalar:
    """Determinant of a square matrix, exact in the given field.

    Each row is first multiplied by its den to make it an int row.  The
    sparse echelon's unnormalized leads f and row multipliers m then give
    det = sign * prod(f) / (prod(m) * prod(den)), signed by the permutation
    that takes each input row to its pivot column: a row is only ever
    scaled by its own m and changed by adding multiples of rows taken
    before it.
    """
    p = _field_char(ring)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return ring.one()
    scaled = [numerators(enumerate(row), ring) for row in rows]
    leads = _sparse_echelon([row for _, row in scaled], p)[1]
    if len(leads) < n:
        return ring.zero()
    cols = [c for _, c, _, _ in sorted(leads)]
    num = -1 if sum(x > y for k, x in enumerate(cols) for y in cols[k + 1:]) % 2 else 1
    den = prod(d for d, _ in scaled)
    for _, _, f, m in leads:
        num *= f
        den *= m
    return field_value(num, den, p)


class SpanBuilder:
    """Incrementally maintained row space over a field: the sparse echelon
    fed one term dict {basis key: nonzero scalar} at a time, keys being
    mutually ordered (ints, or tuples of ints).  Each row is converted to
    ints and checked against the ring as matrix rows are, then reduced.
    add() keeps a nonzero remainder as a new pivot row and reports whether
    the span grew; contains() reduces a copy and stores nothing; basis()
    gives the pivot rows, in the order added, with Fraction or Fp scalars.
    """

    def __init__(self, ring: Ring):
        self._ring = ring
        self._p = _field_char(ring)
        self._pivots: Pivots = {}

    def contains(self, terms: Terms) -> bool:
        return _reduce(numerators(terms.items(), self._ring)[1], self._pivots, self._p) is None

    def add(self, terms: Terms) -> bool:
        row = numerators(terms.items(), self._ring)[1]
        lead = _reduce(row, self._pivots, self._p)
        if lead is not None:
            _add_pivot(self._pivots, lead[0], lead[1], row, self._p)
        return lead is not None

    def basis(self) -> List[Terms]:
        p = self._p
        return [{j: field_value(y, 1, p) for j, y in ((c, a), *rest.items())} for c, (a, rest) in self._pivots.items()]

    @property
    def dim(self) -> int:
        return len(self._pivots)


def lowering_closure(seeds: Sequence[Tuple[int, Terms]], max_degree: int, ring: Ring, lower: Callable) -> List[int]:
    """Graded dimensions, degrees 0..max_degree, of the span S of all
    lowering words L(-k_1)...L(-k_j) applied to homogeneous seeds, given as
    (degree, term dict) pairs; lower(k, terms) applies L(-k) to a term dict.

    Outside characteristic 2, L(-1) and L(-2) generate every L(-n), as
    [L(-1), L(-n+1)] = (n-2) L(-n), [L(-2), L(-n+2)] = (n-4) L(-n), and
    n-2, n-4 are not both 0 mod an odd p.  So S_d = seeds_d + L(-1) S_{d-1}
    + L(-2) S_{d-2}: each finished slice's SpanBuilder basis is lowered once
    by L(-1) and once by L(-2).
    """
    spans = [SpanBuilder(ring) for _ in range(max_degree + 1)]
    for d, terms in seeds:
        if d <= max_degree:
            spans[d].add(terms)
    for d, span in enumerate(spans):
        for row in span.basis():
            for k in (1, 2):
                if d + k <= max_degree:
                    spans[d + k].add(lower(k, row))
    return [b.dim for b in spans]
