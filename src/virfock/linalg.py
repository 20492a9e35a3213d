"""Exact linear algebra over Q and F_p.

rank, nullspace and det share one row echelon routine.  Over Q the forward
elimination is fraction-free (Bareiss): rows are cleared to integers and
every update divides exactly by the previous pivot, which keeps
intermediate entries polynomial-sized instead of letting gcd work dominate;
the last pivot, the row-swap sign and the clearing multipliers give the
determinant.  Over F_p a plain modular elimination is used, and the
determinant is the signed product of the pivots.  Both paths report pivot
columns so null spaces come out of one back substitution.

SpanBuilder and joint_kernel take sparse term dicts {basis key: nonzero
scalar}, the `terms` of every vector class, so callers never build
coordinate rows or pass a target basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Hashable, List, Sequence, Tuple

from .lincomb import Terms, merge
from .scalars import Fp, Ring, RingMismatchError, Scalar


def _int_rows(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[int]], int]:
    """Rows cleared of denominators, and the product of the row multipliers."""
    out = []
    scale = 1
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        out.append([int(x * den) for x in row])
        scale *= den
    return out, scale


def _echelon(rows: Sequence[Sequence[Scalar]], ring: Ring) -> Tuple[List[List[int]], List[int], Scalar]:
    """Row echelon form of a nonempty matrix of scalars of ring.

    Returns the echelon rows (integers over Q, residues in [0, p) over F_p),
    the pivot columns, and the determinant, which is zero unless the matrix
    is square of full rank.  Over Q the elimination is Bareiss: every update
    divides exactly by the previous pivot, and the last pivot is the
    determinant of the cleared rows up to the row-swap sign.
    """
    if ring.formal:
        raise RingMismatchError("linear algebra needs a field, not a polynomial ring")
    p = ring.char
    if p == 0:
        a, scale = _int_rows(rows)
    else:
        a = [[x.v for x in row] for row in rows]
    m, n = len(a), len(a[0])
    pivots: List[int] = []
    r = 0
    sign = 1
    prod = 1  # Bareiss: the last pivot; F_p: the product of the pivots
    for col in range(n):
        pr = next((i for i in range(r, m) if a[i][col] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            sign = -sign
        piv = a[r][col]
        if p == 0:
            # Every row below the pivot is updated at every step: the exact
            # division by the previous pivot is only valid on rows that were
            # rescaled in the preceding step, including rows with a zero lead.
            for i in range(r + 1, m):
                lead = a[i][col]
                for j in range(col, n):
                    a[i][j] = (piv * a[i][j] - lead * a[r][j]) // prod
            prod = piv
        else:
            prod = prod * piv % p
            inv = pow(piv, -1, p)
            a[r] = [(x * inv) % p for x in a[r]]
            for i in range(r + 1, m):
                f = a[i][col]
                if f:
                    a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    if r < n or r < m:
        d = ring.zero()
    elif p == 0:
        d = Fraction(sign * prod, scale)
    else:
        d = Fp(sign * prod, p)
    return a[:r], pivots, d


def rank(rows: Sequence[Sequence[Scalar]], ring: Ring) -> int:
    """Rank of a matrix given as a list of rows of ring scalars."""
    if not rows or not rows[0]:
        return 0
    return len(_echelon(rows, ring)[1])


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
    ech, pivots, _ = _echelon(rows, ring)
    if ring.char == 0:
        ech = [[Fraction(x) for x in row] for row in ech]
    else:
        p = ring.char
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


def joint_kernel(basis: Sequence, maps: Sequence[Sequence[Terms]], ring: Ring) -> List[Terms]:
    """Basis of the common kernel of linear maps on the span of basis.

    maps holds, for each map, the term dicts of the images of the basis
    vectors in basis order.  Each map contributes one row per target key
    that occurs in its images; each null vector comes back as a term dict
    on basis with its zero coordinates dropped.
    """
    zero = ring.zero()
    rows = []
    for images in maps:
        for q in sorted({q for img in images for q in img}, reverse=True):
            rows.append([img.get(q, zero) for img in images])
    return [{k: cv for k, cv in zip(basis, x) if cv} for x in nullspace(rows, ring, ncols=len(basis))]


def det(rows: Sequence[Sequence[Scalar]], ring: Ring) -> Scalar:
    """Determinant of a square matrix, exact in the given field."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return ring.one()
    return _echelon(rows, ring)[2]


class SpanBuilder:
    """Incrementally maintained row space over a field.

    Rows are term dicts {basis key: nonzero scalar}.  add() reduces the
    incoming row against the stored rows in insertion order and reports
    whether it enlarged the span; a new row is stored with its largest key
    as pivot, scaled to coefficient 1.  contains() is the same reduction
    without insertion.
    """

    def __init__(self, ring: Ring):
        if ring.formal:
            raise RingMismatchError("SpanBuilder needs a field, not a polynomial ring")
        self.ring = ring
        self._rows: List[Tuple[Hashable, Terms]] = []

    def _reduce(self, terms: Terms) -> Terms:
        row = dict(terms)
        for pk, pr in self._rows:
            f = row.get(pk)
            if f is not None:
                merge(row, pr, -f)
        return row

    def contains(self, terms: Terms) -> bool:
        return not self._reduce(terms)

    def add(self, terms: Terms) -> bool:
        row = self._reduce(terms)
        if not row:
            return False
        pk = max(row)
        lead = row[pk]
        self._rows.append((pk, {k: x / lead for k, x in row.items()}))
        return True

    @property
    def dim(self) -> int:
        return len(self._rows)


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
