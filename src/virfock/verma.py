"""Verma modules for the Virasoro algebra over exact coefficient rings.

The Virasoro relation used throughout:

    [L(m), L(n)] = (m - n) L(m+n) + (m^3 - m)/12 * delta_{m+n,0} * c

with the central charge c acting as a fixed ring scalar.  The Verma module
V(c, h) has the PBW basis L(-n1)...L(-nk) v indexed by partitions
(n1 >= ... >= nk >= 1); the mode action is computed by recursive
straightening (commuting positive modes to the right until they hit the
highest weight vector) and memoized per module on (mode, partition) pairs,
so singular-vector, Gram and mode-engine computations share all
straightening work.  The memo holds int polynomials in h, the canonical
entries (den, {partition: int tuple}) of `scalars` (1-tuples over a base
field, den 1 with residues over F_p), and each straightening step is one
bucket sum of them (`add_products`, `normalized_sum`).  `act` applies a
mode to a vector held as such an entry (`add_image`), so that modes
compose with no scalar built; `apply_mode` encodes its vector once, runs
`act` and decodes the image once (`entry_values`).  The memo entries over a field are the
numerator pairs (den, {partition: int}), once their 1-tuples are
unwrapped, that `linalg.joint_kernel` takes.
Gram slices are cached per module, each degree once.  Over a field a
GramMatrix holds `rows`: the echelon of int rows whose kernel is the
radical of the form, one per unit of rank, built from the rows of degrees
n - 1 and n - 2 and the memo entries of L(1) and L(2) (see `singular` for
why that suffices).  Its rank is their count, and `linalg.nullspace` takes
them as they are.  The full matrix `num`, integer rows over one common
denominator over Q and residues over F_p (Poly entries over a formal
ring), is built from the memo by the adjointness recurrence over degrees
only when it is read, once per slice; its Fraction, Fp or Poly entries are
a view built when read (`field_value`).

Every computation here is pure: vectors are immutable maps from partitions
to scalars, and independent degrees may be processed in any order.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .lincomb import LinComb, merge
from .linalg import row_basis
from .scalars import (
    QQ,
    ZERO_ENTRY,
    Buckets,
    Entry,
    Ring,
    RingMismatchError,
    Scalar,
    add_image,
    add_products,
    central_coeff,
    entry_values,
    field_value,
    normalized_sum,
    numerators,
    poly_numerators,
    scalar_from_json,
    scalar_to_json,
)

Partition = Tuple[int, ...]


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None) -> Tuple[Partition, ...]:
    """All partitions of n with parts bounded by max_part, in descending
    lexicographic order on part lists: (n) first, (1,...,1) last."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    if max_part is None or max_part > n:
        max_part = n
    out: List[Partition] = []
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def verma_dim(n: int) -> int:
    """Graded dimension of any Verma module slice, the partition count p(n)."""
    return len(partitions(n))


class VermaVector(LinComb):
    """Finite linear combination of PBW basis monomials.

    terms maps partitions to nonzero scalars.  The empty partition () is the
    highest weight vector v itself.
    """

    __slots__ = ()

    @classmethod
    def zero(cls) -> "VermaVector":
        return cls({})

    def degree(self) -> int | None:
        """Common degree of all monomials, or None for zero or mixed vectors."""
        return self._common(sum)

    def is_homogeneous(self) -> bool:
        return len({sum(p) for p in self.terms}) <= 1

    def leading_partition(self) -> Partition:
        """Lexicographically largest partition carrying a nonzero coefficient."""
        return self._leading_key()

    def to_json(self) -> list:
        return [
            {"partition": list(p), "coeff": scalar_to_json(cv)}
            for p, cv in self.items()
        ]

    @classmethod
    def from_json(cls, data: list, ring: Ring) -> "VermaVector":
        out: Dict[Partition, Scalar] = {}
        for entry in data:
            p = tuple(int(x) for x in entry["partition"])
            if any(x < 1 for x in p) or list(p) != sorted(p, reverse=True):
                raise ValueError(f"not a partition: {p}")
            merge(out, {p: scalar_from_json(entry["coeff"], ring)})
        return cls(out)

    def __repr__(self):
        if not self.terms:
            return "VermaVector(0)"
        bits = []
        for p, cv in self.items():
            mono = "".join(f"L(-{n})" for n in p) + "v"
            bits.append(f"({cv!r})*{mono}")
        return " + ".join(bits)


class ModuleParams(NamedTuple):
    """Central charge, highest weight, and coefficient ring of a Verma module."""

    c: Scalar
    h: Scalar
    ring: Ring


class GramMatrix:
    """Contravariant form on one degree slice.

    entries[i][j] = <L(-basis[i]) v, L(-basis[j]) v>, where the form is the
    unique symmetric bilinear form with <v, v> = 1 for which L(n) and L(-n)
    are adjoint.

    Over a field the slice is held as rows: int rows {column: int} over the
    basis, in echelon form (`linalg.row_basis`), whose kernel is the
    radical of the form on this slice.  There are rank of them, against
    len(basis) rows of the full matrix, and they span its row space.  They
    are built from the rows of degrees n - 1 and n - 2 (see
    VermaModule.gram_matrix).  rank and in_radical read them; nullspace
    takes them as they are.  Over a formal ring rows is None.

    The full matrix is built only when num, den or entries is read, once per
    slice, by the adjointness recurrence (VermaModule._gram_from_lower).
    Its values are G = num / den, in the canonical form of Poly: over Q, num
    holds integer rows over one positive common denominator den that shares
    no factor with all of them; over F_p, residues in [0, p) with den 1;
    over a formal ring, the Poly entries themselves with den 1.  An all-zero
    matrix has den 1.  entries builds the Fraction, Fp or Poly values from
    num when it is read.

    A GramMatrix is immutable.  Two are equal when their degree, basis, rows
    and ring are; the module that builds num is not compared.
    """

    def __init__(
        self,
        degree: int,
        basis: Tuple[Partition, ...],
        rows: Optional[Tuple[Dict[int, int], ...]],
        ring: Ring,
        module: "VermaModule",
    ):
        self.__dict__.update(degree=degree, basis=basis, rows=rows, ring=ring, module=module)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable GramMatrix")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.degree, self.basis, self.rows, self.ring) == (other.degree, other.basis, other.rows, other.ring)

    def __repr__(self):
        return f"GramMatrix(degree={self.degree!r}, basis={self.basis!r}, rows={self.rows!r}, ring={self.ring!r})"

    @cached_property
    def _values(self) -> Tuple[Tuple[tuple, ...], int]:
        return self.module._gram_from_lower(self.degree)

    @property
    def num(self) -> Tuple[tuple, ...]:
        return self._values[0]

    @property
    def den(self) -> int:
        return self._values[1]

    @property
    def entries(self) -> Tuple[Tuple[Scalar, ...], ...]:
        if self.ring.formal:
            return self.num
        p = self.ring.char
        return tuple(tuple(field_value(v, self.den, p) for v in row) for row in self.num)

    @property
    def rank(self) -> int:
        """Rank of the form on this slice; RingMismatchError over a formal
        ring."""
        if self.rows is None:
            raise RingMismatchError("a Gram rank needs a field, not a polynomial ring")
        return len(self.rows)

    def in_radical(self, vec: VermaVector) -> bool:
        """True when vec, a vector of this degree, pairs to zero with every
        basis monomial, i.e. lies in the radical of the form.  Raises
        ValueError when vec has a term of another degree, and
        RingMismatchError when a coefficient of vec is not in the ring."""
        support = [(j, vec.terms[p]) for j, p in enumerate(self.basis) if p in vec.terms]
        if len(support) != len(vec.terms):
            raise ValueError(f"vector has terms outside degree {self.degree}")
        xs = numerators(support, self.ring)[1].items()
        if self.ring.formal:
            return not any(sum([row[j] * x for j, x in xs]) for row in self.num)
        p = self.ring.char
        sums = (sum([row[j] * x for j, x in xs if j in row]) for row in self.rows)
        return not any(s % p if p else s for s in sums)


class VermaModule:
    """A Verma module V(c, h) with a memoized straightening action."""

    def __init__(self, c, h, ring: Ring = QQ):
        self.ring = ring
        self.c = ring.coerce(c)
        self.h = ring.coerce(h)
        self._one = ring.one()
        self._h = poly_numerators([((), self.h)], ring)
        self._memo: Dict[Tuple[int, Partition], Entry] = {}
        self._gram: Dict[int, GramMatrix] = {}

    @property
    def params(self) -> ModuleParams:
        return ModuleParams(self.c, self.h, self.ring)

    def vacuum(self) -> VermaVector:
        return VermaVector({(): self._one})

    def monomial(self, parts: Iterable[int]) -> VermaVector:
        p = tuple(parts)
        if any(x < 1 for x in p) or list(p) != sorted(p, reverse=True):
            raise ValueError(f"not a partition: {p}")
        return VermaVector({p: self._one})

    def from_terms(self, pairs: Iterable[Tuple[Sequence[int], Scalar]]) -> VermaVector:
        acc = VermaVector.zero()
        for parts, cv in pairs:
            acc = acc + self.monomial(parts).scale(self.ring.coerce(cv))
        return acc

    def basis(self, degree: int) -> Tuple[Partition, ...]:
        return partitions(degree)

    # straightening core

    def _act(self, n: int, parts: Partition) -> Entry:
        """Action of L(n) on a basis monomial, as a canonical entry (den,
        {partition: int tuple}) of the int form in `scalars`."""
        key = (n, parts)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if not parts:
            if n > 0:
                out = ZERO_ENTRY
            elif n == 0:
                out = self._h
            else:
                out = (1, {(-n,): (1,)})
        elif n <= -parts[0]:
            out = (1, {(-n,) + parts: (1,)})
        else:
            m1 = parts[0]
            tail = parts[1:]
            ring = self.ring
            p = ring.char
            # L(n) L(-m1) = L(-m1) L(n) + (n+m1) L(n-m1) + delta_{n,m1} cc(n) c
            # summed in buckets keyed by denominator.  The first term puts
            # L(-m1) in front where the order allows and restraightens the
            # rest.
            d, terms = self._act(n, tail)
            front = {(m1,) + q: list(a) for q, a in terms.items() if not q or m1 >= q[0]}
            buckets: Buckets = {d: front} if front else {}
            for q, a in terms.items():
                if q and m1 < q[0]:
                    d2, image = self._act(-m1, q)
                    if image:
                        add_products(buckets.setdefault(d * d2, {}), a, image)
            k = (n + m1) % p if p else n + m1
            if k:
                d2, image = self._act(n - m1, tail)
                if image:
                    add_products(buckets.setdefault(d2, {}), (k,), image)
            if n == m1:
                dz, z = poly_numerators([(tail, central_coeff(n, ring) * self.c)], ring)
                if z:
                    add_products(buckets.setdefault(dz, {}), (1,), z)
            out = normalized_sum(buckets, p)
        self._memo[key] = out
        return out

    def act(self, n: int, entry: Entry) -> Entry:
        """L(n) applied to a vector given as a canonical entry (den,
        {partition: int tuple}), as a canonical entry: one bucket sum of
        the memo entries of its monomials."""
        buckets: Buckets = {}
        add_image(buckets, entry, self._act, n)
        return normalized_sum(buckets, self.ring.char)

    def apply_mode(self, n: int, vec: VermaVector) -> VermaVector:
        """L(n) applied to a vector.  Degree m maps to degree m - n."""
        ring = self.ring
        return VermaVector(entry_values(self.act(n, poly_numerators(vec.terms.items(), ring)), ring))

    def apply_word(self, modes: Sequence[int], vec: VermaVector) -> VermaVector:
        """Apply the operator product L(modes[0]) L(modes[1]) ... , i.e. the
        last listed mode acts first."""
        for n in reversed(list(modes)):
            vec = self.apply_mode(n, vec)
        return vec

    def gram_matrix(self, degree: int) -> GramMatrix:
        """Contravariant form on one degree slice, as a GramMatrix.

        Over a field the slice's rows are the echelon of the rows of degree
        n - 1 composed with L(1) and those of degree n - 2 composed with
        L(2); their kernel is the radical (proof in `singular`).  Degrees
        are filled bottom-up, so every lower slice is cached too; num, den
        and entries are built when read (see GramMatrix).
        """
        ring = self.ring
        if degree < 0:
            return GramMatrix(degree, (), None if ring.formal else (), ring, self)
        for n in range(len(self._gram), degree + 1):
            rows = None if ring.formal else self._form_rows(n)
            self._gram[n] = GramMatrix(n, partitions(n), rows, ring, self)
        return self._gram[degree]

    def _form_rows(self, n: int) -> Tuple[Dict[int, int], ...]:
        """Echelon rows of the degree-n form over a field, whose kernel is
        its radical: the rows f o L(k) for f in the rows of degree n - k,
        k = 1, 2, reduced by `linalg.row_basis`; F_0 is [{0: 1}].  Row
        f o L(k) reads the memo entries L(k) L(-mu) v of the basis
        monomials mu.  Over Q every column of one map is scaled to the lcm
        of the map's denominators: that scales each composed row as a whole
        and keeps its kernel, where scaling columns one by one would not."""
        if not n:
            return ({0: 1},)
        basis = partitions(n)
        composed = []
        for k in (1, 2):
            if k > n:
                break
            lower = self._gram[n - k]
            index = {nu: i for i, nu in enumerate(lower.basis)}
            images = [self._act(k, mu) for mu in basis]
            den = lcm(*(d for d, _ in images))
            # The map's matrix by rows: lower basis index -> {column: int}.
            by_row: Dict[int, Dict[int, int]] = {}
            for j, (d, image) in enumerate(images):
                for nu, v in image.items():
                    by_row.setdefault(index[nu], {})[j] = v[0] * (den // d)
            for f in lower.rows:
                acc: Dict[int, int] = {}
                for i, a in f.items():
                    for j, x in by_row.get(i, {}).items():
                        acc[j] = acc.get(j, 0) + a * x
                composed.append(acc)
        return tuple(row_basis(composed, self.ring))

    def _gram_from_lower(self, n: int) -> Tuple[Tuple[tuple, ...], int]:
        """num and den of the degree-n Gram matrix, from those of the
        slices of degree below n (see GramMatrix), built on first read.

        Built by the adjointness recurrence: for lambda = (k, lambda') the
        form moves L(-k) across as L(k), so

            G_n[lambda, mu] = sum_nu G_{n-k}[lambda', nu] [L(k) L(-mu) v]_nu.

        Each column mu takes one straightening L(k) L(-mu) v per first part
        k, and each entry is a short dot product with the lower slice's row
        lambda', num / den, and the column's memo entry, its numerators
        over its own denominator d (decoded to Poly values over a formal
        ring).  Every column is rescaled to one slice denominator, the lcm
        of the products den * d, so each entry is one int dot product:
        reduced mod p over F_p, and over Q the content shared by that
        denominator and all entries is divided out at the end.  Over a
        formal ring every denominator is 1.  No symmetry shortcut is taken;
        the test suite checks symmetry, and the entrywise definition,
        independently.
        """
        basis = partitions(n)
        ring = self.ring
        if not n:
            return ((ring.one() if ring.formal else 1,),), 1
        # Rows with first part k form one contiguous block of the basis.
        blocks = []
        den = 1
        for k in range(n, 0, -1):
            lower = self._gram[n - k]
            index = {nu: j for j, nu in enumerate(lower.basis)}
            cols = []
            for mu in basis:
                d, nums = self._act(k, mu)
                if ring.formal:
                    d, col = 1, [(index[nu], x) for nu, x in entry_values((d, nums), ring).items()]
                else:
                    col = [(index[nu], v[0]) for nu, v in nums.items()]
                cols.append((d * lower.den, col))
                den = lcm(den, d * lower.den)
            blocks.append((k, lower, index, cols))
        zero = ring.zero() if ring.formal else 0
        p = 0 if ring.formal else ring.char
        rows = []
        for k, lower, index, cols in blocks:
            cols = [col if d == den else [(j, x * (den // d)) for j, x in col] for d, col in cols]
            for rest in partitions(n - k, k):
                low = lower.num[index[rest]]
                dots = [sum([low[j] * x for j, x in col], zero) for col in cols]
                rows.append(tuple([x % p for x in dots]) if p else tuple(dots))
        if ring.formal or p:
            return tuple(rows), 1
        g = den
        for row in rows:
            if g == 1:
                break
            g = gcd(g, *row)
        if g != 1:
            rows = [tuple([x // g for x in row]) for row in rows]
        return tuple(rows), den // g

    def project_vacuum_module(self, vec: VermaVector) -> VermaVector:
        """Image in the quotient by the submodule generated by L(-1) v.

        When h = 0 that submodule is spanned degreewise by the monomials whose
        partition contains a part 1, so the quotient is realized by dropping
        those monomials.  Only meaningful for h = 0.
        """
        if self.h:
            raise ValueError("vacuum quotient is only defined at h = 0")
        return VermaVector({p: cv for p, cv in vec.terms.items() if 1 not in p})


_module_cache: Dict[ModuleParams, VermaModule] = {}


def verma_module(c, h, ring: Ring = QQ) -> VermaModule:
    """Shared VermaModule instances keyed by (c, h, ring), so straightening
    memoization accumulates across callers."""
    key = ModuleParams(ring.coerce(c), ring.coerce(h), ring)
    mod = _module_cache.get(key)
    if mod is None:
        mod = VermaModule(key.c, key.h, ring)
        _module_cache[key] = mod
    return mod


def _as_module(module) -> VermaModule:
    """module itself; TypeError unless it is a VermaModule."""
    if isinstance(module, VermaModule):
        return module
    raise TypeError(f"expected a VermaModule, got {module!r}")
