"""Free-fermion Fock spaces with their Virasoro action, in both sectors.

The one-fermion space has modes a(m) obeying {a(m), a(n)} = delta_{m+n,0},
with a(0)^2 = 1/2 in the integer-moded sector.  Two sectors are supported:

* "NS": modes in Z + 1/2; basis monomials a(-n_1)...a(-n_k) with
  n_1 > ... > n_k >= 1/2.
* "R": modes in Z; basis monomials with n_1 > ... > n_k >= 0, so a(0)
  appears at most once and always last.

Half-integers are stored doubled: a monomial is a strictly decreasing tuple
of doubled magnitudes (odd positive for NS, even nonnegative for R).  The
sign convention is fixed once: inserting or removing a factor counts the
transpositions needed to bring it in from the left.

The Virasoro operators are the normal-ordered quadratics

    L(n) = 1/2 * sum_j j :a(-j) a(n+j):   (+ 1/16 on L(0) in the R sector)

with normal ordering placing the larger mode index on the right; they
realize central charge 1/2.  Collecting the two terms of each pair of modes
gives the direct rule used to compute them,

    L(n) = sum_{x < y, x + y = n} (y - x)/2 * a(x) a(y),

applied on doubled integer modes.  On a monomial only the pairs whose
a(y) is an annihilator present in it, or (n < 0) a creation pair
x < y <= 0, can act.  The image of a monomial is memoized per (sector,
char, n, monomial) as a canonical entry (den, {monomial: (int,)}) of the
int form in `scalars`: over Q ints over a divisor of 16, the rule's only
denominator ((y - x)/4 per pair, a(0)^2 = 1/2, the 1/16 of L(0)), over
F_p residues over 1.  `virasoro_act` extends the memo to a vector held as
such an entry by the bucket sum the Verma and mode layers use
(`add_image`); `apply_virasoro_fock` encodes its vector once, runs it and
decodes once, and `fock_hw_vectors` hands the memo entries of L(1) and
L(2) to the joint kernel as they are.

The grading used for dimension counts is the sector-adjusted degree
floor(w2/2) of a monomial of doubled weight w2, in both sectors.  An NS
monomial's parity is w2 mod 2, since each factor has odd doubled weight;
slice_weight2 gives the weight of each slice.  The fermion action is one
rule for every mode: a factor moves to or from position i at sign (-1)^i,
and a(0) contracted with itself gives a(0)^2 = 1/2.  The rule states each
factor in halves, as an int f for the scalar f/2, so both actions stay in
ints: the image of a monomial under a(m) is memoized per (char, m,
monomial) as a canonical entry, f over 2 over Q and f times the inverse
of 2 over F_p, and `fermion_act` extends it to an entry by the same bucket
sum.  `apply_fermion` encodes, acts and decodes as `apply_virasoro_fock`
does; sigma and fock_form return ring scalars.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from .lincomb import LinComb, merge, reduce_terms_mod_p
from .scalars import (
    GF, QQ, ZERO_ENTRY, Buckets, Entry, Ring, Scalar,
    add_image, entry_values, normalized_sum, poly_numerators, scalar_from_json, scalar_to_json,
)

FockMonomial = Tuple[int, ...]

NS = "NS"
RAMOND = "R"

_SECTORS = (NS, RAMOND)

# Parity of a sector's doubled modes: NS modes are odd halves, R modes integers.
MODE_PARITY = {NS: 1, RAMOND: 0}


def _dbl(x) -> int:
    """Doubled value of an integer or half-integer mode."""
    if isinstance(x, int):
        return 2 * x
    d = Fraction(x) * 2
    if d.denominator != 1:
        raise ValueError(f"mode {x} is not a half-integer")
    return int(d)


def _check_sector(sector: str) -> str:
    if sector not in _SECTORS:
        raise ValueError(f'sector must be "NS" or "R", got {sector!r}')
    return sector


def _mode_in_sector(m2: int, sector: str) -> bool:
    return m2 % 2 == MODE_PARITY[sector]


def slice_weight2(sector: str, parity: int, degree: int) -> int:
    """Doubled weight of the sector/parity slice in sector-adjusted degree
    `degree`: 2*degree + 1 for odd NS, 2*degree otherwise."""
    mode_parity = MODE_PARITY[_check_sector(sector)]
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    return 2 * degree + parity * mode_parity


def mode_str(m2: int) -> str:
    """Render a doubled mode value: integers plainly, halves as 'n/2'."""
    if m2 % 2 == 0:
        return str(m2 // 2)
    return f"{m2}/2"


def monomial_str(t: FockMonomial) -> str:
    if not t:
        return "1"
    return "".join("a(0)" if n2 == 0 else f"a(-{mode_str(n2)})" for n2 in t)


def _valid_monomial(t: FockMonomial, sector: str) -> bool:
    mode_parity = MODE_PARITY[_check_sector(sector)]
    if any(t[i] <= t[i + 1] for i in range(len(t) - 1)):
        return False
    return all(n2 >= 0 and n2 % 2 == mode_parity for n2 in t)


class FockVector(LinComb):
    """Finite linear combination of Fock basis monomials in a fixed sector."""

    __slots__ = ("sector", "ring")

    def __init__(self, sector: str, ring: Ring, terms: Dict[FockMonomial, Scalar]):
        self.sector = _check_sector(sector)
        self.ring = ring
        self.terms = terms

    def _like(self, terms: Dict[FockMonomial, Scalar]) -> "FockVector":
        return FockVector(self.sector, self.ring, terms)

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.sector == other.sector

    __hash__ = LinComb.__hash__

    def __add__(self, other: "FockVector") -> "FockVector":
        if other.sector != self.sector:
            raise ValueError("cannot add vectors from different sectors")
        return super().__add__(other)

    def weight2(self) -> Optional[int]:
        """Common doubled weight, or None for zero or mixed vectors."""
        return self._common(sum)

    def parity(self) -> Optional[int]:
        """Common monomial-length parity (0 even, 1 odd), or None if mixed."""
        return self._common(lambda t: len(t) % 2)

    def adjusted_degree(self) -> int:
        """Sector-adjusted degree of a homogeneous parity-pure vector."""
        w2, par = self.weight2(), self.parity()
        if w2 is None or par is None:
            raise ValueError("adjusted degree needs a homogeneous, parity-pure vector")
        return w2 // 2

    def leading_monomial(self) -> FockMonomial:
        return self._leading_key()

    def to_json(self) -> list:
        return [
            {"sector": self.sector, "modes": list(t), "coeff": scalar_to_json(cv)}
            for t, cv in self.items()
        ]

    @classmethod
    def from_json(cls, data: list, sector: str, ring: Ring) -> "FockVector":
        out: Dict[FockMonomial, Scalar] = {}
        for entry in data:
            if entry.get("sector", sector) != sector:
                raise ValueError("mixed sectors in serialized vector")
            t = tuple(int(x) for x in entry["modes"])
            if not _valid_monomial(t, sector):
                raise ValueError(f"invalid {sector} monomial {t}")
            merge(out, {t: scalar_from_json(entry["coeff"], ring)})
        return cls(sector, ring, out)

    def __repr__(self):
        if not self.terms:
            return f"FockVector({self.sector}, 0)"
        bits = [f"({cv!r})*{monomial_str(t)}" for t, cv in self.items()]
        return f"FockVector({self.sector}, " + " + ".join(bits) + ")"


def vacuum(sector: str, ring: Ring = QQ) -> FockVector:
    return FockVector(sector, ring, {(): ring.one()})


def fermion_monomial(sector: str, modes: Iterable, ring: Ring = QQ) -> FockVector:
    """Basis monomial a(m_1)...a(m_k) 1 for creation modes m_1 < ... < 0
    (given in any order as integers or half-integers; magnitudes must be
    distinct and sector-matching)."""
    t = tuple(sorted((-_dbl(m) for m in modes), reverse=True))
    if any(n2 < 0 for n2 in t):
        raise ValueError("monomial factors must be creation modes a(-n), n >= 0")
    if not _valid_monomial(t, sector):
        raise ValueError(f"invalid {sector} monomial {t}")
    return FockVector(sector, ring, {t: ring.one()})


def _ends_in_zero_mode(t: FockMonomial) -> bool:
    """True when t holds a(0), which sorts last in a monomial."""
    return bool(t) and t[-1] == 0


def _apply_fermion_term(m2: int, t: FockMonomial):
    """a(m2/2) on one monomial: (new monomial, f) for the factor f/2, or None.

    The factor of doubled magnitude n2 = |m2| moves to or from position i,
    behind the i larger factors, at sign (-1)^i.  Meeting its own partner,
    an annihilator contracts with 1 (f = 2), a(0) with a(0)^2 = 1/2 (f = 1),
    and a creator gives 0.
    """
    n2 = -m2 if m2 < 0 else m2
    if n2 in t:
        if m2 < 0:
            return None
        i = t.index(n2)
        f = 2 if m2 else 1
        return t[:i] + t[i + 1 :], (f if i % 2 == 0 else -f)
    if m2 > 0:
        return None
    i = 0
    while i < len(t) and t[i] > n2:
        i += 1
    return t[:i] + (n2,) + t[i:], (2 if i % 2 == 0 else -2)


@lru_cache(maxsize=None)
def _fermion_term(p: int, m2: int, t: FockMonomial) -> Entry:
    """a(m2/2) on one basis monomial as a canonical entry over
    characteristic p: the rule's f/2 is f over 2 over Q and f times the
    inverse of 2 over F_p."""
    hit = _apply_fermion_term(m2, t)
    if hit is None:
        return ZERO_ENTRY
    k = pow(2, -1, p) if p else 1
    return normalized_sum({1 if p else 2: {hit[0]: [hit[1] * k]}}, p)


def fermion_act(p: int, m2: int, entry: Entry) -> Entry:
    """The fermion mode a(m2/2) applied to a vector given as a canonical
    entry (den, {monomial: (int,)}) over characteristic p, as a canonical
    entry: one bucket sum of the memo entries of its monomials."""
    buckets: Buckets = {}
    add_image(buckets, entry, _fermion_term, p, m2)
    return normalized_sum(buckets, p)


def apply_fermion(m, vec: FockVector) -> FockVector:
    """Fermion mode a(m) on a vector; m integer or half-integer per sector.
    The vector is encoded once, acted on by `fermion_act` and decoded once
    into a fresh vector."""
    m2 = _dbl(m)
    if not _mode_in_sector(m2, vec.sector):
        raise ValueError(f"mode {m} does not belong to the {vec.sector} sector")
    ring = vec.ring
    entry = fermion_act(ring.char, m2, poly_numerators(vec.terms.items(), ring))
    return vec._like(entry_values(entry, ring))


@lru_cache(maxsize=None)
def _virasoro_term(sector: str, p: int, n: int, t: FockMonomial) -> Entry:
    """L(n) on one basis monomial by the direct rule, as a canonical entry
    (den, {monomial: (int,)}) over characteristic p.

    With both fermion factors in halves, each pair gives (y - x)/2 *
    f1/2 * f2/2 = (y2 - x2) f1 f2 / 16, and the R-sector L(0) adds 1/16,
    so over Q every numerator is an int over 16; over F_p it is multiplied
    by the inverse of 16 and den is 1.
    """
    k = pow(16, -1, p) if p else 1
    # Doubled modes y2 of the a(y) that can act first: annihilators present
    # in t, then for n < 0 the creation modes y <= 0 with a partner x < y.
    ys = [y2 for y2 in t if y2 > max(n, 0)]
    if n < 0:
        ys.extend(range(-MODE_PARITY[sector], n, -2))
    acc: Dict[FockMonomial, list] = {}
    for y2 in ys:
        x2 = 2 * n - y2
        if p and (y2 - x2) % p == 0:  # over F_p, p divides y - x
            continue
        hit = _apply_fermion_term(y2, t)
        hit2 = hit and _apply_fermion_term(x2, hit[0])
        if hit2:
            acc.setdefault(hit2[0], [0])[0] += (y2 - x2) * hit[1] * hit2[1] * k
    if n == 0 and sector == RAMOND:
        acc.setdefault(t, [0])[0] += k
    return normalized_sum({1 if p else 16: acc}, p)


def virasoro_act(sector: str, p: int, n: int, entry: Entry) -> Entry:
    """L(n) applied to a vector of the sector given as a canonical entry
    (den, {monomial: (int,)}) over characteristic p, as a canonical entry:
    one bucket sum of the memo entries of its monomials."""
    buckets: Buckets = {}
    add_image(buckets, entry, _virasoro_term, sector, p, n)
    return normalized_sum(buckets, p)


def apply_virasoro_fock(n: int, vec: FockVector) -> FockVector:
    """Virasoro mode L(n) on a vector, by the direct rule

        L(n) = sum_{x < y, x + y = n} (y - x)/2 * a(x) a(y)

    (+ 1/16 on L(0) in the R sector), which is 1/2 sum_j j :a(-j)a(n+j):
    with the two terms of each pair collected.  The vector is encoded once,
    acted on by `virasoro_act` and decoded once into a fresh vector.
    """
    ring = vec.ring
    entry = virasoro_act(vec.sector, ring.char, n, poly_numerators(vec.terms.items(), ring))
    return vec._like(entry_values(entry, ring))


@lru_cache(maxsize=None)
def _strict_tuples(w2: int, top: int) -> Tuple[FockMonomial, ...]:
    """Strictly decreasing tuples of parts from top, top - 2, ... > 0 that
    sum to w2, in descending lexicographic order."""
    if w2 == 0:
        return ((),)
    return tuple(
        (v,) + rest for v in range(top, 0, -2) if v <= w2 for rest in _strict_tuples(w2 - v, v - 2)
    )


@lru_cache(maxsize=None)
def sector_basis(sector: str, parity: int, degree: int) -> Tuple[FockMonomial, ...]:
    """All monomials of the given parity and sector-adjusted degree, sorted
    in descending lexicographic order."""
    w2 = slice_weight2(sector, parity, degree)
    if degree < 0:
        return ()
    # Parts are the sector's positive modes up to w2.  In NS a monomial's
    # length parity is w2 mod 2; in R a trailing a(0) fixes it, and no
    # strict tuple is a prefix of another, so the order survives.
    top = w2 - (w2 - MODE_PARITY[sector]) % 2
    return tuple(t if len(t) % 2 == parity else t + (0,) for t in _strict_tuples(w2, top))


def sector_dims(sector: str, parity: int, max_degree: int) -> List[int]:
    """Monomial counts per sector-adjusted degree 0..max_degree."""
    return [len(sector_basis(sector, parity, d)) for d in range(max_degree + 1)]


def sector_hw_vector(sector: str, parity: int, ring: Ring = QQ) -> FockVector:
    """The bottom basis monomial of a sector/parity pair: 1, a(-1/2)1, 1, or
    a(0)1, each a Virasoro highest weight vector of weight 0, 1/2, 1/16,
    1/16 respectively."""
    basis = sector_basis(sector, parity, 0)
    if len(basis) != 1:
        raise ValueError("bottom slice is not one-dimensional")
    return FockVector(sector, ring, {basis[0]: ring.one()})


def vir_span_dims(start: FockVector, max_degree: int) -> List[int]:
    """Graded dimensions of the span of all lowering words
    L(-k_1)...L(-k_j) start, indexed by sector-adjusted degree 0..max_degree;
    see lowering_closure.
    """
    from .linalg import lowering_closure

    if not start:
        raise ValueError("start vector must be nonzero")
    sector, ring = start.sector, start.ring
    seeds = [(start.adjusted_degree(), start.terms)]
    return lowering_closure(seeds, max_degree, ring, lambda k, t: apply_virasoro_fock(-k, FockVector(sector, ring, t)).terms)


def fock_hw_vectors(sector: str, parity: int, weight, ring: Ring = QQ) -> List[FockVector]:
    """Basis of Virasoro highest weight vectors of the given true weight:
    the joint kernel of L(1) and L(2) on that weight slice, each vector
    normalized so its lexicographically largest monomial has coefficient 1."""
    from .linalg import joint_kernel

    w2 = _dbl(weight)
    parity = int(parity)
    degree = w2 // 2
    if slice_weight2(sector, parity, degree) != w2:
        raise ValueError(f"no {sector} parity-{parity} monomials of weight {weight}")
    basis = sector_basis(sector, parity, degree)
    maps = [[(d, {q: v[0] for q, v in img.items()}) for d, img in (_virasoro_term(sector, ring.char, m, t) for t in basis)]
            for m in (1, 2)]
    return [FockVector(sector, ring, terms).normalized() for terms in joint_kernel(basis, maps, ring)]


def sigma(vec: FockVector) -> FockVector:
    """The parity-swapping map of the R sector: right-multiplication by a(0).

    Monomials without a(0) gain a trailing a(0); monomials ending in a(0)
    contract it with coefficient 1/2.  No sign arises because the factor is
    appended at the innermost position.  Defined on even-parity vectors
    only; an odd-parity vector raises ValueError.  Since a(0)^2 = 1/2, it
    maps each even weight slice bijectively onto the odd slice of the same
    weight.
    """
    if vec.sector != RAMOND:
        raise ValueError("sigma is defined on the R sector")
    if vec.terms and vec.parity() != 0:
        raise ValueError("sigma expects an even-parity vector")
    out: Dict[FockMonomial, Scalar] = {}
    for t, cv in vec.terms.items():
        if _ends_in_zero_mode(t):
            out[t[:-1]] = cv / 2
        else:
            out[t + (0,)] = cv
    return vec._like(out)


def fock_form(u: FockVector, v: FockVector) -> Scalar:
    """Symmetric bilinear form with the basis monomials orthogonal.

    Monomials without a(0) have squared norm 1; R-sector monomials containing
    a(0) have squared norm 1/2.  The 1/2 is forced by contravariance with
    a(0) self-adjoint: (a(0)1, a(0)1) = (1, a(0)^2 1) = 1/2.
    """
    if u.sector != v.sector:
        raise ValueError("form pairing needs a single sector")
    acc = u.ring.zero()
    small, large = (u.terms, v.terms) if len(u.terms) <= len(v.terms) else (v.terms, u.terms)
    for t, cv in small.items():
        w = large.get(t)
        if w is not None:
            term = cv * w
            if _ends_in_zero_mode(t):
                term = term / 2
            acc = acc + term
    return acc


def reduce_fock_mod_p(vec: FockVector, p: int) -> FockVector:
    """Entrywise image of a rational Fock vector over F_p; terms with zero
    image drop out, a denominator divisible by p raises."""
    return FockVector(vec.sector, GF(p), reduce_terms_mod_p(vec.terms, p))
