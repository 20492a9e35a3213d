"""Sparse linear combinations: the one term-merge loop and the vector base.

A term dict maps basis keys (partitions, Fock monomials, state terms) to
nonzero scalars.  `merge` is the one loop that adds one such dict of ring
scalars into another.  It serves only cold paths: reading vectors from
JSON, building states (`modes.build_state`, `modes.named_state`) and
`LinComb.__add__`.  Sums on the hot paths are kept in the int form of
`scalars`, not as scalar term dicts: elimination (`linalg`) and the Gram
slices' radical recursion (`verma`) work on int rows, and the Verma
straightening, the Verma and Fock Virasoro actions (`verma`, `fock`) and
the mode engine (`modes`) add int products through the bucket sum in
`scalars` (`add_image`, `add_products`, `normalized_sum`).  `LinComb`
wraps a term dict with the arithmetic shared by the Verma and Fock
vector classes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterator, Sequence, Tuple

from .scalars import Scalar, reduce_mod_p

Terms = Dict[Hashable, Scalar]


def merge(acc: Terms, add: Terms, factor: Scalar | None = None) -> Terms:
    """acc + factor * add (factor None means 1), pruning zero terms; acc is
    updated in place and returned."""
    for k, v in add.items():
        if factor is not None:
            v = factor * v
        s = acc.get(k)
        if s is not None:
            v = s + v
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    return acc


def reduce_terms_mod_p(terms: Terms, p: int) -> Terms:
    """Entrywise image over F_p of a rational term dict; terms whose image is
    0 drop out, a denominator divisible by p raises."""
    out: Terms = {}
    for k, cv in terms.items():
        if not isinstance(cv, Fraction):
            raise TypeError("reduction starts from a rational vector")
        img = reduce_mod_p(cv, p)
        if img:
            out[k] = img
    return out


class LinComb:
    """Finite linear combination of basis keys with nonzero scalar
    coefficients.  Subclasses fix the key type and, through _like, whatever
    else a vector carries besides its terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: Terms):
        self.terms = terms

    def _like(self, terms: Terms) -> "LinComb":
        """A vector of the same kind and space with the given terms."""
        return type(self)(terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def coeff(self, key: Sequence, zero: Scalar | None = None) -> Scalar:
        """Coefficient of key.  A missing key gives zero, by default the zero
        of the vector's own ring (Fp and Poly zeros do not equal the int 0);
        the zero vector, whose ring is unknown, gives the int 0."""
        hit = self.terms.get(tuple(key))
        if hit is not None:
            return hit
        if zero is None:
            zero = 0 * next(iter(self.terms.values()), 0)
        return zero

    def __add__(self, other: "LinComb") -> "LinComb":
        return self._like(merge(dict(self.terms), other.terms))

    def __neg__(self) -> "LinComb":
        return self._like({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def scale(self, s: Scalar) -> "LinComb":
        if not s:
            return self._like({})
        return self._like({k: s * v for k, v in self.terms.items()})

    def items(self) -> Iterator[Tuple[Hashable, Scalar]]:
        """Terms in descending key order."""
        return iter(sorted(self.terms.items(), reverse=True))

    def _common(self, key_value: Callable[[Hashable], object]):
        """The value key_value takes on every key, or None for the zero
        vector or when it varies."""
        values = {key_value(k) for k in self.terms}
        return values.pop() if len(values) == 1 else None

    def _leading_key(self):
        if not self.terms:
            raise ValueError("zero vector has no leading term")
        return max(self.terms)

    def normalized(self) -> "LinComb":
        """Scale so the largest key has coefficient 1."""
        lead = self.terms[self._leading_key()]
        return self._like({k: v / lead for k, v in self.terms.items()})
