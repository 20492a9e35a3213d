"""Shared fixtures and hypothesis strategies for the test suite."""

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple
from weakref import WeakKeyDictionary

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from virfock.scalars import GF, QQ, Ring, entry_values, field_value
from virfock.verma import partitions, verma_module

settings.register_profile(
    "exact",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

ODD_PRIMES = (3, 5, 7, 11, 13)


def fractions(max_num: int = 40, max_den: int = 12):
    """Small exact rationals; denominators stay modest so F_p images exist
    for most sampled primes."""
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def fp_elements(p: int):
    ring = GF(p)
    return st.integers(min_value=0, max_value=p - 1).map(ring.of_int)


@pytest.fixture(scope="session")
def ising_modules():
    """The three c = 1/2 modules over Q, shared so memo tables warm once."""
    return {
        h: verma_module(Fraction(1, 2), h, QQ)
        for h in (Fraction(0), Fraction(1, 2), Fraction(1, 16))
    }


# ------------------------------------------------------------ full Gram oracle


class FullGram(NamedTuple):
    """The full Gram matrix of one degree slice, G = num / den in the
    canonical form of Poly: over Q, integer rows over one positive common
    denominator; over F_p, residues with den 1; over a formal ring, the Poly
    entries themselves with den 1.  entries gives the Fraction, Fp or Poly
    values."""

    num: tuple
    den: int
    ring: Ring

    @property
    def entries(self) -> tuple:
        if self.ring.formal:
            return self.num
        p = self.ring.char
        return tuple(tuple(field_value(v, self.den, p) for v in row) for row in self.num)


_FULL_GRAMS = WeakKeyDictionary()


def full_gram(mod, n: int) -> FullGram:
    """The full Gram matrix of mod's degree-n slice, over a field or a
    formal ring, cached per module and degree; every lower degree is
    filled first.

    The engine holds a slice only as echelon rows (GramMatrix.rows); this
    oracle builds every entry by the adjointness recurrence: for
    lambda = (k, lambda') the form moves L(-k) across as L(k), so

        G_n[lambda, mu] = sum_nu G_{n-k}[lambda', nu] [L(k) L(-mu) v]_nu,

    with one straightening memo entry L(k) L(-mu) v per column mu and first
    part k.  Every column is rescaled to one slice denominator, the lcm of
    the products den * d, so each entry is one int dot product: reduced
    mod p over F_p, and over Q the content shared by that denominator and
    all entries is divided out at the end.
    """
    cache = _FULL_GRAMS.setdefault(mod, {})
    for m in range(len(cache), n + 1):
        cache[m] = _gram_from_lower(mod, cache, m)
    return cache[n]


def _gram_from_lower(mod, lower_grams, n: int) -> FullGram:
    basis = partitions(n)
    ring = mod.ring
    if not n:
        return FullGram(((ring.one() if ring.formal else 1,),), 1, ring)
    # Rows with first part k form one contiguous block of the basis.
    blocks = []
    den = 1
    for k in range(n, 0, -1):
        lower = lower_grams[n - k]
        index = {nu: j for j, nu in enumerate(partitions(n - k))}
        cols = []
        for mu in basis:
            d, nums = mod._act(k, mu)
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
        return FullGram(tuple(rows), 1, ring)
    g = den
    for row in rows:
        if g == 1:
            break
        g = gcd(g, *row)
    if g != 1:
        rows = [tuple([x // g for x in row]) for row in rows]
    return FullGram(tuple(rows), den // g, ring)
