"""Exact coefficient arithmetic: rationals, odd prime fields, formal-weight
polynomials, and the reduction maps between them.

The int-backed Poly is checked against _RefPoly, a polynomial stored as a
tuple of Fraction or Fp coefficients and combined by the base-field
operators."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ODD_PRIMES, fp_elements, fractions
from virfock.scalars import (
    GF,
    QQ,
    CharacteristicTwoError,
    DenominatorDivisibleByP,
    Fp,
    Poly,
    Ring,
    RingMismatchError,
    central_coeff,
    conv_add,
    field_value,
    formal_ring,
    is_odd_prime,
    numerators,
    poly_eval,
    poly_numerators,
    poly_value,
    reduce_mod_p,
    scalar_from_json,
    scalar_to_json,
    scalar_to_str,
)


# ---------------------------------------------------------------- rings

def test_characteristic_two_is_rejected():
    with pytest.raises(CharacteristicTwoError, match="2 must be invertible"):
        GF(2)


@pytest.mark.parametrize("bad", [1, 4, 9, 15, -3])
def test_non_prime_characteristic_is_rejected(bad):
    with pytest.raises(ValueError):
        GF(bad)


def test_is_odd_prime():
    assert [p for p in range(2, 20) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17, 19]


def test_prime_field_normalizes_residues():
    ring = GF(7)
    assert ring.of_int(-108) == ring.of_int(4)
    assert ring.of_fraction(Fraction(3, 4)) == ring.of_int(6)


# -------------------------------------------------------- central_coeff

def test_central_coeff_examples():
    assert central_coeff(1, QQ) == 0
    assert central_coeff(2, QQ) == Fraction(1, 2)
    assert central_coeff(5, GF(7)) == GF(7).of_int(3)


def test_central_coeff_works_in_characteristic_three():
    # (m^3 - m)/12 is computed as the exact integer (m^3 - m)/3 times 1/4,
    # so only 2 needs to be invertible.
    ring = GF(3)
    assert central_coeff(2, ring) == ring.of_fraction(Fraction(1, 2))
    assert central_coeff(3, ring) == ring.of_int(2)


@pytest.mark.parametrize("ring", [QQ, GF(3), GF(7), GF(13)])
def test_central_coeff_antisymmetry(ring):
    for m in range(-8, 9):
        assert central_coeff(m, ring) == -central_coeff(-m, ring)


# --------------------------------------------------------- reduce_mod_p

def test_reduce_mod_p_examples():
    assert reduce_mod_p(Fraction(3, 4), 7) == GF(7).of_int(6)
    assert reduce_mod_p(Fraction(-108), 7) == GF(7).of_int(4)
    with pytest.raises(DenominatorDivisibleByP):
        reduce_mod_p(Fraction(1, 7), 7)


@given(a=fractions(), b=fractions(), p=st.sampled_from(ODD_PRIMES))
def test_reduce_mod_p_is_a_ring_homomorphism(a, b, p):
    # Denominators of a+b and a*b divide lcm(den a, den b), so coprimality
    # of the inputs already puts all four values in the domain of the map.
    if a.denominator % p == 0 or b.denominator % p == 0:
        return
    assert reduce_mod_p(a + b, p) == reduce_mod_p(a, p) + reduce_mod_p(b, p)
    assert reduce_mod_p(a * b, p) == reduce_mod_p(a, p) * reduce_mod_p(b, p)


# ----------------------------------------------------- field arithmetic

@given(a=fp_elements(13), b=fp_elements(13), c=fp_elements(13))
def test_prime_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a != GF(13).zero():
        assert a * (GF(13).one() / a) == GF(13).one()


@given(a=fp_elements(7))
def test_prime_field_negation_and_subtraction(a):
    assert a + (-a) == GF(7).zero()
    assert a - a == GF(7).zero()


# ------------------------------------------------------------ poly_eval

def test_poly_eval_identity_polynomial():
    ring = formal_ring(0)
    assert poly_eval(ring.h(), Fraction(1, 2)) == Fraction(1, 2)


def test_poly_eval_classification_cubic_root():
    ring = formal_ring(0)
    h = ring.h()
    f = 64 * h * (h - Fraction(1, 2)) * (h - Fraction(1, 16))
    assert f.coeffs == (Fraction(0), Fraction(2), Fraction(-36), Fraction(64))
    assert poly_eval(f, Fraction(1, 16)) == 0
    assert poly_eval(f, Fraction(1, 2)) == 0
    assert poly_eval(f, Fraction(0)) == 0
    assert poly_eval(f, Fraction(1)) == 64 * Fraction(1, 2) * Fraction(15, 16)


def test_poly_eval_char_7_quadratic_root():
    ring = formal_ring(7)
    h = ring.h()
    f = h * (h - ring.of_int(4))
    assert poly_eval(f, GF(7).of_int(4)) == GF(7).zero()
    assert poly_eval(f, GF(7).of_int(0)) == GF(7).zero()
    assert poly_eval(f, GF(7).of_int(1)) == GF(7).of_int(-3)


def test_ring_mismatches_raise():
    # Rationals lift into every ring, but prime-field scalars never lift
    # back, and distinct characteristics never mix.
    with pytest.raises(RingMismatchError):
        poly_eval(formal_ring(0).h(), GF(7).of_int(1))
    with pytest.raises(RingMismatchError):
        formal_ring(0).h() + formal_ring(7).h()
    with pytest.raises(RingMismatchError):
        GF(5).of_int(1) + GF(7).of_int(1)


def test_scalars_compare_equal_only_within_their_own_type():
    # Equal values must hash equal, so a residue or a constant polynomial
    # never equals a plain number: they would land in different dict slots.
    assert Fp(3, 7) != 3 and Fp(3, 7) != 10 and 3 != Fp(3, 7)
    assert Fp(3, 7) != Fraction(3)
    assert {Fp(3, 7): 1}.get(3) is None
    assert Poly((Fraction(3),)) != Fraction(3) and Poly((Fraction(3),)) != 3
    assert Poly((Fp(3, 7),), 7) != Fp(3, 7)
    equal_pairs = (
        (Fp(3, 7), Fp(10, 7)),
        (Poly((Fraction(3), Fraction(0))), Poly((Fraction(3),))),
        (Poly((Fp(3, 7),), 7), Poly((Fp(10, 7), Fp(7, 7)), 7)),
    )
    for a, b in equal_pairs:
        assert a == b and hash(a) == hash(b)


def test_rationals_lift_into_prime_field_polynomials():
    ring = formal_ring(7)
    assert poly_eval(ring.h(), Fraction(1, 2)) == GF(7).of_int(4)


def test_poly_trailing_zeros_are_trimmed():
    ring = formal_ring(0)
    h = ring.h()
    assert (h - h).coeffs == ()
    assert not (h - h)
    assert (h * h).degree() == 2


@given(x=fractions(), y=fractions())
def test_poly_evaluation_commutes_with_arithmetic(x, y):
    ring = formal_ring(0)
    h = ring.h()
    f = 3 * h * h - h + Fraction(5, 2)
    g = h + Fraction(1, 3)
    assert poly_eval(f * g, x) == poly_eval(f, x) * poly_eval(g, x)
    assert poly_eval(f + g, y) == poly_eval(f, y) + poly_eval(g, y)


# -------------------------------------------------------- serialization

def test_scalar_strings():
    assert scalar_to_str(Fraction(3, 4)) == "3/4"
    assert scalar_to_str(Fraction(-108)) == "-108"
    assert scalar_to_str(GF(7).of_int(3)) == "3 mod 7"


def test_polynomial_json_is_a_coefficient_array():
    ring = formal_ring(0)
    h = ring.h()
    f = 64 * h ** 3 - 36 * h ** 2 + 2 * h
    assert scalar_to_json(f) == ["0", "2", "-36", "64"]


@given(q=fractions())
def test_rational_json_round_trip(q):
    assert scalar_from_json(scalar_to_json(q), QQ) == q


@given(a=fp_elements(11))
def test_prime_field_json_round_trip(a):
    assert scalar_from_json(scalar_to_json(a), GF(11)) == a


def test_formal_json_round_trip():
    ring = formal_ring(5)
    f = ring.h() * ring.h() + ring.of_int(3)
    assert scalar_from_json(scalar_to_json(f), ring) == f


def test_json_rejects_cross_characteristic():
    with pytest.raises(RingMismatchError):
        scalar_from_json("3 mod 7", GF(5))
    with pytest.raises(RingMismatchError):
        scalar_from_json(["1", "2"], QQ)


@pytest.mark.parametrize("ring", [QQ, formal_ring(0)], ids=["Q", "Q[h]"])
@pytest.mark.parametrize("text", ["1 mod 0", "3 mod 0", "3 mod 7"])
def test_characteristic_zero_rejects_residues(ring, text):
    # The characteristic of Q is 0, so "k mod 0" once matched it and parsed
    # as the rational k.
    with pytest.raises(RingMismatchError):
        ring.parse(text)


def test_parse_accepts_all_string_forms():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-108") == Fraction(-108)
    assert GF(7).parse("6 mod 7") == GF(7).of_int(6)
    assert formal_ring(0).parse("h") == formal_ring(0).h()


@pytest.mark.parametrize("ring", [QQ, GF(7), formal_ring(0)], ids=["Q", "F7", "Q[h]"])
def test_parse_rejects_a_zero_denominator(ring):
    with pytest.raises(ValueError, match=r"zero denominator in '1/0'"):
        ring.parse("1/0")
    with pytest.raises(ValueError, match=r"zero denominator in '-3/0'"):
        scalar_from_json(" -3/0 ", ring)


# ------------------------------------------- Poly against the reference

class _RefPoly:
    """Dense polynomial in h as a tuple of Fraction (char 0) or Fp
    coefficients with no trailing zeros: the reference for Poly."""

    def __init__(self, coeffs, char=0):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.char = char
        self.coeffs = tuple(cs)

    def _zero(self):
        return Ring(self.char).zero()

    def _lift(self, other):
        if isinstance(other, _RefPoly):
            if other.char != self.char:
                raise RingMismatchError("mixed base fields in polynomial arithmetic")
            return other
        if isinstance(other, (int, Fraction, Fp)):
            return _RefPoly((Ring(self.char).coerce(other),), self.char)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        n = max(len(self.coeffs), len(o.coeffs))
        a = list(self.coeffs) + [self._zero()] * (n - len(self.coeffs))
        for i, cv in enumerate(o.coeffs):
            a[i] = a[i] + cv
        return _RefPoly(a, self.char)

    __radd__ = __add__

    def __neg__(self):
        return _RefPoly(tuple(-cv for cv in self.coeffs), self.char)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if not self.coeffs or not o.coeffs:
            return _RefPoly((), self.char)
        out = [self._zero()] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return _RefPoly(out, self.char)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = _RefPoly((Ring(self.char).one(),), self.char)
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, other):
        o = self._lift(other)
        assert len(o.coeffs) == 1, "division by a nonzero constant only"
        return _RefPoly(tuple(cv / o.coeffs[0] for cv in self.coeffs), self.char)

    def eval(self, x):
        acc = self._zero()
        for cv in reversed(self.coeffs):
            acc = acc * x + cv
        return acc

    def to_str(self):
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            cv = self.coeffs[i]
            if not cv:
                continue
            cs = str(cv.v) if isinstance(cv, Fp) else str(cv)
            parts.append(cs if i == 0 else f"{cs}*h" if i == 1 else f"{cs}*h^{i}")
        return " + ".join(parts) or "0"

    def to_json(self):
        return [f"{cv.v} mod {cv.p}" if isinstance(cv, Fp) else str(cv) for cv in self.coeffs]


# Denominators 2^a 3^b, as the c = 1/2 central term (m^3 - m)/12 produces.
DENOMINATORS = tuple(sorted(2 ** a * 3 ** b for a in range(7) for b in range(3)))
POLY_CHARS = (0, 3, 7)


def base_scalars(char):
    if char == 0:
        return st.builds(Fraction, st.integers(-60, 60), st.sampled_from(DENOMINATORS))
    return st.integers(0, char - 1).map(lambda v: Fp(v, char))


def constants(char):
    """Non-polynomial operands: ints, Fractions and, over F_p, residues."""
    rationals = st.builds(Fraction, st.integers(-60, 60), st.sampled_from(DENOMINATORS))
    if char:
        rationals = rationals.filter(lambda q: q.denominator % char)
    return st.one_of(st.integers(-30, 30), rationals, base_scalars(char))


@st.composite
def poly_cases(draw):
    char = draw(st.sampled_from(POLY_CHARS))
    coeff_lists = st.lists(base_scalars(char), max_size=5)
    return (char, draw(coeff_lists), draw(coeff_lists), draw(constants(char)),
            draw(base_scalars(char)), draw(st.integers(0, 3)))


def _agrees(got, want):
    assert type(got) is Poly and type(want) is _RefPoly
    assert got.char == want.char
    assert [type(cv) for cv in got.coeffs] == [type(cv) for cv in want.coeffs]
    assert got.coeffs == want.coeffs
    assert got.degree() == len(want.coeffs) - 1
    assert bool(got) == bool(want.coeffs)
    if got.char:
        assert got.den == 1 and all(0 <= v < got.char for v in got.num)
    else:
        assert got.den > 0 and gcd(got.den, *got.num) == 1
    assert scalar_to_str(got) == want.to_str()
    assert scalar_to_json(got) == want.to_json()


@settings(max_examples=200)
@given(case=poly_cases())
def test_poly_matches_the_coefficient_tuple_reference(case):
    char, ca, cb, c, x, k = case
    f, g = Poly(ca, char), Poly(cb, char)
    rf, rg = _RefPoly(ca, char), _RefPoly(cb, char)
    for got, want in [
        (f, rf), (g, rg),
        (f + g, rf + rg), (f - g, rf - rg), (-f, -rf), (f * g, rf * rg), (f ** k, rf ** k),
        (f + c, rf + c), (c + f, c + rf), (f - c, rf - c), (c - f, c - rf),
        (f * c, rf * c), (c * f, c * rf),
    ]:
        _agrees(got, want)
    if Ring(char).coerce(c):
        _agrees(f / c, rf / c)
        _agrees(f / Poly((c,), char), rf / c)
    value, ref_value = f.eval(x), rf.eval(x)
    assert type(value) is type(ref_value) and value == ref_value
    assert poly_eval(f, x) == ref_value


def test_poly_division_by_negative_and_fractional_constants():
    h = formal_ring(0).h()
    f = Fraction(3, 8) * h * h - Fraction(5, 6)
    ref = _RefPoly((Fraction(-5, 6), Fraction(0), Fraction(3, 8)))
    for c in (-1, -6, Fraction(-3, 4), Fraction(9, 16), Fraction(-1, 144)):
        _agrees(f / c, ref / c)
        _agrees(f / Poly((c,)), ref / c)
    with pytest.raises(ZeroDivisionError):
        f / 0
    with pytest.raises(ArithmeticError):
        f / h


@settings(max_examples=100)
@given(char=st.sampled_from(POLY_CHARS), data=st.data())
def test_equal_polys_built_by_different_routes_are_equal(char, data):
    cs = data.draw(st.lists(base_scalars(char), max_size=5))
    ring = formal_ring(char)
    direct = Poly(cs, char)
    horner = ring.zero()
    for cv in reversed(cs):
        horner = horner * ring.h() + cv
    routes = [
        Poly(list(cs) + [0, Ring(char).zero()], char),
        horner,
        (direct * 4) / 4,
        direct * Fraction(-5, 8) / Fraction(-5, 8),
        direct + ring.h() - ring.h(),
        scalar_from_json(scalar_to_json(direct), ring),
    ]
    for other in routes:
        assert other == direct and hash(other) == hash(direct)


def test_poly_constructor_checks_each_coefficient():
    with pytest.raises(RingMismatchError):
        Poly((Fp(1, 5),), 7)
    with pytest.raises(RingMismatchError):
        Poly((Fp(1, 7),), 0)
    for not_a_base_scalar in (formal_ring(0).h(), 0.5, "1/2"):
        with pytest.raises(RingMismatchError):
            Poly((not_a_base_scalar,), 0)
        with pytest.raises(RingMismatchError):
            QQ.coerce(not_a_base_scalar)
    with pytest.raises(DenominatorDivisibleByP):
        Poly((Fraction(1, 7),), 7)
    half = Poly((Fraction(1, 2),), 7)
    assert half == Poly((Fp(4, 7),), 7) and half.coeffs == (Fp(4, 7),)
    assert (half + half).coeffs == (Fp(1, 7),)
    assert Poly((3, Fraction(-1, 2)), 0).coeffs == (Fraction(3), Fraction(-1, 2))
    f = Poly((3, Fraction(-1, 2)), 0)
    assert (f.num, f.den) == ((6, -1), 2)


def test_poly_arithmetic_builds_no_base_scalars(monkeypatch):
    q = formal_ring(0).h() * Fraction(1, 6) + Fraction(3, 4)
    r = formal_ring(7).h() * 3 + 5
    third, residue = Fraction(-1, 3), Fp(2, 7)

    def refuse(*args, **kwargs):
        raise AssertionError("a base scalar was built")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    monkeypatch.setattr(Fp, "__init__", refuse)
    for f, c in ((q, third), (r, residue)):
        g = f * f - f / c + c * f ** 2 - (2 - f) / 3
        assert g and g != f and hash(g) != hash(f)


# ------------------------------------------------- the scalar <-> int codec

CODEC_RINGS = (QQ, *(GF(p) for p in ODD_PRIMES), formal_ring(0))


@st.composite
def codec_cases(draw):
    """A ring and a list of its scalars, zeros included; over Q some are
    ints, which the ring's own form turns into Fractions."""
    ring = draw(st.sampled_from(CODEC_RINGS))
    if ring.formal:
        scalars = st.lists(base_scalars(0), max_size=3).map(Poly)
    elif ring.char:
        scalars = fp_elements(ring.char)
    else:
        scalars = st.one_of(st.integers(-50, 50), fractions(max_num=10 ** 6, max_den=10 ** 4), st.just(Fraction(0)))
    return ring, draw(st.lists(scalars, max_size=8))


@settings(max_examples=200)
@given(case=codec_cases())
def test_numerators_and_field_value_round_trip(case):
    ring, values = case
    den, nums = numerators(enumerate(values), ring)
    assert sorted(nums) == [k for k, x in enumerate(values) if x]
    if ring.formal or ring.char:
        assert den == 1
    else:
        assert den == lcm(*(Fraction(x).denominator for x in values if x))
    for k, n in nums.items():
        if ring.formal:
            assert n is values[k]
            continue
        assert type(n) is int
        if ring.char:
            assert 0 <= n < ring.char
        got, want = field_value(n, den, ring.char), ring.coerce(values[k])
        assert type(got) is type(want) and got == want


def test_field_value_inverts_a_denominator_over_fp():
    assert field_value(3, 5, 7) == Fp(3, 7) / Fp(5, 7)
    assert field_value(-6, 4, 0) == Fraction(-3, 2) and field_value(7, 1, 0) == Fraction(7)


@st.composite
def poly_codec_cases(draw):
    """A ring, formal or not, and a list of its scalars, zeros included."""
    ring = draw(st.sampled_from((*CODEC_RINGS, formal_ring(7))))
    if ring.formal:
        p = ring.char
        scalars = st.lists(base_scalars(p), max_size=4).map(lambda cs: Poly(cs, p))
        return ring, draw(st.lists(scalars, max_size=6))
    return draw(codec_cases().filter(lambda case: not case[0].formal))


@settings(max_examples=200)
@given(case=poly_codec_cases())
def test_poly_numerators_and_poly_value_round_trip(case):
    ring, values = case
    p = ring.char
    den, nums = poly_numerators(enumerate(values), ring)
    assert sorted(nums) == [k for k, x in enumerate(values) if x]
    if p:
        assert den == 1
    elif ring.formal:
        assert den == lcm(*(values[k].den for k in nums))
    else:
        assert den == lcm(*(Fraction(x).denominator for x in values if x))
    for k, num in nums.items():
        assert type(num) is tuple and num and num[-1] and all(type(x) is int for x in num)
        if p:
            assert all(0 <= x < p for x in num)
        if ring.formal:
            assert poly_value(num, den, p) == values[k]
        else:
            assert len(num) == 1
            got, want = field_value(num[0], den, p), ring.coerce(values[k])
            assert type(got) is type(want) and got == want
    if nums and not p:
        assert gcd(den, *(x for num in nums.values() for x in num)) == 1


@given(
    acc=st.lists(st.integers(-9, 9), max_size=4),
    a=st.lists(st.integers(-9, 9), max_size=4),
    b=st.lists(st.integers(-9, 9), max_size=4),
)
def test_conv_add_adds_the_product_in_place(acc, a, b):
    want = [0] * max(len(acc), len(a) + len(b) - 1 if a and b else 0)
    for i, x in enumerate(acc):
        want[i] += x
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            want[i + j] += x * y
    ta, tb, out = tuple(a), tuple(b), list(acc)
    assert conv_add(out, ta, tb) is out
    assert out[: len(want)] == want and not any(out[len(want):])
    assert poly_value(out, 1, 0) == Poly(want, 0) == Poly(acc, 0) + Poly(a, 0) * Poly(b, 0)
