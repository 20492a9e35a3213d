"""Exact coefficient arithmetic: rationals, odd prime fields, formal-weight
polynomials, and the reduction maps between them."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import ODD_PRIMES, fp_elements, fractions
from virfock.scalars import (
    GF,
    QQ,
    CharacteristicTwoError,
    DenominatorDivisibleByP,
    Fp,
    Poly,
    RingMismatchError,
    central_coeff,
    formal_ring,
    is_odd_prime,
    poly_eval,
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


def test_parse_accepts_all_string_forms():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-108") == Fraction(-108)
    assert GF(7).parse("6 mod 7") == GF(7).of_int(6)
    assert formal_ring(0).parse("h") == formal_ring(0).h()
