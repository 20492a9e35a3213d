"""Free-fermion Fock spaces: fermion and Virasoro actions, sector gradings,
the parity-swapping map of the R sector, the bilinear form, and highest-
weight-vector search."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from test_verma import assert_canonical_entry
from virfock.fock import (
    NS,
    RAMOND,
    FockVector,
    _virasoro_term,
    apply_fermion,
    apply_virasoro_fock,
    fermion_act,
    fermion_monomial,
    fock_form,
    fock_hw_vectors,
    mode_str,
    monomial_str,
    reduce_fock_mod_p,
    sector_basis,
    sector_dims,
    sector_hw_vector,
    sigma,
    slice_weight2,
    vacuum,
    vir_span_dims,
)
from virfock.lincomb import merge
from virfock.scalars import GF, QQ, central_coeff, entry_values, poly_numerators

HALF = Fraction(1, 2)

# Weight-graded monomial counts; these coincide degree by degree with the
# irreducible characters of V(1/2, h) for h = 0, 1/2, 1/16.
NS_EVEN_DIMS = [1, 0, 1, 1, 2, 2, 3, 3, 5, 5, 7]
NS_ODD_DIMS = [1, 1, 1, 1, 2, 2, 3, 4, 5, 6, 8]
R_DIMS = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]


def ns_monomials(max_weight2):
    out = []
    halves = [n for n in range(1, max_weight2 + 1, 2)]
    for k in range(0, 4):
        for combo in combinations(halves, k):
            if sum(combo) <= max_weight2:
                out.append(tuple(sorted(combo, reverse=True)))
    return out


def r_monomials(max_weight2):
    out = []
    evens = [n for n in range(0, max_weight2 + 1, 2)]
    for k in range(0, 4):
        for combo in combinations(evens, k):
            if sum(combo) <= max_weight2:
                out.append(tuple(sorted(combo, reverse=True)))
    return out


# ------------------------------------------------------------- fermions

def test_fermion_annihilation_and_creation():
    one = vacuum(NS)
    a = fermion_monomial(NS, [-HALF])
    assert apply_fermion(HALF, a) == one
    assert not apply_fermion(-HALF, a)
    r = fermion_monomial(RAMOND, [0])
    assert apply_fermion(0, r) == vacuum(RAMOND).scale(HALF)


def test_fermion_insertion_keeps_decreasing_order_with_signs():
    a31 = fermion_monomial(NS, [-Fraction(3, 2), -HALF])
    assert dict(apply_fermion(-Fraction(5, 2), a31).terms.items()) == {
        (5, 3, 1): Fraction(1)
    }
    # inserting between the two factors costs one transposition
    a51 = fermion_monomial(NS, [-Fraction(5, 2), -HALF])
    assert dict(apply_fermion(-Fraction(3, 2), a51).terms.items()) == {
        (5, 3, 1): Fraction(-1)
    }


@given(
    m2=st.sampled_from([-5, -3, -1, 1, 3, 5]),
    n2=st.sampled_from([-5, -3, -1, 1, 3, 5]),
    t=st.sampled_from(ns_monomials(8)),
)
def test_ns_anticommutation(m2, n2, t):
    x = fermion_monomial(NS, []) if not t else FockVector(NS, QQ, {t: QQ.one()})
    m, n = Fraction(m2, 2), Fraction(n2, 2)
    lhs = apply_fermion(m, apply_fermion(n, x)) + apply_fermion(n, apply_fermion(m, x))
    assert lhs == (x if m + n == 0 else x.scale(Fraction(0)))


@given(
    m=st.sampled_from([-2, -1, 0, 1, 2]),
    n=st.sampled_from([-2, -1, 0, 1, 2]),
    t=st.sampled_from(r_monomials(6)),
)
def test_r_anticommutation_includes_the_zero_mode(m, n, t):
    # a(0)^2 = 1/2 is exactly what keeps the m = n = 0 case on the same
    # uniform delta: a(0)a(0) + a(0)a(0) = 2 * 1/2 = 1.
    x = FockVector(RAMOND, QQ, {t: QQ.one()})
    lhs = apply_fermion(m, apply_fermion(n, x)) + apply_fermion(n, apply_fermion(m, x))
    assert lhs == (x if m + n == 0 else x.scale(Fraction(0)))


def _all_monomials(magnitudes, max_weight2):
    out = []
    for k in range(len(magnitudes) + 1):
        for combo in combinations(magnitudes, k):
            if sum(combo) <= max_weight2:
                out.append(tuple(sorted(combo, reverse=True)))
    return out


def oracle_fermion(m2, t, zero_square=HALF):
    """a(m2/2) on the monomial t by the rational rule: (monomial, Fraction),
    or None for zero.  An annihilator removes its partner from position i at
    sign (-1)^i, a(0) contracts with its partner to zero_square, and a
    creator is inserted behind the factors larger than it at sign (-1)^i."""
    n2 = abs(m2)
    if n2 in t:
        if m2 < 0:
            return None
        i = t.index(n2)
        return t[:i] + t[i + 1:], (zero_square if m2 == 0 else Fraction(1)) * (-1) ** i
    if m2 > 0:
        return None
    i = sum(1 for f in t if f > n2)
    return t[:i] + (n2,) + t[i:], Fraction((-1) ** i)


def oracle_fermion_terms(m2, terms, ring, zero_square=HALF):
    """a(m2/2) on {monomial: scalar} over ring by oracle_fermion."""
    out = {}
    for t, cv in terms.items():
        hit = oracle_fermion(m2, t, zero_square)
        if hit is not None:
            merge(out, {hit[0]: cv * ring.coerce(hit[1])})
    return out


def _coeff(ring, num, den):
    """num/den in ring, or num where p divides den."""
    return ring.coerce(Fraction(num, den) if not ring.char or den % ring.char else num)


@settings(max_examples=200)
@given(
    sector=st.sampled_from([NS, RAMOND]),
    p=st.sampled_from([0, 3, 5, 7, 11, 13]),
    m2=st.integers(min_value=-22, max_value=22),
    data=st.data(),
)
def test_fermion_action_matches_the_rational_rule(sector, p, m2, data):
    parity = 1 if sector == NS else 0
    m2 += (m2 - parity) % 2
    ring = GF(p) if p else QQ
    monomials = _all_monomials(range(parity, 21, 2), 20)
    picks = data.draw(st.lists(
        st.tuples(st.sampled_from(monomials), st.integers(-40, 40), st.integers(1, 12)), min_size=1, max_size=4))
    terms = {}
    for t, num, den in picks:
        merge(terms, {t: _coeff(ring, num, den)})
    want = oracle_fermion_terms(m2, terms, ring)
    assert apply_fermion(Fraction(m2, 2), FockVector(sector, ring, terms)).terms == want
    entry = fermion_act(p, m2, poly_numerators(terms.items(), ring))
    assert_canonical_entry(entry, ring, (sector, m2))
    assert entry_values(entry, ring) == want


@pytest.mark.parametrize("sector", [NS, RAMOND])
def test_fermion_modes_map_distinct_monomials_to_distinct_monomials(sector):
    # a(m) is injective on basis monomials, so the images of a vector's
    # monomials never merge: each term of a(m) x comes from one term of x.
    parity = 1 if sector == NS else 0
    monomials = _all_monomials(range(parity, 21, 2), 20)
    for m2 in (m2 for m2 in range(-10, 11) if m2 % 2 == parity):
        seen = {}
        for t in monomials:
            image = apply_fermion(Fraction(m2, 2), FockVector(sector, QQ, {t: QQ.one()}))
            assert len(image.terms) <= 1
            for u in image.terms:
                assert u not in seen, (m2, t, seen.get(u))
                seen[u] = t


def test_sector_mismatch_is_rejected():
    with pytest.raises(ValueError):
        apply_fermion(0, vacuum(NS))
    with pytest.raises(ValueError):
        fermion_monomial(NS, [-1])
    with pytest.raises(ValueError):
        fermion_monomial(RAMOND, [-HALF])


# ------------------------------------------------------------- virasoro

def test_virasoro_examples():
    assert dict(apply_virasoro_fock(-2, vacuum(NS)).terms.items()) == {(3, 1): HALF}
    assert apply_virasoro_fock(0, vacuum(RAMOND)) == vacuum(RAMOND).scale(Fraction(1, 16))
    a = fermion_monomial(NS, [-HALF])
    assert apply_virasoro_fock(-1, a) == fermion_monomial(NS, [-Fraction(3, 2)])


def _j_sum_virasoro(n, vec):
    """L(n) = 1/2 sum_j j :a(-j)a(n+j): term by term over j, with the sum
    truncated where every normal-ordered pair annihilates vec; the
    definition the direct rule of apply_virasoro_fock is checked against."""
    ring = vec.ring
    out = {}
    bound2 = max((sum(t) for t in vec.terms), default=0) + 2 * abs(n) + 2
    for j2 in range(1 if vec.sector == NS else 2, bound2 + 1, 2):
        for sj2 in (j2, -j2):
            x2, y2 = -sj2, 2 * n + sj2
            # :a(x)a(y): puts the larger mode on the right, with a sign.
            coeff = ring.of_int(sj2) / ring.of_int(4)
            if x2 > y2:
                x2, y2, coeff = y2, x2, -coeff
            w = apply_fermion(Fraction(x2, 2), apply_fermion(Fraction(y2, 2), vec))
            merge(out, w.terms, coeff)
    if n == 0 and vec.sector == RAMOND:
        merge(out, vec.terms, ring.one() / ring.of_int(16))
    return FockVector(vec.sector, ring, out)


@pytest.mark.parametrize("ring", [QQ, GF(3), GF(7)], ids=["Q", "F3", "F7"])
@pytest.mark.parametrize("sector", [NS, RAMOND])
def test_direct_rule_matches_j_sum_definition(sector, ring):
    # Over F_3, 3 | (y - x) zeroes whole pairs, which the direct rule skips.
    for parity in (0, 1):
        for degree in range(9):
            for t in sector_basis(sector, parity, degree):
                x = FockVector(sector, ring, {t: ring.one()})
                for n in range(-7, 8):
                    got = apply_virasoro_fock(n, x)
                    want = _j_sum_virasoro(n, x)
                    assert got == want, (sector, t, n)
                    assert {k: type(v) for k, v in got.terms.items()} == \
                        {k: type(v) for k, v in want.terms.items()}
                    entry = _virasoro_term(sector, ring.char, n, t)
                    assert_canonical_entry(entry, ring, (sector, t, n))
                    assert 16 % entry[0] == 0, (sector, t, n)


@pytest.mark.parametrize("ring", [QQ, GF(7)], ids=["Q", "F7"])
def test_memoized_images_do_not_leak_into_results(ring):
    x = FockVector(NS, ring, {(5, 3, 1): ring.one(), (7, 1): ring.of_int(2)})
    first = apply_virasoro_fock(-2, x)
    want = dict(first.terms)
    first.terms.clear()
    first.terms[(99,)] = ring.one()
    assert apply_virasoro_fock(-2, x).terms == want
    # A single monomial with coefficient 1 is the case where handing out the
    # memoized dict itself would be tempting.
    y = FockVector(NS, ring, {(3, 1): ring.one()})
    img = apply_virasoro_fock(-1, y)
    want = dict(img.terms)
    assert want
    for k in want:
        img.terms[k] = img.terms[k] + ring.one()
    assert apply_virasoro_fock(-1, y).terms == want


@given(
    p=st.integers(min_value=-2, max_value=2),
    q2=st.sampled_from([-5, -3, -1, 1, 3, 5]),
    t=st.sampled_from(ns_monomials(6)),
)
def test_mixed_commutator(p, q2, t):
    x = FockVector(NS, QQ, {t: QQ.one()}) if t else vacuum(NS)
    q = Fraction(q2, 2)
    lhs = apply_virasoro_fock(p, apply_fermion(q, x)) - apply_fermion(
        q, apply_virasoro_fock(p, x)
    )
    want = apply_fermion(p + q, x).scale(-(q + Fraction(p, 2)))
    assert lhs == want


@given(
    m=st.integers(min_value=-2, max_value=2),
    n=st.integers(min_value=-2, max_value=2),
    sector=st.sampled_from([NS, RAMOND]),
    idx=st.integers(min_value=0, max_value=30),
)
def test_virasoro_bracket_with_central_charge_one_half(m, n, sector, idx):
    mono = (ns_monomials(7) if sector == NS else r_monomials(6))
    t = mono[idx % len(mono)]
    x = FockVector(sector, QQ, {t: QQ.one()}) if t else vacuum(sector)
    lhs = apply_virasoro_fock(m, apply_virasoro_fock(n, x)) - apply_virasoro_fock(
        n, apply_virasoro_fock(m, x)
    )
    rhs = apply_virasoro_fock(m + n, x).scale(Fraction(m - n))
    if m + n == 0:
        rhs = rhs + x.scale(central_coeff(m, QQ) * HALF)
    assert lhs == rhs


# ----------------------------------------------------- sector enumeration

def test_sector_dims_examples():
    assert sector_dims(NS, 0, 2) == [1, 0, 1]
    assert sector_dims(NS, 1, 0) == [1]
    assert sector_dims(RAMOND, 0, 1) == [1, 1]


def test_sector_dims_anchors():
    assert sector_dims(NS, 0, 10) == NS_EVEN_DIMS
    assert sector_dims(NS, 1, 10) == NS_ODD_DIMS
    assert sector_dims(RAMOND, 0, 10) == R_DIMS
    assert sector_dims(RAMOND, 1, 10) == R_DIMS


def test_sector_basis_matches_dims():
    for sector, parity, dims in (
        (NS, 0, NS_EVEN_DIMS),
        (NS, 1, NS_ODD_DIMS),
        (RAMOND, 0, R_DIMS),
        (RAMOND, 1, R_DIMS),
    ):
        for degree, want in enumerate(dims[:7]):
            basis = sector_basis(sector, parity, degree)
            assert len(basis) == want
            assert all(len(t) % 2 == parity for t in basis)


# Doubled weight of each slice in sector-adjusted degree d, and the
# doubled magnitudes of the creation modes of its sector.
SLICES = (
    (NS, 0, lambda d: 2 * d, range(1, 22, 2)),
    (NS, 1, lambda d: 2 * d + 1, range(1, 22, 2)),
    (RAMOND, 0, lambda d: 2 * d, range(0, 21, 2)),
    (RAMOND, 1, lambda d: 2 * d, range(0, 21, 2)),
)


@pytest.mark.parametrize("sector, parity, weight2, magnitudes", SLICES)
def test_sector_basis_is_the_sorted_brute_force_enumeration(sector, parity, weight2, magnitudes):
    monomials = _all_monomials(magnitudes, weight2(10))
    for degree in range(11):
        w2 = weight2(degree)
        want = sorted((t for t in monomials if sum(t) == w2 and len(t) % 2 == parity), reverse=True)
        basis = sector_basis(sector, parity, degree)
        assert list(basis) == want, degree
        assert slice_weight2(sector, parity, degree) == w2
        for t in basis:
            assert FockVector(sector, QQ, {t: QQ.one()}).adjusted_degree() == degree


def test_slice_checks_still_fire():
    with pytest.raises(ValueError):
        fock_hw_vectors(NS, 0, HALF)
    with pytest.raises(ValueError):
        fock_hw_vectors(RAMOND, 0, HALF)
    mixed = vacuum(RAMOND) + fermion_monomial(RAMOND, [0])
    with pytest.raises(ValueError):
        mixed.adjusted_degree()
    with pytest.raises(ValueError):
        slice_weight2("X", 0, 1)
    with pytest.raises(ValueError):
        slice_weight2(NS, 2, 1)


def test_zero_mode_squares_to_one_half():
    # r_monomials holds monomials with and without the trailing a(0).
    for t in r_monomials(8):
        x = FockVector(RAMOND, QQ, {t: QQ.one()})
        assert apply_fermion(0, apply_fermion(0, x)) == x.scale(HALF), t


def test_sector_hw_vectors_and_their_weights():
    assert sector_hw_vector(NS, 0) == vacuum(NS)
    assert sector_hw_vector(NS, 1) == fermion_monomial(NS, [-HALF])
    assert sector_hw_vector(RAMOND, 0) == vacuum(RAMOND)
    assert sector_hw_vector(RAMOND, 1) == fermion_monomial(RAMOND, [0])
    for sec, par, h in ((NS, 0, 0), (NS, 1, HALF), (RAMOND, 0, Fraction(1, 16)), (RAMOND, 1, Fraction(1, 16))):
        hw = sector_hw_vector(sec, par)
        assert apply_virasoro_fock(0, hw) == hw.scale(Fraction(h))
        assert not apply_virasoro_fock(1, hw)
        assert not apply_virasoro_fock(2, hw)


# ------------------------------------------------------------- vir spans

def test_vir_span_fills_the_even_ns_sector_over_q():
    assert vir_span_dims(vacuum(NS), 4) == [1, 0, 1, 1, 2]


def test_vir_span_drops_at_degree_four_mod_seven():
    got = vir_span_dims(vacuum(NS, GF(7)), 4)
    assert got == [1, 0, 1, 1, 1]
    assert got[4] < sector_dims(NS, 0, 4)[4]


def test_vir_span_from_odd_ramond_vector():
    assert vir_span_dims(sector_hw_vector(RAMOND, 1), 2) == [1, 1, 1]


# ------------------------------------------------------------ hw vectors

def test_weight_four_hw_vector_exists_only_mod_seven():
    assert fock_hw_vectors(NS, 0, 4, QQ) == []
    (w,) = fock_hw_vectors(NS, 0, 4, GF(7))
    f = GF(7)
    assert dict(w.terms.items()) == {(7, 1): f.of_int(1), (5, 3): f.of_int(4)}
    # The same line in increasing-magnitude factor order reads
    # a(-1/2)a(-7/2) - 3 a(-3/2)a(-5/2): reversing a two-factor product
    # costs one transposition, so both displayed terms flip sign and the
    # normalized vectors agree (-3 = 4 mod 7).
    displayed = fermion_monomial(NS, [-HALF, -Fraction(7, 2)], f).scale(f.of_int(-1)) + \
        fermion_monomial(NS, [-Fraction(3, 2), -Fraction(5, 2)], f).scale(f.of_int(3))
    assert displayed.normalized() == w.normalized()
    assert not apply_virasoro_fock(1, w)
    assert not apply_virasoro_fock(2, w)


def test_weight_fifteen_halves_hw_vector_mod_seven():
    assert fock_hw_vectors(NS, 1, Fraction(15, 2), QQ) == []
    vecs = fock_hw_vectors(NS, 1, Fraction(15, 2), GF(7))
    assert len(vecs) == 1
    f = GF(7)
    assert dict(vecs[0].normalized().terms.items()) == {
        (15,): f.of_int(1),
        (11, 3, 1): f.of_int(1),
        (9, 5, 1): f.of_int(1),
        (7, 5, 3): f.of_int(3),
    }


# ------------------------------------------------------------------ sigma

def test_sigma_appends_the_zero_mode():
    assert sigma(vacuum(RAMOND)) == fermion_monomial(RAMOND, [0])
    even = fermion_monomial(RAMOND, [-1, 0])
    assert sigma(even) == fermion_monomial(RAMOND, [-1]).scale(HALF)


def test_sigma_rejects_wrong_sector_or_parity():
    with pytest.raises(ValueError):
        sigma(vacuum(NS))
    with pytest.raises(ValueError):
        sigma(fermion_monomial(RAMOND, [-1]))


@given(
    s=st.integers(min_value=-2, max_value=2),
    t=st.integers(min_value=-3, max_value=2),
    idx=st.integers(min_value=0, max_value=20),
)
def test_sigma_intertwines_fermion_pairs(s, t, idx):
    if s <= t:
        return
    evens = [m for m in r_monomials(6) if len(m) % 2 == 0]
    x = FockVector(RAMOND, QQ, {evens[idx % len(evens)]: QQ.one()})
    lhs = apply_fermion(s, apply_fermion(t, sigma(x)))
    rhs_inner = apply_fermion(s, apply_fermion(t, x))
    assert lhs == (sigma(rhs_inner) if rhs_inner else lhs.scale(Fraction(0)))
    if rhs_inner:
        assert lhs == sigma(rhs_inner)


def test_sigma_is_a_weight_preserving_bijection_up_to_weight_three():
    for degree in range(4):
        evens = sector_basis(RAMOND, 0, degree)
        odds = sector_basis(RAMOND, 1, degree)
        images = [sigma(FockVector(RAMOND, QQ, {t: QQ.one()})) for t in evens]
        got = {v.leading_monomial() for v in images}
        assert len(got) == len(evens) == len(odds)
        assert got == set(odds)


@pytest.mark.parametrize("ring", [QQ, GF(7)], ids=["Q", "F7"])
def test_sigma_halves_the_form_on_r_even_slices(ring):
    # sigma appends a(0) (norm 1 -> 1/2) or contracts it (coefficient / 2,
    # norm 1/2 -> 1), so it halves the form: (sigma x, sigma x) = (x, x) / 2.
    for degree in range(6):
        basis = sector_basis(RAMOND, 0, degree)
        vectors = [FockVector(RAMOND, ring, {t: ring.one()}) for t in basis]
        vectors.append(FockVector(RAMOND, ring, {t: ring.coerce(Fraction(2 * k + 1, 3)) for k, t in enumerate(basis)}))
        for x in vectors:
            assert fock_form(sigma(x), sigma(x)) == fock_form(x, x) / ring.of_int(2), (degree, x)
        x, y = vectors[0], vectors[-1]
        assert fock_form(sigma(x), sigma(y)) == fock_form(x, y) / ring.of_int(2), degree


# -------------------------------------------------------------- the form

def test_form_examples():
    assert fock_form(vacuum(NS), vacuum(NS)) == 1
    pair = fermion_monomial(NS, [-Fraction(3, 2), -HALF])
    assert fock_form(pair, pair) == 1
    w = apply_virasoro_fock(-2, vacuum(NS))
    assert fock_form(w, w) == fock_form(vacuum(NS), apply_virasoro_fock(2, w))


def test_form_halves_on_zero_mode_monomials():
    z = fermion_monomial(RAMOND, [0])
    assert fock_form(z, z) == HALF
    zz = fermion_monomial(RAMOND, [-3, 0])
    assert fock_form(zz, zz) == HALF
    plain = fermion_monomial(RAMOND, [-3, -1])
    assert fock_form(plain, plain) == 1


def test_form_rejects_sector_mismatch():
    with pytest.raises(ValueError):
        fock_form(vacuum(NS), vacuum(RAMOND))


@given(
    n=st.integers(min_value=-3, max_value=3),
    i=st.integers(min_value=0, max_value=20),
    j=st.integers(min_value=0, max_value=20),
    sector=st.sampled_from([NS, RAMOND]),
)
def test_form_contravariance(n, i, j, sector):
    mono = ns_monomials(7) if sector == NS else r_monomials(6)
    u = FockVector(sector, QQ, {mono[i % len(mono)]: QQ.one()})
    v = FockVector(sector, QQ, {mono[j % len(mono)]: QQ.one()})
    lhs = fock_form(apply_virasoro_fock(n, u), v)
    rhs = fock_form(u, apply_virasoro_fock(-n, v))
    assert lhs == rhs


# ------------------------------------------------------------ base change

@given(
    n=st.integers(min_value=-3, max_value=3),
    idx=st.integers(min_value=0, max_value=20),
    p=st.sampled_from([3, 5, 7, 11, 13]),
)
def test_virasoro_action_commutes_with_reduction(n, idx, p):
    mono = ns_monomials(7)
    x_q = FockVector(NS, QQ, {mono[idx % len(mono)]: QQ.one()})
    x_p = reduce_fock_mod_p(x_q, p)
    assert reduce_fock_mod_p(apply_virasoro_fock(n, x_q), p) == apply_virasoro_fock(n, x_p)


# ---------------------------------------------------------------- display

def test_mode_and_monomial_strings():
    assert mode_str(3) == "3/2"
    assert mode_str(4) == "2"
    assert monomial_str((3, 1)) == "a(-3/2)a(-1/2)"
    assert monomial_str((2, 0)) == "a(-1)a(0)"
    assert monomial_str(()) == "1"


def test_fock_json_round_trip():
    vec = fermion_monomial(NS, [-Fraction(7, 2), -HALF]).scale(Fraction(-3, 2))
    data = vec.to_json()
    assert data == [{"sector": NS, "modes": [7, 1], "coeff": "-3/2"}]
    assert FockVector.from_json(data, NS, QQ) == vec
