"""Singular vectors, radicals, irreducible characters, and mod-p reduction
for the c = 1/2 family."""

from fractions import Fraction

import pytest

from virfock.fock import NS, RAMOND, sector_dims
from virfock.scalars import GF, QQ, DenominatorDivisibleByP, is_odd_prime
from virfock.singular import (
    generated_submodule_dims,
    irreducible_dims,
    is_singular,
    radical_basis,
    reduce_vector_mod_p,
    singular_degrees,
    singular_space,
)
from virfock import linalg
from virfock.verma import VermaModule, verma_dim, verma_module

# The unique degree-6 kernel vector of V(1/2, 0) over Q, normalized so the
# lexicographically largest partition carries coefficient 1.  Its projection
# to the weight-zero vacuum quotient (partitions with unit parts dropped)
# carries the classical coefficients (64, 93, -264, -108) up to scale.
DEG6_KERNEL_H0 = {
    (1, 1, 1, 1, 1, 1): Fraction(4, 25),
    (2, 1, 1, 1, 1): Fraction(-8, 5),
    (2, 2, 1, 1): Fraction(172, 75),
    (2, 2, 2): Fraction(-16, 27),
    (3, 1, 1, 1): Fraction(34, 25),
    (3, 2, 1): Fraction(14, 75),
    (3, 3): Fraction(-31, 36),
    (4, 1, 1): Fraction(-78, 25),
    (4, 2): Fraction(22, 9),
    (5, 1): Fraction(-41, 225),
    (6,): Fraction(1),
}

IRR_Q = {
    Fraction(0): [1, 0, 1, 1, 2, 2, 3, 3, 5, 5, 7],
    Fraction(1, 2): [1, 1, 1, 1, 2, 2, 3, 4, 5, 6, 8],
    Fraction(1, 16): [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10],
}


def ising(h, ring=QQ):
    return verma_module(Fraction(1, 2), h, ring)


# --------------------------------------------------------- singular_space

def test_degree_six_kernel_at_weight_zero(ising_modules):
    mod = ising_modules[Fraction(0)]
    basis = singular_space(mod, 6)
    assert len(basis.vectors) == 1
    vec = basis.vectors[0].normalized()
    assert dict(vec.items()) == DEG6_KERNEL_H0
    proj = mod.project_vacuum_module(vec).normalized()
    assert dict(proj.items()) == {
        (2, 2, 2): Fraction(-16, 27),
        (3, 3): Fraction(-31, 36),
        (4, 2): Fraction(22, 9),
        (6,): Fraction(1),
    }


def test_degree_two_kernel_at_weight_one_half(ising_modules):
    mod = ising_modules[Fraction(1, 2)]
    basis = singular_space(mod, 2)
    assert len(basis.vectors) == 1
    # 4 L(-2) - 3 L(-1)^2, scaled so L(-2) carries 1.
    assert dict(basis.vectors[0].items()) == {(2,): Fraction(1), (1, 1): Fraction(-3, 4)}


def test_degree_four_kernel_mod_seven_projects_onto_u():
    mod = ising(Fraction(0), GF(7))
    basis = singular_space(mod, 4)
    assert len(basis.vectors) == 1
    f = GF(7)
    assert dict(basis.vectors[0].items()) == {
        (4,): f.of_int(1),
        (3, 1): f.of_int(2),
        (2, 2): f.of_int(3),
        (2, 1, 1): f.of_int(1),
        (1, 1, 1, 1): f.of_int(5),
    }
    proj = mod.project_vacuum_module(basis.vectors[0])
    # u = (L(-2)^2 - 2 L(-4)) 1, normalized: L(-4) carries 1, L(-2)^2 carries
    # -1/2 = 3 mod 7.
    assert dict(proj.items()) == {(4,): f.of_int(1), (2, 2): f.of_int(3)}


def test_degree_two_kernel_at_weight_zero_is_empty(ising_modules):
    assert singular_space(ising_modules[Fraction(0)], 2).vectors == ()


def test_singular_vectors_are_killed_by_every_positive_mode(ising_modules):
    mod = ising_modules[Fraction(1, 2)]
    for degree in (2, 3):
        for vec in singular_space(mod, degree).vectors:
            for m in range(1, degree + 1):
                assert not mod.apply_mode(m, vec)


def test_returned_vectors_have_unit_leading_coefficient(ising_modules):
    for h, degrees in ((Fraction(0), (1, 6)), (Fraction(1, 16), (2, 4))):
        mod = ising_modules[h]
        for degree in degrees:
            for vec in singular_space(mod, degree).vectors:
                assert vec.coeff(vec.leading_partition()) == 1


# ------------------------------------------------------------ is_singular

def test_is_singular_examples(ising_modules):
    mod = ising_modules[Fraction(0)]
    assert is_singular(mod.monomial((1,)), mod)
    assert not is_singular(mod.monomial((2,)), mod)
    cubic = (
        ising_modules[Fraction(1, 2)].monomial((1, 1, 1))
        - ising_modules[Fraction(1, 2)].monomial((2, 1)).scale(Fraction(3))
        + ising_modules[Fraction(1, 2)].monomial((3,)).scale(Fraction(3, 4))
    )
    assert is_singular(cubic, ising_modules[Fraction(1, 2)])


def test_is_singular_rejects_zero_vector(ising_modules):
    mod = ising_modules[Fraction(0)]
    with pytest.raises(ValueError):
        is_singular(mod.vacuum() - mod.vacuum(), mod)


# ------------------------------------------------------- singular_degrees

def test_singular_degree_inventory_over_q(ising_modules):
    assert singular_degrees(ising_modules[Fraction(0)], 8) == [1, 6]
    assert singular_degrees(ising_modules[Fraction(1, 16)], 8) == [2, 4]
    # The h = 1/2 module has a third singular vector at degree 7; it lies in
    # the submodule generated by the degree-2 and degree-3 vectors, matching
    # the alternating character p(n) - p(n-2) - p(n-3) + p(n-7) + ...
    assert singular_degrees(ising_modules[Fraction(1, 2)], 8) == [2, 3, 7]


def test_degree_seven_vector_lies_in_generated_submodule(ising_modules):
    mod = ising_modules[Fraction(1, 2)]
    seeds = [singular_space(mod, d).vectors[0] for d in (2, 3)]
    gen = generated_submodule_dims(mod, seeds, 8)
    rad = [len(radical_basis(mod, d)) for d in range(9)]
    assert gen == rad


# -------------------------------------------------------- character data

def test_irreducible_dims_over_q(ising_modules):
    for h, dims in IRR_Q.items():
        table = irreducible_dims(ising_modules[h], 10)
        assert table.irreducible() == dims
        for row in table.rows:
            assert row.verma == row.radical + row.irreducible


def test_irreducible_dims_mod_seven_shrink_at_degree_four():
    table = irreducible_dims(ising(Fraction(0), GF(7)), 4)
    assert table.irreducible() == [1, 0, 1, 1, 1]
    assert table.rows[4].radical == 4


# The Fock slice whose monomial counts give the character of L(1/2, h) over Q,
# and the degree at which the F_7 dimensions first fall below them.
FOCK_SLICES = {Fraction(0): (NS, 0), Fraction(1, 2): (NS, 1), Fraction(1, 16): (RAMOND, 0)}
CHAR7_FIRST_DROP = {Fraction(0): 4, Fraction(1, 2): 7, Fraction(1, 16): 3}


@pytest.mark.parametrize("p", [p for p in range(3, 50) if is_odd_prime(p)])
def test_prime_sweep_matches_fock_counts_except_in_characteristic_seven(p):
    for h, (sector, parity) in FOCK_SLICES.items():
        fock = sector_dims(sector, parity, 12)
        irr = irreducible_dims(ising(h, GF(p)), 12).irreducible()
        if p != 7:
            assert irr == fock, h
            continue
        first = next(n for n, (a, b) in enumerate(zip(irr, fock)) if a != b)
        assert first == CHAR7_FIRST_DROP[h], h
        assert all(a <= b for a, b in zip(irr, fock)), h


def test_full_rank_ranks_build_no_gram_matrix(monkeypatch):
    # Every slice of V(7/3, 5/11) has full rank and 56-bit denominators by
    # degree 14; its ranks come from the echelon rows alone.
    def unused(*args):
        raise AssertionError("irreducible_dims ranked a full Gram matrix")

    monkeypatch.setattr(linalg, "rank", unused)
    table = irreducible_dims(VermaModule(Fraction(7, 3), Fraction(5, 11)), 14)
    assert table.irreducible() == [verma_dim(n) for n in range(15)]


DEGREE = 16


def _partition_counts(n):
    """p(0), ..., p(n), adding one allowed part size at a time; independent
    of the engine's partition tables."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts


P = _partition_counts(DEGREE)


def _rocha_caridi(p, q, r, s):
    """Graded dimensions to DEGREE of L(c_{p,q}, h_{r,s}) by the
    Rocha-Caridi / Feigin-Fuchs formula: at degree d, the sum over k of
    P(d - k(pqk + qr - ps)) - P(d - (pqk^2 + k(qr + ps) + rs))."""
    out = []
    for d in range(DEGREE + 1):
        total = 0
        for k in range(-d - 1, d + 2):
            for sign, e in ((1, k * (p * q * k + q * r - p * s)), (-1, p * q * k * k + k * (q * r + p * s) + r * s)):
                if e <= d:
                    total += sign * P[d - e]
        out.append(total)
    return out


def _minimal_model_cases(p, q):
    """(c, h_{r,s}, character) for every Kac weight of the (p, q) minimal
    model, c = 1 - 6(q - p)^2/(pq), one per pair (r, s) ~ (p - r, q - s)."""
    c = 1 - Fraction(6 * (q - p) ** 2, p * q)
    reps = {min((r, s), (p - r, q - s)) for r in range(1, p) for s in range(1, q)}
    return [
        (c, Fraction((q * r - p * s) ** 2 - (q - p) ** 2, 4 * p * q), _rocha_caridi(p, q, r, s))
        for r, s in sorted(reps)
    ]


CHARACTER_CASES = [
    *(case for pq in ((2, 5), (3, 4), (2, 7)) for case in _minimal_model_cases(*pq)),
    # c = 1, h = m^2/4: the character p(d) - p(d - m - 1).
    *(
        (Fraction(1), Fraction(m * m, 4), [P[d] - (P[d - m - 1] if d > m else 0) for d in range(DEGREE + 1)])
        for m in range(5)
    ),
]


@pytest.mark.parametrize("c,h,want", CHARACTER_CASES, ids=[f"c={c},h={h}" for c, h, _ in CHARACTER_CASES])
def test_irreducible_dims_match_the_closed_form_characters(c, h, want):
    # An oracle that reads nothing of the engine but irreducible_dims: the
    # Gram ranks over Q against the classical characters.
    assert irreducible_dims(VermaModule(c, h), DEGREE).irreducible() == want


def test_character_table_json_shape():
    table = irreducible_dims(ising(Fraction(0), GF(7)), 4)
    data = table.to_json()
    assert data["char"] == 7
    assert data["rows"][4] == {"degree": 4, "verma": 5, "radical": 4, "irreducible": 1}


# -------------------------------------------------- generated submodules

def test_weight_one_vector_alone_misses_the_degree_six_generator(ising_modules):
    mod = ising_modules[Fraction(0)]
    gen = generated_submodule_dims(mod, [mod.monomial((1,))], 6)
    rad = [len(radical_basis(mod, d)) for d in range(7)]
    assert gen == [0, 1, 1, 2, 3, 5, 7]
    assert rad == [0, 1, 1, 2, 3, 5, 8]
    both = [singular_space(mod, 1).vectors[0], singular_space(mod, 6).vectors[0]]
    assert generated_submodule_dims(mod, both, 6) == rad


def test_radical_slices_are_stable_under_lowering(ising_modules):
    mod = ising_modules[Fraction(1, 16)]
    for degree in range(5):
        for vec in radical_basis(mod, degree):
            for k in (1, 2, 3):
                img = mod.apply_mode(-k, vec)
                if not img:
                    continue
                assert mod.gram_matrix(degree + k).in_radical(img)


# --------------------------------------------------- reduction mod p

def test_reduce_vector_normalizes_then_reduces(ising_modules):
    mod = ising_modules[Fraction(0)]
    s = (
        mod.monomial((2, 2, 2)).scale(Fraction(64))
        + mod.monomial((3, 3)).scale(Fraction(93))
        + mod.monomial((4, 2)).scale(Fraction(-264))
        + mod.monomial((6,)).scale(Fraction(-108))
    )
    f = GF(7)
    got = reduce_vector_mod_p(s, 7)
    assert dict(got.items()) == {
        (2, 2, 2): f.of_int(2),
        (3, 3): f.of_int(4),
        (4, 2): f.of_int(4),
        (6,): f.of_int(1),
    }


def test_reduce_vector_keeps_integer_coefficients(ising_modules):
    mod = ising_modules[Fraction(0)]
    for p in (3, 5, 7):
        got = reduce_vector_mod_p(mod.monomial((1,)), p)
        assert dict(got.items()) == {(1,): GF(p).of_int(1)}


def test_reduce_vector_drops_terms_that_vanish_mod_p(ising_modules):
    mod = ising_modules[Fraction(0)]
    vec = mod.monomial((3,)) + mod.monomial((2, 1)).scale(Fraction(3, 4))
    got = reduce_vector_mod_p(vec, 3)
    assert dict(got.items()) == {(3,): GF(3).of_int(1)}


def test_reduce_vector_rejects_p_in_denominator(ising_modules):
    mod = ising_modules[Fraction(0)]
    vec = mod.monomial((2,)) + mod.monomial((1, 1)).scale(Fraction(1, 3))
    with pytest.raises(DenominatorDivisibleByP):
        reduce_vector_mod_p(vec, 3)
