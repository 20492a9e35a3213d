"""Verma modules V(c, h): PBW bases, the straightening action of every mode,
and contravariant Gram matrices, over Q, F_p, and with formal weight."""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import ODD_PRIMES, fractions, full_gram
from virfock.lincomb import merge
from virfock.linalg import det, nullspace, rank
from virfock.scalars import (
    GF,
    QQ,
    DenominatorDivisibleByP,
    Fp,
    RingMismatchError,
    central_coeff,
    entry_values,
    formal_ring,
)
from virfock.modes import named_state, verify_annihilation
from virfock.singular import radical_basis, singular_space
from virfock.verma import VermaModule, VermaVector, partitions, verma_dim, verma_module

SAMPLE_PARAMS = [
    (Fraction(1, 2), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 16)),
    (Fraction(3), Fraction(2)),
    (Fraction(-7, 3), Fraction(5, 4)),
]


def q_module(c, h):
    return verma_module(Fraction(c), Fraction(h), QQ)


# ------------------------------------------------------------ straightening oracle

_SCALAR_MEMOS = {}


def scalar_act(module, n, parts):
    """L(n) on a basis monomial of module as a term dict of ring scalars
    (Fraction, Fp or Poly), straightened recursively with every sum merged
    term by term.  This is the engine's straightening on scalars, kept as an
    oracle for its int form; the memo is per module."""
    memo = _SCALAR_MEMOS.setdefault(module, {})
    key = (n, parts)
    hit = memo.get(key)
    if hit is not None:
        return hit
    one = module.ring.one()
    if not parts:
        if n > 0:
            out = {}
        elif n == 0:
            out = {(): module.h} if module.h else {}
        else:
            out = {(-n,): one}
    elif n <= -parts[0]:
        out = {(-n,) + parts: one}
    else:
        m1 = parts[0]
        tail = parts[1:]
        # L(n) L(-m1) = L(-m1) L(n) + (n+m1) L(n-m1) + delta_{n,m1} cc(n) c
        out = _scalar_prepend(module, m1, scalar_act(module, n, tail))
        k = module.ring.of_int(n + m1)
        if k:
            merge(out, scalar_act(module, n - m1, tail), k)
        if n == m1:
            z = central_coeff(n, module.ring) * module.c
            if z:
                merge(out, {tail: one}, z)
    memo[key] = out
    return out


def _scalar_prepend(module, m1, terms):
    """Left multiply by L(-m1), restraightening where the order breaks."""
    out = {(m1,) + p: cv for p, cv in terms.items() if not p or m1 >= p[0]}
    for p, cv in terms.items():
        if p and m1 < p[0]:
            merge(out, scalar_act(module, -m1, p), cv)
    return out


ACT_RINGS = [QQ, GF(3), GF(7), formal_ring(0), formal_ring(7)]


@settings(max_examples=100)
@given(data=st.data())
def test_int_straightening_matches_the_scalar_oracle(data):
    ring = data.draw(st.sampled_from(ACT_RINGS), label="ring")
    c = data.draw(st.sampled_from([Fraction(1, 2), Fraction(7, 3), Fraction(-22, 5), Fraction(-2)]), label="c")
    if ring.formal:
        h = ring.h()
    else:
        h = data.draw(st.sampled_from([Fraction(0), Fraction(1, 16), Fraction(1, 2), Fraction(-1, 5), Fraction(5, 11)]), label="h")
    try:
        mod = VermaModule(c, h, ring)
    except DenominatorDivisibleByP:
        assume(False)
    n = data.draw(st.integers(min_value=-6, max_value=6), label="n")
    parts = data.draw(st.sampled_from(partitions(data.draw(st.integers(0, 8), label="degree"))), label="parts")
    mod._act(n, parts)
    # The fresh memo holds every entry the recursion reached.
    for key, entry in mod._memo.items():
        got, want = entry_values(entry, ring), scalar_act(mod, *key)
        assert got == want, key
        assert [type(x) for x in got.values()] == [type(x) for x in want.values()], key


@pytest.mark.parametrize(
    "c,h,ring",
    [
        (Fraction(1, 2), Fraction(1, 16), QQ),
        (Fraction(-2), Fraction(3, 8), QQ),
        (Fraction(-22, 5), Fraction(-1, 5), QQ),
        (Fraction(1, 2), Fraction(1, 2), GF(3)),
        (Fraction(7, 3), Fraction(5, 11), GF(5)),
        (Fraction(7, 3), None, formal_ring(0)),
        (Fraction(-2), None, formal_ring(5)),
    ],
    ids=["Q", "Q-c-2", "Q-c-22_5", "F3", "F5", "Q[h]", "F5[h]"],
)
def test_straightening_memo_entries_are_canonical(c, h, ring):
    mod = VermaModule(c, ring.h() if h is None else h, ring)
    if ring.formal:
        # No Gram slice or kernel over Q[h]; singular_space's L(1), L(2)
        # pass instead.
        for m in (1, 2):
            for q in partitions(6):
                mod.apply_mode(m, mod.monomial(q))
    else:
        mod.gram_matrix(8)
        singular_space(mod, 6)
    assert mod._memo
    for key, entry in mod._memo.items():
        assert_canonical_entry(entry, ring, key)
        assert entry_values(entry, ring) == scalar_act(mod, *key), key


@pytest.mark.parametrize(
    "ring,alien",
    [(QQ, Fp(1, 7)), (GF(7), Fraction(1, 2)), (GF(7), Fp(1, 5)), (formal_ring(0), Fraction(1, 2))],
    ids=["Q-Fp", "F7-Fraction", "F7-F5", "Q[h]-Fraction"],
)
def test_apply_mode_rejects_a_scalar_of_another_ring(ring, alien):
    mod = VermaModule(Fraction(1, 2), ring.h() if ring.formal else Fraction(1, 16), ring)
    with pytest.raises(RingMismatchError):
        mod.apply_mode(1, VermaVector({(2,): alien}))
    with pytest.raises(RingMismatchError):
        mod.apply_mode(1, mod.monomial((2,)) + VermaVector({(1, 1): alien}))


def assert_canonical_entry(entry, ring, key):
    """entry is a canonical int polynomial entry (den, {key: int tuple})
    over ring, the form shared by the straightening and mode memos."""
    den, terms = entry
    p = ring.char
    assert isinstance(den, int) and den >= 1, key
    assert isinstance(terms, dict), key
    for part, num in terms.items():
        assert isinstance(num, tuple) and num and num[-1] != 0, (key, part)
        assert all(type(x) is int for x in num), (key, part)
        if not ring.formal:
            assert len(num) == 1, (key, part)
        if p:
            assert all(0 <= x < p for x in num), (key, part)
    if p:
        assert den == 1, key
    elif terms:
        assert gcd(den, *(x for num in terms.values() for x in num)) == 1, key


# ------------------------------------------------------------ dimensions

def test_verma_dim_counts_partitions():
    assert verma_dim(0) == 1
    assert verma_dim(4) == 5
    assert verma_dim(6) == 11


def test_basis_is_graded_lexicographic_descending():
    mod = q_module("1/2", 0)
    assert mod.basis(2) == ((2,), (1, 1))
    assert mod.basis(3) == ((3,), (2, 1), (1, 1, 1))
    assert len(mod.basis(6)) == 11


# ------------------------------------------------------------ apply_mode

@pytest.mark.parametrize("c,h", SAMPLE_PARAMS)
def test_lowering_then_raising_gives_twice_the_weight(c, h):
    mod = q_module(c, h)
    assert mod.apply_mode(1, mod.monomial((1,))) == mod.vacuum().scale(2 * h)


@pytest.mark.parametrize("c,h", SAMPLE_PARAMS)
def test_mode_two_on_depth_two_monomial(c, h):
    mod = q_module(c, h)
    want = mod.vacuum().scale(4 * h + Fraction(c) / 2)
    assert mod.apply_mode(2, mod.monomial((2,))) == want


def test_negative_mode_straightens_into_pbw_order():
    mod = q_module("1/2", "1/16")
    got = mod.apply_mode(-1, mod.monomial((2,)))
    assert got == mod.monomial((2, 1)) + mod.monomial((3,))


def test_mode_zero_acts_termwise_on_mixed_degrees():
    h = Fraction(1, 16)
    mod = q_module("1/2", h)
    mixed = mod.vacuum() + mod.monomial((2,))
    got = mod.apply_mode(0, mixed)
    assert got == mod.vacuum().scale(h) + mod.monomial((2,)).scale(h + 2)


@given(
    n=st.integers(min_value=-3, max_value=3),
    idx=st.integers(min_value=0, max_value=6),
    deg=st.integers(min_value=0, max_value=5),
)
def test_modes_shift_degree_by_their_index(n, idx, deg):
    mod = q_module("1/2", "1/16")
    basis = mod.basis(deg)
    part = basis[idx % len(basis)]
    img = mod.apply_mode(n, mod.monomial(part) if part else mod.vacuum())
    if img:
        assert img.is_homogeneous()
        assert img.degree() == deg - n


# --------------------------------------------------- bracket consistency

@given(
    m=st.integers(min_value=-3, max_value=3),
    n=st.integers(min_value=-3, max_value=3),
    idx=st.integers(min_value=0, max_value=10),
    deg=st.integers(min_value=0, max_value=5),
    params=st.sampled_from(SAMPLE_PARAMS),
)
def test_bracket_relation_on_basis_monomials(m, n, idx, deg, params):
    c, h = params
    mod = q_module(c, h)
    basis = mod.basis(deg)
    part = basis[idx % len(basis)]
    x = mod.monomial(part) if part else mod.vacuum()
    lhs = mod.apply_mode(m, mod.apply_mode(n, x)) - mod.apply_mode(n, mod.apply_mode(m, x))
    rhs = mod.apply_mode(m + n, x).scale(Fraction(m - n))
    if m + n == 0:
        rhs = rhs + x.scale(central_coeff(m, QQ) * c)
    assert lhs == rhs


def test_bracket_relation_with_formal_weight():
    ring = formal_ring(0)
    mod = verma_module(Fraction(1, 2), ring.h(), ring)
    x = mod.monomial((2, 1))
    lhs = mod.apply_mode(2, mod.apply_mode(-2, x)) - mod.apply_mode(-2, mod.apply_mode(2, x))
    rhs = mod.apply_mode(0, x).scale(ring.of_int(4)) + x.scale(central_coeff(2, ring) * ring.coerce(Fraction(1, 2)))
    assert lhs == rhs


# ---------------------------------------------------------- gram matrices
#
# The engine holds a Gram slice only as echelon rows; full_gram (conftest)
# builds the full matrix by the adjointness recurrence, and
# _entrywise_gram by the definition.

def test_gram_degree_one_is_twice_the_weight():
    for c, h in SAMPLE_PARAMS:
        assert full_gram(q_module(c, h), 1).entries == ((2 * h,),)
    assert full_gram(q_module("1/2", 0), 1).entries == ((Fraction(0),),)


@pytest.mark.parametrize("c,h", SAMPLE_PARAMS)
def test_gram_degree_two_closed_form(c, h):
    mod = q_module(c, h)
    assert mod.gram_matrix(2).basis == ((2,), (1, 1))
    c, h = Fraction(c), Fraction(h)
    assert full_gram(mod, 2).entries == (
        (4 * h + c / 2, 6 * h),
        (6 * h, 4 * h * (2 * h + 1)),
    )


def test_gram_degree_two_formal():
    ring = formal_ring(0)
    h = ring.h()
    mod = verma_module(Fraction(1, 2), h, ring)
    assert full_gram(mod, 2).entries == (
        (4 * h + Fraction(1, 4), 6 * h),
        (6 * h, 8 * h * h + 4 * h),
    )


@pytest.mark.parametrize("ring", [formal_ring(0), formal_ring(5)], ids=["Q[h]", "F5[h]"])
def test_gram_slices_need_a_field(ring):
    # A Gram slice is its echelon rows, and a formal ring has no echelon:
    # every reader of a slice raises, negative degrees included.
    mod = VermaModule(Fraction(1, 2), ring.h(), ring)
    for degree in (2, -1):
        with pytest.raises(RingMismatchError):
            mod.gram_matrix(degree)
    with pytest.raises(RingMismatchError):
        radical_basis(mod, 2)
    with pytest.raises(RingMismatchError):
        verify_annihilation(named_state("s", ring), mod, 2, 4)


@given(params=st.sampled_from(SAMPLE_PARAMS), deg=st.integers(min_value=0, max_value=5))
def test_gram_matrices_are_symmetric(params, deg):
    c, h = params
    entries = full_gram(q_module(c, h), deg).entries
    n = len(entries)
    for i in range(n):
        for j in range(i):
            assert entries[i][j] == entries[j][i]


def _entrywise_gram(mod, n):
    """Gram matrix by its definition: entry (lambda, mu) is the coefficient
    of v in L(lambda_k)...L(lambda_1) L(-mu) v."""
    basis = partitions(n)
    rows = []
    for lam in basis:
        row = []
        for mu in basis:
            r = mod.monomial(mu)
            for part in lam:
                r = mod.apply_mode(part, r)
            row.append(r.terms.get((), mod.ring.zero()))
        rows.append(tuple(row))
    return tuple(rows)


GRAM_CASES = [
    (Fraction(1, 2), Fraction(1, 16), QQ),
    (Fraction(-22, 5), Fraction(-1, 5), QQ),
    (Fraction(1, 2), Fraction(1, 16), GF(3)),
    (Fraction(1, 2), Fraction(0), GF(7)),
    (Fraction(1, 2), None, formal_ring(0)),
]


@pytest.mark.parametrize("c,h,ring", GRAM_CASES, ids=["Q", "Q-c-22_5", "F3", "F7", "Q[h]"])
def test_gram_recurrence_matches_entrywise_definition(c, h, ring):
    h = ring.h() if h is None else h
    mod = VermaModule(c, h, ring)
    oracle = VermaModule(c, h, ring)
    for n in range(10):
        got = full_gram(mod, n).entries
        want = _entrywise_gram(oracle, n)
        assert got == want
        assert [type(x) for r in got for x in r] == [type(x) for r in want for x in r]


FIELDS = [QQ] + [GF(p) for p in ODD_PRIMES]


@st.composite
def field_params(draw):
    """A field and (c, h) in it: rationals with denominators up to 50,
    reduced mod p when p divides neither denominator."""
    ring = draw(st.sampled_from(FIELDS))
    c, h = draw(fractions(max_num=200, max_den=50)), draw(fractions(max_num=200, max_den=50))
    try:
        return ring, ring.coerce(c), ring.coerce(h)
    except DenominatorDivisibleByP:
        assume(False)


@given(params=field_params())
def test_int_gram_recurrence_matches_entrywise_definition(params):
    ring, c, h = params
    mod = VermaModule(c, h, ring)
    oracle = VermaModule(c, h, ring)
    for n in range(8):
        got, want = full_gram(mod, n).entries, _entrywise_gram(oracle, n)
        assert got == want
        assert [type(x) for r in got for x in r] == [type(x) for r in want for x in r]


KAC_POINTS = [
    (Fraction(1, 2), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 16)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(-22, 5), Fraction(-1, 5)),
    (Fraction(0), Fraction(0)),
]


@pytest.mark.parametrize("ring", FIELDS, ids=lambda r: f"F{r.char}" if r.char else "Q")
@given(point=st.sampled_from(KAC_POINTS), data=st.data())
def test_in_radical_matches_the_scalar_pairing(ring, point, data):
    c, h = point
    try:
        mod = VermaModule(c, h, ring)
    except DenominatorDivisibleByP:
        assume(False)
    ints = st.integers(min_value=-3, max_value=3)
    alien = Fp(1, 7) if ring.char != 7 else Fp(1, 5)
    for n in range(7):
        gram = mod.gram_matrix(n)
        basis = partitions(n)
        radical = radical_basis(mod, n)
        assert all(gram.in_radical(r) for r in radical)
        # A combination of radical vectors, plus a random vector or nothing.
        vec = VermaVector.zero()
        for r in radical:
            vec = vec + r.scale(ring.of_int(data.draw(ints)))
        if data.draw(st.booleans()):
            rand = {p: ring.of_int(data.draw(ints)) for p in basis}
            vec = vec + VermaVector({p: x for p, x in rand.items() if x})
        coords = [vec.terms.get(p, ring.zero()) for p in basis]
        want = not any(sum((g * x for g, x in zip(row, coords)), ring.zero()) for row in full_gram(mod, n).entries)
        assert gram.in_radical(vec) is want
        for other in (alien, Fraction(1, 2)) if ring.char else (alien,):
            with pytest.raises(RingMismatchError):
                gram.in_radical(VermaVector({**vec.terms, basis[-1]: other}))


@pytest.mark.parametrize("ring", FIELDS, ids=lambda r: f"F{r.char}" if r.char else "Q")
@given(point=st.one_of(st.sampled_from(KAC_POINTS), st.tuples(fractions(max_num=20, max_den=8), fractions(max_num=20, max_den=8))))
def test_echelon_rows_span_the_row_space_of_the_full_gram_matrix(ring, point):
    # The rows come from degrees n - 1 and n - 2 through L(1) and L(2); the
    # full matrix is built from every L(k) and ranked as it stands.
    c, h = point
    try:
        mod = VermaModule(c, h, ring)
    except DenominatorDivisibleByP:
        assume(False)
    for n in range(11):
        gram, num = mod.gram_matrix(n), full_gram(mod, n).num
        assert gram.rank == rank(num, ring)
        assert rank([*gram.rows, *num], ring) == gram.rank
        want = [VermaVector({k: cv for k, cv in zip(gram.basis, x) if cv}) for x in nullspace(num, ring)]
        assert radical_basis(mod, n) == want


def test_in_radical_rejects_a_vector_of_another_degree():
    # A term outside the slice pairs with no row of the form; ignoring it
    # would make L(-3) v look like a radical vector of degree 2.
    for ring in (QQ, GF(7)):
        mod = VermaModule(Fraction(1, 2), Fraction(0), ring)
        gram = mod.gram_matrix(2)
        for vec in (mod.monomial((3,)), mod.monomial((2,)) + mod.monomial((1,))):
            with pytest.raises(ValueError, match="outside degree 2"):
                gram.in_radical(vec)


def test_gram_requested_first_at_degree_ten_matches_upward_fill():
    upward = VermaModule(Fraction(1, 2), Fraction(1, 16))
    for n in range(11):
        upward.gram_matrix(n)
    fresh = VermaModule(Fraction(1, 2), Fraction(1, 16))
    for n in (10, 7):
        assert fresh.gram_matrix(n) == upward.gram_matrix(n)


def _kac_h(r, s, t):
    return Fraction(r * r - 1) * t / 4 - Fraction(r * s - 1, 2) + Fraction(s * s - 1) / (4 * t)


def _kac_constant(n):
    """K_n = prod over (r, s) of ((2r)^s s!)^m(r, s), where m(r, s) counts the
    partitions of n with exactly s parts equal to r."""
    k = 1
    for lam in partitions(n):
        for r in set(lam):
            s = lam.count(r)
            k *= (2 * r) ** s * factorial(s)
    return k


def _kac_determinant(n, t, h):
    out = Fraction(_kac_constant(n))
    for r in range(1, n + 1):
        for s in range(1, n // r + 1):
            out *= (h - _kac_h(r, s, t)) ** len(partitions(n - r * s))
    return out


@given(t=fractions().filter(bool), h=fractions())
def test_gram_determinant_is_the_kac_determinant(t, h):
    c = 13 - 6 * (t + 1 / t)
    for n in range(7):
        want = _kac_determinant(n, t, h)
        assert det(full_gram(VermaModule(c, h), n).entries, QQ) == want
        for p in (7, 11):
            ring = GF(p)
            try:
                t_p, h_p, want_p = ring.of_fraction(t), ring.of_fraction(h), ring.of_fraction(want)
            except DenominatorDivisibleByP:
                continue
            if not t_p:
                continue
            got = det(full_gram(VermaModule(ring.of_fraction(c), h_p, ring), n).entries, ring)
            assert got == want_p


def test_gram_reduces_entrywise_mod_p():
    p = 5
    ring = GF(p)
    mq = q_module("1/2", 2)
    mp = verma_module(Fraction(1, 2), Fraction(2), ring)
    for deg in range(5):
        assert mp.gram_matrix(deg).basis == mq.gram_matrix(deg).basis
        for rq, rp in zip(full_gram(mq, deg).entries, full_gram(mp, deg).entries):
            assert tuple(ring.of_fraction(x) for x in rq) == tuple(rp)


# ------------------------------------------------------- vacuum quotient

def test_vacuum_projection_drops_partitions_with_unit_parts():
    mod = q_module("1/2", 0)
    vec = mod.monomial((2, 1)) + mod.monomial((3,)).scale(Fraction(5))
    assert mod.project_vacuum_module(vec) == mod.monomial((3,)).scale(Fraction(5))


def test_vacuum_projection_requires_weight_zero():
    mod = q_module("1/2", "1/16")
    with pytest.raises(ValueError, match="h = 0"):
        mod.project_vacuum_module(mod.monomial((2,)))


# ----------------------------------------------------------- vector API

def test_vector_algebra_drops_cancelled_terms():
    mod = q_module("1/2", 0)
    a = mod.monomial((2,)) + mod.monomial((1, 1))
    b = mod.monomial((1, 1))
    diff = a - b
    assert dict(diff.items()) == {(2,): Fraction(1)}
    assert not (diff - mod.monomial((2,)))
    assert VermaVector.zero() == a.scale(Fraction(0))


def test_leading_partition_and_normalization():
    mod = q_module("1/2", 0)
    vec = mod.monomial((2, 2, 2)).scale(Fraction(64)) + mod.monomial((6,)).scale(Fraction(-108))
    assert vec.leading_partition() == (6,)
    unit = vec.normalized()
    assert unit.coeff((6,)) == 1
    assert unit.coeff((2, 2, 2)) == Fraction(64, -108)


def test_vector_json_round_trip():
    mod = q_module("1/2", "1/16")
    vec = mod.monomial((3, 1)).scale(Fraction(-25, 6)) + mod.vacuum()
    data = vec.to_json()
    assert {"partition": [3, 1], "coeff": "-25/6"} in data
    assert VermaVector.from_json(data, QQ) == vec


@pytest.mark.parametrize("ring", [GF(7), formal_ring(7)], ids=["F7", "F7[h]"])
def test_missing_coefficient_is_the_zero_of_the_vector_ring(ring):
    vec = VermaVector({(1,): ring.one()})
    assert vec.coeff((2,)) == ring.zero()
    assert type(vec.coeff((2,))) is type(ring.zero())
    assert VermaVector.zero().coeff((2,)) == 0


def test_apply_word_applies_rightmost_mode_first():
    mod = q_module("1/2", "1/16")
    got = mod.apply_word([1, -2], mod.vacuum())
    assert got == mod.monomial((1,)).scale(Fraction(3))
