"""Tests for the mode calculus on vacuum descendants.

A state is a combination of normal-ordered products of the conformal
vector and its D-derivatives; the engine evaluates any mode of such a
state on Verma vectors.  The suite freezes hand-checked polynomial
identities in a formal highest weight h, checks the commutator rule for
composite modes against binomial expansions, and cross-validates the
engine's divided-power states and truncation bounds with an independent
wide-window evaluator on the raw-derivative normal form, where
L(-n)1 = D^(n-2) w / (n-2)! and (D x)_m = -m x_{m-1}.  The engine computes
on int polynomials; the same recursion on ring scalars, `poly_engine_term`,
checks it on every ring, and the memo's canonical int form is checked
directly.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from test_verma import assert_canonical_entry, scalar_act
from virfock.lincomb import merge
from virfock.scalars import GF, QQ, Poly, formal_ring
from virfock.verma import VermaVector, partitions, verma_module
from virfock.modes import (
    build_state,
    engine_for,
    mode_apply,
    named_state,
    named_state_pbw,
    named_state_verma,
    state_degree,
    term_degree,
    verify_annihilation,
)


# ---------------------------------------------------------------------------
# State construction and normal forms
# ---------------------------------------------------------------------------


def test_build_state_normal_forms():
    # L(-2)1 is the conformal vector itself.
    assert build_state([-2]) == {(0,): Fraction(1)}
    # L(-n)1 = D^(n-2) w / (n-2)!, the divided power D^(n-2) w.
    assert build_state([-6]) == {(4,): Fraction(1)}
    assert build_state([-3]) == {(1,): Fraction(1)}
    # Products stack left to right.
    assert build_state([-2, -2, -2]) == {(0, 0, 0): Fraction(1)}
    assert build_state([-4, -2]) == {(2, 0): Fraction(1)}


def test_leading_translation_action():
    # L(-1) on the bare vacuum is zero ...
    assert build_state([-1]) == {}
    # ... and otherwise acts as D, by the Leibniz rule over the factors.
    assert build_state([-1, -2]) == {(1,): Fraction(1)}
    # D D^(a) w = (a + 1) D^(a+1) w, so L(-1)^2 w = D^2 w = 2 D^(2) w.
    assert build_state([-1, -1, -2]) == {(2,): Fraction(2)}
    assert build_state([-1, -1, -2]) == {
        k: Fraction(2) * v for k, v in build_state([-4]).items()
    }
    assert build_state([-1, -2, -2]) == {(1, 0): Fraction(1), (0, 1): Fraction(1)}


def test_build_state_rejects_bad_words():
    with pytest.raises(ValueError, match="empty"):
        build_state([])
    with pytest.raises(ValueError, match="negative"):
        build_state([-2, 0])
    with pytest.raises(ValueError, match="negative"):
        build_state([3, -2])


@pytest.mark.parametrize("ring", [GF(3), formal_ring(3), GF(5)])
def test_build_state_evaluates_where_factorial_is_zero_mod_p(ring):
    # (n-2)! is 0 mod p from n = p + 2 on, but the divided power D^(p) w is
    # an integral state, and its modes are the images of the rational ones.
    p = ring.char
    assert build_state([-(p + 1)], ring) == {(p - 1,): ring.one()}
    word = [-2, -(p + 2)]
    assert build_state(word, ring) == {(0, p): ring.one()}
    over_q = verma_module(Fraction(1, 2), Fraction(1), QQ)
    mod = verma_module(Fraction(1, 2), Fraction(1), ring)
    deg = state_degree(build_state(word))
    for n in (deg - 2, deg - 1):
        for part in ((), (1,), (2,)):
            got = mode_apply(build_state(word, ring), n, mod.monomial(part), mod)
            want = mode_apply(build_state(word), n, over_q.monomial(part), over_q)
            assert got.terms == reduced(want.terms, ring), (n, part)


def test_named_states_reduce_mod_three():
    # 93, 264 and 108 are 0 mod 3, so s = L(-2)^3 1 = P(w, P(w, w)).
    assert named_state("s", GF(3)) == {(0, 0, 0): GF(3).one()}
    assert named_state("u", GF(3)) == {(0, 0): GF(3).one(), (2,): GF(3).one()}


def test_named_states():
    s = named_state("s")
    assert s == {
        (0, 0, 0): Fraction(64),
        (1, 1): Fraction(93),
        (2, 0): Fraction(-264),
        (4,): Fraction(-108),
    }
    assert named_state("u") == {(0, 0): Fraction(1), (2,): Fraction(-2)}
    assert state_degree(s) == 6
    assert state_degree(named_state("u")) == 4
    with pytest.raises(ValueError, match="unknown state"):
        named_state("t")


def test_named_state_pbw_words():
    assert named_state_pbw("s") == (
        (64, (-2, -2, -2)),
        (93, (-3, -3)),
        (-264, (-4, -2)),
        (-108, (-6,)),
    )
    assert named_state_pbw("u") == ((1, (-2, -2)), (-2, (-4,)))


def test_named_state_verma_matches_pbw_monomials():
    m = verma_module(Fraction(1, 2), Fraction(0), QQ)
    u = named_state_verma("u", m)
    assert u == m.monomial((2, 2)) + m.monomial((4,)).scale(Fraction(-2))
    s = named_state_verma("s", m)
    expect = (
        m.monomial((2, 2, 2)).scale(Fraction(64))
        + m.monomial((3, 3)).scale(Fraction(93))
        + m.monomial((4, 2)).scale(Fraction(-264))
        + m.monomial((6,)).scale(Fraction(-108))
    )
    assert s == expect


def test_state_add_cancels_to_zero():
    x = build_state([-2, -2])
    assert merge(dict(x), build_state([-2, -2]), Fraction(-1)) == {}
    with pytest.raises(ValueError, match="zero or mixes"):
        state_degree({})


def test_term_degree_counts_conformal_weight():
    assert term_degree(()) == 0
    assert term_degree((0,)) == 2
    assert term_degree((4,)) == 6
    assert term_degree((0, 0, 0)) == 6
    assert term_degree((2, 0)) == 6


# ---------------------------------------------------------------------------
# Mode convention and simple actions
# ---------------------------------------------------------------------------


def test_conformal_vector_modes_are_virasoro_operators():
    # w_m = L(m - 1), the a = 0 case of (D^(a) w)_m = (-1)^a C(m, a) L(m-a-1).
    m = verma_module(Fraction(1, 2), Fraction(1, 16), QQ)
    omega = build_state([-2])
    for vec in (m.monomial((2,)), m.monomial((2, 1)), m.vacuum()):
        for n in range(-3, 4):
            assert mode_apply(omega, n + 1, vec, m) == m.apply_mode(n, vec)


def test_engine_is_cached_per_module():
    m = verma_module(Fraction(1, 2), Fraction(1, 16), QQ)
    assert engine_for(m) is engine_for(m)


def test_mode_apply_of_zero_state_is_zero():
    m = verma_module(Fraction(1, 2), Fraction(0), QQ)
    assert mode_apply({}, 3, m.monomial((2,)), m) == VermaVector.zero()


# ---------------------------------------------------------------------------
# Frozen scalar actions at formal highest weight
# ---------------------------------------------------------------------------


def vacuum_scalar(state, n, module):
    """The scalar f with (state)_n v = f * v, or None if not a multiple."""
    out = mode_apply(state, n, module.vacuum(), module)
    if not out.terms:
        return module.ring.zero()
    assert set(out.terms) == {()}
    return out.terms[()]


def reduced(terms, ring):
    """Entrywise image in ring of a rational term dict."""
    return {k: ring.coerce(v) for k, v in terms.items() if ring.coerce(v)}


def test_degree_shift_scalars_formal():
    # Degree-6 states drop the highest weight vector by their mode index
    # minus one; at n = 5 the result is a scalar multiple of v.
    F = formal_ring(0)
    m = verma_module(Fraction(1, 2), F.h(), F)
    h = F.h()
    assert vacuum_scalar(build_state([-6], F), 5, m) == 5 * h
    assert vacuum_scalar(build_state([-2, -2, -2], F), 5, m) == h**3 + 6 * h**2 + 8 * h
    assert vacuum_scalar(build_state([-3, -3], F), 5, m) == 4 * h**2 + 6 * h
    assert vacuum_scalar(build_state([-4, -2], F), 5, m) == 3 * h**2 + 2 * h


def test_degree_six_combination_vanishes_exactly_on_ising_weights():
    # s_5 v = (64 h^3 - 36 h^2 + 2 h) v = 64 h (h - 1/2)(h - 1/16) v.
    F = formal_ring(0)
    m = verma_module(Fraction(1, 2), F.h(), F)
    got = vacuum_scalar(named_state("s", F), 5, m)
    assert isinstance(got, Poly)
    assert got.coeffs == (Fraction(0), Fraction(2), Fraction(-36), Fraction(64))
    for h, expect in [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(0)),
        (Fraction(1, 16), Fraction(0)),
        (Fraction(1), Fraction(30)),
    ]:
        mod = verma_module(Fraction(1, 2), h, QQ)
        assert vacuum_scalar(named_state("s"), 5, mod) == expect


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_degree_six_combination_mod_p_vanishes_exactly_on_ising_weights(p):
    # Over F_p[h], s_5 v is the image of 64 h^3 - 36 h^2 + 2 h, and its roots
    # in F_p are the images of 0, 1/2 and 1/16 (two roots at p = 7, where
    # 1/16 = 1/2 = 4).
    F = formal_ring(p)
    m = verma_module(Fraction(1, 2), F.h(), F)
    got = vacuum_scalar(named_state("s", F), 5, m)
    assert got == Poly((0, 2, -36, 64), p)
    field = GF(p)
    roots = {field.of_int(x) for x in range(p) if not got.eval(field.of_int(x))}
    assert roots == {field.coerce(h) for h in (Fraction(0), Fraction(1, 2), Fraction(1, 16))}
    assert len(roots) == (2 if p == 7 else 3)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("h", [Fraction(0), Fraction(1, 2), Fraction(1, 16)])
def test_degree_six_state_annihilates_ising_irreducibles_mod_p(p, h):
    m = verma_module(Fraction(1, 2), h, GF(p))
    rep = verify_annihilation(named_state("s", GF(p)), m, 2, 4)
    assert rep.ok
    assert rep.checks == 60


def test_degree_six_state_mod_five_reports_a_weight_off_the_roots():
    # Negative control: h = 2 is not a root of s_5 v mod 5, so s_5 v != 0.
    m = verma_module(Fraction(1, 2), Fraction(2), GF(5))
    rep = verify_annihilation(named_state("s", GF(5)), m, 2, 4)
    assert (0, 5, ()) in rep.violations


def test_degree_four_combination_scalar_mod_seven():
    # u_3 v = (h^2 + 3h) v = h(h - 4) v over GF(7).
    F7 = formal_ring(7)
    m = verma_module(Fraction(1, 2), F7.h(), F7)
    got = vacuum_scalar(named_state("u", F7), 3, m)
    assert got == F7.h() ** 2 + F7.of_int(3) * F7.h()
    for h, expect in [(0, 0), (4, 0), (1, 4), (2, 3)]:
        mod = verma_module(Fraction(1, 2), Fraction(h), GF(7))
        assert vacuum_scalar(named_state("u", GF(7)), 3, mod) == GF(7).of_int(expect)


def test_degree_six_mode_five_on_level_two_formal():
    # s_5 L(-2)v = f(h) L(-2)v + g(h) L(-1)^2 v with
    # f = 64 h^3 + 1884 h^2 - 4078 h and g = 1920 h + 210.
    F = formal_ring(0)
    m = verma_module(Fraction(1, 2), F.h(), F)
    out = mode_apply(named_state("s", F), 5, m.monomial((2,)), m)
    f = out.terms[(2,)]
    g = out.terms[(1, 1)]
    assert set(out.terms) == {(2,), (1, 1)}
    assert f.coeffs == (Fraction(0), Fraction(-4078), Fraction(1884), Fraction(64))
    assert g.coeffs == (Fraction(210), Fraction(1920))


@pytest.mark.parametrize(
    "h,factor,level2,level11",
    [
        # At h = 1/2 the image is -390 (4 L(-2) - 3 L(-1)^2) v.
        (Fraction(1, 2), Fraction(-390), Fraction(4), Fraction(-3)),
        # At h = 1/16 the image is -(165/2)(3 L(-2) - 4 L(-1)^2) v.
        (Fraction(1, 16), Fraction(-165, 2), Fraction(3), Fraction(-4)),
    ],
)
def test_degree_six_mode_five_on_level_two_at_special_weights(h, factor, level2, level11):
    m = verma_module(Fraction(1, 2), h, QQ)
    out = mode_apply(named_state("s"), 5, m.monomial((2,)), m)
    expect = (m.monomial((2,)).scale(level2) + m.monomial((1, 1)).scale(level11)).scale(factor)
    assert out == expect


def test_degree_six_mode_six_on_level_two_at_h_zero():
    # At h = 0 the level-2 target drops to level 1: s_6 L(-2)v = 66 L(-1)v,
    # with 66 = 2 * 3 * 11 assembled from the four PBW pieces.
    m = verma_module(Fraction(1, 2), Fraction(0), QQ)
    target = m.monomial((2,))
    pieces = {
        (-2, -2, -2): Fraction(561, 4),
        (-3, -3): Fraction(92),
        (-4, -2): Fraction(191, 4),
        (-6,): Fraction(45),
    }
    for word, scalar in pieces.items():
        out = mode_apply(build_state(list(word)), 6, target, m)
        assert out == m.monomial((1,)).scale(scalar)
    total = sum(
        Fraction(coeff) * pieces[word] for coeff, word in named_state_pbw("s")
    )
    assert total == 66
    assert mode_apply(named_state("s"), 6, target, m) == m.monomial((1,)).scale(Fraction(66))


def test_degree_six_mode_seven_kills_level_two_at_h_zero():
    m = verma_module(Fraction(1, 2), Fraction(0), QQ)
    assert mode_apply(named_state("s"), 7, m.monomial((2,)), m) == VermaVector.zero()


# ---------------------------------------------------------------------------
# Annihilation of irreducible quotients
# ---------------------------------------------------------------------------


def test_degree_six_state_annihilates_both_ising_irreducibles():
    for h in (Fraction(0), Fraction(1, 16)):
        m = verma_module(Fraction(1, 2), h, QQ)
        rep = verify_annihilation(named_state("s"), m, max_mode=8, max_target_degree=6)
        assert rep.ok
        assert rep.state_degree == 6
        assert rep.checks == 210


def test_degree_four_state_annihilates_weight_four_module_mod_seven():
    m = verma_module(Fraction(1, 2), Fraction(4), GF(7))
    rep = verify_annihilation(named_state("u", GF(7)), m, max_mode=8, max_target_degree=4)
    assert rep.ok
    assert rep.state_degree == 4
    assert rep.checks == 60


def test_annihilation_verifier_reports_violations():
    # Negative control: over the rationals the degree-4 state does not kill
    # the vacuum irreducible, and the report says where it fails.
    m = verma_module(Fraction(1, 2), Fraction(0), QQ)
    rep = verify_annihilation(named_state("u"), m, max_mode=6, max_target_degree=4)
    assert not rep.ok
    assert rep.violations


# ---------------------------------------------------------------------------
# Commutator rule for composite modes
# ---------------------------------------------------------------------------


def omega_modes_of_omega(ring):
    """The states w_i w for i >= 0: Dw, 2w, 0, (c/2) vacuum, then zero."""
    c = ring.of_fraction(Fraction(1, 2))
    half = ring.of_fraction(Fraction(1, 2))
    return {
        0: {(1,): ring.one()},
        1: {(0,): ring.of_int(2)},
        2: {},
        3: {(): c * half},
    }


@pytest.mark.parametrize("s", [0, 1, 2, 4])
@pytest.mark.parametrize("t", range(-3, 4))
def test_commutator_of_conformal_modes_expands_binomially(s, t):
    # [w_s, w_t] = sum_i C(s, i) (w_i w)_{s+t-i}; the i = 3 term carries the
    # central scalar and only fires when s + t = 2 (e.g. s = 4, t = -2).
    m = verma_module(Fraction(1, 2), Fraction(1, 16), QQ)
    omega = build_state([-2])
    inner = omega_modes_of_omega(QQ)
    targets = [m.vacuum(), m.monomial((1,)), m.monomial((2,)), m.monomial((2, 1))]
    for y in targets:
        lhs = mode_apply(omega, s, mode_apply(omega, t, y, m), m) - mode_apply(
            omega, t, mode_apply(omega, s, y, m), m
        )
        rhs = VermaVector.zero()
        for i in range(0, s + 1):
            coeff = QQ.of_int(math.comb(s, i))
            term = mode_apply(inner.get(i, {}), s + t - i, y, m)
            rhs = rhs + term.scale(coeff)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Independent wide-window evaluator
# ---------------------------------------------------------------------------


def factorial_state(word, ring=QQ):
    """The normal form of L(word)1 with raw derivatives D^a w, in which
    L(-n)1 = D^(n-2) w / (n-2)!.  Defined over F_p only while p > n - 2."""
    state = {(): ring.one()}
    for mode in reversed(list(word)):
        n = -mode
        new = {}
        if n == 1:
            for t, cv in state.items():
                add_into(new, {t[:i] + (t[i] + 1,) + t[i + 1 :]: cv for i in range(len(t))})
        else:
            f = ring.one() / ring.of_int(math.factorial(n - 2))
            for t, cv in state.items():
                new[(n - 2,) + t] = cv * f
        state = new
    return state


def add_into(acc, terms, factor=None):
    for r, cw in terms.items():
        v = cw if factor is None else factor * cw
        s = acc.get(r)
        s = v if s is None else s + v
        if s:
            acc[r] = s
        else:
            acc.pop(r, None)
    return acc


def naive_term(t, m, part, module, pad=4):
    """Evaluate the mode t_m of a raw-derivative term on a basis monomial
    without memoization, by (D x)_m = -m x_{m-1}, and with summation windows
    padded beyond the engine's truncation bounds.

    The padding adds only terms that vanish on degree grounds, so any
    disagreement with the memoized engine means a truncation bug.
    """
    ring = module.ring
    if not t:
        return {part: ring.one()} if m == -1 else {}
    if len(t) == 1:
        a = t[0]
        if a == 0:
            return dict(mode_on_monomial(m - 1, part, module))
        f = ring.of_int(-m)
        if not f:
            return {}
        return {q: f * cv for q, cv in naive_term((a - 1,), m - 1, part, module, pad).items()}
    x, y = (t[0],), t[1:]
    d = sum(part)
    dx, dy = term_degree(x), term_degree(y)
    acc = {}
    for i in range(m - d - dy - pad, 0):
        acc = naive_compose(x, i, naive_term(y, m - 1 - i, part, module, pad), acc, module, pad)
    for i in range(0, d + dx + pad):
        acc = naive_compose(y, m - 1 - i, naive_term(x, i, part, module, pad), acc, module, pad)
    return acc


def naive_compose(t, k, inner, acc, module, pad):
    for q, cv in inner.items():
        add_into(acc, naive_term(t, k, q, module, pad), cv)
    return acc


def mode_on_monomial(n, part, module):
    out = module.apply_mode(n, module.monomial(part))
    return out.terms


def oracle_image(pbw, n, part, module, pad=4):
    """The image of the mode n of sum_j c_j L(word_j)1 on a basis monomial,
    through factorial_state and naive_term; pbw lists (c_j, word_j)."""
    want = {}
    for coeff, word in pbw:
        for t, cv in factorial_state(word, module.ring).items():
            add_into(want, naive_term(t, n, part, module, pad), cv * module.ring.of_int(coeff))
    return want


def engine_image(pbw, n, part, module):
    state = {}
    for coeff, word in pbw:
        merge(state, build_state(word, module.ring), module.ring.of_int(coeff))
    return mode_apply(state, n, module.monomial(part), module).terms


@pytest.mark.parametrize(
    "word",
    [
        [-2], [-3], [-4], [-2, -2], [-3, -2], [-2, -2, -2],
        [-1, -2], [-5], [-1, -3, -2], [-6, -1, -2], [-7, -1, -2], [-1, -5, -2],
    ],
)
def test_engine_agrees_with_wide_window_evaluator(word):
    m = verma_module(Fraction(1, 2), Fraction(1, 16), QQ)
    deg = state_degree(build_state(word))
    for n in (deg - 2, deg - 1, deg, deg + 1):
        for target_degree in (0, 1, 2):
            for part in m.basis(target_degree):
                got = engine_image([(1, word)], n, part, m)
                assert got == oracle_image([(1, word)], n, part, m), (word, n, part)


def test_engine_agrees_with_wide_window_evaluator_mod_seven():
    m = verma_module(Fraction(1, 2), Fraction(4), GF(7))
    for pbw in (named_state_pbw("u"), [(1, [-7, -1, -2])], [(3, [-1, -8])]):
        deg = state_degree(build_state(pbw[0][1]))
        for n in (deg - 2, deg - 1, deg, deg + 1):
            for part in ((), (1,), (2,), (1, 1)):
                got = engine_image(pbw, n, part, m)
                assert got == oracle_image(pbw, n, part, m), (pbw, n, part)


def test_engine_agrees_with_wide_window_evaluator_mod_five():
    # Up to L(-6), the largest mode whose (n-2)! is a unit mod 5.
    m = verma_module(Fraction(1, 2), Fraction(1, 16), GF(5))
    for word in ([-6, -1, -2], [-1, -5, -2], [-1, -1, -6], [-3, -4]):
        deg = state_degree(build_state(word))
        for n in (deg - 2, deg - 1, deg, deg + 1):
            for part in ((), (1,), (2,), (1, 1)):
                got = engine_image([(1, word)], n, part, m)
                assert got == oracle_image([(1, word)], n, part, m), (word, n, part)


@given(
    n=st.integers(min_value=4, max_value=8),
    target=st.sampled_from([(), (1,), (2,), (1, 1), (2, 1)]),
)
def test_degree_six_state_engine_matches_oracle(n, target):
    m = verma_module(Fraction(1, 2), Fraction(0), QQ)
    pbw = named_state_pbw("s")
    assert engine_image(pbw, n, target, m) == oracle_image(pbw, n, target, m, pad=3)


@given(
    a=st.integers(min_value=0, max_value=6),
    n=st.integers(min_value=-10, max_value=10),
    target=st.sampled_from([(), (1,), (2,), (1, 1), (3,)]),
)
def test_divided_power_mode_is_the_recursion_over_a_factorial(a, n, target):
    # (D^(a) w)_n = (-1)^a C(n, a) L(n-a-1) against the a-step recursion
    # (D x)_n = -n x_{n-1} divided by a!, negative n included.
    m = verma_module(Fraction(1, 2), Fraction(1, 16), QQ)
    got = mode_apply({(a,): Fraction(1)}, n, m.monomial(target), m).terms
    want = naive_term((a,), n, target, m)
    assert got == {q: cv / math.factorial(a) for q, cv in want.items()}


# ---------------------------------------------------------------------------
# The engine on ring scalars, as an oracle for the int engine
# ---------------------------------------------------------------------------


def poly_engine_term(t, m, part, module, memo):
    """The mode t_m on a basis monomial by the engine's own recursion and
    summation windows, but on ring scalars (Fraction, Fp or Poly) merged
    term by term over the scalar straightening oracle `scalar_act`, with
    memo a plain dict of such term dicts."""
    key = (t, m, part)
    hit = memo.get(key)
    if hit is not None:
        return hit
    ring = module.ring
    d = sum(part)
    if d + term_degree(t) - m - 1 < 0:
        out = {}
    elif not t:
        out = {part: ring.one()} if m == -1 else {}
    elif len(t) == 1:
        a = t[0]
        f = (-1) ** a * math.comb(m, a) if m >= 0 else math.comb(a - m - 1, a)
        out = {}
        f = ring.of_int(f)
        if f:
            merge(out, scalar_act(module, m - a - 1, part), f)
    else:
        x, y = (t[0],), t[1:]
        dx, dy = term_degree(x), term_degree(y)
        out = {}
        for i in range(m - d - dy, 0):
            poly_engine_compose(x, i, poly_engine_term(y, m - 1 - i, part, module, memo), out, module, memo)
        for i in range(0, d + dx):
            poly_engine_compose(y, m - 1 - i, poly_engine_term(x, i, part, module, memo), out, module, memo)
    memo[key] = out
    return out


def poly_engine_compose(t, k, inner, acc, module, memo):
    for q, cv in inner.items():
        merge(acc, poly_engine_term(t, k, q, module, memo), cv)


def poly_engine_apply(state, n, target, module):
    memo = {}
    out = {}
    for t, c in state.items():
        for part, cv in target.terms.items():
            f = c * cv
            if f:
                merge(out, poly_engine_term(t, n, part, module, memo), f)
    return out


ORACLE_RINGS = [QQ, GF(7), formal_ring(0), formal_ring(3), formal_ring(7)]


@st.composite
def pbw_words(draw, degree):
    """A word of negative modes L(-k), k <= 6, of total degree `degree` >= 2,
    whose rightmost mode is not L(-1), which kills the vacuum."""
    first = draw(st.integers(min_value=2, max_value=min(degree, 6)))
    word = [-first]
    degree -= first
    while degree:
        k = draw(st.integers(min_value=1, max_value=min(degree, 6)))
        word.insert(0, -k)
        degree -= k
    return word


@settings(max_examples=100)
@given(data=st.data())
def test_int_engine_matches_the_poly_engine(data):
    ring = data.draw(st.sampled_from(ORACLE_RINGS), label="ring")
    c = data.draw(st.sampled_from([Fraction(1, 2), Fraction(-22, 5), Fraction(7, 5), Fraction(0)]), label="c")
    if ring.formal:
        h = ring.h()
    else:
        h = data.draw(st.sampled_from([Fraction(1, 16), Fraction(5, 11), Fraction(4), Fraction(1, 2), Fraction(0)]), label="h")
    m = verma_module(c, h, ring)
    deg = data.draw(st.integers(min_value=2, max_value=8), label="state degree")
    state = {}
    for _ in range(data.draw(st.integers(min_value=1, max_value=3), label="words")):
        word = data.draw(pbw_words(deg), label="word")
        coeff = ring.coerce(data.draw(st.sampled_from([1, 2, -1, 4, -5]), label="coeff"))
        merge(state, build_state(word, ring), coeff)
    d = data.draw(st.integers(min_value=0, max_value=4), label="target degree")
    parts = data.draw(st.lists(st.sampled_from(partitions(d)), min_size=1, max_size=3, unique=True), label="parts")
    target = VermaVector.zero()
    for part in parts:
        cv = ring.coerce(data.draw(st.sampled_from([Fraction(1), Fraction(-2, 5), Fraction(5, 4)]), label="target coeff"))
        target = target + m.monomial(part).scale(cv)
    # u_n maps degree d to d + deg - n - 1; keep the image degree in 0..4.
    n = d + deg - 1 - data.draw(st.integers(min_value=0, max_value=4), label="image degree")
    assert mode_apply(state, n, target, m).terms == poly_engine_apply(state, n, target, m)


@pytest.mark.parametrize(
    "ring,h",
    [(QQ, Fraction(1, 16)), (QQ, Fraction(2, 3)), (GF(5), Fraction(2)), (formal_ring(0), "h"), (formal_ring(5), "h")],
    ids=["Q-1/16", "Q-2/3", "F5", "Q[h]", "F5[h]"],
)
def test_memo_entries_are_canonical_int_polynomials(ring, h):
    m = verma_module(Fraction(1, 2), ring.h() if h == "h" else h, ring)
    eng = engine_for(m)
    # The (n, part) pairs of verify_annihilation(s, m, 2, 4), which needs
    # Gram slices and so a field.
    s = named_state("s", ring)
    deg = state_degree(s)
    for d in range(5):
        for n in range(max(-2, d + deg - 5), d + deg):
            for part in partitions(d):
                eng.apply(s, n, m.monomial(part))
    assert eng._memo
    for key, entry in eng._memo.items():
        assert_canonical_entry(entry, ring, key)
    # A second call reads the memo; an in-place add into an entry would show.
    target = m.monomial((2, 1)) + m.monomial((1, 1, 1)).scale(ring.coerce(Fraction(3, 2)))
    first = mode_apply(named_state("s", ring), 3, target, m)
    again = mode_apply(named_state("s", ring), 3, target, m)
    assert first == again
    assert first.terms == poly_engine_apply(named_state("s", ring), 3, target, m)
