"""Exact linear algebra over Q and F_p: rank, nullspace, determinant,
incremental span tracking.  All of them run one fraction-free sparse
reduction on int rows, the same echelon over Q and F_p, so rank and
SpanBuilder are cross-checked here against a plain field-division oracle,
and rank, nullspace and det against dense elimination (Bareiss over Q),
kept here as an oracle, on random sparse matrices, on rationals with large
numerators and denominators, and on dense Gram matrices.  nullspace is
checked under step budgets of 0 and 1 as well as the default, so that
deferred rows and the kernel of their residual matrix are exercised on
every case.  lowering_closure is checked against the closure that applies
every L(-k) to the stored input vectors, kept here as an oracle."""

from fractions import Fraction
from itertools import permutations
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fp_elements, fractions, full_gram
from virfock import linalg
from virfock.fock import NS, RAMOND, FockVector, apply_virasoro_fock, fock_hw_vectors, sector_basis, vir_span_dims
from virfock.linalg import SpanBuilder, det, joint_kernel, lowering_closure, nullspace, rank
from virfock.scalars import GF, QQ, Fp, RingMismatchError, formal_ring, numerators, poly_numerators
from virfock.singular import singular_space
from virfock.verma import VermaModule, VermaVector, partitions, verma_module


def oracle_rank(rows, ring):
    """Plain Gaussian elimination with field division; shares nothing with
    the fraction-free implementation under test."""
    a = [list(r) for r in rows]
    if not a:
        return 0
    ncols = len(a[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = ring.one() / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return r


def matrices(nrows, ncols, entries=None):
    entries = entries or fractions(max_num=9, max_den=4)
    return st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    )


def numerator_rows(rows, ring):
    """Scalar rows as the int rows rank and nullspace take: each row's
    numerators, over the lcm of its denominators over Q, residues over F_p.
    Scaling a row changes neither the rank nor the kernel."""
    out = []
    for row in rows:
        nums = numerators(enumerate(row), ring)[1]
        out.append([nums.get(j, 0) for j in range(len(row))])
    return out


# -------------------------------------------------------------- knowns

def test_rank_of_identity_and_singular_matrix():
    one, two, four = Fraction(1), Fraction(2), Fraction(4)
    assert rank(numerator_rows([[one, 0], [0, one]], QQ), QQ) == 2
    assert rank(numerator_rows([[one, two], [two, four]], QQ), QQ) == 1
    assert rank(numerator_rows([], QQ), QQ) == 0
    assert rank(numerator_rows([[Fraction(0), Fraction(0)]], QQ), QQ) == 0


def test_determinant_examples():
    assert det([[Fraction(3), Fraction(1)], [Fraction(5, 2), Fraction(-3, 2)]], QQ) == -7
    assert det([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]], QQ) == 1
    f = GF(7)
    assert det([[f.of_int(3), f.of_int(1)], [f.of_fraction(Fraction(5, 2)), f.of_fraction(Fraction(-3, 2))]], f) == f.zero()


def test_nullspace_of_singular_matrix():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    (vec,) = nullspace(numerator_rows(rows, QQ), QQ)
    assert all(sum(r * x for r, x in zip(row, vec)) == 0 for row in rows)


def test_elimination_rescales_rows_with_zero_leading_entry():
    # Regression: fraction-free elimination must rescale every row below the
    # pivot on every step, including rows whose lead in the pivot column is
    # zero; skipping them silently corrupts the later exact divisions.
    rows = [
        [Fraction(2), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(1), Fraction(1)],
    ]
    assert rank(numerator_rows(rows, QQ), QQ) == 3
    assert nullspace(numerator_rows(rows, QQ), QQ) == []
    assert det(rows, QQ) == 1
    assert oracle_rank(rows, QQ) == 3


def test_rank_of_gram_matrix_that_exposed_the_zero_lead_bug():
    # Degree-4 contravariant Gram matrix at (c, h) = (1/2, 1/16): rank 2 with
    # a three-dimensional radical.  The skipped-rescale bug reported rank 5.
    mod = verma_module(Fraction(1, 2), Fraction(1, 16), QQ)
    num = full_gram(mod, 4).num
    assert rank(num, QQ) == 2
    assert len(nullspace(num, QQ)) == 3


# ---------------------------------------------------------- properties

@given(matrices(4, 3))
def test_rank_matches_field_division_oracle(rows):
    assert rank(numerator_rows(rows, QQ), QQ) == oracle_rank(rows, QQ)


@given(matrices(3, 5))
def test_wide_matrices_match_oracle(rows):
    assert rank(numerator_rows(rows, QQ), QQ) == oracle_rank(rows, QQ)


@given(matrices(4, 4))
def test_nullspace_vectors_annihilate_and_count_corank(rows):
    basis = nullspace(numerator_rows(rows, QQ), QQ)
    assert rank(numerator_rows(rows, QQ), QQ) + len(basis) == 4
    for vec in basis:
        for row in rows:
            assert sum(r * x for r, x in zip(row, vec)) == 0


@given(matrices(3, 3), matrices(3, 3))
def test_determinant_is_multiplicative(a, b):
    prod = [
        [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    assert det(prod, QQ) == det(a, QQ) * det(b, QQ)


@given(matrices(4, 4))
def test_zero_determinant_iff_rank_deficient(rows):
    assert (det(rows, QQ) == 0) == (rank(numerator_rows(rows, QQ), QQ) < 4)


@given(st.lists(st.lists(st.integers(0, 12), min_size=3, max_size=3), min_size=4, max_size=4), st.sampled_from([3, 5, 7]))
def test_prime_field_rank_matches_oracle(ints, p):
    ring = GF(p)
    rows = [[ring.of_int(x) for x in row] for row in ints]
    assert rank(numerator_rows(rows, ring), ring) == oracle_rank(rows, ring)


def leibniz_det(rows, ring):
    """Sum over permutations of signed products; no elimination at all."""
    n = len(rows)
    acc = ring.zero()
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = ring.one()
        for i in range(n):
            term = term * rows[i][perm[i]]
        acc = acc - term if inversions % 2 else acc + term
    return acc


@st.composite
def square_case(draw):
    """A ring and a square matrix over it, n <= 4, with many zero entries
    (so pivots are often missing from the leading row and rows must swap)
    and sometimes a row that repeats an earlier one (so it is singular)."""
    ring = draw(st.sampled_from([QQ, GF(3), GF(7)]))
    entries = fractions(max_num=5, max_den=3).map(ring.coerce) if ring.char == 0 else fp_elements(ring.char)
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(ring.zero()), entries)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        rows[draw(st.integers(1, n - 1))] = list(rows[0])
    if draw(st.booleans()):
        rows[0][0] = ring.zero()
    return ring, rows


@given(square_case())
def test_determinant_matches_leibniz_sum(case):
    ring, rows = case
    assert det(rows, ring) == leibniz_det(rows, ring)


def test_determinant_sign_of_a_forced_row_swap():
    for ring in (QQ, GF(3), GF(7)):
        zero, one, two = ring.zero(), ring.one(), ring.of_int(2)
        assert det([[zero, one], [one, zero]], ring) == -one
        assert det([[zero, two, zero], [zero, zero, one], [one, zero, zero]], ring) == two


# ------------------------------------------------------ dense oracle

def _int_rows(rows):
    """Rows cleared of denominators, and the product of the row multipliers."""
    out = []
    scale = 1
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        out.append([int(x * den) for x in row])
        scale *= den
    return out, scale


def dense_echelon(rows, ring):
    """The dense elimination the sparse echelon replaced: Bareiss over Q,
    plain modular elimination on every row below the pivot over F_p.
    Returns the echelon rows, the pivot columns and the determinant."""
    p = ring.char
    if p == 0:
        a, scale = _int_rows(rows)
    else:
        a = [[x.v for x in row] for row in rows]
    m, n = len(a), len(a[0])
    pivots = []
    r = 0
    sign = 1
    prod = 1
    for col in range(n):
        pr = next((i for i in range(r, m) if a[i][col] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            sign = -sign
        piv = a[r][col]
        if p == 0:
            for i in range(r + 1, m):
                lead = a[i][col]
                for j in range(col, n):
                    a[i][j] = (piv * a[i][j] - lead * a[r][j]) // prod
            prod = piv
        else:
            prod = prod * piv % p
            inv = pow(piv, -1, p)
            a[r] = [(x * inv) % p for x in a[r]]
            for i in range(r + 1, m):
                f = a[i][col]
                if f:
                    a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    if r < n or r < m:
        d = ring.zero()
    elif p == 0:
        d = Fraction(sign * prod, scale)
    else:
        d = Fp(sign * prod, p)
    return a[:r], pivots, d


def dense_rank(rows, ring):
    return len(dense_echelon(rows, ring)[1]) if rows and rows[0] else 0


def dense_det(rows, ring):
    return dense_echelon(rows, ring)[2] if rows else ring.one()


def dense_nullspace(rows, ring, ncols=None):
    """Back substitution in ring scalars from the dense echelon form."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows or ncols == 0:
        return [[ring.one() if i == j else ring.zero() for i in range(ncols)] for j in range(ncols)]
    ech, pivots, _ = dense_echelon(rows, ring)
    if ring.char == 0:
        ech = [[Fraction(x) for x in row] for row in ech]
    else:
        ech = [[Fp(x, ring.char) for x in row] for row in ech]
    zero, one = ring.zero(), ring.one()
    out = []
    for f in (j for j in range(ncols) if j not in pivots):
        x = [zero] * ncols
        x[f] = one
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            if pc > f:
                continue
            s = zero
            for j in range(pc + 1, ncols):
                if x[j]:
                    s = s + ech[i][j] * x[j]
            x[pc] = -s / ech[i][pc]
        out.append(x)
    return out


def each_budget(compute):
    """compute() with nullspace's step budget at 0, at 1 and at its default,
    the results in that order."""
    out = []
    for steps in (0, 1, linalg._STEPS):
        with patch.object(linalg, "_STEPS", steps):
            out.append(compute())
    return out


def typed(value):
    """A value with the type of every scalar in it, so equal results of
    different scalar types compare unequal."""
    if isinstance(value, list):
        return [typed(x) for x in value]
    return (type(value), value)


# Rationals whose numerators and denominators run to 40 digits, coprime
# after normalization: cleared rows have large contents and the echelon's
# row multipliers grow, so det's quotient and content division are used.
large_fractions = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40))


@st.composite
def sparse_matrix_case(draw):
    """A ring and a sparse matrix over it, wide or tall, with whole zero
    columns and rows that repeat earlier rows; over Q some entries are
    plain ints, or all are large rationals."""
    ring = draw(st.sampled_from([QQ, GF(3), GF(7)]))
    if ring.char == 0:
        entries = draw(st.sampled_from([st.one_of(fractions(max_num=5, max_den=4), st.integers(-3, 3)), large_fractions]))
    else:
        entries = fp_elements(ring.char)
    zero = ring.zero() if ring.char else draw(st.sampled_from([0, ring.zero()]))
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    live = [draw(st.integers(0, 3)) > 0 for _ in range(ncols)]
    rows = []
    for _ in range(nrows):
        if rows and draw(st.integers(0, 3)) == 0:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append([draw(entries) if on and draw(st.integers(0, 2)) == 0 else zero for on in live])
    return ring, rows


@settings(max_examples=200)
@given(sparse_matrix_case())
def test_sparse_elimination_matches_dense_oracle(case):
    ring, rows = case
    assert each_budget(lambda: typed(nullspace(numerator_rows(rows, ring), ring))) == [typed(dense_nullspace(rows, ring))] * 3
    assert rank(numerator_rows(rows, ring), ring) == dense_rank(rows, ring)
    n = min(len(rows), len(rows[0]))
    square = [row[:n] for row in rows[:n]]
    assert typed(det(square, ring)) == typed(dense_det(square, ring))


@pytest.mark.parametrize("ring", [QQ, GF(7), GF(3)], ids=["Q", "F7", "F3"])
@pytest.mark.parametrize("h", [Fraction(0), Fraction(1, 2), Fraction(1, 16)], ids=["h0", "h1_2", "h1_16"])
def test_dense_gram_matrices_match_dense_oracle(h, ring):
    # The dense input rank and det were served by dense elimination before
    # the sparse echelon took them over: every leading k x k block of the
    # Gram matrices at c = 1/2 up to degree 8.
    mod = verma_module(Fraction(1, 2), ring.coerce(h), ring)
    for degree in range(9):
        gram = full_gram(mod, degree)
        rows = gram.entries
        for k in range(1, len(rows) + 1):
            block = [row[:k] for row in rows[:k]]
            nums = [row[:k] for row in gram.num[:k]]
            assert rank(nums, ring) == dense_rank(block, ring)
            assert each_budget(lambda: typed(nullspace(nums, ring))) == [typed(dense_nullspace(block, ring))] * 3
            assert typed(det(block, ring)) == typed(dense_det(block, ring))


# A large prime: entries and denominators that are multiples of it check
# that Q rows are cleared to ints exactly, with no modular shortcut.
P = 2**31 - 1


def _q_rows(ints):
    return [[Fraction(x) for x in row] for row in ints]


@pytest.mark.parametrize(
    "rows, kernel_dim",
    [
        (_q_rows([[1, 2], [3, 4], [5, 6]]), 0),
        # multiples of P: full column rank over Q, though not mod P
        (_q_rows([[P, 0], [0, 1], [0, 0]]), 0),
        (_q_rows([[1, 1], [1, 1 + P]]), 0),
        # denominators divisible by P, cleared by the row's lcm
        ([[Fraction(1, P), Fraction(0)], [Fraction(0), Fraction(1)]], 0),
        ([[Fraction(1, 2 * P), Fraction(1), Fraction(0)], [Fraction(1, P), Fraction(2), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]], 1),
        # a nonzero kernel over Q
        (_q_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1], [0, 1, 1]]), 1),
    ],
    ids=["full-rank-mod-P", "column-of-P", "det-P", "den-P", "den-2P-kernel", "kernel"],
)
def test_certificate_exits_agree_with_the_exact_kernel(rows, kernel_dim):
    basis = nullspace(numerator_rows(rows, QQ), QQ)
    assert len(basis) == kernel_dim
    assert typed(basis) == typed(dense_nullspace(rows, QQ))


@pytest.mark.parametrize("ring", [QQ, GF(7)], ids=["Q", "F7"])
def test_deferred_row_with_new_rank(ring):
    # Pivot rows e_j + j e_{n+1} for j = 1..n, n one more than the budget,
    # then two rows that need all n of them before reaching column n + 1:
    # their sum s, which lies in the pivot rows' span, and s + e_{n+1},
    # which does not.  Both are deferred; the kernel of the pivot rows has
    # e_0 and e_{n+1} - sum_j j e_j, and the second row rules out the latter.
    n = linalg._STEPS + 1
    ncols = n + 2
    pivot_rows = [{j: 1, n + 1: j} for j in range(1, n + 1)]
    in_span = {**{j: 1 for j in range(1, n + 1)}, n + 1: n * (n + 1) // 2}
    new_rank = {**in_span, n + 1: in_span[n + 1] + 1}
    rows = [[ring.of_int(row.get(j, 0)) for j in range(ncols)] for row in pivot_rows + [in_span, new_rank]]
    deferred = []
    linalg._sparse_echelon([linalg._int_row(row, ring.char) for row in numerator_rows(rows, ring)], ring.char, deferred)
    assert sorted(deferred) == [n, n + 1]
    basis = nullspace(numerator_rows(rows, ring), ring)
    assert typed(basis) == typed(dense_nullspace(rows, ring))
    assert basis == [[ring.one()] + [ring.zero()] * (ncols - 1)]


def _span_add(rows, ring):
    sb = SpanBuilder(ring)
    for row in rows:
        sb.add(dict(enumerate(row)))


def _span_contains(rows, ring):
    sb = SpanBuilder(ring)
    for row in rows:
        sb.contains(dict(enumerate(row)))


def _encode(rows, ring):
    for row in rows:
        numerators(enumerate(row), ring)


def _encode_poly(rows, ring):
    for row in rows:
        poly_numerators(enumerate(row), ring)


@pytest.mark.parametrize(
    "rows, ring",
    [
        ([[Fp(3, 5)]], GF(7)),
        ([[Fraction(1, 2)]], GF(7)),
        ([[Fp(1, 7), Fp(2, 7)], [Fp(0, 7), 1]], GF(7)),
        ([[Fp(1, 7)]], QQ),
        ([[Fraction(1)]], formal_ring(7)),
    ],
    ids=["Fp-of-another-prime", "Fraction-over-Fp", "int-over-Fp", "Fp-over-Q", "formal-ring"],
)
@pytest.mark.parametrize(
    "solve",
    [rank, nullspace, det, _span_add, _span_contains, _encode, _encode_poly],
    ids=["rank", "nullspace", "det", "span-add", "span-contains", "numerators", "poly-numerators"],
)
def test_scalars_of_another_ring_are_rejected(rows, ring, solve):
    with pytest.raises(RingMismatchError):
        solve(rows, ring)


def test_int_rows_are_taken_as_numerators_and_reduced_mod_p():
    # Over F_p any int is read mod p; over Q a row of numerators has the
    # rank and kernel of the rational row it scales.
    f = GF(7)
    assert rank([[7, 14], [1, -6]], f) == 1
    assert nullspace([[8, -5]], f) == nullspace([[1, 2]], f) == [[Fp(5, 7), Fp(1, 7)]]
    assert nullspace([{1: 3}, {0: 2, 1: 6}], QQ, ncols=3) == nullspace(numerator_rows([[0, 1, 0], [Fraction(1, 3), 1, 0]], QQ), QQ)
    assert nullspace([{1: 3}], QQ, ncols=3) == [[1, 0, 0], [0, 0, 1]]


def test_an_empty_leading_row_does_not_hide_the_rest():
    assert rank([{}, {0: 1}], QQ) == 1
    assert rank([[], [5]], GF(7)) == 1
    assert nullspace([{}, {0: 1}], QQ, ncols=2) == [[0, 1]]


@pytest.mark.parametrize(
    "solve",
    [lambda ring: rank([], ring), lambda ring: det([], ring), lambda ring: nullspace([], ring, 2)],
    ids=["rank", "det", "nullspace"],
)
def test_a_formal_ring_is_rejected_before_any_early_return(solve):
    with pytest.raises(RingMismatchError, match="needs a field"):
        solve(formal_ring(7))


# ---------------------------------------------------------- joint_kernel

def dense_joint_kernel(basis, maps, targets, ring):
    """Dense rows over each map's full target basis, stacked, then nullspace:
    the coordinate construction joint_kernel replaced."""
    zero = ring.zero()
    rows = [[img.get(q, zero) for img in images] for target, images in zip(targets, maps) for q in target]
    return [{k: cv for k, cv in zip(basis, x) if cv} for x in dense_nullspace(rows, ring, ncols=len(basis))]


@st.composite
def kernel_case(draw):
    """A basis, one or two maps given by sparse image term dicts, and each
    map's full target basis, which includes keys that no image hits; a map
    may send every basis vector to zero."""
    ring = draw(st.sampled_from([QQ, GF(3), GF(7)]))
    entries = fractions(max_num=5, max_den=3).map(ring.coerce) if ring.char == 0 else fp_elements(ring.char)
    basis = [(draw(st.integers(0, 1)), i) for i in range(draw(st.integers(1, 6)))]
    maps, targets = [], []
    for m in range(draw(st.integers(1, 2))):
        target = [(m, j) for j in range(draw(st.integers(1, 6)))]
        dead = draw(st.booleans()) and draw(st.booleans())
        images = []
        for _ in basis:
            img = {} if dead else {q: draw(entries) for q in target if draw(st.integers(0, 2)) == 0}
            images.append({q: x for q, x in img.items() if x})
        maps.append(images)
        targets.append(draw(st.permutations(target)))
    return ring, basis, maps, targets


@given(kernel_case())
def test_joint_kernel_matches_dense_stacking(case):
    ring, basis, maps, targets = case
    encoded = [[poly_numerators(img.items(), ring) for img in images] for images in maps]
    assert joint_kernel(basis, encoded, ring) == dense_joint_kernel(basis, maps, targets, ring)


def test_joint_kernel_scales_each_row_by_its_own_denominators():
    # Basis vector x has image q/2 + r/3, an entry over 6, y has q/4 and z
    # has r/5.  So row q mixes denominators 6 and 4 and row r mixes 6 and 5:
    # they reach nullspace over their own lcms, 12 and 30.
    images = [{"q": Fraction(1, 2), "r": Fraction(1, 3)}, {"q": Fraction(1, 4)}, {"r": Fraction(1, 5)}]
    maps = [[poly_numerators(img.items(), QQ) for img in images]]
    assert maps[0][0] == (6, {"q": (3,), "r": (2,)})
    with patch.object(linalg, "nullspace", wraps=nullspace) as spy:
        got = joint_kernel("xyz", maps, QQ)
    assert spy.call_args.args[0] == [{0: 6, 1: 3}, {0: 10, 2: 6}]
    want = [{"x": Fraction(-3, 5), "y": Fraction(6, 5), "z": Fraction(1)}]
    assert got == dense_joint_kernel("xyz", [images], [["q", "r"]], QQ) == want


def test_joint_kernel_over_a_formal_weight_needs_a_field():
    # The Q[h] memo entries of L(1), L(2) on degree 3 carry h: 2-tuples,
    # which joint_kernel must reject by the ring before it reads them.
    ring = formal_ring(0)
    mod = verma_module(Fraction(1, 2), ring.h(), ring)
    basis = partitions(3)
    maps = [[mod._act(m, p) for p in basis] for m in (1, 2)]
    assert any(len(v) > 1 for images in maps for _, img in images for v in img.values())
    with pytest.raises(RingMismatchError, match="needs a field"):
        joint_kernel(basis, maps, ring)


@pytest.mark.parametrize(
    "h, ring, degree",
    [
        (Fraction(1, 2), QQ, 7),
        (Fraction(0), QQ, 6),
        (Fraction(1, 16), QQ, 9),
        (Fraction(0), GF(7), 7),
        (Fraction(1, 16), GF(7), 10),
        (Fraction(0), GF(11), 12),
        (Fraction(1, 16), GF(11), 10),
    ],
    ids=["Q-h1_2-7", "Q-h0-6", "Q-h1_16-9", "F7-h0-7", "F7-h1_16-10", "F11-h0-12", "F11-h1_16-10"],
)
def test_singular_space_matches_dense_stacking(h, ring, degree):
    mod = verma_module(Fraction(1, 2), ring.coerce(h), ring)
    basis = partitions(degree)
    maps = [[mod.apply_mode(m, mod.monomial(p)).terms for p in basis] for m in (1, 2)]
    targets = [partitions(degree - m) for m in (1, 2)]
    want = tuple(VermaVector(t).normalized() for t in dense_joint_kernel(basis, maps, targets, ring))
    assert each_budget(lambda: singular_space(mod, degree).vectors) == [want] * 3


@pytest.mark.parametrize(
    "sector, parity, degree, ring",
    [
        (NS, 0, 4, GF(7)),
        (NS, 1, 10, GF(7)),
        (RAMOND, 0, 3, GF(7)),
        (RAMOND, 1, 10, GF(7)),
        (NS, 0, 8, QQ),
        (RAMOND, 1, 6, QQ),
        (NS, 1, 8, GF(11)),
        (RAMOND, 0, 8, GF(11)),
    ],
    ids=["F7-NS0-4", "F7-NS1-10", "F7-R0-3", "F7-R1-10", "Q-NS0-8", "Q-R1-6", "F11-NS1-8", "F11-R0-8"],
)
def test_fock_hw_vectors_match_dense_stacking(sector, parity, degree, ring):
    weight = Fraction(2 * degree + parity, 2) if sector == NS else Fraction(degree)
    basis = sector_basis(sector, parity, degree)
    one = ring.one()
    maps = [[apply_virasoro_fock(m, FockVector(sector, ring, {t: one})).terms for t in basis] for m in (1, 2)]
    targets = [sector_basis(sector, parity, degree - m) if degree >= m else [] for m in (1, 2)]
    want = [FockVector(sector, ring, t).normalized() for t in dense_joint_kernel(basis, maps, targets, ring)]
    assert fock_hw_vectors(sector, parity, weight, ring) == want


# ---------------------------------------------------------- SpanBuilder

def _terms(row, ring, keys=None):
    """A coordinate row as the term dict SpanBuilder takes, keyed by column
    or by keys[column]."""
    return {keys[j] if keys else j: ring.coerce(x) for j, x in enumerate(row) if x}


def test_span_builder_tracks_dimension():
    sb = SpanBuilder(QQ)
    assert sb.add(_terms([Fraction(1), Fraction(0), Fraction(2)], QQ))
    assert sb.add(_terms([Fraction(0), Fraction(1), Fraction(0)], QQ))
    assert not sb.add(_terms([Fraction(2), Fraction(3), Fraction(4)], QQ))
    assert sb.dim == 2
    assert sb.contains(_terms([Fraction(1), Fraction(1), Fraction(2)], QQ))
    assert not sb.contains(_terms([Fraction(0), Fraction(0), Fraction(1)], QQ))


@given(matrices(5, 4))
def test_span_builder_dimension_equals_rank(rows):
    sb = SpanBuilder(QQ)
    for row in rows:
        sb.add(_terms(row, QQ))
    assert sb.dim == oracle_rank(rows, QQ)


@st.composite
def sparse_span_case(draw):
    """A ring, a sparse matrix over it with whole zero columns and rows that
    are combinations of earlier rows, probe rows for contains(), and the
    column keys: ints, or partitions of 9, which are tuples of unequal
    length in descending order, so pivots by smallest key run from the last
    column."""
    ring = draw(st.sampled_from([QQ, GF(3), GF(7)]))
    entries = fractions(max_num=5, max_den=3) if ring.char == 0 else fp_elements(ring.char)
    zero = ring.zero()
    ncols = draw(st.integers(1, 9))
    keys = draw(st.sampled_from([None, partitions(9)[:ncols]]))
    live = draw(st.lists(st.booleans(), min_size=ncols, max_size=ncols))

    def sparse_row():
        return [draw(entries) if on and draw(st.integers(0, 2)) == 0 else zero for on in live]

    def combination(rows):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s = ring.coerce(draw(entries))
        return [x + s * y for x, y in zip(a, b)]

    rows = []
    for _ in range(draw(st.integers(1, 7))):
        rows.append(combination(rows) if rows and draw(st.booleans()) else sparse_row())
    probes = [combination(rows), sparse_row(), [zero] * ncols, draw(st.sampled_from(rows))]
    return ring, rows, probes, keys


@given(sparse_span_case())
def test_span_builder_on_sparse_rank_deficient_rows(case):
    ring, rows, probes, keys = case
    sb = SpanBuilder(ring)
    for i, row in enumerate(rows):
        assert sb.add(_terms(row, ring, keys)) == (oracle_rank(rows[: i + 1], ring) > oracle_rank(rows[:i], ring))
    assert sb.dim == oracle_rank(rows, ring)
    for r in probes:
        assert sb.contains(_terms(r, ring, keys)) == (oracle_rank(rows + [r], ring) == oracle_rank(rows, ring))
    assert sb.dim == oracle_rank(rows, ring)


@given(sparse_span_case())
def test_span_builder_basis_spans_what_was_added(case):
    ring, rows, _, keys = case
    sb = SpanBuilder(ring)
    for row in rows:
        sb.add(_terms(row, ring, keys))
    basis = sb.basis()
    assert len(basis) == sb.dim
    kind = Fp if ring.char else Fraction
    assert all(type(x) is kind and x for row in basis for x in row.values())
    assert all(sb.contains(row) for row in basis)
    fresh = SpanBuilder(ring)
    assert all(fresh.add(row) for row in basis)
    assert fresh.dim == sb.dim
    for row in rows:
        assert fresh.contains(_terms(row, ring, keys))


def test_span_builder_basis_keeps_leads_other_than_one_over_q():
    # Over Q a pivot row is divided by its content, not by its lead:
    # 4 e_0 + 6 e_1 is kept as 2 e_0 + 3 e_1, and e_0 / 3 + e_2 / 2, times 6
    # and reduced by it, as -3 e_1 + 3 e_2 divided by -3.
    sb = SpanBuilder(QQ)
    sb.add({0: Fraction(4), 1: Fraction(6)})
    sb.add({0: Fraction(1, 3), 2: Fraction(1, 2)})
    assert sb.basis() == [{0: Fraction(2), 1: Fraction(3)}, {1: Fraction(1), 2: Fraction(-1)}]
    single = SpanBuilder(QQ)
    single.add({0: Fraction(3), 1: Fraction(1, 2)})
    assert single.basis() == [{0: Fraction(6), 1: Fraction(1)}]


# ----------------------------------------------------- lowering_closure

def all_k_closure(seeds, max_degree, ring, lower):
    """Oracle: every slice saturated with L(-1)..L(-(max_degree - d)), each
    applied to the stored input term dicts that grew the slice.  It needs
    no generation argument, only that the span of all lowering words is
    reached degree by degree."""
    spans = [SpanBuilder(ring) for _ in range(max_degree + 1)]
    slices = [[] for _ in range(max_degree + 1)]

    def push(d, terms):
        if terms and d <= max_degree and spans[d].add(terms):
            slices[d].append(terms)

    for d, terms in seeds:
        push(d, terms)
    for d in range(max_degree + 1):
        for terms in slices[d]:
            for k in range(1, max_degree - d + 1):
                push(d + k, lower(k, terms))
    return [b.dim for b in spans]


CLOSURE_RINGS = [QQ, GF(3), GF(5), GF(7)]


def _ring_entries(ring):
    return fractions(max_num=5, max_den=3) if ring.char == 0 else fp_elements(ring.char)


def _random_terms(draw, keys, ring):
    """A term dict with a nonzero coefficient on one of keys and random
    coefficients on some of the others."""
    entries = _ring_entries(ring).map(ring.coerce)
    terms = {k: draw(entries) for k in keys if draw(st.booleans())}
    terms[draw(st.sampled_from(keys))] = draw(entries.filter(bool))
    return {k: x for k, x in terms.items() if x}


@st.composite
def verma_closure_case(draw):
    """A Verma module with random c and h, and one to three homogeneous
    seeds of degree at most 5 with random coefficients."""
    ring = draw(st.sampled_from(CLOSURE_RINGS))
    c, h = (ring.coerce(draw(_ring_entries(ring))) for _ in range(2))
    seeds = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(0, 5))
        seeds.append((d, _random_terms(draw, partitions(d), ring)))
    return VermaModule(c, h, ring), seeds


@st.composite
def fock_closure_case(draw):
    """A homogeneous, parity-pure Fock start vector of degree at most 4 in
    either sector, with random coefficients."""
    ring = draw(st.sampled_from(CLOSURE_RINGS))
    sector = draw(st.sampled_from([NS, RAMOND]))
    parity = draw(st.integers(0, 1))
    degree = draw(st.integers(0, 4))
    keys = list(sector_basis(sector, parity, degree))
    if not keys:
        keys = list(sector_basis(sector, parity, degree + 1))
    return FockVector(sector, ring, _random_terms(draw, keys, ring))


@given(verma_closure_case())
def test_lowering_closure_matches_all_k_oracle_on_verma_seeds(case):
    mod, seeds = case

    def lower(k, terms):
        return mod.apply_mode(-k, VermaVector(terms)).terms

    assert lowering_closure(seeds, 10, mod.ring, lower) == all_k_closure(seeds, 10, mod.ring, lower)


@given(fock_closure_case())
def test_vir_span_matches_all_k_oracle_on_fock_starts(start):
    sector, ring = start.sector, start.ring

    def lower(k, terms):
        return apply_virasoro_fock(-k, FockVector(sector, ring, terms)).terms

    want = all_k_closure([(start.adjusted_degree(), start.terms)], 10, ring, lower)
    assert vir_span_dims(start, 10) == want
