"""Exact linear algebra over Q and F_p: rank, nullspace, determinant,
incremental span tracking.  The rational path uses fraction-free elimination,
so it is cross-checked here against a plain field-division oracle."""

from fractions import Fraction
from itertools import permutations

from hypothesis import given, strategies as st

from conftest import fp_elements, fractions
from virfock.linalg import SpanBuilder, det, joint_kernel, nullspace, rank
from virfock.scalars import GF, QQ
from virfock.verma import verma_module


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


# -------------------------------------------------------------- knowns

def test_rank_of_identity_and_singular_matrix():
    one, two, four = Fraction(1), Fraction(2), Fraction(4)
    assert rank([[one, 0], [0, one]], QQ) == 2
    assert rank([[one, two], [two, four]], QQ) == 1
    assert rank([], QQ) == 0
    assert rank([[Fraction(0), Fraction(0)]], QQ) == 0


def test_determinant_examples():
    assert det([[Fraction(3), Fraction(1)], [Fraction(5, 2), Fraction(-3, 2)]], QQ) == -7
    assert det([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]], QQ) == 1
    f = GF(7)
    assert det([[f.of_int(3), f.of_int(1)], [f.of_fraction(Fraction(5, 2)), f.of_fraction(Fraction(-3, 2))]], f) == f.zero()


def test_nullspace_of_singular_matrix():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    (vec,) = nullspace(rows, QQ)
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
    assert rank(rows, QQ) == 3
    assert nullspace(rows, QQ) == []
    assert det(rows, QQ) == 1
    assert oracle_rank(rows, QQ) == 3


def test_rank_of_gram_matrix_that_exposed_the_zero_lead_bug():
    # Degree-4 contravariant Gram matrix at (c, h) = (1/2, 1/16): rank 2 with
    # a three-dimensional radical.  The skipped-rescale bug reported rank 5.
    mod = verma_module(Fraction(1, 2), Fraction(1, 16), QQ)
    gram = mod.gram_matrix(4)
    assert rank(gram.rows(), QQ) == 2
    assert len(nullspace(gram.rows(), QQ)) == 3


# ---------------------------------------------------------- properties

@given(matrices(4, 3))
def test_rank_matches_field_division_oracle(rows):
    assert rank(rows, QQ) == oracle_rank(rows, QQ)


@given(matrices(3, 5))
def test_wide_matrices_match_oracle(rows):
    assert rank(rows, QQ) == oracle_rank(rows, QQ)


@given(matrices(4, 4))
def test_nullspace_vectors_annihilate_and_count_corank(rows):
    basis = nullspace(rows, QQ)
    assert rank(rows, QQ) + len(basis) == 4
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
    assert (det(rows, QQ) == 0) == (rank(rows, QQ) < 4)


@given(st.lists(st.lists(st.integers(0, 12), min_size=3, max_size=3), min_size=4, max_size=4), st.sampled_from([3, 5, 7]))
def test_prime_field_rank_matches_oracle(ints, p):
    ring = GF(p)
    rows = [[ring.of_int(x) for x in row] for row in ints]
    assert rank(rows, ring) == oracle_rank(rows, ring)


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


# ---------------------------------------------------------- joint_kernel

def dense_joint_kernel(basis, maps, targets, ring):
    """Dense rows over each map's full target basis, stacked, then nullspace:
    the coordinate construction joint_kernel replaced."""
    zero = ring.zero()
    rows = [[img.get(q, zero) for img in images] for target, images in zip(targets, maps) for q in target]
    return [{k: cv for k, cv in zip(basis, x) if cv} for x in nullspace(rows, ring, ncols=len(basis))]


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
    assert joint_kernel(basis, maps, ring) == dense_joint_kernel(basis, maps, targets, ring)


# ---------------------------------------------------------- SpanBuilder

def _terms(row, ring):
    """A coordinate row as the term dict SpanBuilder takes, keyed by column."""
    return {j: ring.coerce(x) for j, x in enumerate(row) if x}


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
    assert sb.dim == rank(rows, QQ)


@st.composite
def sparse_span_case(draw):
    """A ring, a sparse matrix over it with whole zero columns and rows that
    are combinations of earlier rows, and probe rows for contains()."""
    ring = draw(st.sampled_from([QQ, GF(3), GF(7)]))
    entries = fractions(max_num=5, max_den=3) if ring.char == 0 else fp_elements(ring.char)
    zero = ring.zero()
    ncols = draw(st.integers(1, 9))
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
    return ring, rows, probes


@given(sparse_span_case())
def test_span_builder_on_sparse_rank_deficient_rows(case):
    ring, rows, probes = case
    sb = SpanBuilder(ring)
    for i, row in enumerate(rows):
        assert sb.add(_terms(row, ring)) == (rank(rows[: i + 1], ring) > rank(rows[:i], ring))
    assert sb.dim == rank(rows, ring)
    for r in probes:
        assert sb.contains(_terms(r, ring)) == (rank(rows + [r], ring) == rank(rows, ring))
    assert sb.dim == rank(rows, ring)
