"""Singular vectors, contravariant-form radicals, and irreducible characters.

A singular vector is a homogeneous vector of positive degree killed by every
positive mode; since L(1) and L(2) generate all L(m), m >= 1, under
bracketing, the solver intersects just those two kernels on a degree slice.

The maximal graded submodule of V(c, h) equals the radical of the
contravariant form (any graded submodule vanishing in degree 0 pairs to zero
with everything, and the radical is such a submodule), so the graded
dimensions of the irreducible quotient L(c, h) are exactly the Gram ranks.
This holds over every supported field, in any characteristic other than 2.

The ranks and radicals are read from int rows F_n whose kernel is the
radical Rad_n of the degree-n slice, built by recursion over degrees
(VermaModule.gram_matrix).  For n >= 1, a vector x of degree n lies in
Rad_n exactly when L(1) x lies in Rad_{n-1} and L(2) x in Rad_{n-2}:

* Only if: the radical is a submodule.
* If: outside characteristic 2, L(1) and L(2) generate every L(k), k >= 1,
  since [L(1), L(m)] = (1 - m) L(m + 1) and [L(2), L(m - 1)] =
  (3 - m) L(m + 1), and 1 - m and 3 - m are not both 0 mod an odd p.  So
  every L(k) x, k >= 1, is a sum of words in L(1), L(2) applied to L(1) x
  or L(2) x, and lies in the radical.  As V_n = sum_k L(-k) V_{n-k} and
  <L(-k) y, x> = <y, L(k) x> = 0, x pairs to zero with all of V_n.

So if F_{n-1} and F_{n-2} have kernels Rad_{n-1} and Rad_{n-2}, the rows
f o L(1), f in F_{n-1}, with the rows f o L(2), f in F_{n-2}, have kernel
Rad_n; F_0 = [{0: 1}], as <v, v> = 1.  A slice keeps the echelon of those
rows: as many rows as its rank, spanning the row space of its Gram matrix,
which is never built for a rank or a radical.  irreducible_dims counts the
rows, and radical_basis takes their kernel, which is the kernel of the Gram
matrix with the same basis, since a basis with unit free coordinates
depends only on the row space (see linalg).
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

from .lincomb import reduce_terms_mod_p
from .linalg import joint_kernel, lowering_closure, nullspace
from .scalars import scalar_to_str
from .verma import (
    ModuleParams,
    VermaVector,
    _as_module,
    partitions,
    verma_dim,
)


class SingularBasis:
    """Basis of the joint kernel of L(1), L(2) on one degree slice.

    Vectors are homogeneous of the given degree, linearly independent, and
    scaled so the lexicographically largest partition has coefficient 1.
    """

    def __init__(self, params: ModuleParams, degree: int, vectors: Tuple[VermaVector, ...]):
        self.params = params
        self.degree = degree
        self.vectors = vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def to_json(self) -> dict:
        return {
            "c": scalar_to_str(self.params.c),
            "h": scalar_to_str(self.params.h),
            "char": self.params.ring.char,
            "degree": self.degree,
            "vectors": [w.to_json() for w in self.vectors],
        }


class CharRow(NamedTuple):
    """Graded dimensions at one degree: Verma slice, form radical, quotient."""

    degree: int
    verma: int
    radical: int
    irreducible: int


class CharacterTable:
    """Graded dimension data of V(c,h), its radical, and L(c,h), degrees 0..N."""

    def __init__(self, params: ModuleParams, rows: Tuple[CharRow, ...]):
        self.params = params
        self.rows = rows

    def irreducible(self) -> List[int]:
        return [r.irreducible for r in self.rows]

    def radical(self) -> List[int]:
        return [r.radical for r in self.rows]

    def to_json(self) -> dict:
        return {
            "c": scalar_to_str(self.params.c),
            "h": scalar_to_str(self.params.h),
            "char": self.params.ring.char,
            "rows": [
                {
                    "degree": r.degree,
                    "verma": r.verma,
                    "radical": r.radical,
                    "irreducible": r.irreducible,
                }
                for r in self.rows
            ],
        }


def singular_space(module, degree: int) -> SingularBasis:
    """All singular vectors of the given degree, as a normalized basis.

    Stacks the coefficient matrices of L(1): V(n) -> V(n-1) and
    L(2): V(n) -> V(n-2) and returns their joint nullspace.  The images of
    the basis monomials are the straightening memo's entries, handed to
    joint_kernel as they are; over a formal ring joint_kernel raises
    RingMismatchError.  An empty basis is a valid result.
    """
    mod = _as_module(module)
    if degree < 1:
        raise ValueError("singular vectors have positive degree")
    basis = partitions(degree)
    maps = [[mod._act(m, p) for p in basis] for m in (1, 2)]
    vectors = tuple(VermaVector(terms).normalized() for terms in joint_kernel(basis, maps, mod.ring))
    return SingularBasis(mod.params, degree, vectors)


def is_singular(vec: VermaVector, module) -> bool:
    """True when the nonzero homogeneous vector is killed by L(1) and L(2)."""
    if not vec:
        raise ValueError("the zero vector is not eligible")
    if not vec.is_homogeneous():
        raise ValueError("singularity is only defined for homogeneous vectors")
    mod = _as_module(module)
    return not mod.apply_mode(1, vec) and not mod.apply_mode(2, vec)


def singular_degrees(module, max_degree: int) -> List[int]:
    """Degrees 1..max_degree carrying at least one singular vector."""
    return [n for n in range(1, max_degree + 1) if singular_space(module, n).vectors]


def radical_basis(module, degree: int) -> List[VermaVector]:
    """Basis of the contravariant-form radical on one degree slice."""
    mod = _as_module(module)
    g = mod.gram_matrix(degree)
    return [VermaVector({k: cv for k, cv in zip(g.basis, x) if cv}) for x in nullspace(g.rows, mod.ring, len(g.basis))]


def irreducible_dims(module, max_degree: int) -> CharacterTable:
    """Graded dimensions of the irreducible quotient via Gram ranks."""
    mod = _as_module(module)
    if mod.ring.formal:
        raise ValueError("irreducible dimensions need a field, not a formal ring")
    rows = []
    for n in range(max_degree + 1):
        r = mod.gram_matrix(n).rank
        rows.append(CharRow(n, verma_dim(n), verma_dim(n) - r, r))
    return CharacterTable(mod.params, tuple(rows))


def reduce_vector_mod_p(vec: VermaVector, p: int) -> VermaVector:
    """Image of a rational vector in the F_p module, along the lattice spanned
    by its own leading term.

    The leading coefficient is normalized to 1 first, then every coefficient
    is reduced mod p; terms whose image is 0 drop out silently.  Raises
    DenominatorDivisibleByP when some normalized coefficient has p in its
    denominator, meaning the vector has no image along this lattice.
    """
    if not vec:
        return VermaVector.zero()
    return VermaVector(reduce_terms_mod_p(vec.normalized().terms, p))


def generated_submodule_dims(module, seeds: Sequence[VermaVector], max_degree: int) -> List[int]:
    """Graded dimensions of the submodule generated by singular seed vectors.

    Each seed must be homogeneous and killed by all positive modes, so the
    submodule is spanned by lowering words applied to seeds; see
    lowering_closure.
    """
    mod = _as_module(module)
    for w in seeds:
        if w and not is_singular(w, mod):
            raise ValueError("seed vectors must be singular")
    graded_seeds = [(w.degree(), w.terms) for w in seeds if w]
    return lowering_closure(graded_seeds, max_degree, mod.ring, lambda k, terms: mod.apply_mode(-k, VermaVector(terms)).terms)
