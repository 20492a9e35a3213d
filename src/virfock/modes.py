"""Mode calculus for descendant states of the vacuum.

A state is a linear combination of normal-form terms built from the
conformal vector w = L(-2)1, its divided-power translation derivatives
D^(a) w = D^a w / a!, and right-nested (-1)-products

    (a_1, ..., a_j)  <->  P(D^(a_1) w, P(D^(a_2) w, ... D^(a_j) w)),

with the empty term () standing for the vacuum itself.  Divided powers are
the integral form of the vertex algebra (R. E. Borcherds, Proc. Natl. Acad.
Sci. USA 83 (1986) 3068).  Every PBW word L(-n_1)...L(-n_k) applied to the
vacuum lands in this normal form with integer coefficients through two
rules that never divide, so states exist over F_p for every odd p:
L(-n) u = P(D^(n-2) w, u) for n >= 2, and L(-1) u = D u distributed as a
derivation with D D^(a) w = (a+1) D^(a+1) w.

Modes of composite states are evaluated on Verma vectors recursively:

    (D^(a) w)_m = (-1)^a C(m, a) L(m-a-1),
    (P(x,y))_m  = sum_{i<0} x_i y_{m-1-i} + sum_{i>=0} y_{m-1-i} x_i.

The first rule is w_m = L(m-1) and (D x)_m = -m x_{m-1} applied a times
and divided by a!; the binomial C(m, a) is an integer for every integer m,
(-1)^a C(a-m-1, a) for m < 0.  Both sums are finite on any vector of a
module graded in nonnegative degrees: u_n maps degree d to
d + deg(u) - n - 1, so indices whose image degree would be negative
contribute nothing.

The engine computes on int polynomials in h, the canonical entries of
`scalars`: a memo entry is (den, {partition: int tuple}), one denominator
for the whole image (1 over F_p, where the ints are residues), and a
base-field value is a 1-tuple.  The Verma straightening memo holds the
same entries, so the one-factor case scales the Verma action's entry by
the integer binomial (`scale_entry`); a product term applies one factor's
modes to the other's memo entries, adding each int product into buckets
keyed by denominator (`add_image`), and normalizes them once per entry
(`normalized_sum`).  `apply` encodes its state and target once and
decodes once (`entry_values`), to `Poly` values over a formal ring and
`Fraction` or `Fp` values over a base field.

The degree-6 state s and the degree-4 state u that drive the c = 1/2
classification and its characteristic-7 degeneration are provided as named
constants.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from .lincomb import merge
from .scalars import (
    QQ,
    ZERO_ENTRY,
    Buckets,
    Entry,
    Ring,
    Scalar,
    add_image,
    conv_add,
    entry_values,
    normalized_sum,
    poly_numerators,
    scale_entry,
)
from .verma import (
    Partition,
    VermaModule,
    VermaVector,
    _as_module,
    partitions,
)

StateTerm = Tuple[int, ...]
StateWord = Dict[StateTerm, Scalar]


def term_degree(t: StateTerm) -> int:
    """Conformal degree: w has degree 2, D adds 1, P adds degrees."""
    return sum(2 + a for a in t)


def state_degree(state: StateWord) -> int:
    """Common degree of the terms of a nonzero homogeneous state."""
    degs = {term_degree(t) for t in state}
    if len(degs) != 1:
        raise ValueError("state is zero or mixes degrees")
    return degs.pop()


def build_state(word: Sequence[int], ring: Ring = QQ) -> StateWord:
    """Normal form of L(word[0])...L(word[-1]) applied to the vacuum.

    All entries must be negative; the rightmost operator acts first.  A
    leading L(-1) reaching the bare vacuum yields the zero state.  The
    coefficients are the images of integers, so every word has a normal
    form over Q and over F_p alike.
    """
    if not word:
        raise ValueError("empty mode word")
    if any(m >= 0 for m in word):
        raise ValueError("vacuum descendants use negative modes only")
    state: StateWord = {(): ring.one()}
    for mode in reversed(list(word)):
        n = -mode
        new: StateWord = {}
        if n == 1:
            # D acts as a derivation; the images of one term are distinct.
            for t, cv in state.items():
                merge(new, {t[:i] + (a + 1,) + t[i + 1 :]: ring.of_int(a + 1) * cv for i, a in enumerate(t)})
        else:
            for t, cv in state.items():
                new[(n - 2,) + t] = cv
        state = new
    return state


def named_state(name: str, ring: Ring = QQ) -> StateWord:
    """The named states driving the c = 1/2 story.

    "s" is the degree-6 combination 64 L(-2)^3 + 93 L(-3)^2
    - 264 L(-4)L(-2) - 108 L(-6) of vacuum descendants; "u" is the degree-4
    combination L(-2)^2 - 2 L(-4).
    """
    out: StateWord = {}
    for coeff, word in named_state_pbw(name):
        merge(out, build_state(word, ring), ring.of_int(coeff))
    return out


def named_state_pbw(name: str) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """Integer combination of PBW mode words defining a named state."""
    if name == "s":
        return ((64, (-2, -2, -2)), (93, (-3, -3)), (-264, (-4, -2)), (-108, (-6,)))
    if name == "u":
        return ((1, (-2, -2)), (-2, (-4,)))
    raise ValueError(f'unknown state name {name!r} (expected "s" or "u")')


def named_state_verma(name: str, module: VermaModule) -> VermaVector:
    """The named state as a vector of the Verma module (PBW action on v)."""
    acc = VermaVector.zero()
    for coeff, word in named_state_pbw(name):
        part = tuple(sorted((-m for m in word), reverse=True))
        acc = acc + module.monomial(part).scale(module.ring.of_int(coeff))
    return acc


class ModeEngine:
    """Evaluator of state modes on one Verma module, memoized per
    (term, mode, basis monomial).

    Memo entries are canonical entries of `scalars` (`Entry`): (den,
    {partition: int tuple}), each coefficient the polynomial in h with
    coefficients tuple[i] / den (1-tuples over a base field), as in the
    Verma module's own memo.  Only `apply` decodes, once, at the end.
    """

    def __init__(self, module: VermaModule):
        self.module = module
        self.ring = module.ring
        self._memo: Dict[Tuple[StateTerm, int, Partition], Entry] = {}

    def _term(self, t: StateTerm, m: int, part: Partition) -> Entry:
        key = (t, m, part)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        d = sum(part)
        if d + term_degree(t) - m - 1 < 0:
            out = ZERO_ENTRY
        elif not t:
            out = (1, {part: (1,)}) if m == -1 else ZERO_ENTRY
        elif len(t) == 1:
            a = t[0]
            f = (-1) ** a * math.comb(m, a) if m >= 0 else math.comb(a - m - 1, a)
            out = scale_entry(self.module._act(m - a - 1, part), f, self.ring.char)
        else:
            x, y = (t[0],), t[1:]
            dx, dy = term_degree(x), term_degree(y)
            buckets: Buckets = {}
            for i in range(m - d - dy, 0):
                add_image(buckets, self._term(y, m - 1 - i, part), self._term, x, i)
            for i in range(0, d + dx):
                add_image(buckets, self._term(x, i, part), self._term, y, m - 1 - i)
            out = normalized_sum(buckets, self.ring.char)
        self._memo[key] = out
        return out

    def apply(self, state: StateWord, n: int, target: VermaVector) -> VermaVector:
        ring = self.ring
        ds, cs = poly_numerators(state.items(), ring)
        dv, vs = poly_numerators(target.terms.items(), ring)
        buckets: Buckets = {}
        for t, c in cs.items():
            add_image(buckets, (ds * dv, {part: conv_add([], c, cv) for part, cv in vs.items()}), self._term, t, n)
        return VermaVector(entry_values(normalized_sum(buckets, ring.char), ring))


def engine_for(module) -> ModeEngine:
    module = _as_module(module)
    eng = getattr(module, "_mode_engine", None)
    if eng is None:
        eng = ModeEngine(module)
        module._mode_engine = eng
    return eng


def mode_apply(state: StateWord, n: int, target: VermaVector, module) -> VermaVector:
    """The mode u_n of a composite state u, applied to a Verma vector."""
    return engine_for(module).apply(state, n, target)


class AnnihilationReport:
    """Outcome of checking that a state kills an irreducible quotient."""

    def __init__(self, state_degree: int):
        self.state_degree = state_degree
        self.checks = 0
        self.violations: List[Tuple[int, int, Partition]] = []

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_annihilation(state: StateWord, module, max_mode: int, max_target_degree: int) -> AnnihilationReport:
    """Check that every mode of the state maps every degree slice of the
    irreducible quotient L(c, h) to zero.

    The quotient is realized inside the Verma module as basis monomials
    modulo the contravariant-form radical; an image vanishes in L(c, h)
    exactly when it lies in the radical of its Gram slice
    (GramMatrix.in_radical).  Modes n run over -max_mode <= n and land in
    degrees <= max_target_degree, so all needed Gram slices stay small.
    Violations are collected, not raised.  Gram slices exist over a field
    only: over a formal ring the first slice read raises RingMismatchError.
    """
    module = _as_module(module)
    eng = engine_for(module)
    deg_s = state_degree(state)
    report = AnnihilationReport(deg_s)
    for d in range(max_target_degree + 1):
        basis = partitions(d)
        lo = max(-max_mode, d + deg_s - 1 - max_target_degree)
        for n in range(lo, d + deg_s):
            d_out = d + deg_s - n - 1
            gram = module.gram_matrix(d_out)
            for part in basis:
                img = eng.apply(state, n, module.monomial(part))
                report.checks += 1
                if img and not gram.in_radical(img):
                    report.violations.append((d, n, part))
    return report
