"""Named verification checks covering every headline identity of the engine.

Each check recomputes one published quantity from scratch and compares it
exactly; the battery is what the `verify-paper` command runs.  Checks return
a status:

* "pass" / "fail": exact comparisons;
* "value": quantities the battery is asked to compute and report (with a
  prime factorization where meaningful) rather than compare.

The golden constants frozen here were derived independently of the engine:
singular-vector coefficients by solving the L(1)/L(2) kernel conditions by
hand, character tables by direct enumeration of fermion monomials, and the
degree-5 mode expansions by expanding the normal-ordered products by hand.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .fock import (
    MODE_PARITY,
    NS,
    RAMOND,
    FockVector,
    apply_fermion,
    apply_virasoro_fock,
    fermion_act,
    fermion_monomial,
    fock_form,
    fock_hw_vectors,
    mode_str,
    reduce_fock_mod_p,
    sector_basis,
    sector_dims,
    sector_hw_vector,
    sigma,
    slice_weight2,
    vir_span_dims,
    virasoro_act,
)
from .linalg import SpanBuilder, det, rank
from .modes import (
    build_state,
    mode_apply,
    named_state,
    named_state_verma,
    verify_annihilation,
)
from .scalars import (
    GF,
    QQ,
    Buckets,
    Entry,
    Poly,
    Ring,
    Scalar,
    add_products,
    central_coeff,
    entry_values,
    formal_ring,
    normalized_sum,
    poly_numerators,
    reduce_mod_p,
    scalar_to_str,
)
from .singular import (
    generated_submodule_dims,
    irreducible_dims,
    is_singular,
    radical_basis,
    reduce_vector_mod_p,
    singular_degrees,
    singular_space,
)
from .verma import VermaVector, partitions, verma_module

HALF = Fraction(1, 2)
SIXTEENTH = Fraction(1, 16)
C_ISING = HALF
PRIMES = (3, 5, 7, 11, 13)

# Hand-solved joint kernels of L(1), L(2) at c = 1/2 over Q.
GOLDEN_SINGULAR: Dict[Tuple[Fraction, int], Dict[tuple, Fraction]] = {
    (Fraction(0), 1): {(1,): Fraction(1)},
    (Fraction(0), 6): {
        (2, 2, 2): Fraction(64),
        (3, 3): Fraction(93),
        (4, 2): Fraction(-264),
        (6,): Fraction(-108),
    },
    (HALF, 2): {(2,): Fraction(4), (1, 1): Fraction(-3)},
    (HALF, 3): {(1, 1, 1): Fraction(1), (2, 1): Fraction(-3), (3,): Fraction(3, 4)},
    (SIXTEENTH, 2): {(2,): Fraction(3), (1, 1): Fraction(-4)},
    (SIXTEENTH, 4): {
        (1, 1, 1, 1): Fraction(1),
        (2, 1, 1): Fraction(-25, 6),
        (2, 2): Fraction(49, 144),
        (3, 1): Fraction(11, 6),
        (4,): Fraction(-1, 4),
    },
}

# Degrees <= 8 expected to carry singular vectors at c = 1/2 over Q.  c = 1/2
# is the (p, p') = (3, 4) minimal model with h = h_{r,s}: h_{1,1} = 0,
# h_{2,1} = 1/2, h_{1,2} = 1/16.  By Feigin-Fuchs, V(c, h) has a singular
# vector at every nonzero exponent of the Rocha-Caridi numerator
# sum_k q^{k(12k + 4r - 3s)} - q^{12k^2 + k(4r + 3s) + rs}; for h = 1/2,
# (r, s) = (2, 1), that is 1 - q^2 - q^3 + q^7 + q^17 - ..., so degree 7 is
# singular too.  Independently, IRR_DIMS_Q[1/2] = p(n) - p(n-2) - p(n-3) +
# p(n-7) for n <= 10, so the submodules generated at degrees 2 and 3 meet
# first at degree 7, in one dimension; as the lowest degree of a submodule,
# that line is killed by L(1) and L(2).
EXPECTED_SINGULAR_DEGREES: Dict[Fraction, Tuple[int, ...]] = {
    Fraction(0): (1, 6),
    HALF: (2, 3, 7),
    SIXTEENTH: (2, 4),
}

# Degrees of the two singular vectors that generate the maximal submodule,
# rs and (p - r)(p' - s).  The degree-7 vector at h = 1/2 lies in the
# submodule they generate, so it is not a seed.
GENERATING_SINGULAR_DEGREES: Dict[Fraction, Tuple[int, ...]] = {
    Fraction(0): (1, 6),
    HALF: (2, 3),
    SIXTEENTH: (2, 4),
}

# Graded dimensions of the irreducible quotients over Q, degrees 0..10,
# enumerated by hand as monomial counts.
IRR_DIMS_Q: Dict[Fraction, List[int]] = {
    Fraction(0): [1, 0, 1, 1, 2, 2, 3, 3, 5, 5, 7],
    HALF: [1, 1, 1, 1, 2, 2, 3, 4, 5, 6, 8],
    SIXTEENTH: [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10],
}

H_SECTORS: Dict[Fraction, Tuple[Tuple[str, int], ...]] = {
    Fraction(0): ((NS, 0),),
    HALF: ((NS, 1),),
    SIXTEENTH: ((RAMOND, 0), (RAMOND, 1)),
}


class CheckResult(NamedTuple):
    name: str
    group: str
    criterion: int
    status: str  # "pass" | "fail" | "value"
    detail: str
    elapsed: float


class VerificationReport:
    def __init__(self, results: List[CheckResult]):
        self.results = results

    @property
    def failures(self) -> List[CheckResult]:
        return [r for r in self.results if r.status == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "failed": len(self.failures),
            "checks": [
                {
                    "name": r.name,
                    "group": r.group,
                    "criterion": r.criterion,
                    "status": r.status,
                    "detail": r.detail,
                    "elapsed": round(r.elapsed, 4),
                }
                for r in self.results
            ],
        }


def _mod(h, ring: Ring = QQ):
    return verma_module(C_ISING, h, ring)


def _vec(module, coeffs: Dict[tuple, Fraction]) -> VermaVector:
    return VermaVector({p: module.ring.coerce(c) for p, c in coeffs.items()})


def _hslug(h: Fraction) -> str:
    return str(h).replace("/", "-")


def prime_factorization(n: int) -> str:
    """Human-readable prime factorization, e.g. -1118 -> '-1 * 2 * 13 * 43'."""
    if n == 0:
        return "0"
    parts = []
    if n < 0:
        parts.append("-1")
        n = -n
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            parts.append(f"{d}^{e}" if e > 1 else str(d))
        d += 1 if d == 2 else 2
    if n > 1:
        parts.append(str(n))
    return " * ".join(parts) if parts else "1"


CheckFn = Callable[[], Tuple[str, str]]


def _ok(detail: str) -> Tuple[str, str]:
    return ("pass", detail)


def _bad(detail: str) -> Tuple[str, str]:
    return ("fail", detail)


# ---------------------------------------------------------------- criterion 1


def _golden_singular_check(h: Fraction, degree: int) -> CheckFn:
    # The degree-6 vector at h = 0 lives naturally in the vacuum module
    # (no length-one partitions exist there); the Verma kernel is its
    # canonical lift, so that entry is compared after vacuum projection.
    via_vacuum = h == 0 and degree == 6

    def run() -> Tuple[str, str]:
        mod = _mod(h)
        sb = singular_space(mod, degree)
        want = _vec(mod, GOLDEN_SINGULAR[(h, degree)]).normalized()
        if len(sb.vectors) != 1:
            return _bad(f"expected a 1-dimensional space, got {len(sb.vectors)}")
        got = sb.vectors[0]
        if not is_singular(got, mod):
            return _bad("returned vector is not killed by L(1), L(2)")
        if via_vacuum:
            if mod.project_vacuum_module(got) != want:
                return _bad("kernel lift does not project onto the expected vacuum-module vector")
            if mod.project_vacuum_module(mod.apply_mode(1, want)) or mod.project_vacuum_module(
                mod.apply_mode(2, want)
            ):
                return _bad("expected vector is not singular in the vacuum module")
            return _ok(f"1-dimensional at (c=1/2, h={h}); the kernel lift projects onto the expected vector")
        if got != want:
            return _bad("kernel vector differs from the expected normalized vector")
        return _ok(f"1-dimensional at (c=1/2, h={h}), matches the expected vector")

    return run


def _check_no_other_degrees() -> Tuple[str, str]:
    issues = []
    found_all = {}
    for h, expected in EXPECTED_SINGULAR_DEGREES.items():
        found = tuple(singular_degrees(_mod(h), 8))
        found_all[h] = found
        if found != expected:
            issues.append(f"h={h}: degrees <= 8 are {list(found)}, expected {list(expected)}")
    if issues:
        return _bad("; ".join(issues))
    return _ok("singular degrees <= 8 are exactly " + str({str(k): list(v) for k, v in found_all.items()}))


def _check_radical_generated() -> Tuple[str, str]:
    issues = []
    for h, degs in GENERATING_SINGULAR_DEGREES.items():
        mod = _mod(h)
        seeds = [w for d in degs for w in singular_space(mod, d).vectors]
        got = generated_submodule_dims(mod, seeds, 8)
        want = irreducible_dims(mod, 8).radical()
        if got != want:
            issues.append(f"h={h}: generated dims {got} != radical dims {want}")
    if issues:
        return _bad("; ".join(issues))
    return _ok("the two singular vectors generate the full form radical up to degree 8")


# ---------------------------------------------------------------- criterion 2


def _check_classify_identity() -> Tuple[str, str]:
    ring = formal_ring(0)
    h = ring.h()
    mod = _mod(h, ring)
    s = named_state("s", ring)
    got = mode_apply(s, 5, mod.vacuum(), mod)
    want_poly = 64 * h * (h - HALF) * (h - SIXTEENTH)
    expanded = 64 * h * h * h - 36 * h * h + 2 * h
    if want_poly != expanded:
        return _bad("factored and expanded target polynomials disagree")
    if got != VermaVector({(): want_poly}):
        return _bad(f"s_5 v = {got!r}, expected 64h(h-1/2)(h-1/16) v")
    return _ok("s_5 v = 64h(h-1/2)(h-1/16) v as a polynomial identity in h")


def _check_classify_intermediates() -> Tuple[str, str]:
    ring = formal_ring(0)
    h = ring.h()
    mod = _mod(h, ring)
    cases = (
        ((-2, -2, -2), h * h * h + 6 * h * h + 8 * h, "L(-2)^3"),
        ((-3, -3), 4 * h * h + 6 * h, "L(-3)^2"),
        ((-4, -2), 3 * h * h + 2 * h, "L(-4)L(-2)"),
        ((-6,), 5 * h, "L(-6)"),
    )
    for word, poly, label in cases:
        got = mode_apply(build_state(word, ring), 5, mod.vacuum(), mod)
        if got != VermaVector({(): poly}):
            return _bad(f"({label} 1)_5 v = {got!r}, expected ({scalar_to_str(poly)}) v")
    return _ok("degree-5 modes of the four descendants act on v by the expected polynomials")


# ---------------------------------------------------------------- criterion 3

LEMMA47_F_COEFFS = (Fraction(0), Fraction(-4078), Fraction(1884), Fraction(64))
LEMMA47_G_COEFFS = (Fraction(210), Fraction(1920))

LEMMA47_COMPONENTS = (
    (
        (-2, -2, -2),
        (Fraction(105, 2), Fraction(271, 2), Fraction(36), Fraction(1)),
        (Fraction(255, 4), Fraction(30)),
    ),
    ((-3, -3), (Fraction(28), Fraction(22), Fraction(4)), (Fraction(18),)),
    ((-4, -2), (Fraction(37, 2), Fraction(54), Fraction(3)), (Fraction(21),)),
    ((-6,), (Fraction(10), Fraction(5)), (Fraction(0),)),
)


def _check_expansion_formal() -> Tuple[str, str]:
    ring = formal_ring(0)
    mod = _mod(ring.h(), ring)
    s = named_state("s", ring)
    got = mode_apply(s, 5, mod.monomial((2,)), mod)
    f = Poly(LEMMA47_F_COEFFS, ring.char)
    g = Poly(LEMMA47_G_COEFFS, ring.char)
    want = VermaVector({(2,): f, (1, 1): g})
    if got != want:
        return _bad(f"s_5 L(-2)v = {got!r}, expected f(h) L(-2)v + g(h) L(-1)^2 v")
    return _ok("s_5 L(-2)v = (64h^3 + 1884h^2 - 4078h) L(-2)v + (1920h + 210) L(-1)^2 v")


def _check_expansion_components() -> Tuple[str, str]:
    ring = formal_ring(0)
    mod = _mod(ring.h(), ring)
    for word, fc, gc in LEMMA47_COMPONENTS:
        got = mode_apply(build_state(word, ring), 5, mod.monomial((2,)), mod)
        gpoly = Poly(gc, ring.char)
        want = VermaVector({(2,): Poly(fc, ring.char)})
        if gpoly != ring.zero():
            want = want + VermaVector({(1, 1): gpoly})
        if got != want:
            label = "".join(f"L({m})" for m in word)
            return _bad(f"({label} 1)_5 L(-2)v differs from the expected expansion")
    return _ok("all four degree-5 component expansions on L(-2)v match")


def _proportionality_check(h: Fraction, target: Dict[tuple, Fraction], expected_k: Fraction) -> CheckFn:
    def run() -> Tuple[str, str]:
        mod = _mod(h)
        s = named_state("s", QQ)
        got = mode_apply(s, 5, mod.monomial((2,)), mod)
        base = _vec(mod, target)
        lead = base.leading_partition()
        if not got:
            return _bad("s_5 L(-2)v vanished; expected a nonzero multiple")
        k = got.coeff(lead) / base.coeff(lead)
        if not k or got != base.scale(k):
            return _bad(f"s_5 L(-2)v is not a multiple of the degree-2 singular vector: {got!r}")
        if k != expected_k:
            return _bad(f"multiple is {k}, expected {expected_k}")
        return _ok(f"s_5 L(-2)v = ({k}) * degree-2 singular vector at h = {h}")

    return run


# Mode-6 scalars on L(-2)v at h = 0, cross-checked against the commutator
# route s_6 L(-2)v = [s_6, w_{-1}] v = 11 s_4 v with s_4 v = 6 L(-1)v.
LEMMA47_H0_COMPONENT_SCALARS = (
    Fraction(561, 4),
    Fraction(92),
    Fraction(191, 4),
    Fraction(45),
)


def _check_expansion_h0_components() -> Tuple[str, str]:
    mod = _mod(Fraction(0))
    for (word, _, _), scalar in zip(LEMMA47_COMPONENTS, LEMMA47_H0_COMPONENT_SCALARS):
        got = mode_apply(build_state(word, QQ), 6, mod.monomial((2,)), mod)
        want = VermaVector({(1,): scalar}) if scalar else VermaVector({})
        if got != want:
            label = "".join(f"L({m})" for m in word)
            return _bad(f"({label} 1)_6 L(-2)v = {got!r}, expected ({scalar}) L(-1)v")
    return _ok("mode-6 components on L(-2)v at h = 0 equal 140+1/4, 92, 47+3/4, 45 times L(-1)v")


def _check_expansion_h0_scalar() -> Tuple[str, str]:
    mod = _mod(Fraction(0))
    s = named_state("s", QQ)
    got = mode_apply(s, 6, mod.monomial((2,)), mod)
    if set(got.terms) - {(1,)}:
        return _bad(f"s_6 L(-2)v is not a multiple of L(-1)v: {got!r}")
    k = got.coeff((1,), Fraction(0))
    # Independent route: s_6 w_{-1} v = [s_6, w_{-1}] v = (5 + 6) s_4 v because
    # s is singular (so w_i s = 0 for i >= 2) and L(0)s = 6s.
    s4 = mode_apply(s, 4, mod.vacuum(), mod)
    if got != s4.scale(Fraction(11)):
        return _bad(f"commutator route gives 11 * {s4!r}, direct route {got!r}")
    if k.denominator != 1:
        return _bad(f"scalar {k} is not an integer")
    n = int(k)
    return ("value", f"s_6 L(-2)v = ({n}) L(-1)v at h = 0; {n} = {prime_factorization(n)}")


# --------------------------------------------------- state annihilation spot checks


def _annihilation_check(name: str, h: Fraction, ring: Ring, max_degree: int) -> CheckFn:
    def run() -> Tuple[str, str]:
        mod = _mod(h, ring)
        state = named_state(name, ring)
        rep = verify_annihilation(state, mod, 2, max_degree)
        if not rep.ok:
            return _bad(f"{len(rep.violations)} nonzero images, first at {rep.violations[0]}")
        return _ok(f"every checked mode kills L(c,h) slices (degrees <= {max_degree}, {rep.checks} images)")

    return run


# ---------------------------------------------------------------- criterion 4


def _mod7():
    return _mod(Fraction(0), GF(7))


def _check_char7_u_vacuum_singular() -> Tuple[str, str]:
    mod = _mod7()
    u = named_state_verma("u", mod)
    if is_singular(u, mod):
        return _bad("u is already singular in the full Verma module; the vacuum quotient is not needed")
    l1 = mod.project_vacuum_module(mod.apply_mode(1, u))
    l2 = mod.project_vacuum_module(mod.apply_mode(2, u))
    if l1 or l2:
        return _bad(f"u is not singular in the vacuum module: L(1)u -> {l1!r}, L(2)u -> {l2!r}")
    if not mod.project_vacuum_module(u):
        return _bad("u vanishes in the vacuum module")
    return _ok("u is nonzero and killed by L(1), L(2) in the vacuum module over F_7")


def _check_char7_verma_kernel() -> Tuple[str, str]:
    mod = _mod7()
    sb = singular_space(mod, 4)
    if len(sb.vectors) != 1:
        return _bad(f"degree-4 kernel over F_7 has dimension {len(sb.vectors)}, expected 1")
    proj = mod.project_vacuum_module(sb.vectors[0])
    want = mod.project_vacuum_module(named_state_verma("u", mod)).normalized()
    if proj != want:
        return _bad(f"kernel projects to {proj!r}, expected normalized u")
    return _ok("the degree-4 Verma kernel over F_7 is 1-dimensional and projects onto u")


def _check_char7_identity() -> Tuple[str, str]:
    mod = _mod7()
    u = named_state_verma("u", mod)
    lhs = mod.apply_word([-2], u) + mod.apply_word([-1, -1], u)
    got = mod.project_vacuum_module(lhs)
    want = mod.project_vacuum_module(named_state_verma("s", mod))
    if got != want:
        return _bad(f"(L(-2)+L(-1)^2)u -> {got!r}, expected s -> {want!r}")
    if got == lhs:
        return _bad("identity held before projection; expected part-1 correction terms")
    return _ok("(L(-2) + L(-1)^2) u = s in the vacuum module over F_7")


def _check_char7_u3_formal() -> Tuple[str, str]:
    ring = formal_ring(7)
    h = ring.h()
    mod = _mod(h, ring)
    u = named_state("u", ring)
    got = mode_apply(u, 3, mod.vacuum(), mod)
    want = VermaVector({(): h * (h - 4)})
    if got != want:
        return _bad(f"u_3 v = {got!r}, expected h(h-4) v over F_7")
    return _ok("u_3 v = h(h-4) v as a polynomial identity over F_7")


# In the canonical decreasing-mode monomial order; reordering the displayed
# increasing-order products a(-1/2)a(-7/2) etc. contributes the signs.
GOLDEN_FOCK_HW_DEG4 = {(7, 1): -1, (5, 3): 3}
GOLDEN_FOCK_HW_15_2 = {(15,): 1, (11, 3, 1): 1, (9, 5, 1): 1, (7, 5, 3): 3}


def _fock_vec(sector: str, ring: Ring, coeffs: Dict[tuple, int]) -> FockVector:
    return FockVector(sector, ring, {t: ring.of_int(c) for t, c in coeffs.items()})


def _is_fock_hw(w: FockVector) -> bool:
    return not apply_virasoro_fock(1, w) and not apply_virasoro_fock(2, w)


def _span_contains(basis_vecs: Sequence[FockVector], w: FockVector) -> bool:
    if not basis_vecs:
        return not w
    sb = SpanBuilder(basis_vecs[0].ring)
    for b in basis_vecs:
        sb.add(b.terms)
    return sb.contains(w.terms)


def _check_char7_fock_hw4() -> Tuple[str, str]:
    found = fock_hw_vectors(NS, 0, 4, GF(7))
    want = _fock_vec(NS, GF(7), GOLDEN_FOCK_HW_DEG4).normalized()
    if not found:
        return _bad("no NS-even highest weight vectors of weight 4 over F_7")
    if not _is_fock_hw(want):
        return _bad("expected vector is not killed by L(1), L(2)")
    if not _span_contains(found, want):
        return _bad("a(-1/2)a(-7/2) - 3 a(-3/2)a(-5/2) is not in the computed kernel")
    if fock_hw_vectors(NS, 0, 4, QQ):
        return _bad("weight-4 NS-even kernel over Q should be empty")
    return _ok("weight-4 NS-even kernel over F_7 contains a(-1/2)a(-7/2) - 3 a(-3/2)a(-5/2); empty over Q")


def _check_char7_fock_hw15() -> Tuple[str, str]:
    found = fock_hw_vectors(NS, 1, Fraction(15, 2), GF(7))
    want = _fock_vec(NS, GF(7), GOLDEN_FOCK_HW_15_2).normalized()
    if not found:
        return _bad("no NS-odd highest weight vectors of weight 15/2 over F_7")
    if not _is_fock_hw(want):
        return _bad("expected vector is not killed by L(1), L(2)")
    if not _span_contains(found, want):
        return _bad("the expected weight-15/2 vector is not in the computed kernel")
    return _ok("weight-15/2 NS-odd kernel over F_7 contains the expected 4-term vector")


def _check_char7_annihilation_u() -> Tuple[str, str]:
    ring = GF(7)
    mod = _mod(4, ring)
    rep = verify_annihilation(named_state("u", ring), mod, 2, 4)
    if not rep.ok:
        return _bad(f"u does not annihilate L(1/2, 4) over F_7: first violation {rep.violations[0]}")
    return _ok(f"u annihilates L(1/2, 4) over F_7 (degrees <= 4, {rep.checks} images)")


# ---------------------------------------------------------------- criterion 5


def _det7_images():
    w1 = apply_virasoro_fock(-1, fermion_monomial(NS, [Fraction(-5, 2), Fraction(-1, 2)]))
    w2 = apply_virasoro_fock(-2, fermion_monomial(NS, [Fraction(-3, 2), Fraction(-1, 2)]))
    basis = ((7, 1), (5, 3))
    rows = []
    for w in (w1, w2):
        if set(w.terms) - set(basis):
            raise AssertionError(f"image leaves the weight-4 NS slice: {w!r}")
        rows.append([w.coeff(b, Fraction(0)) for b in basis])
    return rows


def _check_det7_matrix() -> Tuple[str, str]:
    rows = _det7_images()
    want = [[Fraction(3), Fraction(1)], [Fraction(5, 2), Fraction(-3, 2)]]
    if rows != want:
        return _bad(f"images have coefficient matrix {rows}, expected {want}")
    d = det(rows, QQ)
    if d != Fraction(-7):
        return _bad(f"determinant is {d}, expected -7")
    return _ok("L(-1), L(-2) images span the weight-4 slice with coefficient matrix [[3,1],[5/2,-3/2]], det -7")


def _check_det7_ranks() -> Tuple[str, str]:
    rows = _det7_images()
    for p in PRIMES:
        rp = [[reduce_mod_p(x, p).v for x in row] for row in rows]
        r = rank(rp, GF(p))
        want = 1 if p == 7 else 2
        if r != want:
            return _bad(f"rank over F_{p} is {r}, expected {want}")
    return _ok("the matrix is singular mod 7 and invertible mod 3, 5, 11, 13")


# ---------------------------------------------------------------- criterion 6


def _character_check(char: int) -> CheckFn:
    def run() -> Tuple[str, str]:
        ring = QQ if char == 0 else GF(char)
        issues = []
        for h, sectors in H_SECTORS.items():
            irr = irreducible_dims(_mod(h, ring), 10).irreducible()
            for sector, parity in sectors:
                sd = sector_dims(sector, parity, 10)
                if irr != sd:
                    issues.append(f"h={h}: irreducible dims {irr} != {sector} parity-{parity} monomial counts {sd}")
                    continue
                vs = vir_span_dims(sector_hw_vector(sector, parity, ring), 10)
                if vs != sd:
                    issues.append(f"h={h}: Virasoro span dims {vs} != sector dims {sd}")
        if issues:
            return _bad("; ".join(issues))
        return _ok("irreducible, sector, and Virasoro-span dimensions all agree up to degree 10")

    return run


def _check_char7_h0_anomaly() -> Tuple[str, str]:
    ring = GF(7)
    irr = irreducible_dims(_mod(Fraction(0), ring), 6).irreducible()
    sd = sector_dims(NS, 0, 6)
    diffs = [i for i in range(7) if irr[i] != sd[i]]
    if not diffs or diffs[0] != 4:
        return _bad(f"first difference at {diffs[:1] or 'none'}; dims {irr} vs {sd}")
    if not irr[4] < sd[4]:
        return _bad(f"expected a strictly smaller dimension at degree 4: {irr[4]} vs {sd[4]}")
    vs = vir_span_dims(sector_hw_vector(NS, 0, ring), 4)
    if vs[4] != irr[4]:
        return _bad(f"Virasoro span dim at degree 4 is {vs[4]}, expected {irr[4]}")
    return _ok(
        f"over F_7 the h=0 dimensions first differ at degree 4 ({irr[4]} < {sd[4]}), matched by the Fock Virasoro span"
    )


# ---------------------------------------------------------------- criterion 7


def _vanishes(terms: Sequence[Tuple[int, Entry]], p: int) -> bool:
    """True when the sum of k * entry over the (k, entry) pairs is zero over
    characteristic p: one bucket sum, with no scalar built."""
    buckets: Buckets = {}
    for k, (den, t) in terms:
        add_products(buckets.setdefault(den, {}), (k,), t)
    return not normalized_sum(buckets, p)[1]


def _unit(key) -> Entry:
    """The basis vector key as a canonical entry."""
    return 1, {key: (1,)}


def _bracket_fault(act: Callable[[int, Entry], Entry], ring: Ring, c: Scalar, keys: Sequence) -> Optional[tuple]:
    """The first (m, n, key), |m|, |n| <= 3, at which the Virasoro relation
    with central charge c fails on the basis vector key, or None.

    act(n, entry) applies L(n) to a canonical entry, so the modes compose
    with no scalar built: each bracket [L(m), L(n)] minus its right-hand
    side is one bucket sum, which must be the zero entry.

    Only m < n is tested, and all 49 brackets per key are still covered.
    The relation for (n, m) is the negation of that for (m, n): swapping m
    and n negates [L(m), L(n)] and (m - n) L(m + n), and the central term
    C(m) delta_{m+n,0} with C(m) = c (m^3 - m)/12 becomes C(-m) = -C(m).
    For m = n both sides are zero.  So each composed product L(m) L(n) key
    with m != n is computed once, in the one relation that uses it.
    """
    p = ring.char
    for key in keys:
        image = {n: act(n, _unit(key)) for n in range(-6, 7)}
        for m in range(-3, 4):
            for n in range(m + 1, 4):
                terms = [(1, act(m, image[n])), (-1, act(n, image[m])), (n - m, image[m + n])]
                if m + n == 0:
                    terms.append((-1, poly_numerators([(key, central_coeff(m, ring) * c)], ring)))
                if not _vanishes(terms, p):
                    return m, n, key
    return None


def _check_verma_bracket() -> Tuple[str, str]:
    keys = [part for d in range(9) for part in partitions(d)]
    for mod in (_mod(SIXTEENTH), _mod(Fraction(0), GF(7))):
        fault = _bracket_fault(mod.act, mod.ring, mod.c, keys)
        if fault:
            m, n, part = fault
            return _bad(f"[L({m}),L({n})] fails on {part} over char {mod.ring.char}")
    return _ok(f"Virasoro relations hold on all monomials of degree <= 8 ({2 * 49 * len(keys)} brackets, char 0 and 7)")


def _fock_keys(sector: str, max_weight2: int) -> List[tuple]:
    """The sector's basis monomials of doubled weight <= max_weight2, even
    parity first, each parity by degree."""
    out = []
    for parity in (0, 1):
        d = 0
        while slice_weight2(sector, parity, d) <= max_weight2:
            out.extend(sector_basis(sector, parity, d))
            d += 1
    return out


def _fock_monomials_upto(sector: str, max_weight2: int) -> List[FockVector]:
    return [FockVector(sector, QQ, {t: Fraction(1)}) for t in _fock_keys(sector, max_weight2)]


def _doubled_modes(sector: str, bound2: int) -> List[int]:
    """Doubled fermion modes k, |k| <= bound2, ascending: odd k for NS,
    even for R."""
    return [k for k in range(-bound2, bound2 + 1) if k % 2 == MODE_PARITY[sector]]


def _sector_modes(sector: str, bound2: int) -> List[Fraction]:
    """Fermion modes k/2, |k| <= bound2, ascending: odd k for NS, even for R."""
    return [Fraction(k, 2) for k in _doubled_modes(sector, bound2)]


def _check_fock_bracket() -> Tuple[str, str]:
    count = 0
    for sector in (NS, RAMOND):
        keys = _fock_keys(sector, 16)
        fault = _bracket_fault(partial(virasoro_act, sector, 0), QQ, C_ISING, keys)
        if fault:
            m, n, t = fault
            return _bad(f"[L({m}),L({n})] fails on {[t]} in {sector}")
        count += 49 * len(keys)
    return _ok(f"Virasoro relations with c = 1/2 hold on both sectors up to weight 8 ({count} brackets)")


def _anticommutator_fault(act: Callable[[int, Entry], Entry], modes: Sequence[int], keys: Sequence) -> Optional[tuple]:
    """The first (m2, n2, key), m2 <= n2 doubled modes, at which
    {a(m), a(n)} = delta_{m+n,0} fails on the basis monomial key, or None.

    act(m2, entry) applies a(m2/2) to a canonical entry over Q; each
    relation is one bucket sum.  The relation is symmetric in (m, n), so
    testing m <= n covers every ordered pair, and each product a(m) a(n) key
    is computed once, in the one relation that uses it.
    """
    for key in keys:
        x = _unit(key)
        image = {m2: act(m2, x) for m2 in modes}
        for i, m2 in enumerate(modes):
            for n2 in modes[i:]:
                if m2 == n2:
                    terms = [(2, act(m2, image[m2]))]
                else:
                    terms = [(1, act(m2, image[n2])), (1, act(n2, image[m2]))]
                if m2 + n2 == 0:
                    terms.append((-1, x))
                if not _vanishes(terms, 0):
                    return m2, n2, key
    return None


def _check_fock_anticommutation() -> Tuple[str, str]:
    count = 0
    for sector in (NS, RAMOND):
        modes = _doubled_modes(sector, 9)
        keys = _fock_keys(sector, 10)
        fault = _anticommutator_fault(partial(fermion_act, 0), modes, keys)
        if fault:
            m2, n2, t = fault
            return _bad(f"anticommutator {{a({mode_str(m2)}),a({mode_str(n2)})}} fails on {[t]} in {sector}")
        count += len(modes) ** 2 * len(keys)
    return _ok(f"anticommutation relations hold on both sectors up to weight 5 ({count} pairs)")


def _check_fock_mixed_commutator() -> Tuple[str, str]:
    """[L(p), a(q)] = -(q + p/2) a(p + q), doubled: with q = q2/2 the
    relation 2 L(p) a(q) x - 2 a(q) L(p) x + (q2 + p) a(p + q) x = 0 has int
    coefficients and is one bucket sum.  L(p) x, a(q) x and a(p + q) x are
    computed once per monomial x."""
    count = 0
    for sector in (NS, RAMOND):
        modes = _doubled_modes(sector, 9)
        for t in _fock_keys(sector, 8):
            x = _unit(t)
            lx = {p: virasoro_act(sector, 0, p, x) for p in range(-3, 4)}
            ax = {s2: fermion_act(0, s2, x) for s2 in _doubled_modes(sector, 15)}
            for p in range(-3, 4):
                for q2 in modes:
                    terms = (
                        (2, virasoro_act(sector, 0, p, ax[q2])),
                        (-2, fermion_act(0, q2, lx[p])),
                        (q2 + p, ax[q2 + 2 * p]),
                    )
                    count += 1
                    if not _vanishes(terms, 0):
                        return _bad(f"[L({p}),a({mode_str(q2)})] fails on {[t]} in {sector}")
    return _ok(f"[L(p), a(q)] = -(q + p/2) a(p+q) on both sectors ({count} pairs)")


def _check_fock_contravariance() -> Tuple[str, str]:
    count = 0
    for sector in (NS, RAMOND):
        vecs = _fock_monomials_upto(sector, 6)
        for n in range(-3, 4):
            for u in vecs:
                lnu = apply_virasoro_fock(n, u)
                for v in vecs:
                    lhs = fock_form(lnu, v)
                    rhs = fock_form(u, apply_virasoro_fock(-n, v))
                    count += 1
                    if lhs != rhs:
                        return _bad(f"(L({n})u, v) != (u, L({-n})v) on {sorted(u.terms)}, {sorted(v.terms)}")
    return _ok(f"the monomial form is contravariant for all |n| <= 3 up to weight 3 ({count} pairs)")


def _check_sigma_intertwining() -> Tuple[str, str]:
    count = 0
    evens = [w for w in _fock_monomials_upto(RAMOND, 8) if w.parity() == 0]
    modes = _sector_modes(RAMOND, 6)
    for x in evens:
        for s in modes:
            for t in modes:
                if not s > t:
                    continue
                lhs = apply_fermion(s, apply_fermion(t, sigma(x)))
                rhs = sigma(apply_fermion(s, apply_fermion(t, x)))
                count += 1
                if lhs != rhs:
                    return _bad(f"a({s})a({t}) sigma != sigma a({s})a({t}) on {sorted(x.terms)}")
    return _ok(f"sigma intertwines all products a(s)a(t), s > t, on R-even monomials up to weight 4 ({count} pairs)")


def _check_sigma_bijection() -> Tuple[str, str]:
    for d in range(6):
        even = sector_basis(RAMOND, 0, d)
        odd = sector_basis(RAMOND, 1, d)
        if len(even) != len(odd):
            return _bad(f"parity slices at degree {d} have different sizes")
        sb = SpanBuilder(QQ)
        images = 0
        for t in even:
            w = sigma(FockVector(RAMOND, QQ, {t: Fraction(1)}))
            if w.weight2() != 2 * d:
                return _bad(f"sigma changed the weight of {t}")
            if sb.add(w.terms):
                images += 1
        if images != len(odd):
            return _bad(f"sigma images span only {images} of {len(odd)} dimensions at degree {d}")
    return _ok("sigma is a weight-preserving bijection between R parity slices up to degree 5")


def _check_radical_submodule() -> Tuple[str, str]:
    count = 0
    for ring in (QQ, GF(7)):
        for h in (Fraction(0), HALF, SIXTEENTH):
            mod = _mod(h, ring)
            grams = {n: mod.gram_matrix(n) for n in range(10)}
            for n in range(7):
                for r in radical_basis(mod, n):
                    for k in (1, 2, 3):
                        if not grams[n + k].in_radical(mod.apply_mode(-k, r)):
                            return _bad(f"L(-{k}) image of a radical vector leaves the radical at h={h}, char {ring.char}")
                        count += 1
    return _ok(f"lowering operators keep every radical slice inside the radical ({count} images, char 0 and 7)")


# ---------------------------------------------------------------- base change


def _gram_by_definition(mod, n: int) -> Tuple[Tuple[Scalar, ...], ...]:
    """The degree-n Gram matrix of mod from its definition: entry
    (lambda, mu) is the coefficient of v in L(lambda_k)...L(lambda_1) L(-mu) v,
    applying L(lambda_1) first, through `act` on entries."""
    ring = mod.ring
    out = []
    for lam in partitions(n):
        row = []
        for mu in partitions(n):
            entry: Entry = (1, {mu: (1,)})
            for k in lam:
                entry = mod.act(k, entry)
            row.append(entry_values(entry, ring).get((), ring.zero()))
        out.append(tuple(row))
    return tuple(out)


def _check_basechange_gram() -> Tuple[str, str]:
    for h in (Fraction(0), HALF, SIXTEENTH):
        grams = [_gram_by_definition(_mod(h), n) for n in range(7)]
        for p in PRIMES:
            mp = _mod(h, GF(p))
            for n, gq in enumerate(grams):
                red = tuple(tuple(reduce_mod_p(x, p) for x in row) for row in gq)
                if red != _gram_by_definition(mp, n):
                    return _bad(f"Gram matrices at degree {n}, h={h} do not commute with reduction mod {p}")
    return _ok("Gram matrices commute with reduction mod p for p in {3,5,7,11,13}, degrees <= 6")


def _check_basechange_fock() -> Tuple[str, str]:
    count = 0
    for p in PRIMES:
        ring = GF(p)
        for sector in (NS, RAMOND):
            fmodes = _sector_modes(sector, 5)
            for x in _fock_monomials_upto(sector, 8):
                xp = reduce_fock_mod_p(x, p)
                for n in range(-2, 3):
                    if reduce_fock_mod_p(apply_virasoro_fock(n, x), p) != apply_virasoro_fock(n, xp):
                        return _bad(f"L({n}) does not commute with reduction mod {p} on {sorted(x.terms)}")
                    count += 1
                for m in fmodes:
                    if reduce_fock_mod_p(apply_fermion(m, x), p) != apply_fermion(m, xp):
                        return _bad(f"a({m}) does not commute with reduction mod {p} on {sorted(x.terms)}")
                    count += 1
    return _ok(f"Fock Virasoro and fermion actions commute with reduction mod p ({count} comparisons)")


def _check_basechange_vectors() -> Tuple[str, str]:
    mod = _mod(Fraction(0))
    s = _vec(mod, GOLDEN_SINGULAR[(Fraction(0), 6)])
    got = reduce_vector_mod_p(s, 7)
    ring7 = GF(7)
    want = VermaVector(
        {(2, 2, 2): ring7.of_int(2), (3, 3): ring7.of_int(4), (4, 2): ring7.of_int(4), (6,): ring7.of_int(1)}
    )
    if got != want:
        return _bad(f"reduction of s mod 7 is {got!r}")
    entrywise = VermaVector({part: reduce_mod_p(cv, 7) for part, cv in s.terms.items()})
    if got != entrywise.normalized():
        return _bad("normalized reduction disagrees with entrywise reduction followed by normalization")
    one = reduce_vector_mod_p(VermaVector({(1,): Fraction(1)}), 5)
    if one != VermaVector({(1,): GF(5).of_int(1)}):
        return _bad("L(-1)v does not reduce to itself")
    dropped = reduce_vector_mod_p(VermaVector({(3,): Fraction(3, 4)}), 3)
    if dropped != VermaVector({(3,): GF(3).of_int(1)}):
        return _bad(f"(3/4) L(-3)v reduced to {dropped!r}, expected L(-3)v after normalization")
    return _ok("lattice reductions match: s mod 7 has coefficients (2,4,4,1) after normalization")


# ---------------------------------------------------------------- criterion 8


def _oracle_parity_counts(max2: int, parts: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Counts of strictly-decreasing tuples from the given doubled parts with
    even/odd length, by doubled total weight; pure counting, no module code."""
    even = [0] * (max2 + 1)
    odd = [0] * (max2 + 1)
    even[0] = 1
    for part in parts:
        for w in range(max2, part - 1, -1):
            even[w], odd[w] = even[w] + odd[w - part], odd[w] + even[w - part]
    return even, odd


def _check_oracle_dims() -> Tuple[str, str]:
    max_deg = 10
    max2 = 2 * max_deg + 1
    ns_even, ns_odd = _oracle_parity_counts(max2, list(range(1, max2 + 1, 2)))
    r_even, r_odd = _oracle_parity_counts(max2, list(range(2, max2 + 1, 2)))
    oracle = {
        Fraction(0): [ns_even[2 * d] for d in range(max_deg + 1)],
        HALF: [ns_odd[2 * d + 1] for d in range(max_deg + 1)],
        SIXTEENTH: [r_even[2 * d] + r_odd[2 * d] for d in range(max_deg + 1)],
    }
    for h, want in oracle.items():
        if want != IRR_DIMS_Q[h]:
            return _bad(f"enumeration oracle at h={h} gives {want}, frozen table says {IRR_DIMS_Q[h]}")
        got = irreducible_dims(_mod(h), max_deg).irreducible()
        if got != want:
            return _bad(f"Gram ranks at h={h} give {got}, oracle gives {want}")
    return _ok("Gram-rank dimensions match the independent set-enumeration oracle up to degree 10")


# ----------------------------------------------------------------- registry


def _registry() -> List[Tuple[str, str, int, CheckFn]]:
    checks: List[Tuple[str, str, int, CheckFn]] = []
    for h, deg in sorted(GOLDEN_SINGULAR, key=lambda k: (k[0], k[1])):
        checks.append(
            (f"singular/golden-h{_hslug(h)}-deg{deg}", "singular", 1, _golden_singular_check(h, deg))
        )
    checks.append(("singular/no-others-below-9", "singular", 1, _check_no_other_degrees))
    checks.append(("singular/radical-generated", "singular", 1, _check_radical_generated))
    checks.append(("classify/identity", "classify", 2, _check_classify_identity))
    checks.append(("classify/intermediates", "classify", 2, _check_classify_intermediates))
    checks.append(("classify/annihilation-s-h0", "classify", 2, _annihilation_check("s", Fraction(0), QQ, 5)))
    checks.append(("classify/annihilation-s-h16", "classify", 2, _annihilation_check("s", SIXTEENTH, QQ, 5)))
    checks.append(("expansion/formal", "expansion", 3, _check_expansion_formal))
    checks.append(("expansion/components", "expansion", 3, _check_expansion_components))
    checks.append(
        ("expansion/proportional-h1-2", "expansion", 3, _proportionality_check(HALF, GOLDEN_SINGULAR[(HALF, 2)], Fraction(-390)))
    )
    checks.append(
        (
            "expansion/proportional-h1-16",
            "expansion",
            3,
            _proportionality_check(SIXTEENTH, GOLDEN_SINGULAR[(SIXTEENTH, 2)], Fraction(-165, 2)),
        )
    )
    checks.append(("expansion/h0-components", "expansion", 3, _check_expansion_h0_components))
    checks.append(("expansion/h0-scalar", "expansion", 3, _check_expansion_h0_scalar))
    checks.append(("char7/u-vacuum-singular", "char7", 4, _check_char7_u_vacuum_singular))
    checks.append(("char7/verma-kernel-deg4", "char7", 4, _check_char7_verma_kernel))
    checks.append(("char7/identity-s", "char7", 4, _check_char7_identity))
    checks.append(("char7/u3-formal", "char7", 4, _check_char7_u3_formal))
    checks.append(("char7/fock-hw-weight4", "char7", 4, _check_char7_fock_hw4))
    checks.append(("char7/fock-hw-weight15-2", "char7", 4, _check_char7_fock_hw15))
    checks.append(("char7/annihilation-u", "char7", 4, _check_char7_annihilation_u))
    checks.append(("det7/matrix", "det7", 5, _check_det7_matrix))
    checks.append(("det7/rank-mod-p", "det7", 5, _check_det7_ranks))
    for char in (0, 3, 5, 11, 13):
        checks.append((f"characters/char{char}", "characters", 6, _character_check(char)))
    checks.append(("characters/char7-h0-anomaly", "characters", 6, _check_char7_h0_anomaly))
    checks.append(("verma/bracket", "verma", 7, _check_verma_bracket))
    checks.append(("fock/bracket", "fock", 7, _check_fock_bracket))
    checks.append(("fock/anticommutation", "fock", 7, _check_fock_anticommutation))
    checks.append(("fock/mixed-commutator", "fock", 7, _check_fock_mixed_commutator))
    checks.append(("fock/contravariance", "fock", 7, _check_fock_contravariance))
    checks.append(("fock/sigma-intertwining", "fock", 7, _check_sigma_intertwining))
    checks.append(("fock/sigma-bijection", "fock", 7, _check_sigma_bijection))
    checks.append(("verma/radical-submodule", "verma", 7, _check_radical_submodule))
    checks.append(("basechange/gram", "basechange", 7, _check_basechange_gram))
    checks.append(("basechange/fock", "basechange", 7, _check_basechange_fock))
    checks.append(("basechange/vectors", "basechange", 7, _check_basechange_vectors))
    checks.append(("oracle/dims-q", "oracle", 8, _check_oracle_dims))
    return checks


def run_battery(only: Optional[str] = None) -> VerificationReport:
    """Run the verification battery, optionally filtered by group or name
    prefix, and return the collected results."""
    results: List[CheckResult] = []
    for name, group, criterion, fn in _registry():
        if only and not (group == only or name.startswith(only) or group.startswith(only)):
            continue
        t0 = time.perf_counter()
        try:
            status, detail = fn()
        except Exception as exc:  # a broken check is a failure, not a crash
            status, detail = "fail", f"exception: {exc!r}"
        results.append(CheckResult(name, group, criterion, status, detail, time.perf_counter() - t0))
    return VerificationReport(results)
