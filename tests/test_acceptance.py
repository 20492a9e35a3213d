"""Acceptance gate: run the full verification battery once, then assert each
top-level criterion and print one PASS/FAIL line per criterion.

Every check must pass.  The frozen singular-degree catalogue is also checked
against the Rocha-Caridi exponents of the (3, 4) minimal model, computed here
without the engine.
"""

import time
from fractions import Fraction
from functools import partial

import pytest

from test_fock import oracle_fermion_terms
from virfock.battery import (
    EXPECTED_SINGULAR_DEGREES,
    GENERATING_SINGULAR_DEGREES,
    _anticommutator_fault,
    _bracket_fault,
    _doubled_modes,
    _fock_keys,
    run_battery,
)
from virfock.fock import NS, RAMOND, sector_basis, virasoro_act
from virfock.scalars import QQ, entry_values, poly_numerators
from virfock.verma import partitions, verma_module

CRITERION_LABELS = {
    1: "singular-vector golden set and degree inventory",
    2: "classification identity with formal weight",
    3: "degree-6 state on L(-2)v: expansion, proportionality, reported scalar",
    4: "characteristic-7 degeneration suite",
    5: "determinant -7 induction step",
    6: "character equalities across characteristics",
    7: "algebraic property suites",
    8: "independent dimension oracle",
}

EXPECTED_CHECK_COUNT = 45

# c = 1/2 is the (p, p') = (3, 4) minimal model; its three highest weights
# are h_{r,s} = ((4r - 3s)^2 - 1) / 48.
ISING_KAC_LABELS = {
    Fraction(0): (1, 1),
    Fraction(1, 2): (2, 1),
    Fraction(1, 16): (1, 2),
}


@pytest.fixture(scope="module")
def battery():
    t0 = time.perf_counter()
    report = run_battery()
    return report, time.perf_counter() - t0


def gate(report, num):
    """Collect the checks tagged with one criterion and print its gate line."""
    checks = [r for r in report.results if r.criterion == num]
    assert checks, f"no battery checks are tagged with criterion {num}"
    bad = [r for r in checks if r.status == "fail"]
    reported = [r for r in checks if r.status == "value"]
    line = f"CRITERION {num} {CRITERION_LABELS[num]}: {'PASS' if not bad else 'FAIL'}"
    if reported:
        line += " [reported: " + "; ".join(r.detail for r in reported) + "]"
    print(line)
    return checks, bad


def failure_text(bad):
    return "; ".join(f"{r.name}: {r.detail}" for r in bad)


def test_criterion_1_singular_vector_golden_set_and_inventory(battery):
    report, _ = battery
    checks, bad = gate(report, 1)
    golden = [r for r in checks if "/golden-" in r.name]
    assert len(golden) == 6, "expected six golden singular-vector checks"
    broken = [r for r in golden if r.status != "pass"]
    assert not broken, "golden vectors mismatched: " + failure_text(broken)
    generated = next(r for r in checks if r.name == "singular/radical-generated")
    assert generated.status == "pass", generated.detail
    assert not bad, (
        "singular-vector structure at c = 1/2 disagrees with the catalogue: "
        + failure_text(bad)
    )


def test_criterion_2_classification_identity(battery):
    report, _ = battery
    checks, bad = gate(report, 2)
    assert {r.name for r in checks} == {
        "classify/identity",
        "classify/intermediates",
        "classify/annihilation-s-h0",
        "classify/annihilation-s-h16",
    }
    assert not bad, failure_text(bad)


def test_criterion_3_weight_expansions_and_reported_scalar(battery):
    report, _ = battery
    checks, bad = gate(report, 3)
    assert not bad, failure_text(bad)
    scalar = next(r for r in checks if r.name == "expansion/h0-scalar")
    assert scalar.status == "value"
    assert "66 = 2 * 3 * 11" in scalar.detail, scalar.detail


def test_criterion_4_characteristic_7_suite(battery):
    report, _ = battery
    checks, bad = gate(report, 4)
    assert len(checks) == 7
    assert not bad, failure_text(bad)


def test_criterion_5_determinant_minus_7(battery):
    report, _ = battery
    checks, bad = gate(report, 5)
    assert {r.name for r in checks} == {"det7/matrix", "det7/rank-mod-p"}
    assert not bad, failure_text(bad)


def test_criterion_6_character_equalities(battery):
    report, _ = battery
    checks, bad = gate(report, 6)
    assert {r.name for r in checks} == {
        "characters/char0",
        "characters/char3",
        "characters/char5",
        "characters/char11",
        "characters/char13",
        "characters/char7-h0-anomaly",
    }
    assert not bad, failure_text(bad)


def test_criterion_7_property_suites(battery):
    report, _ = battery
    checks, bad = gate(report, 7)
    assert len(checks) == 11
    assert not bad, failure_text(bad)


def test_criterion_8_dimension_oracle(battery):
    report, _ = battery
    checks, bad = gate(report, 8)
    assert [r.name for r in checks] == ["oracle/dims-q"]
    assert not bad, failure_text(bad)


def test_every_check_is_tagged_with_one_criterion(battery):
    report, _ = battery
    assert len(report.results) == EXPECTED_CHECK_COUNT
    assert all(r.criterion in CRITERION_LABELS for r in report.results)
    names = [r.name for r in report.results]
    assert len(names) == len(set(names))


def test_no_unexpected_failures(battery):
    report, _ = battery
    assert not report.failures, failure_text(report.failures)


def _bracket_action(space):
    """L(n) on canonical entries, and basis keys up to degree 4, of the
    Verma module V(1/2, 1/16) over Q or of a Fock sector."""
    if space == "verma":
        mod = verma_module(Fraction(1, 2), Fraction(1, 16), QQ)
        return mod.act, [part for d in range(5) for part in partitions(d)]
    keys = [t for parity in (0, 1) for d in range(5) for t in sector_basis(space, parity, d)]
    return partial(virasoro_act, space, 0), keys


@pytest.mark.parametrize("space", ["verma", NS, RAMOND])
def test_bracket_check_reports_a_wrong_central_charge(space):
    """Negative control: the shared bracket check of verma/bracket and
    fock/bracket is silent at c = 1/2 and fires at c = 1 on a central term."""
    act, keys = _bracket_action(space)
    assert _bracket_fault(act, QQ, Fraction(1, 2), keys) is None
    fault = _bracket_fault(act, QQ, Fraction(1), keys)
    assert fault is not None
    m, n, _ = fault
    assert m + n == 0 and m not in (-1, 0, 1)


@pytest.mark.parametrize("space", ["verma", NS, RAMOND])
def test_bracket_check_reports_one_wrong_product_with_m_above_n(space):
    """Negative control: the bracket check tests only m < n, so a wrong
    L(2)L(-1) key (m > n) must still show, in the (-1, 2) relation."""
    act, keys = _bracket_action(space)
    key = keys[-1]
    lowered = act(-1, (1, {key: (1,)}))
    assert lowered[1]

    def perturbed(n, entry):
        den, terms = act(n, entry)
        if n == 2 and entry == lowered:
            terms = {**terms, key: (den,)}
        return den, terms

    assert _bracket_fault(perturbed, QQ, Fraction(1, 2), keys) == (-1, 2, key)


def _oracle_fermion_act(zero_square):
    """a(m2/2) on canonical entries over Q by the rational test rule with
    a(0)^2 = zero_square."""
    def act(m2, entry):
        terms = oracle_fermion_terms(m2, entry_values(entry, QQ), QQ, zero_square)
        return poly_numerators(terms.items(), QQ)
    return act


def test_anticommutation_check_reports_a_wrong_zero_mode_square():
    """Negative control: the anticommutation check is silent for the rule
    with a(0)^2 = 1/2 and fires on {a(0), a(0)} for a(0)^2 = 1."""
    modes, keys = _doubled_modes(RAMOND, 9), _fock_keys(RAMOND, 10)
    assert _anticommutator_fault(_oracle_fermion_act(Fraction(1, 2)), modes, keys) is None
    assert _anticommutator_fault(_oracle_fermion_act(Fraction(1)), modes, keys) == (0, 0, ())


def test_singular_catalogue_matches_rocha_caridi_exponents():
    """The Rocha-Caridi numerator of V(c, h_{r,s}) for (p, p') = (3, 4) is
    sum_k q^{k(12k + 4r - 3s)} - q^{12k^2 + k(4r + 3s) + rs}; its nonzero
    exponents are the singular degrees (Feigin-Fuchs), and the two smallest,
    rs and (3 - r)(4 - s), are those of the generating singular vectors."""
    for h, (r, s) in ISING_KAC_LABELS.items():
        assert Fraction((4 * r - 3 * s) ** 2 - 1, 48) == h
        exponents = set()
        for k in range(-3, 4):
            exponents.add(k * (12 * k + 4 * r - 3 * s))
            exponents.add(12 * k * k + k * (4 * r + 3 * s) + r * s)
        positive = sorted(e for e in exponents if e > 0)
        assert tuple(e for e in positive if e <= 8) == EXPECTED_SINGULAR_DEGREES[h], h
        assert tuple(positive[:2]) == GENERATING_SINGULAR_DEGREES[h], h
        assert positive[:2] == sorted([r * s, (3 - r) * (4 - s)])


def test_battery_runs_under_two_minutes(battery):
    _, elapsed = battery
    print(f"full battery elapsed: {elapsed:.2f}s")
    assert elapsed < 120.0
