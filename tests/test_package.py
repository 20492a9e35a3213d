"""The package surface: lazily resolved public names, the value semantics of
the record types, and clear_caches."""

import importlib
import inspect
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import virfock
from virfock import fock, verma
from virfock.fock import NS, apply_fermion, fock_form, sector_hw_vector, vir_span_dims
from virfock.scalars import GF, QQ, CharacteristicTwoError, Ring, formal_ring
from virfock.singular import irreducible_dims
from virfock.verma import GramMatrix, ModuleParams, VermaModule, verma_module


def test_every_public_name_is_the_object_of_its_defining_module():
    for name in virfock.__all__:
        source = f"virfock.{virfock._SOURCE[name]}"
        obj = getattr(virfock, name)
        assert obj is getattr(importlib.import_module(source), name), name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == source, name


def test_dir_lists_every_public_name():
    names = dir(virfock)
    assert set(virfock.__all__) <= set(names)
    assert "clear_caches" in names and names == sorted(names)


def test_star_import_binds_every_public_name():
    # A fresh interpreter, so that every name is resolved on demand.
    code = (
        "import virfock\n"
        "from virfock import *\n"
        "missing = [n for n in virfock.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
    )
    src = os.path.dirname(os.path.dirname(virfock.__file__))
    subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src}, check=True)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        virfock.no_such_name
    assert not hasattr(virfock, "merge")  # defined in a submodule, but not public
    with pytest.raises(ImportError):
        from virfock import no_such_name  # noqa: F401


def test_rings_built_alike_are_equal_hash_equal_and_immutable():
    assert Ring(7) == GF(7) and hash(Ring(7)) == hash(GF(7))
    assert Ring(7, True) == formal_ring(7) and hash(Ring(7, True)) == hash(formal_ring(7))
    assert Ring() == QQ and Ring(0) != Ring(0, True) and Ring(5) != Ring(7)
    assert Ring(5) != 5 and len({Ring(3), GF(3), Ring(3, True)}) == 2
    assert repr(QQ) == "Ring(char=0, formal=False)"
    assert repr(formal_ring(7)) == "Ring(char=7, formal=True)"
    with pytest.raises(AttributeError):
        QQ.char = 3
    with pytest.raises(AttributeError):
        del QQ.formal
    assert QQ.char == 0 and not QQ.formal
    with pytest.raises(CharacteristicTwoError):
        Ring(2)
    with pytest.raises(ValueError):
        Ring(9)


def test_gram_matrix_is_a_named_tuple_of_its_rows():
    # Two unshared modules with the same parameters give equal slices, and a
    # slice holds nothing but its degree, basis, echelon rows and ring.
    a = VermaModule(Fraction(1, 2), Fraction(1, 16)).gram_matrix(4)
    b = VermaModule(Fraction(1, 2), Fraction(1, 16)).gram_matrix(4)
    assert GramMatrix._fields == ("degree", "basis", "rows", "ring")
    assert a == b == GramMatrix(a.degree, a.basis, a.rows, a.ring)
    assert a != GramMatrix(a.degree, a.basis, a.rows, GF(7))
    with pytest.raises(AttributeError):
        a.rows = ()
    assert repr(a) == f"GramMatrix(degree=4, basis={a.basis!r}, rows={a.rows!r}, ring=Ring(char=0, formal=False))"


def test_equal_parameters_share_one_verma_module():
    mod = verma_module(Fraction(1, 2), 0, QQ)
    assert verma_module(Fraction(1, 2), Fraction(0), QQ) is mod
    assert mod.params == ModuleParams(Fraction(1, 2), Fraction(0), QQ)
    assert hash(mod.params) == hash(ModuleParams(Fraction(1, 2), Fraction(0), QQ))
    f7 = GF(7)
    assert verma_module(4, 0, f7) is verma_module(f7.of_fraction(Fraction(1, 2)), f7.of_int(0), Ring(7))
    assert verma_module(Fraction(1, 2), 0, GF(7)) is not mod


def _retained() -> list:
    """Entries held by each process-wide memo that clear_caches empties."""
    tables = (verma.partitions, fock._fermion_term, fock._virasoro_term, fock._strict_tuples, fock.sector_basis)
    return [len(verma._module_cache), *(t.cache_info().currsize for t in tables)]


def _prime_sweep(clear: bool) -> list:
    out = []
    for p in (3, 5, 7, 11, 13):
        ring = GF(p)
        start = sector_hw_vector(NS, 0, ring)
        irr = irreducible_dims(verma_module(Fraction(1, 2), 0, ring), 8).irreducible()
        out.append((irr, vir_span_dims(start, 8), fock_form(start, start), apply_fermion(Fraction(-1, 2), start)))
        if clear:
            assert all(_retained())
            virfock.clear_caches()
            assert not any(_retained())
    return out


def test_clear_caches_keeps_a_sweep_flat_and_its_results_unchanged():
    virfock.clear_caches()
    kept = _prime_sweep(clear=False)
    assert all(_retained())
    virfock.clear_caches()
    assert not any(_retained())
    assert _prime_sweep(clear=True) == kept
    assert kept[2][0] != kept[0][0]  # characteristic 7 departs from the others
