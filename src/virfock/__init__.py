"""Exact Virasoro Verma-module and free-fermion Fock-space computations over
Q and odd prime fields, including formal highest weights.

The engine constructs Verma modules V(c, h), finds singular vectors as joint
kernels of L(1) and L(2), builds irreducible quotients from contravariant-form
radicals, realizes the c = 1/2 irreducibles inside fermion Fock spaces, and
evaluates modes of composite states such as the degree-6 vacuum singular
state.  All arithmetic is exact; characteristic 2 is rejected throughout.

Importing the package loads no submodule: each public name is imported from
the submodule that defines it when it is first read (PEP 562), so a command
line call loads only the layers its command runs.
"""

import importlib
import sys

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "battery": ("CheckResult", "VerificationReport", "run_battery"),
    "fock": (
        "NS",
        "RAMOND",
        "FockVector",
        "apply_fermion",
        "apply_virasoro_fock",
        "fermion_monomial",
        "fock_form",
        "fock_hw_vectors",
        "reduce_fock_mod_p",
        "sector_basis",
        "sector_dims",
        "sector_hw_vector",
        "sigma",
        "vir_span_dims",
    ),
    "modes": (
        "AnnihilationReport",
        "build_state",
        "mode_apply",
        "named_state",
        "named_state_verma",
        "verify_annihilation",
    ),
    "scalars": (
        "GF",
        "QQ",
        "CharacteristicTwoError",
        "DenominatorDivisibleByP",
        "Fp",
        "Poly",
        "Ring",
        "central_coeff",
        "formal_ring",
        "reduce_mod_p",
    ),
    "singular": (
        "CharacterTable",
        "SingularBasis",
        "generated_submodule_dims",
        "irreducible_dims",
        "is_singular",
        "radical_basis",
        "reduce_vector_mod_p",
        "singular_degrees",
        "singular_space",
    ),
    "verma": ("GramMatrix", "ModuleParams", "VermaModule", "VermaVector", "partitions", "verma_dim", "verma_module"),
}

# Public name -> the submodule that defines it.
_SOURCE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})


def clear_caches() -> None:
    """Empty the process-wide memos: the shared Verma modules of
    `verma_module` (with their straightening and Gram memos), the partition
    table, and the Fock tables.  Only submodules that are already loaded are
    touched; none is imported.  Long sweeps over (c, h, p) call this between
    steps to keep their memory flat."""
    verma = sys.modules.get(f"{__name__}.verma")
    if verma is not None:
        verma._module_cache.clear()
        verma.partitions.cache_clear()
    fock = sys.modules.get(f"{__name__}.fock")
    if fock is not None:
        for table in (fock._fermion_term, fock._virasoro_term, fock._strict_tuples, fock.sector_basis):
            table.cache_clear()
