"""Exact Virasoro Verma-module and free-fermion Fock-space computations over
Q and odd prime fields, including formal highest weights.

The engine constructs Verma modules V(c, h), finds singular vectors as joint
kernels of L(1) and L(2), builds irreducible quotients from contravariant-form
radicals, realizes the c = 1/2 irreducibles inside fermion Fock spaces, and
evaluates modes of composite states such as the degree-6 vacuum singular
state.  All arithmetic is exact; characteristic 2 is rejected throughout.
"""

from .fock import (
    NS,
    RAMOND,
    FockVector,
    apply_fermion,
    apply_virasoro_fock,
    fermion_monomial,
    fock_form,
    fock_hw_vectors,
    reduce_fock_mod_p,
    sector_basis,
    sector_dims,
    sector_hw_vector,
    sigma,
    vir_span_dims,
)
from .modes import (
    AnnihilationReport,
    build_state,
    mode_apply,
    named_state,
    named_state_verma,
    verify_annihilation,
)
from .scalars import (
    GF,
    QQ,
    CharacteristicTwoError,
    DenominatorDivisibleByP,
    Fp,
    Poly,
    Ring,
    central_coeff,
    formal_ring,
    reduce_mod_p,
)
from .singular import (
    CharacterTable,
    SingularBasis,
    generated_submodule_dims,
    irreducible_dims,
    is_singular,
    radical_basis,
    reduce_vector_mod_p,
    singular_degrees,
    singular_space,
)
from .verma import GramMatrix, ModuleParams, VermaModule, VermaVector, partitions, verma_dim, verma_module

__version__ = "0.1.0"

_BATTERY_NAMES = ("CheckResult", "VerificationReport", "run_battery")


def __getattr__(name: str):
    # The battery is loaded on first use: only `verify-paper` needs it.
    if name in _BATTERY_NAMES:
        from . import battery

        return getattr(battery, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AnnihilationReport",
    "CharacterTable",
    "CharacteristicTwoError",
    "CheckResult",
    "DenominatorDivisibleByP",
    "FockVector",
    "Fp",
    "GF",
    "GramMatrix",
    "ModuleParams",
    "NS",
    "Poly",
    "QQ",
    "RAMOND",
    "Ring",
    "SingularBasis",
    "VerificationReport",
    "VermaModule",
    "VermaVector",
    "apply_fermion",
    "apply_virasoro_fock",
    "build_state",
    "central_coeff",
    "fermion_monomial",
    "fock_form",
    "fock_hw_vectors",
    "formal_ring",
    "generated_submodule_dims",
    "irreducible_dims",
    "is_singular",
    "mode_apply",
    "named_state",
    "named_state_verma",
    "partitions",
    "radical_basis",
    "reduce_fock_mod_p",
    "reduce_mod_p",
    "reduce_vector_mod_p",
    "run_battery",
    "sector_basis",
    "sector_dims",
    "sector_hw_vector",
    "sigma",
    "singular_degrees",
    "singular_space",
    "verify_annihilation",
    "verma_dim",
    "verma_module",
    "vir_span_dims",
]
