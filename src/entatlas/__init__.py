"""Exact invariant/covariant calculus and entanglement-class atlas for
4-qubit states."""

from .catalog import Catalog, CovariantId, build_catalog
from .classify import (
    ClassificationResult,
    ClassifyFail,
    IntegrityError,
    classify,
    classify_nullcone,
    classify_secant3_extended,
    orbit_dimension,
    orbit_records,
    permutation_type,
    terracini_rank,
)
from .invariants import (
    all_invariants,
    delta_via_sextic,
    hyperdet_delta,
    in_third_secant,
    inv_B,
    inv_D,
    inv_I2,
    inv_L,
    inv_M,
    inv_N,
    inv_Z,
    is_nilpotent,
    verstraete_quartic,
)
from .poly import Polynomial, VariableId
from .qstate import (
    LocalOperator,
    QubitPermutation,
    State,
    apply_local,
    decode_form,
    encode_form,
    permute_qubits,
    random_sl2_tuple,
    random_state,
)

__version__ = "0.1.0"
