"""Weyl-group conjugacy classes and unipotent classes, exactly.

The classical series (B, C, D) are handled through signed cycle types and
partition splits; the exceptional groups through validated lookup tables.
``phi_classical`` maps a class to its unipotent Jordan type, and
``psi_classical`` inverts it canonically: the unique preimage class whose
fixed space on the reflection module is smallest.
"""

from . import exceptional, type_bd, type_c, weyl
from .exceptional import CarterLabel, MapTable, UnknownLabel, load_table, verify_table
from .partitions import (
    ALL_EVEN,
    ANY,
    CHAINED,
    ContradictionError,
    DOUBLED,
    DOUBLED_EVEN,
    DomainError,
    EVEN_LENGTH,
    ORTHOGONAL,
    Partition,
    SYMPLECTIC,
    is_member,
    iter_members,
    iter_partitions,
    merge,
)
from .weyl import (
    GroupKind,
    JordanType,
    SignedCycleType,
    encode_class,
    enumerate_classes,
    fixed_space_dim,
    fixed_space_dim_from_matrix,
    phi_classical,
    psi_classical,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    """``verify`` and its exported names, imported on first use (PEP 562): ``import weyl2uni`` compiles no sweep."""
    if name not in ("verify", "SweepConfig", "VerificationReport", "run_all"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # ``from . import verify`` would call back here

    verify = import_module(".verify", __name__)  # binds the package's ``verify`` too
    return verify if name == "verify" else getattr(verify, name)


__all__ = [
    "ALL_EVEN",
    "ANY",
    "CHAINED",
    "CarterLabel",
    "ContradictionError",
    "DOUBLED",
    "DOUBLED_EVEN",
    "DomainError",
    "EVEN_LENGTH",
    "GroupKind",
    "JordanType",
    "MapTable",
    "ORTHOGONAL",
    "Partition",
    "SYMPLECTIC",
    "SignedCycleType",
    "SweepConfig",
    "UnknownLabel",
    "VerificationReport",
    "encode_class",
    "enumerate_classes",
    "exceptional",
    "fixed_space_dim",
    "fixed_space_dim_from_matrix",
    "is_member",
    "iter_members",
    "iter_partitions",
    "load_table",
    "merge",
    "phi_classical",
    "psi_classical",
    "run_all",
    "type_bd",
    "type_c",
    "verify",
    "verify_table",
    "weyl",
]
