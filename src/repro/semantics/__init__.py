"""Operational semantics: value domains, memory, interpreter, configs."""

from .config import (
    ALL_CONFIGS,
    NEW,
    OLD,
    OLD_GVN_VIEW,
    OLD_UNSWITCH_VIEW,
    BranchOnPoison,
    SelectSemantics,
    SemanticsConfig,
    ShiftOutOfRange,
)
from .domains import (
    Bits,
    PBIT,
    POISON,
    UBIT,
    PartialUndef,
    RuntimeValue,
    Scalar,
    bits_to_scalar,
    bits_to_value,
    format_value,
    full_undef,
    is_concrete,
    is_poison,
    is_undef,
    poison_value,
    scalar_to_bits,
    scalar_width,
    undef_value,
    value_to_bits,
)
from .eval import UBError, eval_binop, eval_cast, eval_icmp
from .interp import (
    Behavior,
    FuelExhausted,
    Interpreter,
    Oracle,
    PathLimitExceeded,
    enumerate_behaviors,
    run_once,
)
from .memory import Memory
from .vector import (
    VectorIneligible,
    VectorPlan,
    numpy_available,
)

__all__ = [
    "ALL_CONFIGS", "NEW", "OLD", "OLD_GVN_VIEW", "OLD_UNSWITCH_VIEW",
    "BranchOnPoison", "SelectSemantics", "SemanticsConfig", "ShiftOutOfRange",
    "Bits", "PBIT", "POISON", "UBIT", "PartialUndef", "RuntimeValue",
    "Scalar", "bits_to_scalar", "bits_to_value", "format_value", "full_undef",
    "is_concrete", "is_poison", "is_undef", "poison_value", "scalar_to_bits",
    "scalar_width", "undef_value", "value_to_bits",
    "UBError", "eval_binop", "eval_cast", "eval_icmp",
    "Behavior", "FuelExhausted", "Interpreter", "Oracle", "PathLimitExceeded",
    "enumerate_behaviors", "run_once",
    "Memory",
    "VectorIneligible", "VectorPlan", "numpy_available",
]
