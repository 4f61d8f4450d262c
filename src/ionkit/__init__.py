"""ionkit: ordinal notations as self-printing programs.

A tiny print-only object language, ordinal arithmetic in Cantor normal form
below epsilon_0, a compiler from ordinals to canonical notation programs
(each program prints the programs for smaller ordinals), a fuel-bounded
membership verifier, and a lineage simulator built on ordinal descent.
"""

from .objlang import (
    Assign,
    Concat,
    EvalError,
    Fuel,
    Head,
    IfElse,
    LengthLimitError,
    Literal,
    ObjLangError,
    OpenProgramError,
    ParseError,
    Print,
    Program,
    Tail,
    Trace,
    TraceStatus,
    Var,
    While,
    check_closed,
    concat,
    evaluate,
    parse,
    serialize,
)
from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Comparison,
    HydraTree,
    Kind,
    Ordinal,
    OrdinalError,
    OrdinalParseError,
    add,
    classify,
    compare,
    depth,
    descend,
    descent_walk,
    format_ordinal,
    from_int,
    fundamental_sequence,
    hydra_step,
    hydra_to_ordinal,
    hydra_trajectory,
    mul,
    natural_sum,
    omega_pow,
    parse_hydra,
    parse_ordinal,
    predecessor,
)
from .notation import (
    FuelSpent,
    Inconclusive,
    ProvenMember,
    Refuted,
    VerificationResult,
    certificate_text,
    compile_ordinal,
    decompile,
    parse_certificate,
    source_of,
    source_size,
    succ_notation,
    value_lower_bound,
    verify,
)
from .lineage import (
    Agent,
    AsexualOnly,
    ChainStats,
    EventKind,
    LineageConfig,
    LineageEvent,
    MixedEveryK,
    MultiParentRule,
    asexual_create,
    chain_stats,
    multi_parent_create,
    nondeterministic_create,
    read_event_log,
    run_lineage,
    witness_notation,
    write_event_log,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # object language
    "Program", "Print", "Assign", "While", "IfElse",
    "Literal", "Var", "Concat", "Head", "Tail", "concat",
    "parse", "serialize", "check_closed", "evaluate",
    "Fuel", "Trace", "TraceStatus",
    "ObjLangError", "ParseError", "OpenProgramError", "EvalError", "LengthLimitError",
    # ordinals
    "Ordinal", "ZERO", "ONE", "OMEGA", "from_int",
    "add", "mul", "omega_pow", "natural_sum",
    "compare", "Comparison", "Kind", "classify", "predecessor", "depth",
    "fundamental_sequence", "descend", "descent_walk",
    "parse_ordinal", "format_ordinal",
    "OrdinalError", "OrdinalParseError",
    "HydraTree", "parse_hydra", "hydra_to_ordinal", "hydra_step", "hydra_trajectory",
    # notation system
    "compile_ordinal", "source_of", "source_size", "succ_notation", "decompile",
    "verify", "value_lower_bound",
    "ProvenMember", "Refuted", "Inconclusive", "FuelSpent", "VerificationResult",
    "certificate_text", "parse_certificate",
    # lineage
    "Agent", "EventKind", "LineageEvent", "LineageConfig",
    "AsexualOnly", "MixedEveryK", "MultiParentRule",
    "asexual_create", "nondeterministic_create", "multi_parent_create",
    "witness_notation", "run_lineage",
    "chain_stats", "ChainStats",
    "write_event_log", "read_event_log",
]
