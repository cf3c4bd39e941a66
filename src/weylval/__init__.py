"""Exact valuations on the first Weyl algebra and their Ore extensions.

The production core builds valuations from tower descriptors, evaluates
values and residues exactly over the rationals, enumerates the compatible
orderings, and converts towers to the z-sequence form living in the Ore
extension of Puiseux series.  `oracles` is the checking layer beside it:
the commutative shadow, the round trip through the z-sequence, and the
samplers behind the axiom checks; the CLI's check subcommands run them.

`Valuation(desc, depth_limit)` is the way into the evaluator: one session
computes each element's leading data once and reads from it the value, the
residue, and the sign under every compatible ordering.

Record types (`OmegaStep`, `OrderingDescriptor`, ...) are `__slots__`
classes with a hand-written `__init__`, derived from `records.Record`, which
compares, hashes and prints them by their fields.  They are not
`dataclasses`: the CLI runs one command per process, and importing
`dataclasses` (with `inspect`) and applying its decorators made
`import weylval` about 3.5 times slower (Python 3.11 on a 2-vCPU Xeon,
median of 25 cold imports: 61 ms with them, 17 ms without).
"""

from .coeff import Rat, format_rat, parse_rat
from .descriptor import (
    GroupKind,
    OmegaDescriptor,
    basis_slot,
    builtin_rule,
    group_kind,
    omega_element,
    validate,
)
from .errors import (
    BudgetExceeded,
    ConversionInternalError,
    DeclarationInconsistent,
    DepthExceeded,
    EvenRootOfNegative,
    MissingSignChoice,
    NegativeXPower,
    NonzeroRequired,
    NonzeroValue,
    NoRationalRoot,
    NotExtendable,
    ParseError,
    SignChoiceForbidden,
    SignChoiceRequired,
    TruncationLoss,
    WeylvalError,
)
from .evaluate import Valuation, eval_element, leading_data
from .expr import format_expr, parse_expr
from .extension import (
    ExtendViolation,
    check_extendable,
    cofactor_tail_residue,
    omega_to_z,
    resolve_gammas,
    tail_count,
)
from .oracles import (
    RoundtripReport,
    compatibility_check,
    roundtrip_check,
    sample_element,
    shadow_eval,
    strongly_abelian_sample,
)
from .orderings import (
    OrderingDescriptor,
    enumerate_orderings,
    extend_ordering,
    sign,
)
from .series import (
    OrePoly,
    PuiseuxSeries,
    ZRule,
    ZSequence,
    ZTerminal,
    a_series,
    builtin_z_rule,
    embed,
    ore_mul,
    shift_variable,
    tilde_eval,
    z_eval,
    z_residue,
)
from .valuegroup import INFINITY, ValueGroupElement, cmp
from .weyl import WeylElement, WeylFraction, apply_to_poly, commutator

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "ConversionInternalError",
    "DeclarationInconsistent",
    "DepthExceeded",
    "EvenRootOfNegative",
    "ExtendViolation",
    "GroupKind",
    "INFINITY",
    "MissingSignChoice",
    "NegativeXPower",
    "NonzeroRequired",
    "NonzeroValue",
    "NoRationalRoot",
    "NotExtendable",
    "OmegaDescriptor",
    "OrderingDescriptor",
    "OrePoly",
    "ParseError",
    "PuiseuxSeries",
    "Rat",
    "RoundtripReport",
    "SignChoiceForbidden",
    "SignChoiceRequired",
    "TruncationLoss",
    "Valuation",
    "ValueGroupElement",
    "WeylElement",
    "WeylFraction",
    "WeylvalError",
    "ZRule",
    "ZSequence",
    "ZTerminal",
    "a_series",
    "apply_to_poly",
    "basis_slot",
    "builtin_rule",
    "builtin_z_rule",
    "check_extendable",
    "cmp",
    "cofactor_tail_residue",
    "commutator",
    "compatibility_check",
    "embed",
    "enumerate_orderings",
    "eval_element",
    "extend_ordering",
    "format_expr",
    "format_rat",
    "group_kind",
    "leading_data",
    "omega_element",
    "omega_to_z",
    "ore_mul",
    "parse_expr",
    "parse_rat",
    "resolve_gammas",
    "roundtrip_check",
    "sample_element",
    "shadow_eval",
    "shift_variable",
    "sign",
    "strongly_abelian_sample",
    "tail_count",
    "tilde_eval",
    "validate",
    "z_eval",
    "z_residue",
]
