"""Exact verification of congruences for binomial-coefficient sums.

The package evaluates truncated sums of central-binomial products modulo
prime powers with exact fixed-modulus arithmetic, builds the matching
closed forms from binary quadratic-form representations of the prime, and
sweeps a registry of congruence statements over prime ranges.
"""

__version__ = "0.1.0"

# Importing the package builds the registry, which bench/run.py times as
# setup_s.  So its classes are NamedTuples or plain slotted classes, each
# microseconds to define where a frozen dataclass costs about a millisecond,
# and hashlib and json are imported in the functions that use them.  Two
# frozen dataclasses remain, registry.Fixed and registry.Parametric, because
# bench/tracing.py rebuilds each statement with dataclasses.replace.

from .binomials import B22, B31, B42, B63
from .context import PrimeContext
from .errors import (
    BaseNotUnit,
    NegativeValuation,
    NotRepresentable,
    SupercongError,
    UnknownStatement,
)
from .padic import Residue
from .quadform import F2, F3, F4, F7, F27, FORMS, QuadRep, applicable, represent
from .registry import (
    REGISTRY,
    STATUSES,
    SUM_SPECS,
    Fixed,
    Parametric,
    statement_modexp,
)
from .report import ReportRow, VerificationReport
from .statements import (
    SAMPLES_PER_PRIME,
    Verdict,
    evaluate_statement,
    primes_in,
    run_range,
    select_ids,
)
from .sums import (
    FULL,
    FULL_MINUS_1,
    FULL_MINUS_2,
    HALF,
    SumSpec,
    evaluate_jacobi_sum,
    evaluate_sum,
    linear_weight,
)

__all__ = [
    "__version__",
    "B22",
    "B31",
    "B42",
    "B63",
    "BaseNotUnit",
    "F2",
    "F27",
    "F3",
    "F4",
    "F7",
    "FORMS",
    "FULL",
    "FULL_MINUS_1",
    "FULL_MINUS_2",
    "Fixed",
    "HALF",
    "NegativeValuation",
    "NotRepresentable",
    "Parametric",
    "PrimeContext",
    "QuadRep",
    "REGISTRY",
    "SUM_SPECS",
    "ReportRow",
    "Residue",
    "SAMPLES_PER_PRIME",
    "STATUSES",
    "SumSpec",
    "SupercongError",
    "UnknownStatement",
    "VerificationReport",
    "Verdict",
    "applicable",
    "evaluate_jacobi_sum",
    "evaluate_statement",
    "evaluate_sum",
    "linear_weight",
    "primes_in",
    "represent",
    "run_range",
    "select_ids",
    "statement_modexp",
]
