"""Valuation-counting polynomials for generalized binomial coefficients.

Given a strong divisibility sequence C and a prime p, the library computes
the polynomial whose x^i coefficient counts how many generalized binomial
(or multinomial) coefficients built from C at index N have p-adic
valuation exactly i.  Evaluation uses universal digit-indexed matrix
products (logarithmic in N); an independent brute-force oracle provides
ground truth for verification.  The submodules hold the building blocks
(digit matrices, initial vectors, sequence terms) behind this surface.
"""

from .apparition import (
    PrimeClass,
    PrimeProfile,
    StrongDivisibilityError,
    UndeterminedError,
    classify,
)
from .engine import (
    EvalPath,
    LinearRepresentation,
    NormalizationError,
    QueryResult,
    eval_generating_poly,
    eval_sweep,
    linear_representation,
)
from .polyarith import PolyMatrix, PolyVector, ValPoly
from .seqcore import (
    FileBackedSpec,
    InsufficientTermsError,
    LucasSpec,
    SequenceSpec,
    WorkLimitError,
    parse_selector,
)

__version__ = "0.1.0"

# The oracle is imported on first use (PEP 562): a matrix-path answer never
# needs it, and every process that starts the CLI would pay for it.
_ORACLE_NAMES = ("brute_generating_poly", "generating_polys")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "EvalPath",
    "FileBackedSpec",
    "InsufficientTermsError",
    "LinearRepresentation",
    "LucasSpec",
    "NormalizationError",
    "PolyMatrix",
    "PolyVector",
    "PrimeClass",
    "PrimeProfile",
    "QueryResult",
    "SequenceSpec",
    "StrongDivisibilityError",
    "UndeterminedError",
    "ValPoly",
    "WorkLimitError",
    "brute_generating_poly",
    "classify",
    "eval_generating_poly",
    "eval_sweep",
    "generating_polys",
    "linear_representation",
    "parse_selector",
]
