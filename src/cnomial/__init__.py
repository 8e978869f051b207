"""Valuation-counting polynomials for generalized binomial coefficients.

Given a strong divisibility sequence C and a prime p, the library computes
the polynomial whose x^i coefficient counts how many generalized binomial
(or multinomial) coefficients built from C at index N have p-adic
valuation exactly i.  Evaluation uses universal digit-indexed matrix
products (logarithmic in N); an independent brute-force oracle provides
ground truth for verification.
"""

from .apparition import (
    PrimeClass,
    PrimeProfile,
    StrongDivisibilityError,
    UndeterminedError,
    classify,
    classify_lucas_fast,
    rank_of_apparition,
    valuation,
)
from .engine import (
    EvalPath,
    LinearRepresentation,
    NormalizationError,
    QueryResult,
    base_digits,
    decompose,
    eval_generating_poly,
    eval_sweep,
    linear_representation,
)
from .initvec import (
    InitialVector,
    acceptable_vector,
    f_value,
    ideal_binomial_vector,
    ideal_multinomial_vector,
)
from .oracle import (
    WorkLimitError,
    brute_generating_poly,
    cmultinomial_bigint,
    cmultinomial_valuation,
    component_vector,
    corial_valuation,
    generating_polys,
)
from .polyarith import PolyMatrix, PolyVector, ValPoly, mat_mul, mat_vec_mul, row_vec_mul
from .seqcore import (
    FileBackedSpec,
    InsufficientTermsError,
    LucasSpec,
    NaturalsSpec,
    SequenceSpec,
    load_terms_file,
    parse_selector,
    term,
    term_mod,
    validate_strong_divisibility,
)
from .transfer import binomial_matrix, digit_sum_count, multinomial_matrix

__version__ = "0.1.0"

__all__ = [
    "EvalPath",
    "FileBackedSpec",
    "InitialVector",
    "InsufficientTermsError",
    "LinearRepresentation",
    "LucasSpec",
    "NaturalsSpec",
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
    "acceptable_vector",
    "base_digits",
    "binomial_matrix",
    "brute_generating_poly",
    "classify",
    "classify_lucas_fast",
    "cmultinomial_bigint",
    "cmultinomial_valuation",
    "component_vector",
    "corial_valuation",
    "decompose",
    "digit_sum_count",
    "eval_generating_poly",
    "eval_sweep",
    "f_value",
    "generating_polys",
    "ideal_binomial_vector",
    "ideal_multinomial_vector",
    "linear_representation",
    "load_terms_file",
    "mat_mul",
    "mat_vec_mul",
    "multinomial_matrix",
    "parse_selector",
    "rank_of_apparition",
    "row_vec_mul",
    "term",
    "term_mod",
    "valuation",
    "validate_strong_divisibility",
]
