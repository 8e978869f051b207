"""Top-level evaluation of the valuation-counting polynomials.

A query (sequence, p, k, N) is answered by writing N = modulus*n + r,
expanding n in base p, and contracting
row_vector(r) * M(n_0) * M(n_1) * ... * M(n_len) * e^T, where e^T is the
first standard basis column.  The product is accumulated right to left as
matrix-vector multiplications, so the work is k^2 polynomial products per
base-p digit of n: logarithmic in N where direct enumeration is
polynomial.  Every matrix entry is a monomial c*x^row, so one packed
kernel answers a single N and a sweep alike: a column entry is one integer
with a fixed-width slot per exponent, a digit step is k^2 integer scalings
and k shifts, and the contraction with the row vector is packed too, so
each answer is unpacked once.  ``eval_sweep`` builds its columns from one
table, one step per quotient.  The exported ``LinearRepresentation``
evaluates with generic polynomial arithmetic instead.

Primes with no usable matrix formula still get an answer: if p divides no
term every valuation is 0 and the polynomial is the constant
C(N+k-1, k-1); unacceptable primes fall back to the brute-force oracle and
the result is tagged accordingly.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from math import comb

from . import initvec
from .apparition import PrimeClass, PrimeProfile
from .polyarith import (PolyMatrix, PolyVector, ValPoly, mat_vec_mul, row_vec_mul,
                        slot_width, unpack)
from .record import Record, _set
from .seqcore import SequenceSpec
from .transfer import digit_counts, digit_matrices


class NormalizationError(ArithmeticError):
    """An answer's coefficients do not sum to C(N+k-1, k-1), the number of
    k-part compositions of N: the evaluation is wrong."""


class EvalPath(str, Enum):
    IDEAL = "IdealMatrixProduct"
    ACCEPTABLE = "AcceptableMatrixProduct"
    TRIVIAL = "TrivialNoApparition"
    FALLBACK = "OracleFallback"

    def __str__(self) -> str:
        return self.value


class QueryResult(Record):
    """Answer polynomial plus how it was obtained.

    ``decomposition`` is (modulus, n, r, digits): N = modulus*n + r and
    digits is the base-p expansion of n, least significant first (empty for
    the non-matrix paths).
    """

    __slots__ = ("polynomial", "path", "decomposition")
    polynomial: ValPoly
    path: EvalPath
    decomposition: tuple[int, int, int, tuple[int, ...]]

    def __init__(self, polynomial: ValPoly, path: EvalPath,
                 decomposition: tuple[int, int, int, tuple[int, ...]]):
        _set(self, "polynomial", polynomial)
        _set(self, "path", path)
        _set(self, "decomposition", decomposition)


def base_digits(n: int, p: int) -> list[int]:
    """Base-p digits of n, least significant first; n = 0 gives []."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return digits


def unit_column(k: int) -> PolyVector:
    """The column (1, 0, ..., 0)^T of length k."""
    return PolyVector.column(ValPoly.one(), *(ValPoly.zero() for _ in range(k - 1)))


# The packed kernel.  A polynomial is one integer holding the coefficient
# of x^i in bits [i*width, (i+1)*width) (Kronecker substitution), and entry
# (row, col) of M(d) is c*x^row: one integer product and one shift.
# ``_width(k, top)`` is exact for the answer at every n <= top and for every
# column on the way: no coefficient is negative, the answer at n sums to
# C(n+k-1, k-1), and entry lam of a column v(q), q <= n, is the naturals'
# component vector at q, whose coefficients sum to at most C(q+k-1, k-1).

def _width(k: int, top: int) -> int:
    return slot_width(comb(top + k - 1, k - 1))


def _step(rows: tuple[tuple[int, ...], ...], column: list[int], shifts: list[int]) -> list[int]:
    """M(d) * column, where rows are ``digit_counts(p, k, d)``."""
    return [sum(c * v for c, v in zip(row, column) if c) << shift
            for row, shift in zip(rows, shifts)]


def _column(p: int, k: int, digits: list[int], width: int) -> list[int]:
    """M(d_0) * ... * M(d_last) * e^T, accumulated from the right."""
    shifts = [row * width for row in range(k)]
    column = [1] + [0] * (k - 1)
    for d in reversed(digits):
        column = _step(digit_counts(p, k, d), column, shifts)
    return column


def _terms(u: PolyVector, width: int) -> list[tuple[int, int, int]]:
    """(entry, shift, coefficient) for each monomial of the row u."""
    return [(lam, e * width, c) for lam, entry in enumerate(u.entries) for e, c in entry.items()]


def _contract(terms: list[tuple[int, int, int]], column: list[int], width: int) -> ValPoly:
    return unpack(sum(c * column[lam] << shift for lam, shift, c in terms), width)


def _matrix_path(profile: PrimeProfile) -> EvalPath:
    return EvalPath.IDEAL if profile.prime_class is PrimeClass.IDEAL else EvalPath.ACCEPTABLE


def _checked(result: QueryResult, k: int, n: int) -> QueryResult:
    expected = comb(n + k - 1, k - 1)
    total = result.polynomial.eval_at_one()
    if total != expected:
        raise NormalizationError(
            f"normalization broken: coefficients sum to {total}, "
            f"expected C({n}+{k}-1, {k}-1) = {expected}"
        )
    return result


def eval_generating_poly(spec: SequenceSpec, profile: PrimeProfile, k: int,
                         n: int) -> QueryResult:
    """Polynomial counting k-part compositions of n by the p-adic valuation
    of their generalized multinomial coefficient."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    cls = profile.prime_class

    if cls is PrimeClass.NO_APPARITION:
        result = QueryResult(ValPoly({0: comb(n + k - 1, k - 1)}), EvalPath.TRIVIAL,
                             (1, n, 0, ()))
    elif cls is PrimeClass.UNACCEPTABLE:
        from . import oracle
        poly = oracle.brute_generating_poly(spec, profile.p, k, n)
        result = QueryResult(poly, EvalPath.FALLBACK, (1, n, 0, ()))
    else:
        modulus = profile.stable_modulus
        quot, r = divmod(n, modulus)
        digits = base_digits(quot, profile.p)
        width = _width(k, n)
        poly = _contract(_terms(initvec.vector_for(profile, k, r), width),
                         _column(profile.p, k, digits, width), width)
        result = QueryResult(poly, _matrix_path(profile), (modulus, quot, r, tuple(digits)))
    return _checked(result, k, n)


def eval_sweep(spec: SequenceSpec, profile: PrimeProfile, k: int,
               n_max: int) -> Iterator[QueryResult]:
    """Yield ``eval_generating_poly(spec, profile, k, n)`` for
    n = 0, 1, ..., n_max in turn, with the same paths, decompositions and
    errors, each raised at the n where the per-n call raises it.

    On the matrix paths the columns come from a quotient table: reading
    the digits of q least significant first, v(q) = M(q mod p) * v(q // p)
    with v(0) = e^T, so the whole sweep costs one packed mat-vec per
    quotient q <= n_max // modulus, one ``vector_for`` per residue, and one
    packed contraction and one unpack per n.  The table is built as the
    sweep reaches each q, with one slot width, ``_width(k, n_max)``.  An
    unacceptable prime's sweep comes from ``oracle.generating_polys``,
    whose work bound covers the whole sweep; a prime with no apparition is
    evaluated per n.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if profile.prime_class is PrimeClass.UNACCEPTABLE:
        from . import oracle
        polys = oracle.generating_polys(spec, profile.p, k, n_max)
        for n, poly in enumerate(polys):
            yield _checked(QueryResult(poly, EvalPath.FALLBACK, (1, n, 0, ())), k, n)
        return
    if profile.prime_class not in (PrimeClass.IDEAL, PrimeClass.ACCEPTABLE):
        for n in range(n_max + 1):
            yield eval_generating_poly(spec, profile, k, n)
        return
    p = profile.p
    modulus = profile.stable_modulus
    path = _matrix_path(profile)
    width = _width(k, n_max)
    shifts = [row * width for row in range(k)]
    table = [_column(p, k, [], width)]
    terms: dict[int, list[tuple[int, int, int]]] = {}
    for q in range(n_max // modulus + 1):
        if q:
            table.append(_step(digit_counts(p, k, q % p), table[q // p], shifts))
        digits = tuple(base_digits(q, p))
        for r in range(min(modulus, n_max - q * modulus + 1)):
            if r not in terms:
                terms[r] = _terms(initvec.vector_for(profile, k, r), width)
            poly = _contract(terms[r], table[q], width)
            yield _checked(QueryResult(poly, path, (modulus, q, r, digits)),
                           k, q * modulus + r)


class LinearRepresentation(Record):
    """Finite data that evaluates every query for one (p, k): a row vector
    per residue, a matrix per digit, and the final column e^T."""

    __slots__ = ("p", "k", "modulus", "residue_vectors", "digit_matrices", "final_vector")
    p: int
    k: int
    modulus: int
    residue_vectors: dict[int, PolyVector]
    digit_matrices: dict[int, PolyMatrix]
    final_vector: PolyVector

    def __init__(self, p: int, k: int, modulus: int, residue_vectors: dict[int, PolyVector],
                 digit_matrices: dict[int, PolyMatrix], final_vector: PolyVector):
        _set(self, "p", p)
        _set(self, "k", k)
        _set(self, "modulus", modulus)
        _set(self, "residue_vectors", residue_vectors)
        _set(self, "digit_matrices", digit_matrices)
        _set(self, "final_vector", final_vector)

    def evaluate(self, n: int, r: int) -> ValPoly:
        """The polynomial for index modulus*n + r."""
        if not 0 <= r < self.modulus:
            raise ValueError(f"residue {r} not in [0, {self.modulus})")
        v = self.final_vector
        for d in reversed(base_digits(n, self.p)):
            v = mat_vec_mul(self.digit_matrices[d], v)
        return row_vec_mul(self.residue_vectors[r], v)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "modulus": self.modulus,
            "residue_vectors": {
                str(r): [e.to_json_dict() for e in vec.entries]
                for r, vec in sorted(self.residue_vectors.items())
            },
            "digit_matrices": {
                str(d): [[e.to_json_dict() for e in row] for row in mat.entries]
                for d, mat in sorted(self.digit_matrices.items())
            },
            "final_vector": [e.to_json_dict() for e in self.final_vector.entries],
        }


def linear_representation(profile: PrimeProfile, k: int,
                          *, force_path: str | None = None) -> LinearRepresentation:
    """Export the residue vectors and digit matrices witnessing that the
    polynomial subsequences indexed by each residue are p-regular."""
    # perfbench/workloads.py passes force_path="acceptable", which selects nothing.
    if force_path not in (None, "acceptable"):
        raise ValueError(f"unknown path {force_path!r}")
    if profile.prime_class not in (PrimeClass.IDEAL, PrimeClass.ACCEPTABLE):
        raise ValueError(
            f"p={profile.p} is {profile.prime_class.value}; no linear representation exists"
        )
    modulus = profile.stable_modulus
    vectors = {r: initvec.vector_for(profile, k, r) for r in range(modulus)}
    matrices = {d: m for d, m in enumerate(digit_matrices(profile.p, k))}
    return LinearRepresentation(
        p=profile.p,
        k=k,
        modulus=modulus,
        residue_vectors=vectors,
        digit_matrices=matrices,
        final_vector=unit_column(k),
    )
