"""Top-level evaluation of the valuation-counting polynomials.

The answer at N counts the k-part compositions of N by their carries
(Knuth and Wilf 1989) in the mixed radix of the apparition chain: alpha(p),
alpha(p^2)/alpha(p), ... up to a last known level alpha_m, then p forever
when the prime class says so.  With N = alpha_m*q + r it is the row u(r)
of the chain (``initvec.row``) times a column for q: at an ideal or
acceptable prime M(q_0) * ... * M(q_last) * e^T over the base-p digits of
q, per digit one product per distinct entry c >= 2 of a column, one sum
per further nonzero entry of a row and k - 1 shifts (``_step``); otherwise
one top digit q with no carry out, whose entry c is x^c * C(q-c+k-1, k-1).
With no apparition there is no level and the answer is C(N+k-1, k-1).  At an unacceptable prime of a
sequence file every level the stored terms hold is used; they fix the
answer while N < alpha_m*(floor(T/alpha_m) + 1) for T stored terms, and
past that InsufficientTermsError is raised.

One packed generator answers a single N (its first answer) and a sweep
(``eval_sweep``) alike.  It checks each answer on its packed slots, read
once, and the public calls build their polynomials from those; ``cnomial
verify`` compares the packed integers with the oracle's.  The exported
``LinearRepresentation`` evaluates with generic polynomial arithmetic instead.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from enum import Enum
from math import comb, prod

from . import initvec
from .apparition import PrimeClass, PrimeProfile, _stored_levels
from .polyarith import (PolyMatrix, PolyVector, ValPoly, mat_vec_mul, row_vec_mul,
                        slot_width, slots)
from .record import Record, _set
from .seqcore import InsufficientTermsError, SequenceSpec, check_entries
from .transfer import digit_counts, digit_matrices


class NormalizationError(ArithmeticError):
    """An answer's coefficients do not sum to C(N+k-1, k-1), the number of
    k-part compositions of N: the evaluation is wrong."""


class EvalPath(str, Enum):
    IDEAL = "IdealMatrixProduct"
    ACCEPTABLE = "AcceptableMatrixProduct"
    TRIVIAL = "TrivialNoApparition"
    STORED = "StoredChainProduct"

    def __str__(self) -> str:
        return self.value


_PATHS = {PrimeClass.IDEAL: EvalPath.IDEAL, PrimeClass.ACCEPTABLE: EvalPath.ACCEPTABLE,
          PrimeClass.NO_APPARITION: EvalPath.TRIVIAL, PrimeClass.UNACCEPTABLE: EvalPath.STORED}


class QueryResult(Record):
    """Answer polynomial plus how it was obtained.

    ``decomposition`` is (modulus, n, r, digits): N = modulus*n + r, and
    digits is the base-p expansion of n, least significant first (empty
    when no base-p tail is known).
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
# of x^i in bits [i*width, (i+1)*width) (Kronecker substitution).

def _width(k: int, top: int) -> int:
    """Packing is evaluation at x = 2^width, a ring homomorphism, so only
    the answer at n <= top must fit, and its nonnegative coefficients sum to
    C(n+k-1, k-1); a column entry that overflows a slot is harmless."""
    return slot_width(comb(top + k - 1, k - 1))


def _step(rows: tuple[tuple[int, ...], ...], column: list[int], shifts: list[int]) -> list[int]:
    """M(d) * column, where rows are ``digit_counts(p, k, d)``: each c * column[mu]
    with c >= 2 is formed once, and no pass multiplies by 1, adds 0 or shifts by 0."""
    products: dict[tuple[int, int], int] = {}
    out = []
    for row, shift in zip(rows, shifts):
        total = 0
        for mu, c in enumerate(row):
            if c:
                term = column[mu] if c == 1 else products.get((c, mu))
                if term is None:
                    term = products[c, mu] = c * column[mu]
                total = total + term if total else term
        out.append(total << shift if shift else total)
    return out


def _column(p: int, k: int, digits: Sequence[int], width: int) -> list[int]:
    """M(d_0) * ... * M(d_last) * e^T, accumulated from the right."""
    shifts = [row * width for row in range(k)]
    column = [1] + [0] * (k - 1)
    for d in reversed(digits):
        column = _step(digit_counts(p, k, d), column, shifts)
    return column


def _top_column(k: int, q: int, width: int) -> list[int]:
    """One top digit q with no carry out: entry c is x^c * C(q-c+k-1, k-1)."""
    return [comb(q - c + k - 1, k - 1) << c * width if c <= q else 0 for c in range(k)]


def _terms(u: list[ValPoly], width: int) -> list[tuple[int, int, int]]:
    """(entry, shift, coefficient) for each monomial of the row u."""
    return [(lam, e * width, c) for lam, entry in enumerate(u) for e, c in entry.items()]


def _contract(terms: list[tuple[int, int, int]], column: list[int]) -> int:
    total = 0
    for lam, shift, c in terms:
        term = (column[lam] if c == 1 else c * column[lam]) << shift
        total = total + term if total else term
    return total


def _chain(spec: SequenceSpec, profile: PrimeProfile):
    """(levels, modulus, tail, bound): the chain levels an answer reads, the
    last (1 if none), p if every later ratio is p (else None), and the least
    N they do not answer (None if none).  An unacceptable profile keeps only
    the levels it classified, so those are read from the terms again."""
    if profile.prime_class in (PrimeClass.IDEAL, PrimeClass.ACCEPTABLE):
        return profile.alpha_powers[:profile.s], profile.stable_modulus, profile.p, None
    if profile.prime_class is PrimeClass.NO_APPARITION:
        return (), 1, None, None
    levels = _stored_levels(spec, profile.p)
    return levels, levels[-1], None, levels[-1] * (len(spec.terms) // levels[-1] + 1)


def _require_fixed(spec: SequenceSpec, p: int, bound: int | None, n: int) -> None:
    if bound is not None and n >= bound:
        raise InsufficientTermsError(
            f"insufficient terms: the {len(spec.terms)} terms {spec.name} stores fix "
            f"the answer at p={p} only for N < {bound}, not N = {n}")


def _carry_free(digits: Sequence[int], k: int) -> int:
    """The compositions with no carry at these mixed-radix digits:
    C(t+k-1, k-1) for each digit t."""
    return prod(comb(t + k - 1, k - 1) for t in digits)


def _check(coefficients: dict[int, int], k: int, n: int, carry_free: int) -> None:
    """Check the coefficient sum, then the constant term against
    ``carry_free``: r's factor from its digits in the chain's radices times
    q's from its base-p digits (or q as one top digit)."""
    expected = comb(n + k - 1, k - 1)
    total = sum(coefficients.values())
    if total != expected:
        raise NormalizationError(
            f"normalization broken: coefficients sum to {total}, "
            f"expected C({n}+{k}-1, {k}-1) = {expected}"
        )
    if coefficients.get(0, 0) != carry_free:
        raise NormalizationError(f"normalization broken: the constant term is "
                                 f"{coefficients.get(0, 0)}, expected "
                                 f"{carry_free} carry-free compositions")


def _answers(spec: SequenceSpec, profile: PrimeProfile, k: int, first: int, last: int,
             name: str) -> Iterator[tuple[int, dict[int, int], tuple]]:
    """The checked answers at n = first, ..., last in turn, each as its
    packed integer at the slot width ``_width(k, last)``, its ``slots`` and
    its decomposition; ``name`` names ``last`` in its error.  Reading q's
    digits least significant first, v(q) = M(q mod p) * v(q // p) with
    v(0) = e^T, so q's column is one ``_step`` from its parent's once an
    earlier n built that, and otherwise ``_column``'s fold over q's digits
    (``_top_column`` with no base-p tail).  A sweep makes one packed mat-vec
    per quotient and one row per residue; one N keeps no column but its own."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if last < 0:
        raise ValueError(f"{name} must be >= 0, got {last}")
    levels, modulus, tail, bound = _chain(spec, profile)
    width = _width(k, last)
    shifts = [row * width for row in range(k)]
    columns: dict[int, tuple[tuple[int, ...], list[int]]] = {}     # q -> (digits, column)
    rows: dict[int, tuple[list[tuple[int, int, int]], int]] = {}   # r -> (terms, carry-free)
    for n in range(first, last + 1):
        _require_fixed(spec, profile.p, bound, n)
        q, r = divmod(n, modulus)
        if n == first or not r:
            if not tail:
                digits, column = (), _top_column(k, q, width)
            elif q and q // tail in columns:
                parent_digits, parent = columns[q // tail]
                digits = (q % tail, *parent_digits)
                column = _step(digit_counts(tail, k, q % tail), parent, shifts)
            else:
                digits = tuple(base_digits(q, tail))
                column = _column(tail, k, digits, width)
            if tail:
                columns[q] = digits, column
            upper = _carry_free(digits or (q,), k)
        if r not in rows:
            lower = [r // a % (b // a) for a, b in zip((1, *levels), levels)]
            rows[r] = _terms(initvec.row(levels, k, r), width), _carry_free(lower, k)
        terms, carry_free = rows[r]
        packed = _contract(terms, column)
        coefficients = slots(packed, width)
        _check(coefficients, k, n, carry_free * upper)
        yield packed, coefficients, (modulus, q, r, digits)


def _results(spec: SequenceSpec, profile: PrimeProfile, k: int, first: int, last: int,
             name: str) -> Iterator[QueryResult]:
    """``_answers`` as polynomials, each built from the slots its check read."""
    path = _PATHS[profile.prime_class]
    for _, coefficients, decomposition in _answers(spec, profile, k, first, last, name):
        yield QueryResult(ValPoly.from_slots(coefficients), path, decomposition)


def eval_generating_poly(spec: SequenceSpec, profile: PrimeProfile, k: int,
                         n: int) -> QueryResult:
    """Polynomial counting k-part compositions of n by the p-adic valuation
    of their generalized multinomial coefficient."""
    return next(_results(spec, profile, k, n, n, "n"))


def eval_sweep(spec: SequenceSpec, profile: PrimeProfile, k: int,
               n_max: int) -> Iterator[QueryResult]:
    """Yield ``eval_generating_poly(spec, profile, k, n)`` for
    n = 0, 1, ..., n_max in turn, with the same paths, decompositions and
    errors, each raised at the n where the per-n call raises it."""
    yield from _results(spec, profile, k, 0, n_max, "n_max")


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
    check_entries(modulus * k + profile.p * k * k, "linear representation")
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
