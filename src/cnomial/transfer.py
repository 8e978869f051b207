"""Digit-indexed transfer matrices.

The k x k matrix for a base-p digit d advances a column of k tuple-counting
polynomials across one digit of the index.  Its entries are universal: they
count bounded digit tuples and know nothing about any particular sequence.
Entry (row, col) is x^row * N(d - row + col*p) where N(t) is the number of
k-tuples of base-p digits summing to t.  ``digit_counts`` holds the integers
N(d - row + col*p); the polynomial matrices are built from it, and the
evaluation loop uses it directly.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .polyarith import PolyMatrix, ValPoly


def digit_sum_count(k: int, base: int, t: int) -> int:
    """Number of k-tuples (d_1, ..., d_k) with every d_i in [0, base) summing to t.

    Inclusion-exclusion over how many entries overflow the base:
    sum_j (-1)^j C(k, j) C(t - j*base + k - 1, k - 1), binomials with
    negative top taken as 0.  Zero outside 0 <= t <= k*(base - 1).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if base < 1:
        raise ValueError(f"base must be >= 1, got {base}")
    if t < 0 or t > k * (base - 1):
        return 0
    total = 0
    for j in range(t // base + 1):
        total += (-1) ** j * comb(k, j) * comb(t - j * base + k - 1, k - 1)
    return total


@lru_cache(maxsize=None)
def digit_counts(p: int, k: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The integers c[row][col] = N(d - row + col*p) of the digit-d matrix,
    whose entry (row, col) is the monomial c[row][col] * x^row.

    Cached per digit, so a caller that needs only the digits of one index
    (or one digit) never builds all p of them.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not 0 <= d < p:
        raise ValueError(f"digit {d} out of range for base {p}")
    return tuple(
        tuple(digit_sum_count(k, p, d - lam + mu * p) for mu in range(k))
        for lam in range(k)
    )


@lru_cache(maxsize=None)
def multinomial_matrix(p: int, k: int, d: int) -> PolyMatrix:
    """The k x k digit matrix with entry (row, col) = x^row * N(d - row + col*p).

    For k = 2 this is [[d+1, p-d-1], [d*x, (p-d)*x]].  The entry
    formula is pinned down by the advancement identity v(p*n + d) = M(d) * v(n)
    on the columns of tuple-counting polynomials, which the test suite checks
    against an independent factorial-valuation oracle.
    """
    return PolyMatrix(tuple(
        tuple(ValPoly({lam: c}) for c in row)
        for lam, row in enumerate(digit_counts(p, k, d))
    ))


@lru_cache(maxsize=None)
def digit_matrices(p: int, k: int) -> tuple[PolyMatrix, ...]:
    """All p digit matrices for the given base and tuple length, memoized."""
    return tuple(multinomial_matrix(p, k, d) for d in range(p))
