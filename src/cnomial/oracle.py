"""Independent ground truth, built only from the corial valuation table.

Valuations come from the Legendre-style divisor count over the apparition
chain: t(n) = sum over j of floor(n / alpha(p^j)) is the valuation of
C_n * ... * C_1, and a k-part composition (m_1, ..., m_k) of n has
valuation t(n) - t(m_1) - ... - t(m_k).  Two evaluators read that table:

* ``brute_generating_poly`` enumerates the C(n+k-1, k-1) compositions of
  one n literally; an optional sampling mode recomputes tuples from exact
  big-integer term products.
* ``generating_polys`` sweeps n = 0..n_max by convolving over the first
  part: P_1(n) = 1 and P_j(n) = sum over m of
  x^(t(n) - t(m) - t(n-m)) * P_(j-1)(n-m).  Each exponent is one
  C-binomial's valuation, so degrees stay small; the sweep costs about
  k * n_max^2 / 2 additions of small packed integers.

Both refuse up front (``WorkLimitError``) work above a fixed bound.  None
of this touches the transfer matrices or initial vectors it is used to
check.  Per-tuple valuations and the naturals' component vectors (the
advancement-identity reference) live in the tests' ``reference.py``.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import accumulate
from math import comb, prod
from operator import lshift, mul

from . import apparition, seqcore
from .apparition import StrongDivisibilityError
from .polyarith import ValPoly, slot_width, unpack
from .seqcore import SequenceSpec

MAX_TUPLES = 10 ** 7
"""Most compositions ``brute_generating_poly`` enumerates for one n."""
MAX_SWEEP_STEPS = 10 ** 8
"""Largest k * n_max^2 that ``generating_polys`` accepts."""


class WorkLimitError(ValueError):
    """An oracle request exceeds its up-front work bound and was refused."""


def compositions(total: int, k: int):
    """All k-tuples of nonnegative integers summing to total, in
    colexicographic order (rightmost part varies slowest)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # An odometer: the lowest nonzero part i gives 1 to part i+1, the rest to part 0.
    parts = [total] + [0] * (k - 1)
    while True:
        yield tuple(parts)
        i = 0
        while i < k and not parts[i]:
            i += 1
        if i >= k - 1:
            return
        parts[i], parts[0] = 0, parts[i] - 1  # in this order, for i = 0
        parts[i + 1] += 1


def alpha_chain(spec: SequenceSpec, p: int, limit: int) -> list[int]:
    """All ranks alpha(p), alpha(p^2), ... that are <= limit.

    Each level tries every multiple of the previous rank in turn, which
    strong divisibility guarantees is enough; unlike apparition.classify
    this assumes nothing about how far apart successive ranks are.
    """
    chain: list[int] = []
    pk, a = p, 1
    while True:
        a = next((n for n in range(a, limit + 1, a)
                  if seqcore.term_mod(spec, n, pk) == 0), None)
        if a is None:
            return chain
        chain.append(a)
        pk *= p


def corial_valuation_table(spec: SequenceSpec, p: int, nmax: int) -> list[int]:
    """nu_p of the term product C_n * ... * C_1 for every n in 0..nmax: the
    sum over j of floor(n / alpha(p^j)), from one apparition chain."""
    chain = alpha_chain(spec, p, nmax)
    table = [0] * (nmax + 1)
    for a in chain:
        for n in range(a, nmax + 1):
            table[n] += n // a
    return table


def cmultinomial_bigint(spec: SequenceSpec, n: int, mtuple: tuple[int, ...]) -> int:
    """Exact generalized multinomial from big-integer term products.

    Sign included.  Raises StrongDivisibilityError if the division is not
    exact, which diagnoses an input that is not a strong divisibility
    sequence.
    """
    if any(m < 0 for m in mtuple):
        raise ValueError(f"tuple entries must be nonnegative: {mtuple}")
    if sum(mtuple) != n:
        raise ValueError(f"tuple {mtuple} sums to {sum(mtuple)}, expected {n}")
    # The C-orials at the parts only: all n of them take Theta(n^3) bits.
    orials = dict.fromkeys(mtuple)
    for i, orial in enumerate(accumulate(seqcore.terms_prefix(spec, n), mul, initial=1)):
        if i in orials:
            orials[i] = orial
    q, rem = divmod(orial, prod(orials[m] for m in mtuple))
    if rem != 0:
        raise StrongDivisibilityError(
            f"strong divisibility violated: C-multinomial ({n}; {mtuple}) is not an integer"
        )
    return q


def brute_generating_poly(spec: SequenceSpec, p: int, k: int, n: int, *,
                          bigint_samples: int = 0, rng: random.Random | None = None,
                          _table: list[int] | None = None) -> ValPoly:
    """Sum of x^valuation over all k-part compositions of n, by enumeration.

    Raises ``WorkLimitError`` before any work when there are more than
    ``MAX_TUPLES`` compositions.  The fast path reads valuations off the
    apparition-chain table; with bigint_samples > 0 that many random tuples
    are recomputed from literal big-integer products and cross-checked.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    tuples = comb(n + k - 1, k - 1)
    if tuples > MAX_TUPLES:
        raise WorkLimitError(
            f"enumeration refused: C({n}+{k}-1, {k}-1) = {tuples} tuples "
            f"exceeds the limit of {MAX_TUPLES}"
        )
    table = _table if _table is not None else corial_valuation_table(spec, p, n)
    top = table[n]
    samples: set[int] = set()  # ranks in the enumeration below to cross-check
    if bigint_samples > 0:
        rng = rng or random.Random(0)
        samples = set(rng.sample(range(tuples), min(bigint_samples, tuples)))
    counts: dict[int, int] = {}
    for rank, mtuple in enumerate(compositions(n, k)):
        v = top - sum(table[m] for m in mtuple)
        if v < 0:
            raise StrongDivisibilityError(
                f"negative valuation for ({n}; {mtuple}): sequence is not strong divisibility"
            )
        counts[v] = counts.get(v, 0) + 1
        if rank in samples:
            direct = apparition.valuation(cmultinomial_bigint(spec, n, mtuple), p)
            if direct != v:
                raise StrongDivisibilityError(
                    f"valuation mismatch for ({n}; {mtuple}): "
                    f"big-integer {direct}, chain {v}"
                )
    return ValPoly(counts)


def generating_polys(spec: SequenceSpec, p: int, k: int, n_max: int,
                     table: list[int] | None = None) -> Iterator[ValPoly]:
    """The polynomials of ``brute_generating_poly`` for n = 0..n_max, yielded
    in increasing n, by convolution over the first part.

    The work bound is checked, and the corial table (unless given) built,
    before this returns; the polynomials are computed as they are taken.
    StrongDivisibilityError is raised at the first n with a negative
    binomial valuation t(n) - t(m) - t(n-m), which is the first n at which
    enumeration finds a negative multinomial valuation: that valuation is a
    sum of nested binomial ones at indices <= n.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    steps = k * n_max * n_max
    if steps > MAX_SWEEP_STEPS:
        raise WorkLimitError(
            f"sweep refused: k * n_max^2 = {steps} convolution steps "
            f"exceeds the limit of {MAX_SWEEP_STEPS}"
        )
    if table is None:
        table = corial_valuation_table(spec, p, n_max)
    return _convolve(table, k, n_max)


def _convolve(table: list[int], k: int, n_max: int) -> Iterator[ValPoly]:
    # parts[j][n] is P_(j+1)(n) packed into one integer, one slot of
    # ``width`` bits per exponent; no coefficient of P_j(n) exceeds
    # C(n+j-1, j-1), so the slots never overflow.  The term of part m is
    # P_(j-1)(n-m) shifted left by width * (t(n) - t(m) - t(n-m)) bits; that
    # shift is the same for m and n - m, so P_(j-1)(m) takes it in the sum.
    width = slot_width(comb(n_max + k - 1, k - 1))
    parts: list[list[int]] = [[] for _ in range(k)]
    for n in range(n_max + 1):
        head = table[:n + 1]
        tn = table[n]
        shifts = [(tn - a - b) * width for a, b in zip(head, reversed(head))]
        if min(shifts) < 0:
            m = next(m for m, s in enumerate(shifts) if s < 0)
            raise StrongDivisibilityError(
                f"negative valuation for ({n}; ({m}, {n - m})): "
                f"sequence is not strong divisibility"
            )
        parts[0].append(1)
        for lower, upper in zip(parts, parts[1:]):
            upper.append(sum(map(lshift, lower, shifts)))
        yield unpack(parts[-1][n], width)
