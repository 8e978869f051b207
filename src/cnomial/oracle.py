"""Independent ground truth, built only from the corial valuation table.

Valuations come from the Legendre-style divisor count over the apparition
chain: t(n) = sum over j of floor(n / alpha(p^j)) is the valuation of
C_n * ... * C_1, and a k-part composition (m_1, ..., m_k) of n has
valuation t(n) - t(m_1) - ... - t(m_k).  Two evaluators read that table:

* ``brute_generating_poly`` enumerates the C(n+k-1, k-1) compositions of
  one n literally; an optional sampling mode recomputes tuples from exact
  big-integer term products.
* ``generating_polys`` sweeps n = 0..n_max at once: P_k(n) is x^t(n)
  times the coefficient of z^n in A(z)^k, where A(z) is the sum over
  m <= n_max of x^(-t(m)) * z^m.  A is packed into one integer, raised to
  the k-th power by O(log k) big-integer products, and every P_k(n) is
  read off the result as one packed integer (``_power``), at the slot
  width of the engine's sweep: ``cnomial verify`` compares the two packed
  answers, and ``generating_polys`` unpacks its own.

Both refuse up front (``WorkLimitError``) work above fixed bounds: the
enumeration's parts, and the sweep's k * n_max^2 and packed power.  None
of this touches the transfer matrices or initial vectors it is used to
check.  Per-tuple valuations, the naturals' component vectors (the
advancement-identity reference) and the convolution over the first part
that ``generating_polys`` is held against live in the tests'
``reference.py``.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import accumulate
from math import comb, prod
from operator import mul

from . import apparition, seqcore
from .apparition import StrongDivisibilityError
from .polyarith import ValPoly, slot_width, unpack
from .seqcore import SequenceSpec, WorkLimitError

MAX_TUPLES = 10 ** 7
"""Most parts, k per composition, ``brute_generating_poly`` enumerates for one n."""
MAX_SWEEP_STEPS = 10 ** 8
"""Largest k * n_max^2 that ``generating_polys`` accepts."""
MAX_SWEEP_BITS = 2 ** 23
"""Most bits of the packed power ``generating_polys`` accepts."""


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

    Raises ``WorkLimitError`` before any work above ``MAX_TUPLES`` parts
    in all.  The fast path reads valuations off the apparition-chain table;
    with bigint_samples > 0 that many random tuples are recomputed from
    literal big-integer products and cross-checked.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    tuples = comb(n + k - 1, k - 1)
    if k * tuples > MAX_TUPLES:
        raise WorkLimitError(
            f"enumeration refused: {k}*C({n}+{k}-1, {k}-1) = {k * tuples} parts "
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


def generating_polys(spec: SequenceSpec, p: int, k: int, n_max: int) -> Iterator[ValPoly]:
    """The polynomials of ``brute_generating_poly`` for n = 0..n_max, yielded
    in increasing n, read off one power of the corial generating function.

    The work bounds are checked, and the corial table built from its
    apparition chain, before this returns; the power is taken at the first
    ``next()``.
    """
    width, bands = _sweep(spec, p, k, n_max)
    return (unpack(band, width) for band in bands)


def _sweep(spec: SequenceSpec, p: int, k: int, n_max: int) -> tuple[int, Iterator[int]]:
    """The slot width and the lazy ``_power`` of ``generating_polys``.  The
    chain's levels (level j is the first n that j levels divide) bound the
    power's slots and so its size, refused above ``MAX_SWEEP_BITS``."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    steps = k * n_max * n_max
    if steps > MAX_SWEEP_STEPS:
        raise WorkLimitError(
            f"sweep refused: k * n_max^2 = {steps} "
            f"exceeds the limit of {MAX_SWEEP_STEPS}"
        )
    table = corial_valuation_table(spec, p, n_max)
    levels: list[int] = []
    for n in range(1, n_max + 1):
        levels += [n] * (table[n] - table[n - 1] - len(levels))
    top = sum(min(k - 1 - (k - 1) // a, n_max // a) for a in levels)
    width = slot_width(comb(n_max + k - 1, k - 1))
    bits = (n_max + 1) * (len(levels) + top + 1) * width
    if bits > MAX_SWEEP_BITS:
        raise WorkLimitError(
            f"sweep refused: a packed power of {bits} bits "
            f"exceeds the limit of {MAX_SWEEP_BITS} bits"
        )
    return width, _power(table, k, width, len(levels), top)


def _power(table: list[int], k: int, width: int, jump: int, top: int) -> Iterator[int]:
    """P_k(n) for n = 0..last, every n the table covers, each packed at
    slot width ``width``.

    A composition (m_1, ..., m_k) of n has valuation t(n) - sum t(m_i), so
    P_k(n) = x^t(n) * [z^n] A(z)^k with A(z) = sum over m <= last of
    x^(-t(m)) * z^m.  Packing x = 2^w and z = 2^S (Kronecker substitution
    in two variables) puts term m of A at bit m*S - t(m)*w, and P_k(n) is
    the band of V+1 slots of w bits starting at bit n*S - t(n)*w of A^k,
    taken by square-and-multiply and cut after each product at the end of
    band ``last``.  The bounds, for a chain table with J levels a <= last
    (repeats included):

    * w = ``width`` = ``slot_width(C(last+k-1, k-1))``: a coefficient of A^j
      at z^n, j <= k, counts some of the C(n+j-1, j-1) compositions of n.
    * V = ``top`` = sum over levels of min(k - ceil(k/a), floor(last/a)):
      per level a valuation gains floor(n/a) - sum floor(m_i/a), the
      carries out of the parts' residues mod a, which is >= 0 and at most
      sum (m_i mod a) / a <= k(a-1)/a and floor(n/a).  So every valuation
      of every partial power lies in [0, V] and no slot is negative.
    * J = ``jump``: t(n+1) - t(n) counts the levels dividing n+1, at most
      J, so t(m) <= J*m puts every bit at or above 0.
    * S = (J+V+1)*w: band n+1 starts at least S - J*w = (V+1)*w bits after
      band n, so bands do not overlap.  Extending t past ``last`` by J per
      step keeps it superadditive, so a term whose indices sum past
      ``last`` lands at or above the band of last+1, above the cut.
    """
    last = len(table) - 1
    stride = (jump + top + 1) * width
    band = (top + 1) * width // 8
    # Every start is a multiple of w, a whole number of bytes.
    starts = [(m * stride - t * width) // 8 for m, t in enumerate(table)]
    size = starts[-1] + band
    packed = bytearray(size)
    for start in starts:
        packed[start] = 1
    base = int.from_bytes(packed, "little")
    cut = (1 << 8 * size) - 1
    power = base
    for bit in bin(k)[3:]:
        power = power * power & cut
        if bit == "1":
            power = power * base & cut
    raw = power.to_bytes(size, "little")
    for start in starts:
        yield int.from_bytes(raw[start:start + band], "little")
