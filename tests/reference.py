"""References used only by the tests.

* Plain scans: ``rank_of_apparition`` walks C_1, C_2, ... mod m, the
  reference the scan-free chain walker behind ``classify`` is held
  against, and ``validate_strong_divisibility`` checks the gcd law
  pairwise.
* Per-tuple valuations from the apparition chain: ``corial_valuation`` and
  ``cmultinomial_valuation``, which ``oracle.corial_valuation_table`` and
  the big-integer products are checked against.
* ``compositions``, the recursive definition of the colex order that
  ``oracle.compositions`` enumerates without recursion.
* Tuple-counting polynomials for the plain naturals, the independent
  reference for the digit-matrix advancement identity.  They come from
  digit sums alone: a k-part composition of n has multinomial valuation
  (sum of part digit sums - digit_sum(n)) / (p - 1).
"""

import math

from cnomial import seqcore
from cnomial.apparition import StrongDivisibilityError, UndeterminedError
from cnomial.oracle import alpha_chain
from cnomial.polyarith import PolyVector, ValPoly


def rank_of_apparition(spec, m):
    """Smallest n with m | C_n, or None when provably no such n exists.

    Scans C_1, C_2, ... mod m.  For recurrence-backed sequences Brent cycle
    detection on the state (C_n, C_{n+1}) mod m proves absence; a
    file-backed sequence that ends first raises UndeterminedError.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    detect_cycle = not isinstance(spec, seqcore.FileBackedSpec)
    # Every state is inspected for a zero as it is visited, and by the time
    # the state matches the exponentially-spaced checkpoint the whole orbit
    # (pre-period plus cycle) has been covered, so a miss is a proof.
    checkpoint = None
    power, span = 1, 0
    prev = None
    n = 0
    for u in seqcore.residues(spec, m):
        n += 1
        if u == 0:
            return n
        if detect_cycle and prev is not None:
            state = (prev, u)
            if state == checkpoint:
                return None
            span += 1
            if span == power:
                checkpoint = state
                power *= 2
                span = 0
        prev = u
    raise UndeterminedError(
        f"undetermined within available terms: {m} divides none of the "
        f"{len(spec.terms)} stored terms"
    )


def validate_strong_divisibility(spec, bound):
    """All pairs 1 <= m < n <= bound violating gcd(|C_n|, |C_m|) = |C_gcd(n,m)|.

    An empty list means no violation was found up to the bound (it is not a
    proof for the infinite sequence).
    """
    ts = seqcore.terms_prefix(spec, bound)
    bad = []
    for n in range(2, bound + 1):
        for m in range(1, n):
            g = math.gcd(abs(ts[n - 1]), abs(ts[m - 1]))
            if g != abs(ts[math.gcd(n, m) - 1]):
                bad.append((n, m))
    return bad


def digit_sum(n, p):
    s = 0
    while n:
        n, d = divmod(n, p)
        s += d
    return s


def factorial_valuation(n, p):
    """nu_p(n!) by Legendre: (n - digit_sum(n)) / (p - 1)."""
    return (n - digit_sum(n, p)) // (p - 1)


def corial_valuation(spec, p, n):
    """nu_p of the term product C_n * C_{n-1} * ... * C_1.

    Equals sum over j of floor(n / alpha(p^j)), truncated once alpha(p^j)
    exceeds n (or does not exist).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0
    return sum(n // a for a in alpha_chain(spec, p, n))


def cmultinomial_valuation(spec, p, n, mtuple):
    """nu_p of the generalized multinomial, via the apparition chain."""
    if sum(mtuple) != n:
        raise ValueError(f"tuple {mtuple} sums to {sum(mtuple)}, expected {n}")
    v = corial_valuation(spec, p, n) - sum(corial_valuation(spec, p, m) for m in mtuple)
    if v < 0:
        raise StrongDivisibilityError(
            f"negative valuation for ({n}; {mtuple}): sequence is not strong divisibility"
        )
    return v


def compositions(total, k):
    """All k-tuples of nonnegative integers summing to total, in
    colexicographic order (rightmost part varies slowest)."""
    if k == 1:
        yield (total,)
        return
    for last in range(total + 1):
        for rest in compositions(total - last, k - 1):
            yield rest + (last,)


_digit_count_cache = {}


def _digit_sum_counts(p, k, nmax):
    # rows[n] maps D -> number of k-part compositions of n whose parts have
    # base-p digit sums totalling D; the cached rows are extended only as
    # far as a caller needs.
    rows = _digit_count_cache.setdefault((p, k), [])
    if k == 1:
        for n in range(len(rows), nmax + 1):
            rows.append({digit_sum(n, p): 1})
        return rows
    prev = _digit_sum_counts(p, k - 1, nmax)
    for n in range(len(rows), nmax + 1):
        acc = {}
        for m in range(n + 1):
            shift = digit_sum(m, p)
            for d, c in prev[n - m].items():
                acc[d + shift] = acc.get(d + shift, 0) + c
        rows.append(acc)
    return rows


def multinomial_count_poly(p, k, n):
    """Sum of x^nu_p(multinomial) over k-part compositions of n (naturals)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rows = _digit_sum_counts(p, k, n)
    sn = digit_sum(n, p)
    counts = {}
    for d, c in rows[n].items():
        e, rem = divmod(d - sn, p - 1)
        if rem:
            raise AssertionError(f"digit-sum residue broke for n={n}, D={d}")
        counts[e] = c
    return ValPoly(counts)


def component_vector(p, k, n):
    """Column of k tuple-counting polynomials advanced by the digit matrices.

    Entry lam is 0 for n < lam, and otherwise
    x^(nu_p(n!/(n-lam)!) + lam) * multinomial_count_poly(p, k, n - lam).
    Built from ordinary factorial valuations only, independent of any
    sequence and of the matrix construction it is used to check.
    """
    entries = []
    for lam in range(k):
        if n < lam:
            entries.append(ValPoly.zero())
            continue
        shift = factorial_valuation(n, p) - factorial_valuation(n - lam, p) + lam
        entries.append(ValPoly.monomial(1, shift) * multinomial_count_poly(p, k, n - lam))
    return PolyVector.column(*entries)
