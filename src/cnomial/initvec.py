"""Sequence-dependent initial row vectors for the matrix-product evaluation.

The digit matrices are universal; everything the sequence contributes to a
query enters through one row vector u(r) indexed by the residue r of the
query index modulo the last chain level alpha(p^s).  Each k-tuple of
residues below alpha(p^s) summing to r + lam*alpha(p^s) contributes to
entry lam a power of x given by its carry exponent (``f_value``), a count
of carries in the mixed radix b_1 = alpha(p), b_j = alpha(p^j)/alpha(p^(j-1)).
The tuples are never enumerated: u(r) = e_0^T * S_(b_1)(t_1) * ... *
S_(b_s)(t_s) over the digits t_j of r in that radix, where S_b(t) has entry
(c_in, c_out) = x^c_in * N_b(t - c_in + c_out*b), N_b counting the k-tuples
of digits below b with that sum.  S_p(d) is the universal digit matrix
M(d), and both come from ``transfer.digit_counts``: one carry step in
every radix.

For an ideal prime alpha(p^s) = alpha(p), so every level past the first has
radix 1 and only shifts carry lam by x^lam: entry lam is x^((s-1)*lam) times
the number of k-tuples below alpha(p) summing to r + lam*alpha(p), the
closed form as a special case.
"""

from __future__ import annotations

from collections.abc import Sequence

from .apparition import PrimeClass, PrimeProfile
from .polyarith import PolyVector, ValPoly, slot_width, unpack
from .transfer import digit_counts


def check_vector_class(profile: PrimeProfile) -> None:
    """Raise ValueError unless the prime is ideal or acceptable, the classes
    whose residue vectors are finite data."""
    if profile.prime_class not in (PrimeClass.IDEAL, PrimeClass.ACCEPTABLE):
        raise ValueError(
            f"p={profile.p} is {profile.prime_class.value}; "
            f"this vector needs Ideal or Acceptable"
        )


def f_value(profile: PrimeProfile, k: int, lam: int, r: int,
            rtuple: tuple[int, ...]) -> int:
    """Carry exponent for one residue tuple of an acceptable (or ideal) prime.

    Equals lam * sum_{j=1..s} alpha(p^s)/alpha(p^j)
    + sum_{j=1..s} (floor(r/alpha(p^j)) - sum_i floor(r_i/alpha(p^j))).
    Requires every r_i in [0, alpha(p^s)) and sum(rtuple) = r + lam*alpha(p^s).
    """
    check_vector_class(profile)
    powers = profile.alpha_powers
    base = powers[-1]
    if len(rtuple) != k:
        raise ValueError(f"need a {k}-tuple, got {len(rtuple)} entries")
    if not 0 <= lam < k:
        raise ValueError(f"lam {lam} not in [0, {k})")
    if not 0 <= r < base:
        raise ValueError(f"residue {r} not in [0, {base})")
    if any(not 0 <= ri < base for ri in rtuple):
        raise ValueError(f"tuple entries must lie in [0, {base})")
    if sum(rtuple) != r + lam * base:
        raise ValueError(
            f"tuple sums to {sum(rtuple)}, expected r + lam*alpha(p^s) = {r + lam * base}"
        )
    value = lam * sum(base // a for a in powers)
    for a in powers:
        value += r // a - sum(ri // a for ri in rtuple)
    return value


def row(levels: Sequence[int], k: int, r: int) -> list[ValPoly]:
    """u(r) over the chain ``levels`` (alpha(p), ..., alpha(p^s)), r in
    [0, alpha(p^s)), built on packed integers.  Its k-tuples number
    alpha(p^s)^(k-1) over all entries, which bounds every coefficient."""
    width = slot_width(max(levels, default=1) ** (k - 1))
    packed = [1] + [0] * (k - 1)
    place = 1
    for a in levels:
        radix, rem = divmod(a, place)
        if rem or not radix:
            raise ArithmeticError(f"alpha chain {levels} is not a divisor chain")
        counts = digit_counts(radix, k, r // place % radix)
        new = [0] * k
        for c_in, v in enumerate(packed):
            if v:
                v <<= c_in * width
                new = [u + c * v for u, c in zip(new, counts[c_in])]
        packed, place = new, a
    return [unpack(v, width) for v in packed]


def vector_for(profile: PrimeProfile, k: int, r: int) -> PolyVector:
    """Length-k row u(r) for an ideal or acceptable prime, r in [0, alpha(p^s)).

    Entry lam sums x^(f - lam) over all k-tuples of residues below
    alpha(p^s) summing to r + lam*alpha(p^s), with f the carry exponent of
    the tuple (``f_value``).
    """
    check_vector_class(profile)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    base = profile.stable_modulus
    if not 0 <= r < base:
        raise ValueError(f"residue {r} not in [0, {base})")
    return PolyVector.row(*row(profile.alpha_powers[:profile.s], k, r))


# perfbench/probes.py times the builder under this name.
acceptable_vector = vector_for
