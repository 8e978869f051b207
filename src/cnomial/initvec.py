"""Sequence-dependent initial row vectors for the matrix-product evaluation.

The digit matrices are universal; everything the sequence contributes to a
query enters through one row vector u(r) indexed by the residue r of the
query index modulo alpha(p^s).  Each k-tuple of residues below alpha(p^s)
summing to r + lam*alpha(p^s) contributes to entry lam a power of x given by
its carry exponent (``f_value``), a count of carries in the mixed radix
alpha(p), alpha(p^2)/alpha(p), ..., alpha(p^s)/alpha(p^(s-1)).  The tuples
are never enumerated: the vector is a product of s small carry-transfer
steps, one per digit of r in that radix, just as the digit matrices carry
across the base-p digits of the quotient.

For an ideal prime alpha(p^s) = alpha(p), so every level past the first has
radix 1 and only shifts carry lam by x^lam: entry lam is x^((s-1)*lam) times
the number of k-tuples below alpha(p) summing to r + lam*alpha(p), the
closed form as a special case.
"""

from __future__ import annotations

from .apparition import PrimeClass, PrimeProfile
from .polyarith import PolyVector, ValPoly
from .transfer import digit_sum_count


def _require_class(profile: PrimeProfile, allowed: tuple[PrimeClass, ...]) -> None:
    if profile.prime_class not in allowed:
        raise ValueError(
            f"p={profile.p} is {profile.prime_class.value}; "
            f"this vector needs {' or '.join(c.value for c in allowed)}"
        )


def f_value(profile: PrimeProfile, k: int, lam: int, r: int,
            rtuple: tuple[int, ...]) -> int:
    """Carry exponent for one residue tuple of an acceptable (or ideal) prime.

    Equals lam * sum_{j=1..s} alpha(p^s)/alpha(p^j)
    + sum_{j=1..s} (floor(r/alpha(p^j)) - sum_i floor(r_i/alpha(p^j))).
    Requires every r_i in [0, alpha(p^s)) and sum(rtuple) = r + lam*alpha(p^s).
    """
    _require_class(profile, (PrimeClass.IDEAL, PrimeClass.ACCEPTABLE))
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


def vector_for(profile: PrimeProfile, k: int, r: int) -> PolyVector:
    """Length-k row u(r) for an ideal or acceptable prime, r in [0, alpha(p^s)).

    Entry lam sums x^(f - lam) over all k-tuples of residues below
    alpha(p^s) summing to r + lam*alpha(p^s), with f the carry exponent of
    the tuple (``f_value``).

    f - lam is the number of carries c_1 + ... + c_(s-1) when the tuple is
    added in the mixed radix b_1 = alpha(p), b_j = alpha(p^j)/alpha(p^(j-1)),
    and the carry out of the top level is c_s = lam.  So the row is built
    digit by digit of r, like the universal digit matrices: one polynomial
    per carry in [0, k), and at level j the k digits below b_j plus the
    carry c_in must make t_j + c_out*b_j, where t_j is digit j of r.  That
    is s*k^2 digit_sum_count calls, with no tuple enumerated.
    """
    _require_class(profile, (PrimeClass.IDEAL, PrimeClass.ACCEPTABLE))
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    base = profile.stable_modulus
    if not 0 <= r < base:
        raise ValueError(f"residue {r} not in [0, {base})")
    levels = profile.alpha_powers[:profile.s]
    # carries[c] maps exponent -> number of digit prefixes leaving carry c;
    # place = alpha(p^(j-1)) is the place value of digit j.
    carries: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(k - 1)]
    place = 1
    for j, a in enumerate(levels):
        radix, rem = divmod(a, place)
        if rem or not radix:
            raise ArithmeticError(
                f"alpha chain {profile.alpha_powers} is not a divisor chain: "
                f"inconsistent profile for p={profile.p}"
            )
        t = r // place % radix
        top = j == len(levels) - 1
        nxt = []
        for c_out in range(k):
            shift = 0 if top else c_out
            acc: dict[int, int] = {}
            for c_in, poly in enumerate(carries):
                w = digit_sum_count(k, radix, t + c_out * radix - c_in) if poly else 0
                if w:
                    for e, n in poly.items():
                        acc[e + shift] = acc.get(e + shift, 0) + w * n
            nxt.append(acc)
        carries = nxt
        place = a
    return PolyVector.row(*(ValPoly(poly) for poly in carries))


# perfbench/probes.py times the builder under this name.
acceptable_vector = vector_for
