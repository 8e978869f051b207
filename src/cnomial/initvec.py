"""Sequence-dependent initial row vectors for the matrix-product evaluation.

The digit matrices are universal; everything the sequence contributes to a
query enters through one row vector indexed by the residue r of the query
index modulo alpha(p) (ideal primes) or alpha(p^s) (acceptable primes).

For ideal primes the vector entries have a closed form: entry lam is
x^{(s-1)*lam} times the number of k-tuples of residues below alpha(p)
summing to r + lam*alpha(p).  For acceptable primes each residue tuple
contributes a power of x given by its carry exponent (``f_value``), a
count of carries in the mixed radix alpha(p), alpha(p^2)/alpha(p), ...,
alpha(p^s)/alpha(p^(s-1)).  The tuples are never enumerated: the vector is
a product of s small carry-transfer steps, one per digit of r in that
radix, just as the digit matrices carry across the base-p digits of the
quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .apparition import PrimeClass, PrimeProfile
from .polyarith import PolyVector, ValPoly
from .transfer import digit_sum_count

IDEAL_PATH = "ideal"
ACCEPTABLE_PATH = "acceptable"


@dataclass(frozen=True)
class InitialVector:
    """Row vector for residue r, together with the modulus that defined r."""

    vector: PolyVector
    modulus: int
    residue: int

    def __post_init__(self):
        if not 0 <= self.residue < self.modulus:
            raise ValueError(f"residue {self.residue} not in [0, {self.modulus})")


def _require_class(profile: PrimeProfile, allowed: tuple[PrimeClass, ...]) -> None:
    if profile.prime_class not in allowed:
        raise ValueError(
            f"p={profile.p} is {profile.prime_class.value}; "
            f"this vector needs {' or '.join(c.value for c in allowed)}"
        )


def ideal_binomial_vector(profile: PrimeProfile, r: int) -> InitialVector:
    """[r+1, (alpha(p)-r-1) * x^(s-1)] for an ideal prime, modulus alpha(p)."""
    _require_class(profile, (PrimeClass.IDEAL,))
    alpha, s = profile.alpha, profile.s
    if not 0 <= r < alpha:
        raise ValueError(f"residue {r} not in [0, {alpha})")
    vec = PolyVector.row(ValPoly({0: r + 1}), ValPoly({s - 1: alpha - r - 1}))
    return InitialVector(vec, modulus=alpha, residue=r)


def ideal_multinomial_vector(profile: PrimeProfile, k: int, r: int) -> InitialVector:
    """Length-k row for an ideal prime, modulus alpha(p).

    Entry lam is x^{(s-1)*lam} with coefficient
    sum_{j=0..lam} (-1)^j C(k, j) C(r + (lam-j)*alpha + k - 1, k - 1),
    the count of k-tuples in [0, alpha)^k summing to r + lam*alpha.
    """
    _require_class(profile, (PrimeClass.IDEAL,))
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    alpha, s = profile.alpha, profile.s
    if not 0 <= r < alpha:
        raise ValueError(f"residue {r} not in [0, {alpha})")
    entries = [
        ValPoly({(s - 1) * lam: digit_sum_count(k, alpha, r + lam * alpha)})
        for lam in range(k)
    ]
    return InitialVector(PolyVector.row(*entries), modulus=alpha, residue=r)


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


def acceptable_vector(profile: PrimeProfile, k: int, r: int) -> InitialVector:
    """Length-k row for an acceptable prime, modulus alpha(p^s).

    Entry lam sums x^(f - lam) over all k-tuples of residues below
    alpha(p^s) summing to r + lam*alpha(p^s), with f the carry exponent of
    the tuple (``f_value``).  Ideal primes are accepted too; the result then
    agrees with ideal_multinomial_vector.

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
    entries = [ValPoly(poly) for poly in carries]
    return InitialVector(PolyVector.row(*entries), modulus=base, residue=r)


def vector_for(profile: PrimeProfile, k: int, r: int,
               path: str = "auto") -> InitialVector:
    """Initial vector for the requested evaluation path.

    ``auto`` picks the ideal closed form for ideal primes and the carry
    product for acceptable ones; ``ideal`` and ``acceptable`` force a path
    (the acceptable path is valid for ideal primes as well).
    """
    if path == "auto":
        path = IDEAL_PATH if profile.prime_class is PrimeClass.IDEAL else ACCEPTABLE_PATH
    if path == IDEAL_PATH:
        return ideal_multinomial_vector(profile, k, r)
    if path == ACCEPTABLE_PATH:
        return acceptable_vector(profile, k, r)
    raise ValueError(f"unknown path {path!r}")
