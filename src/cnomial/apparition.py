"""Ranks of apparition and prime classification for strong divisibility
sequences.

For a sequence C and a modulus m, the rank of apparition is the first index
whose term m divides.  Strong divisibility makes divisibility by m periodic
in the index, so the ranks of successive prime powers form a divisibility
chain alpha(p) | alpha(p^2) | ..., and the chain's ratio sequence
eventually determines how the p-adic valuation of the C-orial grows.

A prime p is classified from the ratios a_1 = alpha(p),
a_k = alpha(p^k)/alpha(p^{k-1}):

* ``Ideal``        ratios are 1 up to some index s, then exactly p forever;
* ``Acceptable``   ratios are positive integers up to s, then p forever;
* ``Unacceptable`` the stabilized-at-p pattern fails;
* ``NoApparition`` p divides no term at all.

Stabilization is a tail property, so classification of a finite term list
is evidence-bounded: profiles carry ``evidence_kmax``, the number of ratios
actually verified.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from itertools import accumulate, chain, repeat
from math import isqrt
from operator import floordiv, mul

from . import seqcore
from .record import Record
from .seqcore import SequenceSpec

# Ratios confirmed equal to p past the last deviation before classification
# stops, and the absolute cap on chain depth when no explicit kmax is given.
DEFAULT_TAIL = 3
DEFAULT_KMAX_CAP = 16


class UndeterminedError(Exception):
    """A file-backed sequence ran out of terms before the answer was decided."""


class StrongDivisibilityError(ArithmeticError):
    """A quotient, valuation or apparition rank came out wrong: the input
    sequence is not a strong divisibility sequence (or its stored terms are
    corrupt)."""


class PrimeClass(str, Enum):
    IDEAL = "Ideal"
    ACCEPTABLE = "Acceptable"
    UNACCEPTABLE = "Unacceptable"
    NO_APPARITION = "NoApparition"

    def __str__(self) -> str:
        return self.value


class PrimeProfile(Record):
    """Per-(sequence, p) classification record.

    ``alpha_powers`` holds alpha(p), alpha(p^2), ..., alpha(p^s) for
    classified primes (the full observed chain for unacceptable ones);
    ``ratios`` holds a_1..a_{evidence_kmax}; ``s`` is None when no
    stabilization index was established.
    """

    __slots__ = ("p", "prime_class", "alpha_powers", "s", "ratios", "evidence_kmax")
    p: int
    prime_class: PrimeClass
    alpha_powers: tuple[int, ...]
    s: int | None
    ratios: tuple[int, ...]
    evidence_kmax: int

    @property
    def stable_modulus(self) -> int:
        """alpha(p^s), the index period once the ratio chain has stabilized."""
        if self.s is None or not self.alpha_powers:
            raise ValueError(f"p={self.p} has no stabilization evidence")
        return self.alpha_powers[self.s - 1]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "class": self.prime_class.value,
            "alpha_powers": list(self.alpha_powers),
            "s": self.s,
            "ratios": list(self.ratios),
            "evidence_kmax": self.evidence_kmax,
        }


def valuation(x: int, p: int) -> int:
    """Largest e with p^e dividing |x|."""
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
    x = abs(x)
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The least composite that is a strong probable prime to every base in
# _MR_BASES (psi_12 of Sorenson and Webster, 2017); below it those bases
# decide primality exactly.
_MR_EXACT_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Primality: exact below 318665857834031151167461 (strong tests to the
    twelve prime bases 2..37); above it the Baillie-PSW test (those strong
    tests, base 2 among them, plus a strong Lucas test), which has no known
    counterexample."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_EXACT_BELOW or _strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters (Baillie-Wagstaff 1980)
    for odd n > 1 with no prime factor below 41: D is the first of
    5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4, and with
    n + 1 = d * 2^s, d odd, n passes when U_d = 0 or V_(d*2^t) = 0 mod n
    for some t < s."""
    if isqrt(n) ** 2 == n:
        return False            # no D with (D/n) = -1 exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False        # gcd(D, n) > 1, and |D| < n here
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_d and U_(d+1) mod n by the sequences' own ladder, then
    # V_d = 2*U_(d+1) - P*U_d and V_(2i) = V_i^2 - 2*Q^i.
    U, U1 = seqcore._lucas_jump(seqcore.LucasSpec(1, Q), d, n)
    V, Qi = (2 * U1 - U) % n, pow(Q, d, n)
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qi = (V * V - 2 * Qi) % n, Qi * Qi % n
        if V == 0:
            return True
    return False


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, by trial division."""
    factors = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def _lucas_rank_of_prime(spec: seqcore.LucasSpec, p: int) -> int | None:
    """alpha(p) for a Lucas sequence and a prime p, without a scan, or None
    when p divides no term.

    If p | Q then U_n = P^(n-1) mod p, and p does not divide P since
    gcd(P, Q) = 1, so there is no apparition.  Otherwise p divides U_n for
    n = 6 when p = 2 (U_n mod 2 has period 2 or 3), and with
    D = P^2 - 4Q for n = p - (D/p), or n = p when p | D (Lucas 1878).
    alpha(p) is the smallest divisor of n whose term p divides: p itself
    when n = p, as U_1 = 1 (so the naturals, D = 0, need no factoring).
    Else strong divisibility makes those divisors exactly the multiples of
    alpha(p), so it is found by dividing n by each prime factor q for as
    long as p still divides U_(n/q): after trial division of n, one
    O(log n) jump per prime factor of n, counted with multiplicity.
    """
    if spec.Q % p == 0:
        return None
    legendre = pow(spec.P * spec.P - 4 * spec.Q, (p - 1) // 2, p)
    n = 6 if p == 2 else p if legendre == 0 else p - 1 if legendre == 1 else p + 1
    if seqcore._lucas_jump(spec, n, p)[0] != 0:
        raise StrongDivisibilityError(f"{p} does not divide U_{n} of {spec.selector}")
    if n == p:
        return p
    a = n
    for q in _prime_factors(n):
        while a % q == 0 and seqcore._lucas_jump(spec, a // q, p)[0] == 0:
            a //= q
    return a


def _stored_levels(spec: seqcore.FileBackedSpec, p: int) -> list[int]:
    """alpha(p), alpha(p^2), ... as far as the stored terms reach, each
    level checked against the terms.

    The hits of p^j, the stored n with p^j | C_n, are read off the stored
    multiples of a = alpha(p^(j-1)) (a = 1 for j = 1), and alpha(p^j) is
    the first.  Strong divisibility makes the hits exactly the stored
    multiples of alpha(p^j), so any other hit or miss raises
    StrongDivisibilityError naming its index.
    """
    terms, levels = spec.terms, []
    a, pk = 1, p
    while True:
        hit = [t % pk == 0 for t in terms[a - 1::a]]    # C_a, C_2a, ...
        if True not in hit:
            return levels
        r = hit.index(True) + 1
        if hit.count(True) != len(hit) // r or not all(hit[r - 1::r]):
            n = a * next(i for i, h in enumerate(hit, 1) if h != (i % r == 0))
            a *= r
            why = (f"{pk} divides C_{n}, but the least stored index it divides is {a}"
                   if n % a else f"{pk} divides C_{a} but not C_{n}")
            raise StrongDivisibilityError(f"strong divisibility violated: {why}")
        a *= r
        levels.append(a)
        pk *= p


def _lucas_valuation(spec: seqcore.LucasSpec, n: int, p: int) -> int:
    """v_p(U_n) from U_n mod p^B for B = 2, 4, 8, ... up to the first
    nonzero residue, which exists as a LucasSpec has no zero term."""
    B = 2
    while (r := seqcore._lucas_jump(spec, n, p ** B)[0]) == 0:
        B *= 2
    return valuation(r, p)


def _apparition_ratios(spec: SequenceSpec, p: int) -> Iterator[int]:
    """Yield a_1 = alpha(p), a_j = alpha(p^j)/alpha(p^(j-1)) for the prime
    p, as long as the caller pulls, or nothing when p divides no term.

    Stored terms yield the ratios of ``_stored_levels``, all checked before
    the first is yielded, and end there; a file in which p divides no
    stored term raises UndeterminedError instead.  For a Lucas sequence,
    p ∤ Q, a = alpha(p) and D = P^2 - 4Q, Sanna (2016, "The p-adic
    valuation of Lucas sequences", Theorem 1.1; Lengyel 1995, "The order of
    the Fibonacci and Lucas numbers", for the Fibonacci numbers) gives
    v_p(U_n) = 0 if a ∤ n, else v_p(U_a) if p ∤ n, else
    v_p(n) + v_p(U_p) - 1 if p | D (then a = p) and
    v_p(n) + v_p(U_(p*a)) - 1 if p ∤ D (then p ∤ a).  So with
    e_1 = v_p(U_a) and e_2 = v_p(U_(p*a)) the ratios are a, e_1 - 1 ones,
    p, e_2 - e_1 - 1 ones, then p forever.  For odd p, e_2 = e_1 + 1; at
    p = 2 the gap can be wider: Fibonacci has e_1 = 1 and e_2 = 3.
    """
    if isinstance(spec, seqcore.FileBackedSpec):
        levels = _stored_levels(spec, p)
        if not levels:
            raise UndeterminedError(f"undetermined within available terms: {p} divides "
                                    f"none of the {len(spec.terms)} stored terms")
        yield from map(floordiv, levels, [1, *levels])
    elif (a := _lucas_rank_of_prime(spec, p)) is not None:
        e1, e2 = (_lucas_valuation(spec, n, p) for n in (a, p * a))
        yield from chain((a,), repeat(1, e1 - 1), (p,), repeat(1, e2 - e1 - 1), repeat(p))


def classify(spec: SequenceSpec, p: int, *, kmax: int | None = None) -> PrimeProfile:
    """Build the PrimeProfile of the prime p for the given sequence.

    The stabilization index s is the last ratio position (>= 2) where the
    ratio differs from p, or 1 when every observed ratio past the first
    equals p.  With the default kmax the chain is extended until
    DEFAULT_TAIL consecutive ratios equal to p confirm s (hard-capped at
    DEFAULT_KMAX_CAP); an explicit kmax fixes the number of ratios computed
    instead.  Either limit is passed, for Lucas sequences only, while the
    last computed ratio still differs from p: those have no unacceptable
    primes, and a short chain is missing evidence, not showing a failure.

    Nothing is found by scanning.  Finding alpha(p) for a Lucas sequence
    takes one jump when p | D = P^2 - 4Q (the naturals at odd p), and
    otherwise O(sqrt(p)) trial divisions and a few jumps; each further
    ratio then comes from two valuations, so the cost does not grow with
    the depth.  Stored terms cost one pass per level over the stored
    multiples of the previous rank, which also checks every level the file
    holds against the terms.

    A file-backed sequence that runs out of terms mid-chain keeps whatever
    evidence was gathered; if not even one stabilized ratio was confirmed
    the classification is refused with UndeterminedError.  A composite p
    raises ValueError, a kmax above MAX_ENTRIES WorkLimitError.
    """
    if kmax is not None and kmax < 2:
        raise ValueError(f"kmax must be >= 2, got {kmax}")
    seqcore.check_entries(kmax or 0, "ratio list")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    source = _apparition_ratios(spec, p)
    alpha = next(source, None)
    if alpha is None:
        return PrimeProfile(p=p, prime_class=PrimeClass.NO_APPARITION,
                            alpha_powers=(), s=None, ratios=(), evidence_kmax=0)
    ratios = [alpha]
    s_cand = 1
    exhausted = False
    cap = kmax if kmax is not None else DEFAULT_KMAX_CAP
    # Every level of a Lucas sequence is computable, and by the law of
    # repetition its ratios reach p, so a chain still ending in a deviation
    # at the cap is extended instead of being called unacceptable.
    computable = not isinstance(spec, seqcore.FileBackedSpec)
    while len(ratios) < cap or (computable and len(ratios) == s_cand):
        if kmax is None and len(ratios) - s_cand >= DEFAULT_TAIL:
            break
        ratio = next(source, None)
        if ratio is None:
            exhausted = True
            break
        ratios.append(ratio)
        if ratio != p:
            s_cand = len(ratios)

    evidence = len(ratios)
    if evidence == s_cand:
        if exhausted:
            raise UndeterminedError(
                f"undetermined within available terms: last observed ratio "
                f"a_{evidence} != {p} and no later evidence is available"
            )
        return PrimeProfile(p=p, prime_class=PrimeClass.UNACCEPTABLE,
                            alpha_powers=tuple(accumulate(ratios, mul)), s=None,
                            ratios=tuple(ratios), evidence_kmax=evidence)
    s = s_cand
    ideal = all(r == 1 for r in ratios[1:s])
    return PrimeProfile(p=p, prime_class=PrimeClass.IDEAL if ideal else PrimeClass.ACCEPTABLE,
                        alpha_powers=tuple(accumulate(ratios[:s], mul)), s=s, ratios=tuple(ratios),
                        evidence_kmax=evidence)
