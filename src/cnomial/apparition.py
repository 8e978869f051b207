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

from dataclasses import dataclass
from enum import Enum
from math import isqrt
from typing import Iterator

from . import seqcore
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


@dataclass(frozen=True)
class PrimeProfile:
    """Per-(sequence, p) classification record.

    ``alpha_powers`` holds alpha(p), alpha(p^2), ..., alpha(p^s) for
    classified primes (the full observed chain for unacceptable ones);
    ``ratios`` holds a_1..a_{evidence_kmax}; ``s`` is None when no
    stabilization index was established.
    """

    p: int
    prime_class: PrimeClass
    alpha_powers: tuple[int, ...]
    s: int | None
    ratios: tuple[int, ...]
    evidence_kmax: int

    @property
    def alpha(self) -> int:
        """alpha(p), the rank of apparition of p itself."""
        if not self.alpha_powers:
            raise ValueError(f"p={self.p} has no apparition")
        return self.alpha_powers[0]

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

    @classmethod
    def from_json_dict(cls, data: dict) -> "PrimeProfile":
        return cls(
            p=int(data["p"]),
            prime_class=PrimeClass(data["class"]),
            alpha_powers=tuple(int(a) for a in data["alpha_powers"]),
            s=None if data["s"] is None else int(data["s"]),
            ratios=tuple(int(a) for a in data["ratios"]),
            evidence_kmax=int(data["evidence_kmax"]),
        )


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
    half = (n + 1) // 2         # the inverse of 2 mod n
    # (U_i, V_i, Q^i) mod n from i = 1, doubling and stepping by the bits of d.
    U, V, Qi = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qi = U * V % n, (V * V - 2 * Qi) % n, Qi * Qi % n
        if bit == "1":
            U, V, Qi = (U + V) * half % n, (D * U + V) * half % n, Qi * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qi = (V * V - 2 * Qi) % n, Qi * Qi % n
        if V == 0:
            return True
    return False


def rank_of_apparition(spec: SequenceSpec, m: int) -> int | None:
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


def _lucas_rank_of_prime(spec: seqcore.LucasSpec, p: int) -> int:
    """alpha(p) for a Lucas sequence and an odd prime p not dividing Q,
    without a scan.

    With D = P^2 - 4Q, p divides U_n for n = p - (D/p), or n = p when
    p | D (Lucas 1878), so alpha(p) is the smallest divisor of n whose term
    p divides.  Strong divisibility makes those divisors exactly the
    multiples of alpha(p), so it is found by dividing n by each prime
    factor q for as long as p still divides U_(n/q): after trial division
    of n, one O(log n) jump per prime factor of n, counted with
    multiplicity.
    """
    legendre = pow(spec.P * spec.P - 4 * spec.Q, (p - 1) // 2, p)
    n = p if legendre == 0 else p - 1 if legendre == 1 else p + 1
    if seqcore._lucas_jump(spec, n, p) != 0:
        raise StrongDivisibilityError(f"{p} does not divide U_{n} of {spec.selector}")
    a = n
    for q in _prime_factors(n):
        while a % q == 0 and seqcore._lucas_jump(spec, a // q, p) == 0:
            a //= q
    return a


def _apparition_chain(spec: SequenceSpec, p: int) -> Iterator[int]:
    """Yield alpha(p), alpha(p^2), ... for as long as the caller pulls.

    Yields nothing when p divides no term.  Level 1 is p itself for the
    naturals, the divisor check above for Lucas sequences at odd primes not
    dividing Q, and the scan above otherwise (p = 2, p | Q where absence
    must be proved, and stored terms).  At level k >= 2 with
    a = alpha(p^(k-1)), strong divisibility makes alpha(p^k) a multiple of
    a.  For Lucas sequences and the naturals the law of repetition
    (p^(k-1) | C_a implies p^k | C_(p*a)) pins it to a or p*a, so two
    probes decide the level; stored terms are probed at every stored
    multiple of a, and running out raises UndeterminedError.
    """
    if (isinstance(spec, seqcore.LucasSpec) and p != 2 and spec.Q % p != 0
            and is_prime(p)):
        a = _lucas_rank_of_prime(spec, p)
    elif isinstance(spec, seqcore.NaturalsSpec) and p >= 2:
        a = p
    else:
        a = rank_of_apparition(spec, p)
    if a is None:
        return
    yield a
    file_backed = isinstance(spec, seqcore.FileBackedSpec)
    pk = p
    while True:
        pk *= p
        probes = range(a, len(spec.terms) + 1, a) if file_backed else (a, p * a)
        for n in probes:
            if seqcore.term_mod(spec, n, pk) == 0:
                a = n
                break
        else:
            if file_backed:
                raise UndeterminedError(
                    f"undetermined within available terms: no multiple of {a} "
                    f"with {pk} | C_n among {len(spec.terms)} stored terms"
                )
            raise StrongDivisibilityError(
                f"strong divisibility violated: {pk} divides neither C_{a} "
                f"nor C_{p * a}"
            )
        yield a


def classify(spec: SequenceSpec, p: int, *, kmax: int | None = None,
             tail: int = DEFAULT_TAIL) -> PrimeProfile:
    """Build the PrimeProfile of p for the given sequence.

    The stabilization index s is the last ratio position (>= 2) where the
    ratio differs from p, or 1 when every observed ratio past the first
    equals p.  With the default kmax the chain is extended until ``tail``
    consecutive ratios equal to p confirm s (hard-capped at
    DEFAULT_KMAX_CAP); an explicit kmax fixes the number of ratios computed
    instead.  Either limit is passed, for Lucas sequences and the naturals
    only, while the last computed ratio still differs from p: those have no
    unacceptable primes, and a short chain is missing evidence, not showing
    a failure.

    Finding alpha(p) takes O(sqrt(p)) trial divisions and a few jumps for
    Lucas sequences at odd primes not dividing Q, nothing for the naturals
    (alpha(p) = p), and scans at most alpha(p) terms otherwise; each further
    level then probes O(1) indices (two for Lucas sequences and the
    naturals), so the cost no longer grows with alpha(p^k).

    A file-backed sequence that runs out of terms mid-chain keeps whatever
    evidence was gathered; if not even one stabilized ratio was confirmed
    the classification is refused with UndeterminedError.
    """
    if kmax is not None and kmax < 2:
        raise ValueError(f"kmax must be >= 2, got {kmax}")
    levels = _apparition_chain(spec, p)
    alpha = next(levels, None)
    if alpha is None:
        return PrimeProfile(p=p, prime_class=PrimeClass.NO_APPARITION,
                            alpha_powers=(), s=None, ratios=(), evidence_kmax=0)
    chain = [alpha]
    ratios = [alpha]
    s_cand = 1
    exhausted = False
    cap = kmax if kmax is not None else DEFAULT_KMAX_CAP
    # Every level of a Lucas sequence or the naturals is computable, and by
    # the law of repetition their ratios reach p, so a chain still ending in
    # a deviation at the cap is extended instead of being called
    # unacceptable.
    computable = not isinstance(spec, seqcore.FileBackedSpec)
    while len(chain) < cap or (computable and len(ratios) == s_cand):
        if kmax is None and len(ratios) - s_cand >= tail:
            break
        try:
            nxt = next(levels)
        except UndeterminedError:
            exhausted = True
            break
        ratios.append(nxt // chain[-1])
        chain.append(nxt)
        if ratios[-1] != p:
            s_cand = len(ratios)

    evidence = len(ratios)
    tail_len = evidence - s_cand
    if tail_len == 0:
        if exhausted:
            raise UndeterminedError(
                f"undetermined within available terms: last observed ratio "
                f"a_{evidence} != {p} and no later evidence is available"
            )
        return PrimeProfile(p=p, prime_class=PrimeClass.UNACCEPTABLE,
                            alpha_powers=tuple(chain), s=None,
                            ratios=tuple(ratios), evidence_kmax=evidence)
    s = s_cand
    ideal = all(r == 1 for r in ratios[1:s])
    return PrimeProfile(
        p=p,
        prime_class=PrimeClass.IDEAL if ideal else PrimeClass.ACCEPTABLE,
        alpha_powers=tuple(chain[:s]),
        s=s,
        ratios=tuple(ratios),
        evidence_kmax=evidence,
    )


def classify_lucas_fast(P: int, Q: int, p: int) -> PrimeClass:
    """Class of p for the Lucas sequence U(P, Q), without any term scans.

    Every odd prime with an apparition is ideal; p = 2 is ideal when U_2 is
    even or when U_2 is odd and U_3 = 0 mod 4, and acceptable otherwise.
    Lucas sequences have no unacceptable primes.  Primes dividing Q never
    divide any term (U_n = P*U_{n-1} mod such p, and U_1 = 1).
    """
    seqcore.LucasSpec(P, Q)  # validates the strong-divisibility hypothesis
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if Q % p == 0:
        return PrimeClass.NO_APPARITION
    if p != 2:
        return PrimeClass.IDEAL
    u2, u3 = P, P * P - Q
    if u2 % 2 == 0:
        return PrimeClass.IDEAL
    if u3 % 4 == 0:
        return PrimeClass.IDEAL
    return PrimeClass.ACCEPTABLE
