from itertools import islice
from math import isqrt
from operator import floordiv

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cnomial import apparition, oracle, seqcore
from cnomial.apparition import (
    _lucas_rank_of_prime,
    _prime_factors,
    _strong_lucas_probable_prime,
    PrimeClass,
    PrimeProfile,
    StrongDivisibilityError,
    UndeterminedError,
    classify,
    is_prime,
    valuation,
)
from cnomial.seqcore import MAX_ENTRIES, FileBackedSpec, LucasSpec, WorkLimitError

from conftest import valid_lucas
from reference import lucas_levels, rank_of_apparition


def classify_lucas_fast(P, Q, p):
    """Class of p for the Lucas sequence U(P, Q), without any term scans.

    Every odd prime with an apparition is ideal; p = 2 is ideal when U_2 is
    even or when U_2 is odd and U_3 = 0 mod 4, and acceptable otherwise.
    Lucas sequences have no unacceptable primes.  Primes dividing Q never
    divide any term (U_n = P*U_{n-1} mod such p, and U_1 = 1).
    """
    LucasSpec(P, Q)  # validates the strong-divisibility hypothesis
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


def profile_from_json(data):
    """Inverse of PrimeProfile.to_json_dict."""
    return PrimeProfile(
        p=int(data["p"]),
        prime_class=PrimeClass(data["class"]),
        alpha_powers=tuple(int(a) for a in data["alpha_powers"]),
        s=None if data["s"] is None else int(data["s"]),
        ratios=tuple(int(a) for a in data["ratios"]),
        evidence_kmax=int(data["evidence_kmax"]),
    )


def sequence_valuation(spec, n, p):
    # v_p(C_n) by modular reduction only.
    e, pk = 0, p
    while seqcore.term_mod(spec, n, pk) == 0:
        e, pk = e + 1, pk * p
    return e


def test_valuation_examples():
    assert valuation(120785, 7) == 2
    assert valuation(1, 5) == 0
    assert valuation(-8, 2) == 3
    with pytest.raises(ValueError):
        valuation(0, 3)


def test_is_prime():
    assert [n for n in range(40) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)


def test_is_prime_past_the_fixed_bases():
    # psi_12 and psi_13: the least composites that are strong probable
    # primes to every prime base up to 37 and up to 41.
    for composite, factor in [(318665857834031151167461, 399165290221),
                              (3317044064679887385961981, 1287836182261)]:
        assert composite % factor == 0 and 1 < factor < composite
        assert not is_prime(composite)
    for e in (89, 107, 127, 521):           # Mersenne primes
        assert is_prime(2**e - 1)
    assert not is_prime(2**127 + 1)
    assert not is_prime((2**89 - 1) * (2**107 - 1))
    assert not is_prime((2**61 - 1) ** 2)


def test_strong_lucas_test_matches_known_pseudoprimes():
    # Odd n < 40000 with no prime factor below 41 (the only n is_prime
    # hands to the Lucas test): it accepts every prime, and exactly the
    # strong Lucas pseudoprimes among the composites (OEIS A217255).
    def trial_prime(n):
        return all(n % d for d in range(2, isqrt(n) + 1))

    accepted = []
    for n in range(43, 40000, 2):
        if any(n % q == 0 for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
            continue
        if _strong_lucas_probable_prime(n) and not trial_prime(n):
            accepted.append(n)
        if trial_prime(n):
            assert _strong_lucas_probable_prime(n), n
    assert accepted == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]


def test_rank_of_apparition_examples(lucas52, fib, naturals, eds14):
    assert rank_of_apparition(lucas52, 7) == 8
    assert rank_of_apparition(eds14, 2) == 5
    assert rank_of_apparition(fib, 2) == 3
    for pk in (8, 9, 25):
        assert rank_of_apparition(naturals, pk) == pk


def test_rank_of_apparition_not_found():
    # 2 divides Q, so every term of U(1, 2) is odd: provably no apparition.
    assert rank_of_apparition(LucasSpec(1, 2), 2) is None
    # U(1, 0) is constant 1.
    assert rank_of_apparition(LucasSpec(1, 0), 5) is None


def test_rank_of_apparition_undetermined():
    spec = FileBackedSpec((1, 1, 3), name="short")
    with pytest.raises(UndeterminedError):
        rank_of_apparition(spec, 2)


def test_classify_ratios_with_kmax(lucas52, fib, naturals, eds14):
    assert classify(lucas52, 7, kmax=5).ratios == (8, 1, 7, 7, 7)
    assert classify(fib, 2, kmax=6).ratios == (3, 2, 1, 2, 2, 2)
    assert classify(naturals, 3, kmax=4).ratios == (3, 3, 3, 3)
    assert classify(eds14, 2, kmax=2).ratios == (5, 2)


def test_classify_kmax_beyond_stored_terms(eds14):
    # alpha(8) needs index 20 and the file has 14: the profile keeps the two
    # ratios the terms support instead of the requested three.
    prof = classify(eds14, 2, kmax=3)
    assert prof.ratios == (5, 2)
    assert prof.evidence_kmax == 2


def test_classify_lucas52(lucas52):
    prof = classify(lucas52, 7)
    assert prof.prime_class is PrimeClass.IDEAL
    assert prof.s == 2
    assert prof.alpha_powers[0] == 8
    assert prof.alpha_powers == (8, 8)
    assert prof.ratios == (8, 1, 7, 7, 7)
    assert prof.evidence_kmax == 5


def test_classify_fibonacci(fib):
    prof = classify(fib, 2)
    assert prof.prime_class is PrimeClass.ACCEPTABLE
    assert prof.s == 3
    assert prof.alpha_powers == (3, 6, 6)
    assert prof.ratios == (3, 2, 1, 2, 2, 2)
    assert prof.stable_modulus == 6


def test_classify_eds(eds14, eds150):
    prof = classify(eds14, 2)
    assert prof.prime_class is PrimeClass.IDEAL
    assert prof.s == 1
    assert prof.alpha_powers[0] == 5
    assert prof.evidence_kmax == 2  # the 14 stored terms support no more
    long = classify(eds150, 2)
    assert long.prime_class is PrimeClass.IDEAL
    assert long.s == 1
    assert long.ratios == (5, 2, 2, 2)


def test_classify_naturals(naturals):
    for p in (2, 3, 5):
        prof = classify(naturals, p)
        assert prof.prime_class is PrimeClass.IDEAL
        assert prof.s == 1
        assert prof.alpha_powers[0] == p


def test_classify_no_apparition():
    prof = classify(LucasSpec(1, 2), 2)
    assert prof.prime_class is PrimeClass.NO_APPARITION
    assert prof.s is None
    assert prof.alpha_powers == ()


def test_classify_acceptable_chain(make_chain_spec):
    spec = make_chain_spec((1, 2, 6, 12, 24, 48, 96), 96)
    prof = classify(spec, 2)
    assert prof.prime_class is PrimeClass.ACCEPTABLE
    assert prof.s == 3
    assert prof.ratios == (1, 2, 3, 2, 2, 2)
    assert prof.alpha_powers == (1, 2, 6)


def test_classify_unacceptable_chain(make_chain_spec):
    spec = make_chain_spec((1, 2, 6, 18, 54), 60)
    prof = classify(spec, 2, kmax=5)
    assert prof.prime_class is PrimeClass.UNACCEPTABLE
    assert prof.s is None
    assert prof.ratios == (1, 2, 3, 3, 3)


def test_classify_undetermined_chain(make_chain_spec):
    # Ratios still deviate from p when the stored terms run out.
    spec = make_chain_spec((1, 2, 6, 18, 54), 60)
    with pytest.raises(UndeterminedError):
        classify(spec, 2)


def test_classify_refuses_a_stored_multiple_without_p(make_chain_spec):
    # C_2 | C_6 in a strong divisibility sequence, so p | C_2 forces p | C_6.
    terms = list(make_chain_spec((2, 4), 12).terms)
    terms[5] = 1
    with pytest.raises(StrongDivisibilityError, match="2 divides C_2 but not C_6$"):
        classify(FileBackedSpec(tuple(terms)), 2, kmax=2)


def test_classify_kmax_validation(fib, naturals):
    with pytest.raises(ValueError):
        classify(fib, 2, kmax=1)
    # The ratios come cheap, so a kmax past the listing bound would fill
    # memory: it is refused before any work.
    assert classify(fib, 2, kmax=MAX_ENTRIES).evidence_kmax == MAX_ENTRIES
    with pytest.raises(WorkLimitError,
                       match=f"{MAX_ENTRIES + 1} entries exceed the limit of {MAX_ENTRIES}$"):
        classify(fib, 2, kmax=MAX_ENTRIES + 1)
    # p itself is validated too: a composite p is refused, not classified.
    for spec in (fib, naturals):
        for p in (4, 9, 15):
            with pytest.raises(ValueError, match="p must be prime"):
                classify(spec, p)


def test_classify_lucas_fast_examples():
    assert classify_lucas_fast(5, -2, 7) is PrimeClass.IDEAL
    assert classify_lucas_fast(1, -1, 2) is PrimeClass.ACCEPTABLE
    assert classify_lucas_fast(2, -1, 2) is PrimeClass.IDEAL
    assert classify_lucas_fast(1, -3, 2) is PrimeClass.IDEAL  # U_3 = 4
    assert classify_lucas_fast(1, 2, 2) is PrimeClass.NO_APPARITION
    with pytest.raises(ValueError):
        classify_lucas_fast(2, 2, 3)
    with pytest.raises(ValueError):
        classify_lucas_fast(1, -1, 4)


@pytest.mark.parametrize("params", [(1, -1), (5, -2), (3, -1), (1, -3), (2, -1), (1, 2), (1, 3)])
def test_classify_lucas_fast_agrees_with_classify(params):
    spec = LucasSpec(*params)
    for p in (2, 3, 5, 7, 11, 13):
        assert classify_lucas_fast(*params, p) is classify(spec, p).prime_class, (params, p)


def test_divisibility_law(fib, lucas52):
    # p^j | C_n exactly when alpha(p^j) | n; no apparition means no multiple.
    for spec in (fib, lucas52):
        for p in (2, 3, 5, 7):
            for j in (1, 2, 3):
                alpha = rank_of_apparition(spec, p**j)
                for n in range(1, 201):
                    divides = seqcore.term_mod(spec, n, p**j) == 0
                    expected = alpha is not None and n % alpha == 0
                    assert divides == expected, (spec.selector, p, j, n)


def test_s_two_ways_for_ideal(lucas52, naturals, eds14, fib):
    # For ideal primes, s equals the valuation of the term at alpha(p) and
    # the stabilized chain is constant there.
    cases = [(lucas52, 7), (naturals, 3), (eds14, 2), (fib, 3), (fib, 5)]
    for spec, p in cases:
        prof = classify(spec, p)
        assert prof.prime_class is PrimeClass.IDEAL
        assert prof.s == sequence_valuation(spec, prof.alpha_powers[0], p)
        assert set(prof.alpha_powers) == {prof.alpha_powers[0]}


def test_profile_invariants(fib, lucas52, naturals):
    for spec, p in [(fib, 2), (fib, 3), (lucas52, 7), (naturals, 5)]:
        prof = classify(spec, p)
        assert prof.ratios[0] == prof.alpha_powers[0]
        for a, b in zip(prof.alpha_powers, prof.alpha_powers[1:]):
            assert b % a == 0 and b >= a
        assert len(prof.alpha_powers) == prof.s
        assert prof.evidence_kmax == len(prof.ratios)


def test_profile_json_round_trip(fib):
    prof = classify(fib, 2)
    data = prof.to_json_dict()
    assert data["class"] == "Acceptable"
    assert profile_from_json(data) == prof
    noapp = classify(LucasSpec(1, 2), 2)
    assert profile_from_json(noapp.to_json_dict()) == noapp


def test_alpha_chain_bounded(fib, eds150):
    assert oracle.alpha_chain(fib, 2, 50) == [3, 6, 6, 12, 24, 48]
    assert oracle.alpha_chain(eds150, 2, 120) == [5, 10, 20, 40, 80]
    assert oracle.alpha_chain(LucasSpec(2, 1), 3, 100) == [3, 9, 27, 81]


# classify reads a Lucas chain's ratios past the first from two valuations.
# These tests hold its levels against rank_of_apparition's plain scan, level
# by level, wherever the scan is cheap enough to run.

SCAN_BOUND = 10_000
PRIMES_TO_200 = [p for p in range(2, 201) if is_prime(p)]


def assert_levels_match_scan(spec, p, prof):
    level = 1
    for j, ratio in enumerate(prof.ratios, start=1):
        level *= ratio
        if level > SCAN_BOUND:
            break
        assert rank_of_apparition(spec, p**j) == level, (spec.selector, p, j)


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(valid_lucas),
       st.sampled_from(PRIMES_TO_200), st.sampled_from([None, 4]))
def test_chain_walker_matches_scan_lucas(params, p, kmax):
    spec = LucasSpec(*params)
    prof = classify(spec, p, kmax=kmax)
    assert prof.prime_class is classify_lucas_fast(*params, p)
    assert_levels_match_scan(spec, p, prof)


@pytest.mark.parametrize("name, p, kmax", [
    ("naturals", 2, None), ("naturals", 3, None), ("naturals", 5, 6), ("naturals", 7, None),
    ("eds150", 2, None), ("eds150", 3, None), ("eds150", 5, None), ("eds150", 7, None),
    ("acceptable_chain", 2, None), ("unacceptable_chain", 2, 5),
])
def test_chain_walker_matches_scan_grid(name, p, kmax, request, make_chain_spec):
    if name == "acceptable_chain":
        spec = make_chain_spec((1, 2, 6, 12, 24, 48, 96), 96)
    elif name == "unacceptable_chain":
        spec = make_chain_spec((1, 2, 6, 18, 54), 60)
    else:
        spec = request.getfixturevalue(name)
    assert_levels_match_scan(spec, p, classify(spec, p, kmax=kmax))


@pytest.fixture
def counted(monkeypatch):
    """Terms pulled from seqcore.residues and calls of seqcore._lucas_jump,
    which term_mod and every probe of a Lucas sequence go through."""
    counts = {"pulled": 0, "jumps": 0}
    residues, jump = seqcore.residues, seqcore._lucas_jump

    def counted_residues(spec, m):
        for u in residues(spec, m):
            counts["pulled"] += 1
            yield u

    def counted_jump(spec, n, m):
        counts["jumps"] += 1
        return jump(spec, n, m)

    monkeypatch.setattr(seqcore, "residues", counted_residues)
    monkeypatch.setattr(seqcore, "_lucas_jump", counted_jump)
    return counts


def valuation_jumps(prof):
    # Past alpha(p), a Lucas classification makes one jump per bit of
    # e_1 = v_p(U_alpha(p)) and of e_2 = v_p(U_(p*alpha(p))), which sit where
    # the ratios first and second equal p.
    e1 = prof.ratios.index(prof.p, 1)
    return e1.bit_length() + prof.ratios.index(prof.p, e1 + 1).bit_length()


def test_classify_cost_in_probes(fib, counted):
    # Counted rather than timed: no scan at all (alpha(p) comes from the
    # divisor check on p + 1), then one O(log n) jump per bit of e_1 and
    # of e_2, however deep the chain goes.
    p = 10007
    prof = classify(fib, p)
    assert prof.prime_class is PrimeClass.IDEAL
    assert counted["pulled"] == 0
    assert counted["jumps"] <= 1 + (p + 1).bit_length() + valuation_jumps(prof)


def test_classify_cost_does_not_grow_with_kmax(fib, counted):
    # Every ratio past e_2 is p, so a deeper kmax costs no further jump.
    jumps = []
    for kmax in (10, 100, 200_000):
        counted["jumps"] = 0
        assert classify(fib, 2, kmax=kmax).evidence_kmax == kmax
        jumps.append(counted["jumps"])
        assert jumps[-1] == jumps[0], jumps


PRIMES_TO_2000 = [p for p in range(2, 2001) if is_prime(p)]


def test_prime_factors():
    assert _prime_factors(1) == []
    assert _prime_factors(2) == [2]
    assert _prime_factors(10008) == [2, 3, 139]
    assert _prime_factors(1000000008) == [2, 3, 7, 109, 167]
    assert _prime_factors(2**31 - 1) == [2**31 - 1]


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(valid_lucas),
       st.sampled_from(PRIMES_TO_2000))
def test_lucas_rank_divisor_check_matches_scan(params, p):
    # Level 1 without a scan against the Brent scan, at every prime: p = 2
    # descends from U_6, and p | Q has no apparition (both give None).
    spec = LucasSpec(*params)
    assert _lucas_rank_of_prime(spec, p) == rank_of_apparition(spec, p), (params, p)


def test_lucas_rank_when_p_divides_discriminant():
    # D = P^2 - 4Q = 0 mod p: alpha(p) = p.  U(2, 1) is the naturals.
    assert _lucas_rank_of_prime(LucasSpec(2, 1), 7) == 7
    assert _lucas_rank_of_prime(LucasSpec(1, -1), 5) == 5   # Fibonacci, D = 5


def discriminant_multiple(p, P, t):
    # Q = P^2/4 mod p puts p | D = P^2 - 4Q; at p = 2 that needs P even,
    # and Q = 1 + 2t is odd.
    return (1 if p == 2 else P * P * pow(4, -1, p) % p) + p * t


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES_TO_2000), st.integers(-50, 50), st.integers(-3, 3))
def test_lucas_rank_when_p_divides_discriminant_matches_scan(p, P, t):
    # p must not divide Q, and at p = 2 P must be even.
    Q = discriminant_multiple(p, P, t)
    assume((P * P - 4 * Q) % p == 0 and Q % p != 0 and valid_lucas((P, Q)))
    spec = LucasSpec(P, Q)
    assert _lucas_rank_of_prime(spec, p) == rank_of_apparition(spec, p), (P, Q, p)


@st.composite
def lucas_cases(draw):
    # A Lucas pair and a prime: any pair at p = 2 or at an odd p, a pair
    # with p | D (Q = P^2/4 mod p), or one with p | Q.
    p = draw(st.one_of(st.just(2), st.sampled_from(PRIMES_TO_200[1:])))
    P, t = draw(st.integers(-60, 60)), draw(st.integers(-3, 3))
    Q = draw(st.one_of(st.integers(-60, 60), st.just(discriminant_multiple(p, P, t)),
                       st.just(p * t)))
    assume(valid_lucas((P, Q)))
    return (P, Q), p


@settings(max_examples=300, deadline=None)
@given(lucas_cases())
@example(((1, -65535), 2))      # e_1 = 16: seventeen ratios at kmax = 12
@example(((2, 1), 3))           # the naturals: p | D = 0
def test_closed_form_matches_two_probe_walker(case):
    params, p = case
    spec = LucasSpec(*params)
    prof = classify(spec, p, kmax=12)
    levels = list(islice(lucas_levels(spec, p), len(prof.ratios)))
    assert prof.ratios == tuple(map(floordiv, levels, [1, *levels])), case
    assert prof.alpha_powers == tuple(levels[:prof.s]), case
    assert len(prof.ratios) >= 12 or spec.Q % p == 0, case


def refuse_factoring(n):
    raise AssertionError(f"factored {n}")


def test_classify_huge_prime_dividing_discriminant(monkeypatch):
    # D = 1 + 4 * 250000000000000000000000000014 = p: alpha(p) = p without
    # factoring n = p, which trial division could not finish.
    p = 10**30 + 57
    monkeypatch.setattr(apparition, "_prime_factors", refuse_factoring)
    prof = classify(LucasSpec(1, -250000000000000000000000000014), p)
    assert (prof.prime_class, prof.alpha_powers) == (PrimeClass.IDEAL, (p,))


@pytest.mark.parametrize("params, p, alpha", [
    ((1, -1), 10007, 10008), ((1, -1), 1000000007, 1000000008),   # (5/p) = -1
    ((1, -1), 2, 3), ((1, 2), 2, None),
], ids=["10007", "1000000007", "fibonacci-2", "lucas_1_2-2"])
def test_classify_lucas_level_one_cost(counted, params, p, alpha):
    # Counted rather than timed: for a Lucas sequence, level 1 pulls no
    # term from a scan.  At p | Q it makes no jump; otherwise it makes one
    # jump to n = p - (D/p) (n = 6 at p = 2) plus at most one per prime
    # factor of n.  The further ratios take one jump per bit of e_1 and
    # of e_2.
    prof = classify(LucasSpec(*params), p)
    assert prof.prime_class is classify_lucas_fast(*params, p)
    assert counted["pulled"] == 0
    if alpha is None:
        assert (prof.alpha_powers, counted["jumps"]) == ((), 0)
    else:
        assert prof.alpha_powers[0] == alpha
        n = 6 if p == 2 else p + 1
        assert counted["jumps"] <= 1 + n.bit_length() + valuation_jumps(prof)


def test_classify_naturals_level_one_cost(naturals, counted, monkeypatch):
    # alpha(p) = p for the naturals (p | D = 0): level 1 pulls no term,
    # factors nothing and makes one jump, and the further ratios take one
    # jump per bit of e_1 = 1 and of e_2 = 2.
    monkeypatch.setattr(apparition, "_prime_factors", refuse_factoring)
    p = 1000000007
    prof = classify(naturals, p)
    assert (prof.prime_class, prof.alpha_powers) == (PrimeClass.IDEAL, (p,))
    assert counted["pulled"] == 0
    assert counted["jumps"] <= 1 + valuation_jumps(prof)


def test_lucas_chain_extended_past_the_cap():
    # 2^16 | U_3 of U(1, -65535): alpha(2^j) = 3 for j <= 16, so the first
    # ratio equal to 2 is a_17, past the default cap.  Lucas sequences have
    # no unacceptable primes; the chain is extended until that ratio.
    prof = classify(LucasSpec(1, -65535), 2)
    assert prof.prime_class is PrimeClass.IDEAL is classify_lucas_fast(1, -65535, 2)
    assert (prof.s, prof.alpha_powers, prof.evidence_kmax) == (16, (3,) * 16, 17)
    # The same with an explicit kmax shorter than the run of ratios 1.
    prof = classify(LucasSpec(7, 1), 2, kmax=4)
    assert prof.prime_class is PrimeClass.IDEAL
    assert prof.ratios == (3, 1, 1, 1, 2)


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(-20, 20), st.integers(-20, 20)).filter(valid_lucas),
       st.sampled_from(PRIMES_TO_200[:15]), st.data())
def test_stored_term_contradicting_the_chain_is_refused(params, p, data):
    # A stored Lucas prefix of at least 2*alpha(p) terms with one term
    # multiplied by p at an index alpha(p) does not divide: p then divides
    # a term its apparition chain says it cannot, and classify refuses the
    # file whichever levels it would pull.
    spec = LucasSpec(*params)
    alpha = _lucas_rank_of_prime(spec, p)
    assume(alpha is not None)
    terms = seqcore.terms_prefix(spec, data.draw(st.integers(2 * alpha, 2 * alpha + 20)))
    i = data.draw(st.integers(1, len(terms)).filter(lambda i: i % alpha))
    terms[i - 1] *= p
    bad = FileBackedSpec(tuple(terms), name="bad")
    for kmax in (None, 2):
        with pytest.raises(StrongDivisibilityError, match="strong divisibility violated"):
            classify(bad, p, kmax=kmax)
