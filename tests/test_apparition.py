from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cnomial import oracle, seqcore
from cnomial.apparition import (
    _lucas_rank_of_prime,
    _prime_factors,
    _strong_lucas_probable_prime,
    PrimeClass,
    PrimeProfile,
    UndeterminedError,
    classify,
    classify_lucas_fast,
    is_prime,
    rank_of_apparition,
    valuation,
)
from cnomial.seqcore import FileBackedSpec, LucasSpec, NaturalsSpec

from conftest import valid_lucas


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


def test_classify_lucas52(lucas52, profile_of):
    prof = profile_of(lucas52, 7)
    assert prof.prime_class is PrimeClass.IDEAL
    assert prof.s == 2
    assert prof.alpha == 8
    assert prof.alpha_powers == (8, 8)
    assert prof.ratios == (8, 1, 7, 7, 7)
    assert prof.evidence_kmax == 5


def test_classify_fibonacci(fib, profile_of):
    prof = profile_of(fib, 2)
    assert prof.prime_class is PrimeClass.ACCEPTABLE
    assert prof.s == 3
    assert prof.alpha_powers == (3, 6, 6)
    assert prof.ratios == (3, 2, 1, 2, 2, 2)
    assert prof.stable_modulus == 6


def test_classify_eds(eds14, eds150, profile_of):
    prof = profile_of(eds14, 2)
    assert prof.prime_class is PrimeClass.IDEAL
    assert prof.s == 1
    assert prof.alpha == 5
    assert prof.evidence_kmax == 2  # the 14 stored terms support no more
    long = profile_of(eds150, 2)
    assert long.prime_class is PrimeClass.IDEAL
    assert long.s == 1
    assert long.ratios == (5, 2, 2, 2)


def test_classify_naturals(naturals, profile_of):
    for p in (2, 3, 5):
        prof = profile_of(naturals, p)
        assert prof.prime_class is PrimeClass.IDEAL
        assert prof.s == 1
        assert prof.alpha == p


def test_classify_no_apparition(profile_of):
    prof = profile_of(LucasSpec(1, 2), 2)
    assert prof.prime_class is PrimeClass.NO_APPARITION
    assert prof.s is None
    assert prof.alpha_powers == ()
    with pytest.raises(ValueError):
        prof.alpha


def test_classify_acceptable_chain(make_chain_spec, profile_of):
    spec = make_chain_spec((1, 2, 6, 12, 24, 48, 96), 96)
    prof = profile_of(spec, 2)
    assert prof.prime_class is PrimeClass.ACCEPTABLE
    assert prof.s == 3
    assert prof.ratios == (1, 2, 3, 2, 2, 2)
    assert prof.alpha_powers == (1, 2, 6)


def test_classify_unacceptable_chain(make_chain_spec, profile_of):
    spec = make_chain_spec((1, 2, 6, 18, 54), 60)
    prof = profile_of(spec, 2, kmax=5)
    assert prof.prime_class is PrimeClass.UNACCEPTABLE
    assert prof.s is None
    assert prof.ratios == (1, 2, 3, 3, 3)


def test_classify_undetermined_chain(make_chain_spec):
    # Ratios still deviate from p when the stored terms run out.
    spec = make_chain_spec((1, 2, 6, 18, 54), 60)
    with pytest.raises(UndeterminedError):
        classify(spec, 2)


def test_classify_kmax_validation(fib):
    with pytest.raises(ValueError):
        classify(fib, 2, kmax=1)


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
def test_classify_lucas_fast_agrees_with_classify(params, profile_of):
    spec = LucasSpec(*params)
    for p in (2, 3, 5, 7, 11, 13):
        assert classify_lucas_fast(*params, p) is profile_of(spec, p).prime_class, (params, p)


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


def test_s_two_ways_for_ideal(lucas52, naturals, eds14, fib, profile_of):
    # For ideal primes, s equals the valuation of the term at alpha(p) and
    # the stabilized chain is constant there.
    cases = [(lucas52, 7), (naturals, 3), (eds14, 2), (fib, 3), (fib, 5)]
    for spec, p in cases:
        prof = profile_of(spec, p)
        assert prof.prime_class is PrimeClass.IDEAL
        assert prof.s == sequence_valuation(spec, prof.alpha, p)
        assert set(prof.alpha_powers) == {prof.alpha}


def test_profile_invariants(fib, lucas52, naturals, profile_of):
    for spec, p in [(fib, 2), (fib, 3), (lucas52, 7), (naturals, 5)]:
        prof = profile_of(spec, p)
        assert prof.ratios[0] == prof.alpha_powers[0] == prof.alpha
        for a, b in zip(prof.alpha_powers, prof.alpha_powers[1:]):
            assert b % a == 0 and b >= a
        assert len(prof.alpha_powers) == prof.s
        assert prof.evidence_kmax == len(prof.ratios)


def test_profile_json_round_trip(fib, profile_of):
    prof = profile_of(fib, 2)
    data = prof.to_json_dict()
    assert data["class"] == "Acceptable"
    assert PrimeProfile.from_json_dict(data) == prof
    noapp = classify(LucasSpec(1, 2), 2)
    assert PrimeProfile.from_json_dict(noapp.to_json_dict()) == noapp


def test_alpha_chain_bounded(fib, eds150):
    assert oracle.alpha_chain(fib, 2, 50) == [3, 6, 6, 12, 24, 48]
    assert oracle.alpha_chain(eds150, 2, 120) == [5, 10, 20, 40, 80]
    assert oracle.alpha_chain(NaturalsSpec(), 3, 100) == [3, 9, 27, 81]


# The chain walker behind classify decides each level past the first from a
# couple of probes.  These tests hold it against rank_of_apparition's plain
# scan, level by level, wherever the scan is cheap enough to run.

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


def test_classify_cost_in_probes(fib, monkeypatch):
    # Counted rather than timed: one scan up to alpha(p) <= p + 1, then at
    # most two O(log n) jumps per further chain level.
    p = 10007
    pulled, jumps = [0], [0]
    residues, term_mod = seqcore.residues, seqcore.term_mod

    def counted_residues(spec, m):
        for u in residues(spec, m):
            pulled[0] += 1
            yield u

    def counted_term_mod(spec, n, m):
        jumps[0] += 1
        return term_mod(spec, n, m)

    monkeypatch.setattr(seqcore, "residues", counted_residues)
    monkeypatch.setattr(seqcore, "term_mod", counted_term_mod)
    prof = classify(fib, p)
    assert prof.prime_class is PrimeClass.IDEAL
    assert pulled[0] <= p + 1
    assert jumps[0] <= 2 * (len(prof.ratios) - 1)


PRIMES_TO_2000 = [p for p in range(3, 2001) if is_prime(p)]


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
    # Level 1 without a scan (odd p not dividing Q) against the Brent scan.
    assume(params[1] % p != 0)
    spec = LucasSpec(*params)
    assert _lucas_rank_of_prime(spec, p) == rank_of_apparition(spec, p), (params, p)


def test_lucas_rank_when_p_divides_discriminant():
    # D = P^2 - 4Q = 0 mod p: alpha(p) = p.  U(2, 1) is the naturals.
    assert _lucas_rank_of_prime(LucasSpec(2, 1), 7) == 7
    assert _lucas_rank_of_prime(LucasSpec(1, -1), 5) == 5   # Fibonacci, D = 5


@pytest.mark.parametrize("p", [10007, 1000000007])
def test_classify_lucas_level_one_cost(fib, monkeypatch, p):
    # Counted rather than timed: for a Lucas sequence at an odd prime not
    # dividing Q, level 1 pulls no term from the scan and makes one jump to
    # p - (D/p) plus at most one per prime factor of it; each further level
    # makes at most two.
    pulled, jumps = [0], [0]
    residues, jump = seqcore.residues, seqcore._lucas_jump

    def counted_residues(spec, m):
        for u in residues(spec, m):
            pulled[0] += 1
            yield u

    def counted_jump(spec, n, m):
        jumps[0] += 1
        return jump(spec, n, m)

    monkeypatch.setattr(seqcore, "residues", counted_residues)
    monkeypatch.setattr(seqcore, "_lucas_jump", counted_jump)
    prof = classify(fib, p)
    assert prof.prime_class is PrimeClass.IDEAL
    assert prof.alpha == p + 1          # (5/p) = -1 for both primes
    assert pulled[0] == 0
    assert jumps[0] <= 1 + (p + 1).bit_length() + 2 * (len(prof.ratios) - 1)


def test_classify_naturals_level_one_cost(naturals, monkeypatch):
    # alpha(p) = p for the naturals: level 1 pulls no term at all, and each
    # further level makes at most two jumps.
    pulled, jumps = [0], [0]
    residues, term_mod = seqcore.residues, seqcore.term_mod

    def counted_residues(spec, m):
        for u in residues(spec, m):
            pulled[0] += 1
            yield u

    def counted_term_mod(spec, n, m):
        jumps[0] += 1
        return term_mod(spec, n, m)

    monkeypatch.setattr(seqcore, "residues", counted_residues)
    monkeypatch.setattr(seqcore, "term_mod", counted_term_mod)
    p = 1000000007
    prof = classify(naturals, p)
    assert (prof.prime_class, prof.alpha_powers) == (PrimeClass.IDEAL, (p,))
    assert pulled[0] == 0
    assert jumps[0] <= 2 * (len(prof.ratios) - 1)


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
