from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cnomial import initvec, transfer
from cnomial.apparition import PrimeClass, PrimeProfile, classify
from cnomial.engine import linear_representation
from cnomial.initvec import f_value, vector_for
from cnomial.polyarith import PolyVector, ValPoly
from cnomial.seqcore import LucasSpec
from cnomial.transfer import digit_sum_count

from conftest import valid_lucas

P = ValPoly


def ideal_multinomial_vector(profile, k, r):
    # The closed form at an ideal prime, modulus alpha(p): entry lam is
    # x^((s-1)*lam) times the number of k-tuples in [0, alpha)^k summing to
    # r + lam*alpha.
    assert profile.prime_class is PrimeClass.IDEAL
    alpha, s = profile.alpha_powers[0], profile.s
    return PolyVector.row(*(ValPoly({(s - 1) * lam: digit_sum_count(k, alpha, r + lam * alpha)})
                            for lam in range(k)))


def test_ideal_binomial_vector_examples(lucas52, eds14):
    # k = 2 at an ideal prime: [r+1, (alpha(p)-r-1) * x^(s-1)].
    prof7 = classify(lucas52, 7)
    assert prof7.stable_modulus == 8
    assert vector_for(prof7, 2, 4).entries == (P({0: 5}), P({1: 3}))

    prof2 = classify(eds14, 2)
    assert vector_for(prof2, 2, 2).entries == (P({0: 3}), P({0: 2}))

    edge = vector_for(prof7, 2, 7)  # r = alpha - 1
    assert edge.entries == (P({0: 8}), ValPoly.zero())


def test_f_value_fibonacci_table(fib):
    prof = classify(fib, 2)
    # alpha(8)/alpha(2) + alpha(8)/alpha(4) + alpha(8)/alpha(8) = 2 + 1 + 1.
    assert sum(prof.stable_modulus // a for a in prof.alpha_powers) == 4
    assert f_value(prof, 2, 1, 1, (2, 5)) == 3
    assert f_value(prof, 2, 1, 1, (3, 4)) == 2
    assert f_value(prof, 2, 0, 1, (0, 1)) == 0
    assert f_value(prof, 2, 0, 1, (1, 0)) == 0


def test_f_value_vanishes_for_small_residues(naturals):
    prof = classify(naturals, 3)
    assert f_value(prof, 2, 0, 2, (1, 1)) == 0
    assert f_value(prof, 3, 0, 2, (1, 1, 0)) == 0


def test_f_value_validation(fib):
    prof = classify(fib, 2)
    with pytest.raises(ValueError):
        f_value(prof, 2, 1, 1, (2, 4))  # wrong tuple sum
    with pytest.raises(ValueError):
        f_value(prof, 2, 1, 1, (7, 0))  # entry out of range
    with pytest.raises(ValueError):
        f_value(prof, 2, 2, 1, (3, 4))  # lam out of range
    with pytest.raises(ValueError):
        f_value(prof, 3, 1, 1, (3, 4))  # tuple length
    with pytest.raises(ValueError):
        f_value(prof, 2, 1, -2, (1, 3))  # residue out of range


def test_ideal_multinomial_vector_examples(naturals):
    prof = classify(naturals, 2)
    assert vector_for(prof, 3, 1).entries == (P({0: 3}), P({0: 1}), ValPoly.zero())
    assert vector_for(prof, 4, 0).entries[0] == ValPoly.one()


def test_acceptable_vector_fibonacci_table(fib):
    prof = classify(fib, 2)
    expected = {
        0: (P({0: 1}), P({1: 1, 2: 4})),
        1: (P({0: 2}), P({1: 2, 2: 2})),
        2: (P({0: 3}), P({1: 3})),
        3: (P({0: 2, 1: 2}), P({2: 2})),
        4: (P({0: 4, 1: 1}), P({2: 1})),
        5: (P({0: 6}), ValPoly.zero()),
    }
    for r, entries in expected.items():
        assert vector_for(prof, 2, r).entries == entries, r
    assert prof.stable_modulus == 6


def test_acceptable_vector_count_normalization(fib, naturals):
    # Entry lam evaluated at x = 1 counts the tuples below alpha(p^s)
    # summing to r + lam * alpha(p^s).
    for spec, p, k in [(fib, 2, 2), (fib, 2, 3), (naturals, 3, 2)]:
        prof = classify(spec, p)
        base = prof.stable_modulus
        for r in range(base):
            for lam, entry in enumerate(vector_for(prof, k, r).entries):
                count = sum(1 for t in product(range(base), repeat=k)
                            if sum(t) == r + lam * base)
                assert entry.eval_at_one() == count, (spec.selector, p, k, r, lam)


def test_acceptable_vector_specializes_to_ideal(lucas52, naturals, eds14):
    for spec, p in [(lucas52, 7), (naturals, 3), (eds14, 2)]:
        prof = classify(spec, p)
        for k in (2, 3, 4, 5):
            for r in range(prof.alpha_powers[0]):
                assert (vector_for(prof, k, r)
                        == ideal_multinomial_vector(prof, k, r)), (spec.selector, k, r)


def test_acceptable_vector_rejects_corrupt_profile():
    # A chain whose last entry is not a multiple of the others breaks the
    # exponent bound, which must be caught rather than silently wrapped.
    broken = PrimeProfile(p=2, prime_class=PrimeClass.ACCEPTABLE,
                          alpha_powers=(4, 6), s=2, ratios=(4, 2), evidence_kmax=2)
    with pytest.raises(ArithmeticError):
        vector_for(broken, 2, 3)


def test_vector_for_errors(fib, lucas52, make_chain_spec):
    prof7 = classify(lucas52, 7)
    for r in (-1, 8):  # residues modulo alpha(7) = 8
        with pytest.raises(ValueError, match="residue"):
            vector_for(prof7, 2, r)
    with pytest.raises(ValueError, match="k must be"):
        vector_for(classify(fib, 2), 1, 0)
    noapp = classify(LucasSpec(1, 2), 2)
    unacc = classify(make_chain_spec((1, 2, 6, 18, 54), 60), 2, kmax=5)
    for prof in (noapp, unacc):
        with pytest.raises(ValueError, match="this vector needs Ideal or Acceptable"):
            vector_for(prof, 2, 0)


def _enumerated_vector(profile, k, r):
    # The definition, literally: every k-tuple of residues below alpha(p^s)
    # summing to r + lam*alpha(p^s) adds x^(f - lam) to entry lam.
    base = profile.stable_modulus
    counts = [{} for _ in range(k)]
    for head in product(range(base), repeat=k - 1):
        for lam in range(k):
            last = r + lam * base - sum(head)
            if 0 <= last < base:
                e = f_value(profile, k, lam, r, head + (last,)) - lam
                counts[lam][e] = counts[lam].get(e, 0) + 1
    return tuple(ValPoly(c) for c in counts)


@st.composite
def _divisor_chains(draw):
    # a_1 | a_2 | ... | a_s = modulus, repeats (ratio 1) allowed.
    chain = [draw(st.integers(2, 30))]
    for _ in range(draw(st.integers(0, 3))):
        head = chain[0]
        chain.insert(0, draw(st.sampled_from([d for d in range(1, head + 1) if head % d == 0])))
    return tuple(chain)


@settings(max_examples=120, deadline=None)
@given(_divisor_chains(), st.sampled_from([2, 3, 5, 7]), st.integers(2, 4), st.data())
def test_carry_dp_matches_enumeration_on_chains(make_chain_spec, chain, p, k, data):
    # One ratio p past the chain confirms it; classify may then find a
    # shorter s when the chain itself ends in ratios equal to p.
    m = chain[-1]
    spec = make_chain_spec(chain + (m * p,), m * p, p=p)
    prof = classify(spec, p, kmax=len(chain) + 1)
    assert prof.prime_class in (PrimeClass.IDEAL, PrimeClass.ACCEPTABLE)
    r = data.draw(st.integers(0, prof.stable_modulus - 1))
    assert vector_for(prof, k, r).entries == _enumerated_vector(prof, k, r), (chain, p, k, r)


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(-20, 20), st.integers(-20, 20)).filter(valid_lucas),
       st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29]), st.integers(2, 4), st.data())
def test_carry_dp_matches_enumeration_on_lucas(params, p, k, data):
    prof = classify(LucasSpec(*params), p)
    assume(prof.prime_class in (PrimeClass.IDEAL, PrimeClass.ACCEPTABLE))
    assume(prof.stable_modulus <= 30)
    r = data.draw(st.integers(0, prof.stable_modulus - 1))
    u = vector_for(prof, k, r)
    assert u.entries == _enumerated_vector(prof, k, r), (params, p, k, r)
    if prof.prime_class is PrimeClass.IDEAL:
        assert u == ideal_multinomial_vector(prof, k, r), (params, p, k, r)


def test_acceptable_route_cost_at_modulus_50(make_chain_spec, monkeypatch):
    # Counted rather than timed: at most s*k^2 digit_sum_count calls per
    # residue (the carry steps are cached per digit) and no tuple, where
    # enumeration made O(modulus^(k-1)) f_value calls.
    prof = classify(make_chain_spec((2, 10, 50, 150), 150, p=3), 3)
    assert (prof.prime_class, prof.alpha_powers) == (PrimeClass.ACCEPTABLE, (2, 10, 50))
    calls = {"f_value": 0, "digit_sum_count": 0}
    owners = {"f_value": initvec, "digit_sum_count": transfer}

    def counted(name):
        real = getattr(owners[name], name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(owners[name], name, counted(name))
    transfer.digit_counts.cache_clear()
    k, m, s = 4, prof.stable_modulus, prof.s
    rep = linear_representation(prof, k)
    assert len(rep.residue_vectors) == m
    assert calls["f_value"] == 0
    assert 0 < calls["digit_sum_count"] <= m * s * k * k
