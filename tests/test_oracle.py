import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnomial import oracle
from cnomial.apparition import valuation
from cnomial.oracle import (
    StrongDivisibilityError,
    WorkLimitError,
    brute_generating_poly,
    cmultinomial_bigint,
    compositions,
    corial_valuation_table,
    generating_polys,
)
from cnomial.polyarith import ValPoly, row_vec_mul
from cnomial.seqcore import FileBackedSpec, LucasSpec, term, terms_prefix

from conftest import valid_lucas
import reference
from reference import (
    cmultinomial_valuation,
    component_vector,
    corial_valuation,
    factorial_valuation,
    multinomial_count_poly,
)

P = ValPoly


def test_corial_valuation_examples(fib, naturals):
    assert corial_valuation(fib, 2, 6) == 4
    product = 1
    for n in range(1, 7):
        product *= term(fib, n)
    assert product == 240 and valuation(240, 2) == 4
    assert corial_valuation(fib, 2, 0) == 0
    for p in (2, 3, 5):
        for n in range(101):
            assert corial_valuation(naturals, p, n) == factorial_valuation(n, p)


def test_corial_valuation_table(fib, lucas52, eds150):
    for spec, p in [(fib, 2), (fib, 3), (lucas52, 7), (eds150, 2)]:
        table = corial_valuation_table(spec, p, 60)
        for n in range(61):
            assert table[n] == corial_valuation(spec, p, n)


def test_cmultinomial_bigint_table_values(lucas52):
    assert cmultinomial_bigint(lucas52, 12, (2, 10)) == 376848881400519
    assert cmultinomial_bigint(lucas52, 12, (5, 7)) == 33760841110473476348689725
    assert cmultinomial_bigint(lucas52, 12, (1, 11)) == 100611585
    assert cmultinomial_bigint(lucas52, 12, (12, 0)) == 1
    assert cmultinomial_bigint(lucas52, 17, (17, 0, 0)) == 1


def test_cmultinomial_bigint_validation(fib):
    with pytest.raises(ValueError):
        cmultinomial_bigint(fib, 5, (2, 2))
    with pytest.raises(ValueError):
        cmultinomial_bigint(fib, 1, (2, -1))


def test_cmultinomial_bigint_detects_non_sds():
    shifted = FileBackedSpec(tuple(range(2, 20)), name="shifted")  # C_n = n + 1
    with pytest.raises(StrongDivisibilityError):
        cmultinomial_bigint(shifted, 2, (1, 1))  # 3 / (2 * 2)


def test_cmultinomial_valuation_examples(lucas52):
    assert cmultinomial_valuation(lucas52, 7, 12, (5, 7)) == 2
    assert cmultinomial_valuation(lucas52, 7, 12, (4, 8)) == 0
    assert cmultinomial_valuation(lucas52, 7, 12, (0, 12)) == 0


def test_valuation_agrees_with_bigint(fib, lucas52):
    rng = random.Random(99)
    for spec in (fib, lucas52):
        for _ in range(200):
            n = rng.randrange(41)
            k = rng.choice((2, 3))
            parts = sorted(rng.randrange(n + 1) for _ in range(k - 1))
            mtuple = tuple(b - a for a, b in zip([0] + parts, parts + [n]))
            for p in (2, 3, 7):
                direct = valuation(cmultinomial_bigint(spec, n, mtuple), p)
                assert direct == cmultinomial_valuation(spec, p, n, mtuple), (
                    spec.selector, p, n, mtuple)


def test_integrality(fib, lucas52, eds150):
    for spec in (fib, lucas52, eds150):
        for n in range(41):
            for mtuple in compositions(n, 2):
                cmultinomial_bigint(spec, n, mtuple)  # must not raise


def test_compositions_colex_order():
    assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(compositions(2, 3))[:4] == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)]
    for n, k in [(7, 2), (5, 3), (4, 4)]:
        tuples = list(compositions(n, k))
        assert len(tuples) == comb(n + k - 1, k - 1)
        assert len(set(tuples)) == len(tuples)
        assert all(sum(t) == n for t in tuples)
    for n in range(8):
        for k in range(1, 6):
            assert list(compositions(n, k)) == list(reference.compositions(n, k)), (n, k)


def test_brute_generating_poly_examples(lucas52, fib):
    assert brute_generating_poly(lucas52, 7, 2, 12) == P({0: 10, 2: 3})
    assert brute_generating_poly(fib, 2, 2, 13) == P({0: 4, 1: 2, 3: 4, 4: 4})
    assert brute_generating_poly(fib, 5, 3, 0) == ValPoly.one()


def test_brute_generating_poly_bigint_mode(fib, lucas52):
    for spec, p in [(fib, 2), (lucas52, 7)]:
        plain = brute_generating_poly(spec, p, 2, 24)
        checked = brute_generating_poly(spec, p, 2, 24, bigint_samples=10,
                                        rng=random.Random(5))
        assert plain == checked


def test_bigint_samples_come_from_the_one_enumeration(fib, monkeypatch):
    # One pass enumerates and cross-checks; the tuples checked are those
    # drawn from the full list of compositions, met in enumeration order.
    calls, checked = [], []
    real_compositions, real_bigint = oracle.compositions, oracle.cmultinomial_bigint

    def counted(*args):
        calls.append(args)
        return real_compositions(*args)

    def recorded(spec, n, mtuple):
        checked.append(mtuple)
        return real_bigint(spec, n, mtuple)

    monkeypatch.setattr(oracle, "compositions", counted)
    monkeypatch.setattr(oracle, "cmultinomial_bigint", recorded)
    for k, n, samples, seed in [(2, 24, 10, 5), (3, 15, 7, 1), (4, 9, 500, 2), (2, 0, 3, 3)]:
        calls.clear()
        checked.clear()
        brute_generating_poly(fib, 2, k, n, bigint_samples=samples, rng=random.Random(seed))
        assert calls == [(n, k)]
        pool = list(reference.compositions(n, k))
        drawn = random.Random(seed).sample(pool, min(samples, len(pool)))
        assert checked == sorted(drawn, key=pool.index)


def test_bigint_samples_catch_a_corrupt_term():
    # Fibonacci with C_7 doubled: the chain at p = 2 reads only multiples of
    # 3, so the corial table misses the extra factor that the big-integer
    # products see, e.g. (8; 2, 6) = C_8 * C_7 / (C_2 * C_1) = 546.
    terms = terms_prefix(LucasSpec(1, -1), 20)
    terms[6] *= 2
    spec = FileBackedSpec(tuple(terms), name="fib-c7-doubled")
    with pytest.raises(StrongDivisibilityError, match="valuation mismatch"):
        brute_generating_poly(spec, 2, 2, 8, bigint_samples=9)


def test_brute_generating_poly_tuple_symmetry(fib):
    # The count only sees the multiset of parts, so any enumeration order
    # of the tuple coordinates gives the same polynomial.
    table = corial_valuation_table(fib, 2, 20)
    for n in (9, 14, 20):
        forward = brute_generating_poly(fib, 2, 3, n, _table=table)
        counts = {}
        for mtuple in compositions(n, 3):
            v = table[n] - sum(table[m] for m in reversed(mtuple))
            counts[v] = counts.get(v, 0) + 1
        assert forward == ValPoly(counts)


def test_component_vector_examples():
    assert component_vector(3, 2, 0).entries == (ValPoly.one(), ValPoly.zero())
    assert component_vector(7, 2, 1).entries == (P({0: 2}), P({1: 1}))
    assert component_vector(2, 2, 2).entries == (P({0: 2, 1: 1}), P({2: 2}))
    assert component_vector(2, 3, 1).entries[0] == P({0: 3})


def test_multinomial_count_poly_matches_enumeration():
    for p in (2, 3):
        for k in (2, 3):
            for n in range(16):
                counts = {}
                for mtuple in compositions(n, k):
                    v = factorial_valuation(n, p) - sum(
                        factorial_valuation(m, p) for m in mtuple)
                    counts[v] = counts.get(v, 0) + 1
                assert multinomial_count_poly(p, k, n) == ValPoly(counts), (p, k, n)


def test_residue_split_identity_ideal(lucas52, eds150, naturals, profile_of):
    # Splitting the index as alpha * n' + r turns the count into
    # (r+1) * component_0(n') + (alpha-r-1) * x^(s-1) * component_1(n').
    for spec, p, nmax in [(lucas52, 7, 30), (eds150, 2, 20), (naturals, 3, 30)]:
        prof = profile_of(spec, p)
        alpha, s = prof.alpha, prof.s
        table = corial_valuation_table(spec, p, alpha * nmax + alpha - 1)
        for nprime in range(nmax + 1):
            comp = component_vector(p, 2, nprime)
            for r in range(alpha):
                lhs = brute_generating_poly(spec, p, 2, alpha * nprime + r, _table=table)
                rhs = (ValPoly({0: r + 1}) * comp.entries[0]
                       + ValPoly({s - 1: alpha - r - 1}) * comp.entries[1])
                assert lhs == rhs, (spec.selector, p, nprime, r)


def test_acceptable_contraction_identity(fib, profile_of):
    # Contracting the acceptable initial vector with the component column
    # reproduces the brute-force count at alpha(p^s) * n' + r.
    from cnomial.initvec import vector_for

    prof = profile_of(fib, 2)
    base = prof.stable_modulus
    for k in (2, 3):
        table = corial_valuation_table(fib, 2, 60)
        for n in range(61):
            nprime, r = divmod(n, base)
            got = row_vec_mul(vector_for(prof, k, r), component_vector(2, k, nprime))
            assert got == brute_generating_poly(fib, 2, k, n, _table=table), (k, n)


def test_terms_prefix_matches_term(lucas52):
    assert terms_prefix(lucas52, 8) == [term(lucas52, n) for n in range(1, 9)]


def _sweep_matches_enumeration(spec, p, k, n_max):
    # Enumeration at every n it can afford quickly, and always at n_max.
    table = corial_valuation_table(spec, p, n_max)
    sweep = list(generating_polys(spec, p, k, n_max, table))
    assert len(sweep) == n_max + 1
    for n in range(n_max + 1):
        if n == n_max or comb(n + k - 1, k - 1) <= 2000:
            assert sweep[n] == brute_generating_poly(spec, p, k, n, _table=table), (p, k, n)


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(valid_lucas),
       st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(2, 5), st.integers(0, 30))
def test_convolution_matches_enumeration_lucas(params, p, k, n_max):
    _sweep_matches_enumeration(LucasSpec(*params), p, k, n_max)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_convolution_matches_enumeration_eds(eds150, p, k):
    _sweep_matches_enumeration(eds150, p, k, 30)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.lists(st.integers(1, 4), min_size=0, max_size=3),
       st.sampled_from([2, 3, 5, 7]), st.integers(2, 5), st.integers(0, 30))
def test_convolution_matches_enumeration_chains(make_chain_spec, first, factors, p, k, n_max):
    chain = [first]
    for f in factors:
        chain.append(chain[-1] * f)
    _sweep_matches_enumeration(make_chain_spec(tuple(chain), 40, p=p), p, k, n_max)


def _literal_table(terms, p, n_max):
    # Valuations of the literal term products C_1 * ... * C_n: for a
    # sequence that is not strong divisibility these need not come from
    # an apparition chain, and a C-binomial's valuation can go negative.
    table = [0]
    for t in terms[:n_max]:
        table.append(table[-1] + valuation(t, p))
    return table


@pytest.mark.parametrize("terms, p, first_bad", [
    (tuple(range(2, 40)), 2, 2),                  # C_n = n + 1: 3 / (2 * 2)
    ((1, 2) + (1,) * 36, 2, 4),                   # only C_2 is even
    ((1, 1, 3, 1, 1, 3, 1, 1, 1) + (1,) * 29, 3, 9),    # 3 | C_3, C_6 but not C_9
])
def test_non_sds_raises_at_the_same_first_n(terms, p, first_bad):
    spec = FileBackedSpec(terms, name="not-sds")
    n_max = 20
    table = _literal_table(terms, p, n_max)
    for k in (2, 3, 4):
        sweep = generating_polys(spec, p, k, n_max, table)
        for n in range(first_bad):
            assert next(sweep) == brute_generating_poly(spec, p, k, n, _table=table)
        with pytest.raises(StrongDivisibilityError):
            next(sweep)
        with pytest.raises(StrongDivisibilityError):
            brute_generating_poly(spec, p, k, first_bad, _table=table)


def test_work_limits_refuse_before_any_work(fib):
    # Neither call may build a corial table of this size or start work.
    with pytest.raises(WorkLimitError, match="enumeration refused"):
        brute_generating_poly(fib, 2, 4, 10 ** 12)
    with pytest.raises(WorkLimitError, match="sweep refused"):
        generating_polys(fib, 2, 2, 10 ** 12)
    assert issubclass(WorkLimitError, ValueError)
    # The bounds themselves: the last size accepted and the first refused.
    n = 4470                                   # C(4472, 2) = 9,997,156
    assert comb(n + 2, 2) <= oracle.MAX_TUPLES < comb(n + 3, 2)
    table = corial_valuation_table(fib, 2, n + 1)
    with pytest.raises(WorkLimitError):
        brute_generating_poly(fib, 2, 3, n + 1, _table=table)
    n_max = 7071                               # 2 * 7071^2 = 99,997,082
    assert 2 * n_max ** 2 <= oracle.MAX_SWEEP_STEPS < 2 * (n_max + 1) ** 2
    with pytest.raises(WorkLimitError):
        generating_polys(fib, 2, 2, n_max + 1)
    assert next(generating_polys(fib, 2, 2, n_max, [0] * (n_max + 1))) == ValPoly.one()
