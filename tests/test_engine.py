import json
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnomial import engine, oracle
from cnomial.apparition import classify, is_prime
from cnomial.engine import (
    EvalPath,
    NormalizationError,
    _matrix_product_apply,
    base_digits,
    decompose,
    eval_generating_poly,
    linear_representation,
    unit_column,
)
from cnomial.oracle import digit_sum
from cnomial.polyarith import PolyVector, ValPoly, mat_vec_mul
from cnomial.seqcore import LucasSpec
from cnomial.transfer import digit_matrices, multinomial_matrix

P = ValPoly


def test_base_digits():
    assert base_digits(2, 2) == [0, 1]
    assert base_digits(1, 7) == [1]
    assert base_digits(0, 5) == []
    assert base_digits(25, 3) == [1, 2, 2]


def test_decompose():
    assert decompose(12, 8) == (1, 4)
    assert decompose(13, 6) == (2, 1)
    assert decompose(12, 5) == (2, 2)
    assert decompose(7, 1) == (7, 0)


def test_golden_lucas(lucas52, profile_of):
    res = eval_generating_poly(lucas52, profile_of(lucas52, 7), 2, 12)
    assert res.polynomial == P({0: 10, 2: 3})
    assert res.path is EvalPath.IDEAL
    assert res.decomposition == (8, 1, 4, (1,))


def test_golden_fibonacci(fib, profile_of):
    res = eval_generating_poly(fib, profile_of(fib, 2), 2, 13)
    assert res.polynomial == P({0: 4, 1: 2, 3: 4, 4: 4})
    assert res.path is EvalPath.ACCEPTABLE
    assert res.decomposition == (6, 2, 1, (0, 1))


def test_golden_eds(eds14, profile_of):
    res = eval_generating_poly(eds14, profile_of(eds14, 2), 2, 12)
    assert res.polynomial == P({0: 6, 1: 3, 2: 4})
    assert res.path is EvalPath.IDEAL
    assert res.decomposition == (5, 2, 2, (0, 1))


def test_golden_naturals(naturals, profile_of):
    res = eval_generating_poly(naturals, profile_of(naturals, 2), 2, 4)
    assert res.polynomial == P({0: 2, 1: 1, 2: 2})


def test_oracle_equivalence_spot(fib, lucas31, naturals, eds150, profile_of):
    cases = [(fib, 2), (fib, 3), (lucas31, 2), (naturals, 5), (eds150, 2),
             (LucasSpec(1, 3), 2)]
    for spec, p in cases:
        prof = classify(spec, p)
        table = oracle.corial_valuation_table(spec, p, 60)
        for k in (2, 3):
            for n in range(0, 61, 3):
                got = eval_generating_poly(spec, prof, k, n).polynomial
                want = oracle.brute_generating_poly(spec, p, k, n, _table=table)
                assert got == want, (spec.selector, p, k, n)


def test_leading_zero_insensitive():
    # A most-significant zero digit puts one more M(0) next to e^T; since
    # M(0) fixes e^T the accumulated product is unchanged.
    for p, k in [(2, 2), (3, 3), (5, 2)]:
        assert mat_vec_mul(multinomial_matrix(p, k, 0), unit_column(k)) == unit_column(k)
        digits = [1, 0, p - 1]
        acc1 = unit_column(k)
        for d in reversed(digits):
            acc1 = mat_vec_mul(multinomial_matrix(p, k, d), acc1)
        acc2 = unit_column(k)
        for d in reversed(digits + [0]):
            acc2 = mat_vec_mul(multinomial_matrix(p, k, d), acc2)
        assert acc1 == acc2


def test_normalization(fib, profile_of):
    prof = profile_of(fib, 2)
    for k in (2, 3, 4):
        for n in (0, 1, 17, 64, 123):
            poly = eval_generating_poly(fib, prof, k, n).polynomial
            assert poly.eval_at_one() == comb(n + k - 1, k - 1)


def test_naturals_reduction(naturals, profile_of):
    # With C_n = n the result must be the classical multinomial count,
    # computed here directly from base-p digit sums.
    for p in (2, 3):
        prof = profile_of(naturals, p)
        for n in range(61):
            got = eval_generating_poly(naturals, prof, 2, n).polynomial
            counts = {}
            for m in range(n + 1):
                e = (digit_sum(m, p) + digit_sum(n - m, p) - digit_sum(n, p)) // (p - 1)
                counts[e] = counts.get(e, 0) + 1
            assert got == ValPoly(counts), (p, n)


def test_zero_valuation_count_is_digit_product(naturals, profile_of):
    # Tuples with valuation zero: product of (digit + 1) over the digits of n.
    for p in (2, 3, 5):
        prof = profile_of(naturals, p)
        for n in range(81):
            poly = eval_generating_poly(naturals, prof, 2, n).polynomial
            expected = 1
            for d in base_digits(n, p):
                expected *= d + 1
            assert poly.coefficient(0) == expected, (p, n)


def test_no_apparition_trivial(profile_of):
    spec = LucasSpec(1, 2)
    prof = profile_of(spec, 2)
    for n in (0, 5, 100):
        res = eval_generating_poly(spec, prof, 2, n)
        assert res.path is EvalPath.TRIVIAL
        assert res.polynomial == P({0: n + 1})
    res = eval_generating_poly(spec, prof, 3, 6)
    assert res.polynomial == P({0: comb(8, 2)})


def test_unacceptable_falls_back_to_oracle(make_chain_spec):
    spec = make_chain_spec((1, 2, 6, 18, 54), 60)
    prof = classify(spec, 2, kmax=5)
    for n in (0, 7, 30):
        res = eval_generating_poly(spec, prof, 2, n)
        assert res.path is EvalPath.FALLBACK
        assert res.polynomial == oracle.brute_generating_poly(spec, 2, 2, n)


def test_force_path_errors(fib, lucas52, profile_of):
    # linear_representation accepts force_path=None or "acceptable" only.
    for prof in (profile_of(fib, 2), profile_of(lucas52, 7)):
        for force in ("ideal", "auto", "sideways"):
            with pytest.raises(ValueError, match="unknown path"):
                linear_representation(prof, 2, force_path=force)
    for name in ("eval_generating_poly", "eval_sweep"):
        with pytest.raises(TypeError):
            getattr(engine, name)(fib, profile_of(fib, 2), 2, 5, force_path="acceptable")


def test_force_path_acceptable_is_inert(fib, lucas52, profile_of):
    # An ideal prime (Lucas(5,-2) at 7) and an acceptable one (Fibonacci at 2).
    for spec, p in [(lucas52, 7), (fib, 2)]:
        prof = profile_of(spec, p)
        for k in (2, 3):
            plain = json.dumps(linear_representation(prof, k).to_json_dict(), sort_keys=True)
            forced = linear_representation(prof, k, force_path="acceptable")
            assert json.dumps(forced.to_json_dict(), sort_keys=True) == plain, (spec.selector, k)



def test_linear_representation_fibonacci(fib, profile_of):
    prof = profile_of(fib, 2)
    rep = linear_representation(prof, 2)
    assert rep.modulus == 6
    assert sorted(rep.residue_vectors) == [0, 1, 2, 3, 4, 5]
    assert sorted(rep.digit_matrices) == [0, 1]
    assert rep.final_vector == unit_column(2)
    assert rep.residue_vectors[1].entries == (P({0: 2}), P({1: 2, 2: 2}))
    for r in range(6):
        for n in range(21):
            assert rep.evaluate(n, r) == eval_generating_poly(
                fib, prof, 2, 6 * n + r).polynomial


def test_linear_representation_naturals(naturals, profile_of):
    rep = linear_representation(profile_of(naturals, 3), 2)
    assert rep.modulus == 3
    assert rep.residue_vectors[0].entries == (P({0: 1}), P({0: 2}))
    assert rep.residue_vectors[1].entries == (P({0: 2}), P({0: 1}))
    assert rep.residue_vectors[2].entries == (P({0: 3}), ValPoly.zero())


def test_linear_representation_lucas_example(lucas52, profile_of):
    rep = linear_representation(profile_of(lucas52, 7), 2)
    assert rep.evaluate(1, 4) == P({0: 10, 2: 3})


def test_linear_representation_errors(profile_of, make_chain_spec):
    with pytest.raises(ValueError):
        linear_representation(classify(LucasSpec(1, 2), 2), 2)
    unacc = classify(make_chain_spec((1, 2, 6, 18, 54), 60), 2, kmax=5)
    with pytest.raises(ValueError):
        linear_representation(unacc, 2)


def test_linear_representation_json_shape(fib, profile_of):
    data = linear_representation(profile_of(fib, 2), 2).to_json_dict()
    assert data["p"] == 2 and data["k"] == 2 and data["modulus"] == 6
    assert len(data["residue_vectors"]) == 6
    assert len(data["digit_matrices"]) == 2
    assert data["residue_vectors"]["1"] == [{"0": "2"}, {"1": "2", "2": "2"}]
    assert data["final_vector"] == [{"0": "1"}, {}]


def generic_apply(p, k, digits):
    # The reference: M(d_0) * ... * M(d_last) * e^T with generic polynomial
    # arithmetic over the exported digit matrices.
    v = unit_column(k)
    for d in reversed(digits):
        v = mat_vec_mul(digit_matrices(p, k)[d], v)
    return v


def test_packed_loop_matches_factorial_oracle():
    # The column after the digits of n is the column of tuple-counting
    # polynomials at n, built from factorial valuations only.
    for p in (2, 3, 5, 7):
        for k in (2, 3, 4):
            for n in range(40 if k < 4 else 25):
                got = _matrix_product_apply(p, k, base_digits(n, p))
                assert got == oracle.component_vector(p, k, n), (p, k, n)


PRIMES_TO_101 = [p for p in range(2, 102) if is_prime(p)]
LIMIT = 10**60


@st.composite
def prime_k_index(draw):
    p = draw(st.sampled_from(PRIMES_TO_101))
    k = draw(st.integers(2, 6))
    top = len(base_digits(LIMIT, p)) - 1          # p**top <= LIMIT
    n = draw(st.one_of(
        st.integers(0, LIMIT - 1),
        st.just(0),
        # every digit p - 1
        st.integers(1, top).map(lambda length: p**length - 1),
        # a long run of zero digits between a leading and a trailing digit
        st.builds(lambda lead, run, low: lead * p**run + low,
                  st.integers(1, p - 1), st.integers(1, top - 1), st.integers(0, p - 1)),
    ))
    return p, k, n


@settings(max_examples=60, deadline=None)
@given(prime_k_index())
def test_packed_loop_matches_generic_loop(case):
    p, k, n = case
    digits = base_digits(n, p)
    assert _matrix_product_apply(p, k, digits) == generic_apply(p, k, digits), case


def test_packed_loop_slot_width_edge():
    # The widest coefficients relative to the slot: large p and k, 30 base-p
    # digits, all maximal or mixed.
    p, k = 101, 6
    for n in (p**30 - 1, p**29, 3 * p**29 + 17 * p**11 + 100):
        digits = base_digits(n, p)
        assert len(digits) == 30
        got = _matrix_product_apply(p, k, digits)
        assert got == generic_apply(p, k, digits)
        assert got.entries[0].eval_at_one() == comb(n + k - 1, k - 1)


def test_packed_loop_builds_no_polynomial_per_digit(fib, profile_of, monkeypatch):
    # Counted rather than timed: the polynomials built for one query do not
    # depend on the number of digits.  Both indices have residue 1 mod 6, so
    # they share the initial vector.
    prof = profile_of(fib, 2)
    init = ValPoly.__init__
    built = [0]

    def counted_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ValPoly, "__init__", counted_init)
    counts = []
    for n in (6 * 10**20 + 1, 6 * 10**80 + 1):
        built[0] = 0
        eval_generating_poly(fib, prof, 5, n)
        counts.append(built[0])
    assert counts[0] == counts[1]


def test_normalization_failure_is_typed(lucas52, profile_of, monkeypatch):
    real = engine._matrix_product_apply

    def bumped(p, k, digits):
        v = real(p, k, digits)
        return PolyVector.column(*(e + ValPoly.one() for e in v.entries))

    monkeypatch.setattr(engine, "_matrix_product_apply", bumped)
    with pytest.raises(NormalizationError, match="normalization broken"):
        eval_generating_poly(lucas52, profile_of(lucas52, 7), 2, 12)
    assert issubclass(NormalizationError, ArithmeticError)


def test_indices_below_the_modulus(fib, lucas52, naturals, eds150, profile_of):
    # n < modulus leaves no base-p digit: the column is e^T itself, and the
    # answer is entry 0 of the residue vector, as the exported data says.
    assert _matrix_product_apply(7, 4, []) == unit_column(4)
    for spec, p in [(fib, 2), (lucas52, 7), (naturals, 5), (eds150, 2)]:
        prof = profile_of(spec, p)
        for k in (2, 3, 4):
            rep = linear_representation(prof, k)
            for r in range(rep.modulus):
                got = eval_generating_poly(spec, prof, k, r)
                assert got.decomposition[3] == ()
                assert got.polynomial == rep.evaluate(0, r), (spec.selector, p, k, r)


# The ids keep the case names the suite has always reported; their third
# field is a label only.
@pytest.mark.parametrize("name, p, k, n_max", [
    pytest.param("fib", 2, 2, 150, id="fib-2-None-2-150"),
    pytest.param("fib", 2, 4, 60, id="fib-2-acceptable-4-60"),
    pytest.param("fib", 3, 3, 90, id="fib-3-None-3-90"),
    pytest.param("lucas52", 7, 3, 130, id="lucas52-7-None-3-130"),
    pytest.param("lucas52", 7, 2, 130, id="lucas52-7-ideal-2-130"),
    pytest.param("lucas52", 7, 5, 70, id="lucas52-7-acceptable-5-70"),
    pytest.param("naturals", 3, 4, 80, id="naturals-3-ideal-4-80"),
    pytest.param("naturals", 3, 3, 80, id="naturals-3-acceptable-3-80"),
    pytest.param("eds150", 5, 4, 60, id="eds150-5-None-4-60"),
    pytest.param("eds150", 2, 2, 100, id="eds150-2-acceptable-2-100"),
    # n_max below the modulus: no quotient past 0.
    pytest.param("fib", 2, 3, 4, id="fib-2-None-3-4"),
    pytest.param("lucas52", 7, 3, 0, id="lucas52-7-ideal-3-0"),
    pytest.param("eds150", 7, 5, 8, id="eds150-7-None-5-8"),
])
def test_eval_sweep_matches_per_n(name, p, k, n_max, request, profile_of):
    spec = request.getfixturevalue(name)
    prof = profile_of(spec, p)
    got = list(engine.eval_sweep(spec, prof, k, n_max))
    want = [eval_generating_poly(spec, prof, k, n) for n in range(n_max + 1)]
    assert got == want     # polynomial, path and decomposition


def test_eval_sweep_other_classes_and_chains(make_chain_spec):
    noapp = LucasSpec(1, 2)
    unacc = make_chain_spec((1, 2, 6, 18, 54), 60)
    acc = make_chain_spec((2, 10, 50, 150), 150, p=3)
    for spec, p, kmax, k, n_max in [(noapp, 2, None, 3, 20), (unacc, 2, 5, 2, 25),
                                    (acc, 3, None, 3, 110)]:
        prof = classify(spec, p, kmax=kmax)
        got = list(engine.eval_sweep(spec, prof, k, n_max))
        assert got == [eval_generating_poly(spec, prof, k, n) for n in range(n_max + 1)]


def test_eval_sweep_unacceptable_does_not_enumerate(make_chain_spec, monkeypatch):
    # The sweep at an unacceptable prime convolves; enumeration there would
    # cost C(n+k, k) tuples over the whole sweep.
    unacc = make_chain_spec((1, 2, 6, 18, 54), 60)
    prof = classify(unacc, 2, kmax=5)
    want = [eval_generating_poly(unacc, prof, 3, n) for n in range(41)]

    def refuse(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(engine.oracle, "compositions", refuse)
    assert list(engine.eval_sweep(unacc, prof, 3, 40)) == want
    with pytest.raises(engine.oracle.WorkLimitError):
        next(engine.eval_sweep(unacc, prof, 3, 10 ** 6))


def test_eval_sweep_builds_one_vector_per_residue(fib, profile_of, monkeypatch):
    calls = []
    real = engine.initvec.vector_for

    def counted(profile, k, r):
        calls.append(r)
        return real(profile, k, r)

    monkeypatch.setattr(engine.initvec, "vector_for", counted)
    prof = profile_of(fib, 2)
    assert len(list(engine.eval_sweep(fib, prof, 3, 200))) == 201
    assert sorted(calls) == list(range(prof.stable_modulus))


def test_eval_sweep_normalization_at_the_same_n(lucas52, profile_of, monkeypatch):
    # A residue vector that is wrong for r = 5 only: the sweep yields every
    # n before the first n = 5 (mod 8) and raises there, as per-n calls do.
    real = engine.initvec.vector_for

    def corrupt(profile, k, r):
        u = real(profile, k, r)
        if r != 5:
            return u
        return PolyVector.row(*(e + ValPoly.one() for e in u.entries))

    monkeypatch.setattr(engine.initvec, "vector_for", corrupt)
    prof = profile_of(lucas52, 7)
    sweep = engine.eval_sweep(lucas52, prof, 2, 40)
    assert [next(sweep).decomposition[2] for _ in range(5)] == [0, 1, 2, 3, 4]
    with pytest.raises(NormalizationError):
        next(sweep)
    with pytest.raises(NormalizationError):
        eval_generating_poly(lucas52, prof, 2, 5)
