import json
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cnomial import engine, oracle, transfer
from cnomial.apparition import PrimeClass, classify, is_prime
from cnomial.engine import (
    EvalPath,
    NormalizationError,
    _column,
    base_digits,
    eval_generating_poly,
    linear_representation,
    unit_column,
)
from cnomial.polyarith import PolyVector, ValPoly, mat_vec_mul, slot_width, unpack
from cnomial.seqcore import InsufficientTermsError, LucasSpec
from cnomial.transfer import digit_matrices, multinomial_matrix

from conftest import valid_lucas
from reference import component_vector, digit_sum

P = ValPoly


def test_base_digits():
    assert base_digits(2, 2) == [0, 1]
    assert base_digits(1, 7) == [1]
    assert base_digits(0, 5) == []
    assert base_digits(25, 3) == [1, 2, 2]


def test_golden_lucas(lucas52):
    res = eval_generating_poly(lucas52, classify(lucas52, 7), 2, 12)
    assert res.polynomial == P({0: 10, 2: 3})
    assert res.path is EvalPath.IDEAL
    assert res.decomposition == (8, 1, 4, (1,))


def test_golden_fibonacci(fib):
    res = eval_generating_poly(fib, classify(fib, 2), 2, 13)
    assert res.polynomial == P({0: 4, 1: 2, 3: 4, 4: 4})
    assert res.path is EvalPath.ACCEPTABLE
    assert res.decomposition == (6, 2, 1, (0, 1))


def test_golden_eds(eds14):
    res = eval_generating_poly(eds14, classify(eds14, 2), 2, 12)
    assert res.polynomial == P({0: 6, 1: 3, 2: 4})
    assert res.path is EvalPath.IDEAL
    assert res.decomposition == (5, 2, 2, (0, 1))


def test_golden_naturals(naturals):
    res = eval_generating_poly(naturals, classify(naturals, 2), 2, 4)
    assert res.polynomial == P({0: 2, 1: 1, 2: 2})


def test_oracle_equivalence_spot(fib, lucas31, naturals, eds150):
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


def test_normalization(fib):
    prof = classify(fib, 2)
    for k in (2, 3, 4):
        for n in (0, 1, 17, 64, 123):
            poly = eval_generating_poly(fib, prof, k, n).polynomial
            assert poly.eval_at_one() == comb(n + k - 1, k - 1)


def test_naturals_reduction(naturals):
    # With C_n = n the result must be the classical multinomial count,
    # computed here directly from base-p digit sums.
    for p in (2, 3):
        prof = classify(naturals, p)
        for n in range(61):
            got = eval_generating_poly(naturals, prof, 2, n).polynomial
            counts = {}
            for m in range(n + 1):
                e = (digit_sum(m, p) + digit_sum(n - m, p) - digit_sum(n, p)) // (p - 1)
                counts[e] = counts.get(e, 0) + 1
            assert got == ValPoly(counts), (p, n)


def test_zero_valuation_count_is_digit_product(naturals):
    # Tuples with valuation zero: product of (digit + 1) over the digits of n.
    for p in (2, 3, 5):
        prof = classify(naturals, p)
        for n in range(81):
            poly = eval_generating_poly(naturals, prof, 2, n).polynomial
            expected = 1
            for d in base_digits(n, p):
                expected *= d + 1
            assert poly.coefficient(0) == expected, (p, n)


def carry_free(profile, k, n):
    """C(t+k-1, k-1) multiplied over the digits t of n in the mixed radix
    alpha(p), alpha(p^2)/alpha(p), ..., then p forever at an ideal or
    acceptable prime, else one top digit."""
    count, place = 1, 1
    levels = profile.alpha_powers[:profile.s]
    if profile.prime_class is PrimeClass.UNACCEPTABLE:
        levels = profile.alpha_powers
    for a in levels:
        count *= comb(n // place % (a // place) + k - 1, k - 1)
        place = a
    top = n // place
    tail = profile.prime_class in (PrimeClass.IDEAL, PrimeClass.ACCEPTABLE)
    for t in base_digits(top, profile.p) if tail else [top]:
        count *= comb(t + k - 1, k - 1)
    return count


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["ideal", "acceptable", "trivial", "stored"]), st.integers(2, 6),
       st.integers(0, 10 ** 60), st.integers(0, 60))
def test_constant_term_counts_carry_free_compositions(make_chain_spec, path, k, n, n_max):
    # Every path and the sweep: the compositions of n with valuation 0 are
    # those with no carry in the mixed radix of the chain.
    spec, p = {"ideal": (LucasSpec(5, -2), 7), "acceptable": (LucasSpec(1, -1), 2),
               "trivial": (LucasSpec(1, 2), 2),
               "stored": (make_chain_spec((1,) * 14 + (3, 3), 70), 2)}[path]
    prof = classify(spec, p)
    if path == "stored":
        n %= 72                     # the stored terms fix N < 72
    res = eval_generating_poly(spec, prof, k, n)
    assert res.path.name == path.upper()
    assert res.polynomial.coefficient(0) == carry_free(prof, k, n)
    for m, res in enumerate(engine.eval_sweep(spec, prof, k, n_max)):
        assert res.polynomial.coefficient(0) == carry_free(prof, k, m), m


def test_carry_free_check_catches_a_lost_shift(fib, monkeypatch):
    # A digit step that leaves row 1 unshifted moves coefficients between
    # exponents, so their sum holds; the constant term does not.
    real = engine._step

    def unshifted(rows, column, shifts):
        return real(rows, column, [0 if row == 1 else s for row, s in enumerate(shifts)])

    monkeypatch.setattr(engine, "_step", unshifted)
    n = 10 ** 20 + 7
    with pytest.raises(NormalizationError, match="normalization broken: the constant term"):
        eval_generating_poly(fib, classify(fib, 2), 3, n)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(2, 6), st.sampled_from([8, 24, 64]),
       st.lists(st.one_of(st.just(0), st.integers(0, 2 ** 300)), min_size=6, max_size=6))
def test_step_matches_the_dense_product(p, k, width, column):
    column = column[:k]
    shifts = [row * width for row in range(k)]
    for d in range(p):
        rows = transfer.digit_counts(p, k, d)
        assert engine._step(rows, column, shifts) == [
            sum(c * v for c, v in zip(row, column)) << s for row, s in zip(rows, shifts)], d


def test_no_apparition_trivial():
    spec = LucasSpec(1, 2)
    prof = classify(spec, 2)
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
        assert res.path is EvalPath.STORED
        assert res.polynomial == oracle.brute_generating_poly(spec, 2, 2, n)


def test_force_path_errors(fib, lucas52):
    # linear_representation accepts force_path=None or "acceptable" only.
    for prof in (classify(fib, 2), classify(lucas52, 7)):
        for force in ("ideal", "auto", "sideways"):
            with pytest.raises(ValueError, match="unknown path"):
                linear_representation(prof, 2, force_path=force)
    for name in ("eval_generating_poly", "eval_sweep"):
        with pytest.raises(TypeError):
            getattr(engine, name)(fib, classify(fib, 2), 2, 5, force_path="acceptable")


@pytest.mark.parametrize("k, n, err", [(1, 3, "k must be >= 2, got 1"),
                                       (2, -1, "n must be >= 0, got -1"),
                                       (1, -1, "k must be >= 2, got 1")])
def test_argument_errors(fib, k, n, err):
    # One N raises at the call; a sweep raises at its first next(), naming
    # n_max, and k is checked before the index in both.  The oracle checks
    # the same arguments with the same messages, its sweep at the call.
    prof = classify(fib, 2)
    with pytest.raises(ValueError) as raised:
        eval_generating_poly(fib, prof, k, n)
    assert str(raised.value) == err
    sweep = engine.eval_sweep(fib, prof, k, n)
    with pytest.raises(ValueError) as raised:
        next(sweep)
    assert str(raised.value) == err.replace("n must", "n_max must")
    with pytest.raises(ValueError) as raised:
        oracle.brute_generating_poly(fib, 2, k, n)
    assert str(raised.value) == err
    with pytest.raises(ValueError) as raised:
        oracle.generating_polys(fib, 2, k, n)
    assert str(raised.value) == err.replace("n must", "n_max must")


def test_force_path_acceptable_is_inert(fib, lucas52):
    # An ideal prime (Lucas(5,-2) at 7) and an acceptable one (Fibonacci at 2).
    for spec, p in [(lucas52, 7), (fib, 2)]:
        prof = classify(spec, p)
        for k in (2, 3):
            plain = json.dumps(linear_representation(prof, k).to_json_dict(), sort_keys=True)
            forced = linear_representation(prof, k, force_path="acceptable")
            assert json.dumps(forced.to_json_dict(), sort_keys=True) == plain, (spec.selector, k)



def test_linear_representation_fibonacci(fib):
    prof = classify(fib, 2)
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
    for r in (-1, 6):
        with pytest.raises(ValueError) as raised:
            rep.evaluate(0, r)
        assert str(raised.value) == f"residue {r} not in [0, 6)"


def test_linear_representation_naturals(naturals):
    rep = linear_representation(classify(naturals, 3), 2)
    assert rep.modulus == 3
    assert rep.residue_vectors[0].entries == (P({0: 1}), P({0: 2}))
    assert rep.residue_vectors[1].entries == (P({0: 2}), P({0: 1}))
    assert rep.residue_vectors[2].entries == (P({0: 3}), ValPoly.zero())


def test_linear_representation_lucas_example(lucas52):
    rep = linear_representation(classify(lucas52, 7), 2)
    assert rep.evaluate(1, 4) == P({0: 10, 2: 3})


def test_linear_representation_errors(make_chain_spec):
    with pytest.raises(ValueError):
        linear_representation(classify(LucasSpec(1, 2), 2), 2)
    unacc = classify(make_chain_spec((1, 2, 6, 18, 54), 60), 2, kmax=5)
    with pytest.raises(ValueError):
        linear_representation(unacc, 2)


def test_linear_representation_json_shape(fib):
    data = linear_representation(classify(fib, 2), 2).to_json_dict()
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


def packed_apply(p, k, n):
    # The packed column after the digits of n, at the slot width an answer
    # at index n uses, unpacked into polynomials.
    width = slot_width(comb(n + k - 1, k - 1))
    return PolyVector.column(*(unpack(v, width) for v in _column(p, k, base_digits(n, p), width)))


def test_packed_loop_matches_factorial_oracle():
    # The column after the digits of n is the column of tuple-counting
    # polynomials at n, built from factorial valuations only.
    for p in (2, 3, 5, 7):
        for k in (2, 3, 4):
            for n in range(40 if k < 4 else 25):
                assert packed_apply(p, k, n) == component_vector(p, k, n), (p, k, n)


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
    assert packed_apply(p, k, n) == generic_apply(p, k, base_digits(n, p)), case


def test_packed_loop_slot_width_edge(naturals):
    # The widest coefficients relative to the slot: large p and k, 30 base-p
    # digits, all maximal or mixed.
    p, k = 101, 6
    for n in (p**30 - 1, p**29, 3 * p**29 + 17 * p**11 + 100):
        digits = base_digits(n, p)
        assert len(digits) == 30
        got = packed_apply(p, k, n)
        assert got == generic_apply(p, k, digits)
        assert got.entries[0].eval_at_one() == comb(n + k - 1, k - 1)
    # A packed answer whose one coefficient equals the width bound: for the
    # naturals at p = 2, k = 2 and N = 2^L - 1 no binomial C(N, m) is even,
    # so the answer is (N+1)*x^0 = C(N+1, 1)*x^0.  With L+1 a multiple of 8
    # that coefficient fills its slot; with L a multiple of 8 it needs one
    # more byte than the columns, whose coefficients sum to at most
    # C(N//2 + 1, 1) = 2^(L-1).
    for bits in (7, 8, 63, 64, 199, 200):
        n = 2 ** bits - 1
        res = eval_generating_poly(naturals, classify(naturals, 2), 2, n)
        assert res.polynomial == P({0: n + 1}), bits


def test_packed_loop_builds_no_polynomial_per_digit(fib, monkeypatch):
    # Counted rather than timed: the polynomials built for one query do not
    # depend on the number of digits.  Both indices have residue 1 mod 6, so
    # they share the initial vector.
    prof = classify(fib, 2)
    init = ValPoly.__init__
    built = [0]

    def counted_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ValPoly, "__init__", counted_init)
    # The answer is contracted on packed integers, not by row_vec_mul.
    monkeypatch.setattr(engine, "row_vec_mul", None)
    counts = []
    for n in (6 * 10**20 + 1, 6 * 10**80 + 1):
        built[0] = 0
        eval_generating_poly(fib, prof, 5, n)
        counts.append(built[0])
    assert counts[0] == counts[1]


_SWEPT = st.one_of(
    st.tuples(st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(valid_lucas),
              st.sampled_from([2, 3, 5, 7, 11, 13])),
    st.tuples(st.none(), st.sampled_from([2, 3, 5, 7])),    # the EDS file's classified primes
)


@settings(max_examples=60, deadline=None)
@given(_SWEPT, st.integers(2, 6), st.integers(0, 60))
def test_engine_and_oracle_pack_at_one_width(eds150, drawn, k, n_max):
    # verify compares the engine's packed answers with the oracle's bands as
    # integers, which compares their polynomials only at one slot width.
    params, p = drawn
    spec = eds150 if params is None else LucasSpec(*params)
    prof = classify(spec, p)
    width, bands = oracle._sweep(spec, p, k, n_max)
    assert width == engine._width(k, n_max)
    answers = [packed for packed, _, _ in engine._answers(spec, prof, k, 0, n_max, "n_max")]
    assert [unpack(a, width) for a in answers] == [
        res.polynomial for res in engine.eval_sweep(spec, prof, k, n_max)]
    bands = list(bands)
    assert [unpack(b, width) for b in bands] == list(oracle.generating_polys(spec, p, k, n_max))
    assert answers == bands


def test_normalization_failure_is_typed(lucas52, monkeypatch):
    real = engine._column

    def bumped(p, k, digits, width):
        return [v + 1 for v in real(p, k, digits, width)]

    monkeypatch.setattr(engine, "_column", bumped)
    with pytest.raises(NormalizationError, match="normalization broken"):
        eval_generating_poly(lucas52, classify(lucas52, 7), 2, 12)
    assert issubclass(NormalizationError, ArithmeticError)


def test_indices_below_the_modulus(fib, lucas52, naturals, eds150):
    # n < modulus leaves no base-p digit: the column is e^T itself, and the
    # answer is entry 0 of the residue vector, as the exported data says.
    assert _column(7, 4, [], 8) == [1, 0, 0, 0]
    for spec, p in [(fib, 2), (lucas52, 7), (naturals, 5), (eds150, 2)]:
        prof = classify(spec, p)
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
def test_eval_sweep_matches_per_n(name, p, k, n_max, request):
    spec = request.getfixturevalue(name)
    prof = classify(spec, p)
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
    # The sweep at an unacceptable prime reads the stored chain; enumeration
    # there would cost C(n+k, k) tuples over the whole sweep.  The 60 terms
    # fix every level at or below n while n < 54 * 2.
    unacc = make_chain_spec((1, 2, 6, 18, 54), 60)
    prof = classify(unacc, 2, kmax=5)
    want = [eval_generating_poly(unacc, prof, 3, n) for n in range(108)]

    def refuse(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(oracle, "compositions", refuse)
    assert list(engine.eval_sweep(unacc, prof, 3, 40)) == want[:41]
    sweep = engine.eval_sweep(unacc, prof, 3, 10 ** 6)
    assert [next(sweep) for _ in range(108)] == want
    with pytest.raises(InsufficientTermsError, match="only for N < 108, not N = 108"):
        next(sweep)
    with pytest.raises(InsufficientTermsError, match="only for N < 108, not N = 108"):
        eval_generating_poly(unacc, prof, 3, 108)


def test_eval_sweep_builds_one_vector_per_residue(fib, monkeypatch):
    # ... and one digit step per quotient q >= 1, from the column of q // 2.
    calls, steps = [], []
    real, real_step = engine.initvec.row, engine._step

    def counted(levels, k, r):
        calls.append(r)
        return real(levels, k, r)

    def counted_step(rows, column, shifts):
        steps.append(rows)
        return real_step(rows, column, shifts)

    monkeypatch.setattr(engine.initvec, "row", counted)
    monkeypatch.setattr(engine, "_step", counted_step)
    prof = classify(fib, 2)
    assert len(list(engine.eval_sweep(fib, prof, 3, 200))) == 201
    assert sorted(calls) == list(range(prof.stable_modulus))
    assert len(steps) == 200 // prof.stable_modulus


def test_eval_sweep_normalization_at_the_same_n(lucas52, monkeypatch):
    # A residue vector that is wrong for r = 5 only: the sweep yields every
    # n before the first n = 5 (mod 8) and raises there, as per-n calls do.
    real = engine.initvec.row

    def corrupt(levels, k, r):
        u = real(levels, k, r)
        if r != 5:
            return u
        return [e + ValPoly.one() for e in u]

    monkeypatch.setattr(engine.initvec, "row", corrupt)
    prof = classify(lucas52, 7)
    sweep = engine.eval_sweep(lucas52, prof, 2, 40)
    assert [next(sweep).decomposition[2] for _ in range(5)] == [0, 1, 2, 3, 4]
    with pytest.raises(NormalizationError):
        next(sweep)
    with pytest.raises(NormalizationError):
        eval_generating_poly(lucas52, prof, 2, 5)


@st.composite
def stored_unacceptable(draw):
    # A divisor chain with ratios 1-6 (1 included) read from a file, and a
    # kmax at whose last ratio the chain still differs from p, so the
    # profile is unacceptable and may keep fewer levels than the file holds.
    p = draw(st.sampled_from([2, 3, 5, 7]))
    chain = [draw(st.integers(1, 6))]
    for _ in range(draw(st.integers(1, 4))):
        ratio = draw(st.integers(1, 6))
        if chain[-1] * ratio <= 30:
            chain.append(chain[-1] * ratio)
    kmax = draw(st.integers(2, max(2, len(chain))))
    ratios = [chain[0]] + [b // a for a, b in zip(chain, chain[1:])]
    assume(kmax <= len(chain) and ratios[kmax - 1] != p)
    terms = draw(st.integers(chain[-1], 40))
    return tuple(chain), terms, p, kmax, draw(st.integers(2, 4))


@settings(max_examples=40, deadline=None)
@given(stored_unacceptable())
def test_stored_chain_matches_enumeration(make_chain_spec, case):
    chain, terms, p, kmax, k = case
    spec = make_chain_spec(chain, terms, p=p)
    prof = classify(spec, p, kmax=kmax)
    assert prof.prime_class is PrimeClass.UNACCEPTABLE
    # The next level is a multiple of chain[-1] above the stored terms, so
    # the terms fix every answer below the next such multiple.  A file that
    # reaches just below it holds the same chain and gives the oracle the
    # terms it reads.
    bound = chain[-1] * (terms // chain[-1] + 1)
    longer = make_chain_spec(chain, bound - 1, p=p)
    table = oracle.corial_valuation_table(longer, p, bound - 1)
    want = [oracle.brute_generating_poly(longer, p, k, n, _table=table) for n in range(bound)]
    got = [eval_generating_poly(spec, prof, k, n) for n in range(bound)]
    assert [res.polynomial for res in got] == want, case
    assert {res.path for res in got} == {EvalPath.STORED}
    assert list(engine.eval_sweep(spec, prof, k, bound - 1)) == got
    with pytest.raises(InsufficientTermsError):
        eval_generating_poly(spec, prof, k, bound)
    sweep = engine.eval_sweep(spec, prof, k, bound)
    assert [next(sweep) for _ in range(bound)] == got
    with pytest.raises(InsufficientTermsError):
        next(sweep)


def test_stored_chain_reads_levels_past_the_profile(make_chain_spec):
    # Seventeen levels stored, sixteen classified: the profile's chain
    # would give 3 + 4*x^2 at N = 6, with the right coefficient sum.
    spec = make_chain_spec((1,) * 14 + (3, 3, 6), 60)
    prof = classify(spec, 2)
    assert (prof.prime_class, len(prof.alpha_powers)) == (PrimeClass.UNACCEPTABLE, 16)
    want = P({0: 2, 1: 1, 3: 4})
    assert want == oracle.brute_generating_poly(spec, 2, 2, 6)
    assert eval_generating_poly(spec, prof, 2, 6).polynomial == want
    assert list(engine.eval_sweep(spec, prof, 2, 6))[6].polynomial == want


def test_digit_counts_cache_is_bounded(naturals):
    # alpha(p) = p for the naturals: every residue of a sweep keys its own
    # first-level carry step.
    p = 4099
    assert p > transfer.DIGIT_COUNTS_CACHE
    prof = classify(naturals, p)
    for res in engine.eval_sweep(naturals, prof, 2, p - 1):
        pass
    assert res.decomposition == (p, 0, p - 1, ())
    assert transfer.digit_counts.cache_info().currsize <= transfer.DIGIT_COUNTS_CACHE
