import random
from itertools import product

import pytest

from cnomial.engine import base_digits
from cnomial.oracle import component_vector, digit_sum, factorial_valuation
from cnomial.polyarith import PolyMatrix, PolyVector, ValPoly, mat_vec_mul
from cnomial.transfer import digit_sum_count, multinomial_matrix

P = ValPoly


def binomial_matrix(p, d):
    # The k = 2 digit matrix written out: [[d+1, p-d-1], [d*x, (p-d)*x]].
    if not 0 <= d < p:
        raise ValueError(f"digit {d} out of range for base {p}")
    return PolyMatrix((
        (ValPoly({0: d + 1}), ValPoly({0: p - d - 1})),
        (ValPoly({1: d}), ValPoly({1: p - d})),
    ))


def brute_digit_sum_count(k, base, t):
    return sum(1 for tup in product(range(base), repeat=k) if sum(tup) == t)


def test_digit_sum_count_examples():
    assert digit_sum_count(2, 7, 1) == 2
    assert digit_sum_count(2, 7, 8) == 5
    assert digit_sum_count(2, 7, -1) == 0
    assert digit_sum_count(3, 2, 2) == 3 == brute_digit_sum_count(3, 2, 2)
    assert digit_sum_count(2, 7, 13) == 0  # above k*(base-1)


def test_digit_sum_count_matches_enumeration():
    for k in range(1, 5):
        for base in range(1, 6):
            for t in range(-2, k * (base - 1) + 3):
                assert digit_sum_count(k, base, t) == brute_digit_sum_count(k, base, t), (k, base, t)


def test_digit_sum_count_validation():
    with pytest.raises(ValueError):
        digit_sum_count(0, 2, 1)
    with pytest.raises(ValueError):
        digit_sum_count(2, 0, 1)


def test_binomial_matrix_examples():
    assert binomial_matrix(7, 0).entries == (
        (P({0: 1}), P({0: 6})),
        (ValPoly.zero(), P({1: 7})),
    )
    assert binomial_matrix(7, 6).entries == (
        (P({0: 7}), ValPoly.zero()),
        (P({1: 6}), P({1: 1})),
    )
    assert binomial_matrix(2, 1).entries == (
        (P({0: 2}), ValPoly.zero()),
        (P({1: 1}), P({1: 1})),
    )
    with pytest.raises(ValueError):
        binomial_matrix(7, 7)
    with pytest.raises(ValueError):
        binomial_matrix(7, -1)


def test_multinomial_matrix_k2_reduces_to_binomial():
    for p in (2, 3, 5, 7, 11, 13):
        for d in range(p):
            assert multinomial_matrix(p, 2, d) == binomial_matrix(p, d), (p, d)


def test_multinomial_matrix_p2_k3_d0():
    assert multinomial_matrix(2, 3, 0).entries == (
        (P({0: 1}), P({0: 3}), ValPoly.zero()),
        (ValPoly.zero(), P({1: 3}), P({1: 1})),
        (ValPoly.zero(), P({2: 1}), P({2: 3})),
    )


def test_digit_zero_matrix_fixes_unit_column():
    for p in (2, 3, 5):
        for k in (2, 3, 4):
            e = PolyVector.column(ValPoly.one(), *(ValPoly.zero(),) * (k - 1))
            assert mat_vec_mul(multinomial_matrix(p, k, 0), e) == e


def test_row_residue_class_sums():
    # Entries of one row at x = 1 cover a full residue class of digit sums.
    for p in (2, 3, 5):
        for k in (2, 3, 4):
            for d in range(p):
                for lam in range(k):
                    total = sum(digit_sum_count(k, p, d - lam + mu * p) for mu in range(k))
                    assert total == p ** (k - 1), (p, k, d, lam)


def test_defining_identity_random_sample():
    rng = random.Random(7321)
    for p in (2, 3, 5):
        for k in (2, 3, 4):
            for _ in range(12):
                d = rng.randrange(p)
                n = rng.randrange(41)
                lhs = mat_vec_mul(multinomial_matrix(p, k, d), component_vector(p, k, n))
                rhs = component_vector(p, k, p * n + d)
                assert lhs == rhs, (p, k, d, n)


def _binomial_count_polys(p, n):
    # Reference column entries for the naturals, from digit sums alone.
    top = {}
    for m in range(n + 1):
        e = (digit_sum(m, p) + digit_sum(n - m, p) - digit_sum(n, p)) // (p - 1)
        top[e] = top.get(e, 0) + 1
    bottom = {}
    for m in range(n):
        e = 1 + factorial_valuation(n, p) - factorial_valuation(m, p) - factorial_valuation(n - 1 - m, p)
        bottom[e] = bottom.get(e, 0) + 1
    return ValPoly(top), ValPoly(bottom)


def test_partial_product_matches_binomial_counts():
    # The 2x2 product over the digits of n applied to (1, 0)^T yields the
    # valuation counts of row n of the binomial triangle (top entry) and of
    # 1 + valuation of n * previous-row entries (bottom entry).
    for p in (2, 3, 5, 7):
        for n in range(201):
            v = PolyVector.column(ValPoly.one(), ValPoly.zero())
            for d in reversed(base_digits(n, p)):
                v = mat_vec_mul(binomial_matrix(p, d), v)
            top, bottom = _binomial_count_polys(p, n)
            assert v.entries[0] == top, (p, n)
            assert v.entries[1] == bottom, (p, n)


def test_matrix_entry_counts_are_complete():
    # Summing every entry at x = 1 counts each digit tuple once per row.
    for p in (2, 3, 5):
        for k in (2, 3):
            for d in range(p):
                m = multinomial_matrix(p, k, d)
                total = sum(e.eval_at_one() for row in m.entries for e in row)
                assert total == k * p ** (k - 1)
