"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every comparison is
exact (integer polynomials); the only tolerances are the wall-clock limits
stated inline.
"""

import io
import json
import time
from contextlib import contextmanager
from math import comb

from cnomial import cli, engine, oracle
from cnomial.apparition import PrimeClass, classify
from cnomial.engine import base_digits, eval_generating_poly
from cnomial.oracle import brute_generating_poly, corial_valuation_table
from cnomial.polyarith import ValPoly, mat_vec_mul
from cnomial.seqcore import LucasSpec, load_terms_file
from cnomial.transfer import multinomial_matrix

from conftest import EDS14_PATH, EDS150_PATH, poly_from_json
from reference import component_vector, digit_sum

FIB = LucasSpec(1, -1)
LUCAS52 = LucasSpec(5, -2)
LUCAS31 = LucasSpec(3, -1)
NATURALS = LucasSpec(2, 1)


@contextmanager
def criterion(num, description, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"criterion {num} took {elapsed:.2f}s, limit {limit_s}s"
    print(f"ACCEPTANCE {num} PASS: {description} ({elapsed:.2f}s)")


def run_cli(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), stdout=out)
    return code, out.getvalue()


def sweep_profiles():
    return [
        (FIB, 2), (FIB, 3), (FIB, 5),
        (LUCAS52, 7),
        (LUCAS31, 2), (LUCAS31, 3),
        (NATURALS, 2), (NATURALS, 3), (NATURALS, 5),
        (load_terms_file(str(EDS150_PATH)), 2),
    ]


def test_criterion_1_golden_lucas():
    with criterion(1, "eval lucas:5,-2 p=7 n=12 -> 10 + 3*x^2", 1.0):
        code, out = run_cli("eval", "--seq", "lucas:5,-2", "-p", "7", "-n", "12")
        assert code == 0
        assert out == "10 + 3*x^2\n"


def test_criterion_2_golden_fibonacci():
    with criterion(2, "eval fibonacci p=2 n=13 -> 4 + 2*x + 4*x^3 + 4*x^4", 1.0):
        code, out = run_cli("eval", "--seq", "fibonacci", "-p", "2", "-n", "13")
        assert code == 0
        assert out == "4 + 2*x + 4*x^3 + 4*x^4\n"


def test_criterion_3_golden_eds():
    with criterion(3, "eval 14-term EDS file p=2 n=12 -> 6 + 3*x + 4*x^2", 1.0):
        code, out = run_cli("eval", "--seq", f"file:{EDS14_PATH}", "-p", "2", "-n", "12")
        assert code == 0
        assert out == "6 + 3*x + 4*x^2\n"


def test_criterion_4_classification_table():
    with criterion(4, "classification table for lucas(5,-2)/fibonacci/EDS", 5.0):
        prof = classify(LUCAS52, 7)
        assert prof.prime_class is PrimeClass.IDEAL
        assert prof.s == 2
        assert prof.ratios == (8, 1, 7, 7, 7)

        prof = classify(FIB, 2)
        assert prof.prime_class is PrimeClass.ACCEPTABLE
        assert prof.s == 3
        assert prof.ratios == (3, 2, 1, 2, 2, 2)

        prof = classify(load_terms_file(str(EDS14_PATH)), 2)
        assert prof.prime_class is PrimeClass.IDEAL
        assert prof.s == 1
        assert prof.alpha_powers[0] == 5


def test_criterion_5_vector_table():
    with criterion(5, "vectors fibonacci p=2 reproduces all six rows", 1.0):
        code, out = run_cli("vectors", "--seq", "fibonacci", "-p", "2")
        assert code == 0
        assert out.splitlines() == [
            "r=0: [1, 1*x + 4*x^2]",
            "r=1: [2, 2*x + 2*x^2]",
            "r=2: [3, 3*x]",
            "r=3: [2 + 2*x, 2*x^2]",
            "r=4: [4 + 1*x, 1*x^2]",
            "r=5: [6, 0]",
        ]


def test_criterion_6_oracle_equivalence_sweep():
    with criterion(6, "matrix product equals brute force on the profile matrix", 600.0):
        for spec, p in sweep_profiles():
            profile = classify(spec, p)
            for k, nmax in ((2, 120), (3, 60)):
                table = corial_valuation_table(spec, p, nmax)
                for n in range(nmax + 1):
                    got = eval_generating_poly(spec, profile, k, n).polynomial
                    want = brute_generating_poly(spec, p, k, n, _table=table)
                    assert got == want, (spec.selector, p, k, n)


def test_criterion_7_defining_identity_gate():
    with criterion(7, "digit-matrix advancement identity against the oracle columns", 120.0):
        for p in (2, 3, 5):
            for k in (2, 3, 4):
                columns = {n: component_vector(p, k, n) for n in range(41)}
                for d in range(p):
                    matrix = multinomial_matrix(p, k, d)
                    for n in range(41):
                        lhs = mat_vec_mul(matrix, columns[n])
                        rhs = component_vector(p, k, p * n + d)
                        assert lhs == rhs, (p, k, d, n)


def test_criterion_8_naturals_reduction():
    with criterion(8, "naturals reduce to classical digit-sum valuations", 60.0):
        for p in (2, 3, 5):
            profile = classify(NATURALS, p)
            for n in range(201):
                got = eval_generating_poly(NATURALS, profile, 2, n).polynomial
                counts = {}
                sn = digit_sum(n, p)
                fine = 1
                for m in range(n + 1):
                    e = (digit_sum(m, p) + digit_sum(n - m, p) - sn) // (p - 1)
                    counts[e] = counts.get(e, 0) + 1
                assert got == ValPoly(counts), (p, n)
                for d in base_digits(n, p):
                    fine *= d + 1
                assert got.coefficient(0) == fine, (p, n)
            for n in range(0, 201, 10):
                got = eval_generating_poly(NATURALS, profile, 3, n).polynomial
                counts = {}
                sn = digit_sum(n, p)
                for m1 in range(n + 1):
                    s1 = digit_sum(m1, p)
                    for m2 in range(n - m1 + 1):
                        e = (s1 + digit_sum(m2, p) + digit_sum(n - m1 - m2, p) - sn) // (p - 1)
                        counts[e] = counts.get(e, 0) + 1
                assert got == ValPoly(counts), (p, 3, n)


def test_criterion_9_normalization():
    with criterion(9, "coefficients always sum to C(N+k-1, k-1)", 60.0):
        golden = [
            (run_cli("eval", "--seq", "lucas:5,-2", "-p", "7", "-n", "12",
                     "--format", "json")[1], 13),
            (run_cli("eval", "--seq", "fibonacci", "-p", "2", "-n", "13",
                     "--format", "json")[1], 14),
            (run_cli("eval", "--seq", f"file:{EDS14_PATH}", "-p", "2", "-n", "12",
                     "--format", "json")[1], 13),
        ]
        for text, total in golden:
            assert poly_from_json(json.loads(text)).eval_at_one() == total
        for spec, p in sweep_profiles():
            profile = classify(spec, p)
            for k, nmax in ((2, 120), (3, 60)):
                for n in range(nmax + 1):
                    poly = eval_generating_poly(spec, profile, k, n).polynomial
                    assert poly.eval_at_one() == comb(n + k - 1, k - 1), (spec.selector, p, k, n)


def test_criterion_10_performance_separation():
    with criterion(10, "matrix path at N=10^6 beats brute force at N=10^4", 30.0):
        profile = classify(FIB, 2)
        matrix_time = None
        for _ in range(3):
            t0 = time.perf_counter()
            result = eval_generating_poly(FIB, profile, 2, 10**6)
            dt = time.perf_counter() - t0
            matrix_time = dt if matrix_time is None else min(matrix_time, dt)
        assert result.polynomial.eval_at_one() == 10**6 + 1
        assert matrix_time < 1.0, f"matrix path took {matrix_time:.3f}s at N=10^6"

        t0 = time.perf_counter()
        brute_generating_poly(FIB, 2, 2, 10**4)
        oracle_time = time.perf_counter() - t0
        assert oracle_time > matrix_time, (
            f"oracle at N=10^4 ({oracle_time:.4f}s) should exceed "
            f"matrix at N=10^6 ({matrix_time:.4f}s)"
        )
        print(f"    matrix N=10^6: {matrix_time * 1000:.2f} ms, "
              f"oracle N=10^4: {oracle_time * 1000:.2f} ms, "
              f"ratio {oracle_time / matrix_time:.0f}x")
