import math

import pytest

from cnomial import seqcore
from cnomial.seqcore import (
    FileBackedSpec,
    InsufficientTermsError,
    LucasSpec,
    load_terms_file,
    parse_selector,
    term,
    term_mod,
    terms_prefix,
)

from conftest import EDS14_PATH
from reference import validate_strong_divisibility


def test_term_examples(lucas52, fib, eds14):
    assert term(lucas52, 8) == 120785
    assert term(fib, 6) == 8
    assert term(eds14, 9) == 7
    assert [term(fib, n) for n in range(1, 7)] == [1, 1, 2, 3, 5, 8]


def test_term_errors(fib, eds14):
    with pytest.raises(ValueError):
        term(fib, 0)
    with pytest.raises(InsufficientTermsError):
        term(eds14, 15)


def test_term_mod_examples(lucas52, fib, naturals):
    assert term_mod(lucas52, 8, 7) == 0
    assert term_mod(fib, 3, 2) == 0
    assert term_mod(naturals, 12, 5) == 2
    assert [term_mod(naturals, n, 7) for n in range(1, 301)] == [n % 7 for n in range(1, 301)]
    with pytest.raises(ValueError):
        term_mod(fib, 5, 1)


def test_term_mod_matches_term(lucas52, fib, naturals, eds14):
    for spec in (lucas52, fib, naturals, eds14):
        nmax = 14 if isinstance(spec, FileBackedSpec) else 30
        for n in range(1, nmax + 1):
            t = term(spec, n)
            for m in range(2, 51):
                assert term_mod(spec, n, m) == t % m, (spec.selector, n, m)


@pytest.mark.parametrize("params", [(1, -1), (5, -2), (3, -1), (1, -3), (2, -1)])
def test_lucas_gcd_law(params):
    spec = LucasSpec(*params)
    ts = terms_prefix(spec, 30)
    for n in range(1, 31):
        for m in range(1, n):
            g = math.gcd(abs(ts[n - 1]), abs(ts[m - 1]))
            assert g == abs(ts[math.gcd(n, m) - 1]), (params, n, m)


def test_lucas_validation():
    with pytest.raises(ValueError):
        LucasSpec(2, 2)  # gcd(U_2, U_3) = 2
    with pytest.raises(ValueError):
        LucasSpec(1, 1)  # U_3 = 0
    with pytest.raises(ValueError):
        LucasSpec(0, -1)  # U_2 = 0
    # Degenerate-looking but zero-free: U(2, 1) is the naturals, U_n = n.
    assert terms_prefix(LucasSpec(2, 1), 300) == list(range(1, 301))


def test_file_backed_validation():
    with pytest.raises(ValueError):
        FileBackedSpec((1, 0, 3))
    with pytest.raises(ValueError):
        FileBackedSpec(())


def test_validate_strong_divisibility(fib, naturals, eds14):
    assert validate_strong_divisibility(fib, 20) == []
    assert validate_strong_divisibility(naturals, 50) == []
    assert validate_strong_divisibility(eds14, 14) == []


def test_validate_strong_divisibility_catches_violations():
    shifted = FileBackedSpec(tuple(range(2, 30)), name="shifted")  # C_n = n + 1
    violations = validate_strong_divisibility(shifted, 10)
    assert (4, 2) in violations


def test_validate_bound_exceeds_file(eds14):
    with pytest.raises(InsufficientTermsError):
        validate_strong_divisibility(eds14, 15)


def test_load_terms_file_parses_comments_and_blanks(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("# header\n\n1\n 2 \n-3\n# trailing comment\n5\n")
    spec = load_terms_file(str(path))
    assert spec.terms == (1, 2, -3, 5)
    assert spec.selector == "file:seq.txt"


def test_load_terms_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1\ntwo\n")
    with pytest.raises(ValueError):
        load_terms_file(str(bad))
    zero = tmp_path / "zero.txt"
    zero.write_text("1\n0\n")
    with pytest.raises(ValueError):
        load_terms_file(str(zero))
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError):
        load_terms_file(str(empty))


def test_parse_selector():
    assert parse_selector("fibonacci") == LucasSpec(1, -1)
    assert parse_selector("naturals") == LucasSpec(2, 1)
    assert parse_selector("lucas:5,-2") == LucasSpec(5, -2)
    spec = parse_selector(f"file:{EDS14_PATH}")
    assert len(spec.terms) == 14
    for bad in ("unknown", "lucas:1", "lucas:a,b"):
        with pytest.raises(ValueError):
            parse_selector(bad)


def test_eds_files_match_recurrence_and_publication(eds14, eds150):
    # The 14 published terms, verbatim.
    assert eds14.terms == (1, 1, -1, 1, 2, -1, -3, -5, 7, -4, -23, 29, 59, 129)
    # The long file extends them by the sequence's own quartic recurrence.
    a = [1, 1, -1, 1]
    while len(a) < 150:
        num = a[-1] * a[-3] + a[-2] ** 2
        q, r = divmod(num, a[-4])
        assert r == 0
        a.append(q)
    assert eds150.terms == tuple(a)
    assert eds150.terms[:14] == eds14.terms
    assert validate_strong_divisibility(eds150, 60) == []


def test_residues_stream(fib, naturals, eds14):
    from itertools import islice

    stream = list(islice(seqcore.residues(fib, 5), 10))
    assert stream == [term(fib, n) % 5 for n in range(1, 11)]
    stream = list(islice(seqcore.residues(naturals, 7), 300))
    assert stream == [n % 7 for n in range(1, 301)]
    assert len(list(seqcore.residues(eds14, 3))) == 14
