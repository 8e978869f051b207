import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cnomial import cli, engine, oracle, transfer
from cnomial.apparition import classify
from cnomial.polyarith import PolyMatrix, PolyVector, ValPoly
from cnomial.seqcore import WorkLimitError, parse_selector, terms_prefix

from conftest import EDS14_PATH, EDS150_PATH, poly_from_json


def run_cli(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), stdout=out)
    return code, out.getvalue()


def test_eval_golden_text():
    code, out = run_cli("eval", "--seq", "lucas:5,-2", "-p", "7", "-n", "12")
    assert (code, out) == (0, "10 + 3*x^2\n")
    code, out = run_cli("eval", "--seq", "fibonacci", "-p", "2", "-n", "13")
    assert (code, out) == (0, "4 + 2*x + 4*x^3 + 4*x^4\n")
    code, out = run_cli("eval", "--seq", f"file:{EDS14_PATH}", "-p", "2", "-n", "12")
    assert (code, out) == (0, "6 + 3*x + 4*x^2\n")


def test_eval_golden_json():
    # The oracle prints the same line as eval.
    for command in ("eval", "oracle"):
        code, out = run_cli(command, "--seq", "fibonacci", "-p", "2", "-n", "13",
                            "--format", "json")
        assert code == 0
        assert out == '{"0":"4","1":"2","3":"4","4":"4"}\n'


def test_modulus_path_is_unrecognized(capsys):
    # The modulus is always alpha(p^s); no option picks a route.
    for argv in (["eval", "-n", "30"], ["verify", "--n-max", "30"], ["vectors"], ["export"]):
        code, out = run_cli(*argv, "--seq", "lucas:5,-2", "-p", "7",
                            "--modulus-path", "acceptable")
        err = capsys.readouterr().err
        assert (code, out) == (1, ""), argv
        assert err.startswith("usage error: unrecognized arguments: --modulus-path"), argv
        assert "Traceback" not in err


def test_oracle_subcommand_matches_eval():
    for n in ("0", "9", "25"):
        a = run_cli("eval", "--seq", "fibonacci", "-p", "2", "-n", n)
        b = run_cli("oracle", "--seq", "fibonacci", "-p", "2", "-n", n,
                    "--bigint-samples", "5")
        assert a == b


def test_oracle_at_many_parts():
    # k - 1 zero parts and one unit: enumeration must not recurse per part.
    assert run_cli("oracle", "--seq", "fibonacci", "-p", "2", "-k", "1500",
                   "-n", "1") == (0, "1500\n")


def test_json_round_trip():
    rng = random.Random(4242)
    selectors = ["fibonacci", "naturals", "lucas:5,-2", "lucas:3,-1"]
    primes = [2, 3, 5, 7]
    specs = {s: parse_selector(s) for s in selectors}
    profiles = {}
    for _ in range(100):
        sel = rng.choice(selectors)
        p = rng.choice(primes)
        k = rng.choice((2, 3))
        n = rng.randrange(200)
        code, out = run_cli("eval", "--seq", sel, "-p", str(p), "-k", str(k),
                            "-n", str(n), "--format", "json")
        assert code == 0
        key = (sel, p)
        if key not in profiles:
            profiles[key] = classify(specs[sel], p)
        direct = engine.eval_generating_poly(specs[sel], profiles[key], k, n).polynomial
        assert poly_from_json(json.loads(out)) == direct


def test_classify_output():
    code, out = run_cli("classify", "--seq", "fibonacci", "-p", "2")
    assert code == 0
    assert out == ("p=2 class=Acceptable s=3 alpha_powers=[3, 6, 6] "
                   "ratios=[3, 2, 1, 2, 2, 2] evidence_kmax=6\n")
    code, out = run_cli("classify", "--seq", "lucas:5,-2", "-p", "7",
                        "--format", "json")
    data = json.loads(out)
    assert data == {"p": 7, "class": "Ideal", "s": 2, "alpha_powers": [8, 8],
                    "ratios": [8, 1, 7, 7, 7], "evidence_kmax": 5}


def test_classify_undetermined_exit_code(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("1\n1\n3\n")
    code, _ = run_cli("classify", "--seq", f"file:{path}", "-p", "2")
    assert code == 3


def test_vectors_table():
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
    code, out = run_cli("vectors", "--seq", "fibonacci", "-p", "2", "-r", "1",
                        "--format", "json")
    data = json.loads(out)
    assert data["modulus"] == 6
    assert data["vectors"] == {"1": [{"0": "2"}, {"1": "2", "2": "2"}]}


def test_vectors_name_the_prime_class(tmp_path, make_chain_spec, capsys):
    # Ratios 1 forever never reach p: unacceptable at the default depth.
    spec = make_chain_spec((2,) * 16, 40)
    path = tmp_path / "ratio_one.txt"
    path.write_text("".join(f"{t}\n" for t in spec.terms))
    for seq, cls in [("lucas:1,2", "NoApparition"), (f"file:{path}", "Unacceptable")]:
        assert run_cli("vectors", "--seq", seq, "-p", "2") == (1, "")
        assert capsys.readouterr().err == (
            f"error: p=2 is {cls}; this vector needs Ideal or Acceptable\n")


def test_matrices_output():
    code, out = run_cli("matrices", "-p", "7", "-d", "1")
    assert (code, out) == (0, "d=1: [[2, 5], [1*x, 6*x]]\n")
    code, out = run_cli("matrices", "-p", "2", "-k", "3", "--format", "json")
    data = json.loads(out)
    assert data["matrices"]["0"] == [
        [{"0": "1"}, {"0": "3"}, {}],
        [{}, {"1": "3"}, {"1": "1"}],
        [{}, {"2": "1"}, {"2": "3"}],
    ]
    code, _ = run_cli("matrices", "-p", "7", "-d", "7")
    assert code == 1


def test_verify_ok_and_divergence(tmp_path, make_chain_spec):
    code, out = run_cli("verify", "--seq", "fibonacci", "-p", "2", "-k", "2",
                        "--n-max", "60")
    assert code == 0 and "verified" in out

    # Classifying with too shallow a chain mislabels this sequence as ideal
    # with period 1, and the comparison against brute force catches it.
    spec = make_chain_spec((1, 2, 6, 12, 24, 48, 96), 96)
    path = tmp_path / "chain.txt"
    path.write_text("".join(f"{t}\n" for t in spec.terms))
    code, out = run_cli("verify", "--seq", f"file:{path}", "-p", "2", "-k", "2",
                        "--n-max", "20", "--kmax", "2")
    assert code == 2
    assert "divergence at n=4" in out
    # With enough evidence the same sequence verifies cleanly.
    code, _ = run_cli("verify", "--seq", f"file:{path}", "-p", "2", "-k", "2",
                      "--n-max", "60")
    assert code == 0


def test_verify_acceptance_matrix():
    from conftest import EDS150_PATH

    selectors = ["fibonacci:2", "fibonacci:3", "fibonacci:5", "lucas:5,-2:7",
                 "lucas:3,-1:2", "lucas:3,-1:3", "naturals:2", "naturals:3",
                 "naturals:5", f"file:{EDS150_PATH}:2"]
    for entry in selectors:
        seq, p = entry.rsplit(":", 1)
        for k, nmax in (("2", "120"), ("3", "60")):
            code, out = run_cli("verify", "--seq", seq, "-p", p, "-k", k,
                                "--n-max", nmax)
            assert code == 0, (seq, p, k, out)


def test_export(tmp_path):
    code, out = run_cli("export", "--seq", "fibonacci", "-p", "2", "-k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["modulus"] == 6
    assert len(data["residue_vectors"]) == 6
    assert len(data["digit_matrices"]) == 2
    assert data["residue_vectors"]["5"] == [{"0": "6"}, {}]

    target = tmp_path / "rep.json"
    code, out = run_cli("export", "--seq", "naturals", "-p", "3", "--out", str(target))
    assert code == 0 and str(target) in out
    stored = json.loads(target.read_text())
    assert stored["modulus"] == 3


def test_export_acceptable_k4_modulus_50(tmp_path, make_chain_spec):
    # Acceptable chain 2 | 10 | 50 at p = 3 (ratios 2, 5, 5, then 3).  The
    # exported data, read back from JSON alone, must give the brute-force
    # polynomial at every residue of one period and across the first digit.
    spec = make_chain_spec((2, 10, 50, 150), 150, p=3)
    path = tmp_path / "chain.txt"
    path.write_text("".join(f"{t}\n" for t in spec.terms))
    code, out = run_cli("export", "--seq", f"file:{path}", "-p", "3", "-k", "4")
    assert code == 0
    data = json.loads(out)
    assert (data["p"], data["k"], data["modulus"]) == (3, 4, 50)
    poly = poly_from_json
    rep = engine.LinearRepresentation(
        p=3, k=4, modulus=50,
        residue_vectors={int(r): PolyVector.row(*map(poly, v))
                         for r, v in data["residue_vectors"].items()},
        digit_matrices={int(d): PolyMatrix(tuple(tuple(map(poly, row)) for row in m))
                        for d, m in data["digit_matrices"].items()},
        final_vector=PolyVector.column(*map(poly, data["final_vector"])),
    )
    table = oracle.corial_valuation_table(spec, 3, 52)
    for n in [*range(50), 50, 51, 52]:
        want = oracle.brute_generating_poly(spec, 3, 4, n, _table=table)
        assert rep.evaluate(*divmod(n, 50)) == want, n


def test_usage_errors(capsys):
    assert run_cli("eval", "--seq", "fibonacci", "-p", "4", "-n", "3")[0] == 1
    assert run_cli("eval", "--seq", "nonsense", "-p", "2", "-n", "3")[0] == 1
    assert run_cli("eval", "--seq", "fibonacci", "-p", "2", "-n", "-3")[0] == 1
    assert run_cli("oracle", "--seq", "fibonacci", "-p", "2", "-n", "3",
                   "--bigint-samples", "-3")[0] == 1
    assert run_cli("eval", "--seq", "fibonacci", "-p", "2", "-k", "1", "-n", "3")[0] == 1
    assert run_cli("eval", "--seq", "file:/no/such/file", "-p", "2", "-n", "3")[0] == 1
    assert run_cli("nonsense")[0] == 1
    assert run_cli("bench", "--seq", "fibonacci", "-p", "2")[0] == 1
    assert run_cli("classify", "--seq", "fibonacci", "-p", "2",
                   "--profile-cache", "profiles.json")[0] == 1
    assert run_cli("verify", "--seq", "fibonacci", "-p", "2", "--n-max", "10",
                   "--format", "json")[0] == 1
    assert run_cli("export", "--seq", "fibonacci", "-p", "2", "--format", "text")[0] == 1
    assert run_cli("--help")[0] == 0
    capsys.readouterr()
    for argv, err in ((["verify", "--n-max", "-1"], "--n-max must be >= 0, got -1"),
                      (["classify", "--kmax", "1"], "--kmax must be >= 2, got 1"),
                      (["verify", "--n-max", "5", "--kmax", "1"], "--kmax must be >= 2, got 1"),
                      (["vectors", "-r", "6"], "residue 6 not in [0, 6)")):
        assert run_cli(*argv, "--seq", "fibonacci", "-p", "2") == (1, ""), argv[0]
        assert capsys.readouterr().err == f"usage error: {err}\n", argv[0]


def test_insufficient_terms_is_reported(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("1\n1\n2\n")  # alpha(2) = 3 determinable, but terms stop
    code, _ = run_cli("oracle", "--seq", f"file:{path}", "-p", "2", "-n", "10")
    assert code == 1


def test_stored_terms_contradicting_the_chain_are_refused(tmp_path, capsys):
    # Fibonacci with C_7 = 13 doubled is not a strong divisibility sequence
    # (gcd(C_7, C_14) = 13): 2 divides C_7 although alpha(2) = 3.  Every
    # command that classifies the file refuses it, naming C_7.
    terms = terms_prefix(parse_selector("fibonacci"), 40)
    terms[6] *= 2
    path = tmp_path / "fib_c7_doubled.txt"
    path.write_text("".join(f"{t}\n" for t in terms))
    for argv in (["eval", "-n", "14"], ["classify"], ["verify", "--n-max", "30"],
                 ["export"], ["vectors"]):
        code, out = run_cli(*argv, "--seq", f"file:{path}", "-p", "2")
        err = capsys.readouterr().err
        assert (code, out) == (1, ""), argv[0]
        assert err == ("error: strong divisibility violated: 2 divides C_7, but the "
                       "least stored index it divides is 3\n"), argv[0]


def test_same_basename_files_get_their_own_answers(tmp_path, monkeypatch):
    # Two different sequences in files with one basename, with the profile
    # cache variable of earlier versions set: the second answer must come
    # from the second file's own terms.
    monkeypatch.setenv("CNOMIAL_PROFILE_CACHE", str(tmp_path / "profiles.json"))
    eds_path = tmp_path / "eds" / "seq.txt"
    nat_path = tmp_path / "nat" / "seq.txt"
    eds_path.parent.mkdir()
    nat_path.parent.mkdir()
    eds_path.write_text(EDS150_PATH.read_text())
    nat_path.write_text("".join(f"{n}\n" for n in range(1, 151)))
    code, out = run_cli("eval", "--seq", f"file:{eds_path}", "-p", "2", "-n", "12")
    assert (code, out) == (0, "6 + 3*x + 4*x^2\n")
    code, out = run_cli("eval", "--seq", f"file:{nat_path}", "-p", "2", "-n", "12")
    want = "4 + 2*x + 5*x^2 + 2*x^3\n"
    assert (code, out) == (0, want)
    assert run_cli("oracle", "--seq", f"file:{nat_path}", "-p", "2", "-n", "12") == (0, want)


def test_normalization_failure_exit_code(monkeypatch, capsys):
    # A wrong digit-loop column is caught by the normalization check and
    # reported as a verification divergence, not a traceback.
    real = engine._column

    def bumped(p, k, digits, width):
        return [v + 1 for v in real(p, k, digits, width)]

    monkeypatch.setattr(engine, "_column", bumped)
    code, out = run_cli("eval", "--seq", "lucas:5,-2", "-p", "7", "-n", "12")
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("error: normalization broken: coefficients sum to ")
    assert "Traceback" not in err


def _bumped_column(p, k, digits, width, real=engine._column):
    return [v + 1 for v in real(p, k, digits, width)]


def _unshifted_step(rows, column, shifts, real=engine._step):
    return real(rows, column, [0 if row == 1 else s for row, s in enumerate(shifts)])


@pytest.mark.parametrize("name, mutant, check", [
    ("_column", _bumped_column, "coefficients sum to"),
    ("_step", _unshifted_step, "the constant term is"),
])
def test_verify_runs_both_engine_checks(monkeypatch, capsys, name, mutant, check):
    # At p = 3 the bumped column breaks the coefficient sum at n = 0, and
    # the lost shift keeps it and breaks the constant term at n = 4, where
    # its answers first go wrong.  verify stops with eval_sweep's error at
    # the n where eval_sweep raises it, before drawing that n's oracle answer.
    fib = parse_selector("fibonacci")
    monkeypatch.setattr(engine, name, mutant)
    answered = 0
    with pytest.raises(engine.NormalizationError, match=check) as raised:
        for _ in engine.eval_sweep(fib, classify(fib, 3), 3, 60):
            answered += 1
    real_power, drawn = oracle._power, []

    def counted(*args):
        for band in real_power(*args):
            drawn.append(band)
            yield band

    monkeypatch.setattr(oracle, "_power", counted)
    code, out = run_cli("verify", "--seq", "fibonacci", "-p", "3", "-k", "3", "--n-max", "60")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {raised.value}\n"
    assert len(drawn) == answered


def test_verify_builds_no_polynomial_per_n(monkeypatch):
    # Counted rather than timed: a passing verify compares packed integers,
    # so the polynomials it builds do not depend on n_max.  Every ValPoly is
    # built by __init__ or by from_slots, which unpack calls.
    init, from_slots = ValPoly.__init__, ValPoly.from_slots.__func__
    built = [0]

    def counted_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def counted_from_slots(cls, coefficients):
        built[0] += 1
        return from_slots(cls, coefficients)

    monkeypatch.setattr(ValPoly, "__init__", counted_init)
    monkeypatch.setattr(ValPoly, "from_slots", classmethod(counted_from_slots))
    counts = []
    for n_max in ("100", "200"):
        built[0] = 0
        code, _ = run_cli("verify", "--seq", "fibonacci", "-p", "2", "-k", "3", "--n-max", n_max)
        assert code == 0
        counts.append(built[0])
    assert counts[0] == counts[1]


def test_oversized_power_is_refused_before_any_product(monkeypatch, capsys):
    # k * n_max^2 = 10^7 is a tenth of MAX_SWEEP_STEPS, but this sweep's
    # packed power would have about 17.6 million bits: its table is built and
    # its power never started.
    def no_power(*args):
        raise AssertionError("oracle power started")

    monkeypatch.setattr(oracle, "_power", no_power)
    assert run_cli("verify", "--seq", "fibonacci", "-p", "2", "-k", "40",
                   "--n-max", "500") == (1, "")
    assert capsys.readouterr().err == ("error: sweep refused: a packed power of 17635200 "
                                       "bits exceeds the limit of 8388608 bits\n")
    with pytest.raises(WorkLimitError, match="packed power"):
        oracle.generating_polys(parse_selector("fibonacci"), 2, 40, 500)


def test_huge_listings_refused_before_any_work(monkeypatch, capsys):
    # At p = 10^9+7 Fibonacci's modulus is p + 1: the representation would
    # hold about 6*10^9 entries, so no builder may run.
    def unreachable(*args):
        raise AssertionError("built")

    monkeypatch.setattr(engine.initvec, "vector_for", unreachable)
    monkeypatch.setattr(engine, "digit_matrices", unreachable)
    monkeypatch.setattr(transfer, "multinomial_matrix", unreachable)
    p = 1000000007
    with pytest.raises(WorkLimitError, match="refused"):
        engine.linear_representation(classify(parse_selector("fibonacci"), p), 2)
    for argv in (["export", "--seq", "fibonacci"], ["vectors", "--seq", "fibonacci"],
                 ["matrices"]):
        assert run_cli(*argv, "-p", str(p)) == (1, "")
        assert "refused" in capsys.readouterr().err
    # A ratio list past the same bound: --kmax refused before classifying.
    assert run_cli("classify", "--seq", "fibonacci", "-p", "2", "--kmax", "200001") == (1, "")
    assert capsys.readouterr().err == ("error: ratio list refused: 200001 entries exceed "
                                       "the limit of 200000\n")


def test_classify_large_prime():
    code, out = run_cli("classify", "--seq", "fibonacci", "-p", "1000000007")
    assert code == 0
    assert out.startswith("p=1000000007 class=Ideal s=1 alpha_powers=[1000000008] ")
    code, out = run_cli("classify", "--seq", "naturals", "-p", "1000000007")
    assert code == 0
    assert out.startswith("p=1000000007 class=Ideal s=1 alpha_powers=[1000000007] ")


def test_verify_wider_sweeps():
    # Sweeps at larger k, each a fraction of a second: the oracle takes one
    # power of the corial generating function, the engine one column per quotient.
    for seq, p, k, nmax in [("fibonacci", "2", "6", "60"), ("lucas:5,-2", "7", "5", "80"),
                            (f"file:{EDS150_PATH}", "3", "5", "60"),
                            (f"file:{EDS150_PATH}", "5", "4", "60"),
                            (f"file:{EDS150_PATH}", "7", "5", "60")]:
        code, out = run_cli("verify", "--seq", seq, "-p", p, "-k", k, "--n-max", nmax)
        assert (code, out) == (0, f"verified {seq} p={p} k={k} for all n <= {nmax}\n")


def test_composite_p_rejected_everywhere(capsys):
    # 3317044064679887385961981 = 1287836182261 * 2575672364521 passes the
    # strong tests to every prime base up to 41.
    p = "3317044064679887385961981"
    for argv in (["eval", "--seq", "fibonacci", "-n", "5"],
                 ["oracle", "--seq", "fibonacci", "-n", "5"],
                 ["verify", "--seq", "fibonacci", "--n-max", "5"],
                 ["classify", "--seq", "fibonacci"],
                 ["vectors", "--seq", "fibonacci"],
                 ["matrices"],
                 ["export", "--seq", "fibonacci"]):
        assert run_cli(*argv, "-p", p) == (1, ""), argv[0]
        assert f"p must be prime, got {p}" in capsys.readouterr().err


def test_oracle_work_is_refused_up_front(tmp_path, make_chain_spec, capsys, monkeypatch):
    # Sixteen levels that never reach ratio 2: unacceptable at the depth cap.
    spec = make_chain_spec((1,) * 14 + (3, 3), 60)
    path = tmp_path / "unacceptable.txt"
    path.write_text("".join(f"{t}\n" for t in spec.terms))
    # The oracle takes its power there and the matrix side reads the stored chain,
    # each within its bound.
    assert run_cli("verify", "--seq", f"file:{path}", "-p", "2", "-k", "3",
                   "--n-max", "50") == (0, f"verified file:{path} p=2 k=3 for all n <= 50\n")

    def no_work(*args):
        raise AssertionError("oracle work started")

    monkeypatch.setattr(oracle, "corial_valuation_table", no_work)
    monkeypatch.setattr(oracle, "compositions", no_work)
    for argv in (["oracle", "--seq", "fibonacci", "-p", "2", "-k", "4", "-n", "1000000"],
                 ["oracle", "--seq", "fibonacci", "-p", "2", "-k", "10000000", "-n", "1"],
                 ["verify", "--seq", "fibonacci", "-p", "2", "-k", "3",
                  "--n-max", "1000000"],
                 ["verify", "--seq", f"file:{path}", "-p", "2", "-k", "3",
                  "--n-max", "1000000"]):
        code, out = run_cli(*argv)
        assert (code, out) == (1, ""), argv[0]
        assert " refused: " in capsys.readouterr().err
    # An unacceptable prime is answered from the stored chain, as far as the
    # 60 terms fix it.
    assert run_cli("eval", "--seq", f"file:{path}", "-p", "2", "-k", "3",
                   "-n", "10000000") == (1, "")
    assert capsys.readouterr().err == (
        "error: insufficient terms: the 60 terms unacceptable.txt stores fix "
        "the answer at p=2 only for N < 63, not N = 10000000\n")


def test_parser_is_built_once_and_reused(capsys):
    # cli.run keeps one parser per process; a run must not leave state in it
    # that changes the next run's output, error text or exit code.
    runs = [("classify", "--seq", "fibonacci", "-p", "2", "--kmax", "3"),
            ("classify", "--seq", "fibonacci", "-p", "2"),
            ("classify", "--seq", "fibonacci", "-p", "2", "--kmax", "x"),
            ("verify", "--seq", "fibonacci", "-p", "2", "-k", "3", "--n-max", "30")]

    def outcome(argv):
        code, out = run_cli(*argv)
        return code, out, capsys.readouterr().err

    reused = [outcome(argv) for argv in runs]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in runs:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 1, 0]
    assert reused[0][1].endswith("evidence_kmax=4\n")
    assert reused[1][1].endswith("evidence_kmax=6\n")
    assert reused[2][2].startswith("usage error: argument --kmax: invalid int value")


SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_out_unused_modules():
    # A matrix-path eval needs neither the oracle nor json, and records are
    # not dataclasses (importing dataclasses pulls in inspect).
    added = run_fresh("import sys; before = set(sys.modules); import cnomial.cli; "
                      "print(' '.join(sorted(set(sys.modules) - before)))").split()
    assert "cnomial.engine" in added
    for name in ("dataclasses", "inspect", "json", "cnomial.oracle"):
        assert name not in added, name
    # The package's oracle names still load on first use.
    out = run_fresh("import cnomial\n"
                    "ns = {}\n"
                    "exec('from cnomial import *', ns)\n"
                    "assert all(ns[name] is getattr(cnomial, name) for name in cnomial.__all__)\n"
                    "import cnomial.oracle\n"
                    "print(cnomial.WorkLimitError is cnomial.oracle.WorkLimitError)")
    assert out == "True\n"


def test_unacceptable_eval_in_a_fresh_process(tmp_path, make_chain_spec):
    spec = make_chain_spec((1,) * 14 + (3, 3), 60)
    path = tmp_path / "unacceptable.txt"
    path.write_text("".join(f"{t}\n" for t in spec.terms))
    out = run_fresh("import sys; from cnomial import cli; code = cli.run(sys.argv[1:]); "
                    "print('cnomial.oracle' in sys.modules); sys.exit(code)",
                    "eval", "--seq", f"file:{path}", "-p", "2", "-k", "3", "-n", "40")
    assert out == f"{oracle.brute_generating_poly(spec, 2, 3, 40)}\nFalse\n"
    assert engine.eval_generating_poly(spec, classify(spec, 2), 3, 40).path \
        is engine.EvalPath.STORED


def test_verify_checks_the_stored_chain(tmp_path, make_chain_spec, monkeypatch):
    # At an unacceptable prime verify compares the stored-chain answers with
    # the oracle's: a kernel that multiplies the column entries past the
    # first by x keeps the coefficient sums and the carry-free counts.
    spec = make_chain_spec((1,) * 14 + (3, 3), 60)
    path = tmp_path / "unacceptable.txt"
    path.write_text("".join(f"{t}\n" for t in spec.terms))
    real = engine._top_column

    def times_x(k, q, width):
        return [v << width if c else v for c, v in enumerate(real(k, q, width))]

    monkeypatch.setattr(engine, "_top_column", times_x)
    assert run_cli("verify", "--seq", f"file:{path}", "-p", "2", "-k", "3", "--n-max", "50") \
        == (2, "divergence at n=3: matrix 3 + 7*x^3 vs oracle 3 + 7*x^2\n")
