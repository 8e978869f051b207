"""Run the tier-1 test suite against fixed one-edit mutants of ``src/``.

    python3 scripts/mutate.py

Each mutant in ``MUTANTS`` replaces one exact piece of text, which must
occur once in its file, with another.  The checkout, without ``.git``, is
copied once into a temporary directory; for each mutant in turn the edit
is applied there and the tier-1 command
``python -m pytest -q -x --continue-on-collection-errors`` runs with that
copy's ``src`` on PYTHONPATH, then the file is restored.  A failing run,
or one still going after ``TIMEOUT`` seconds, kills the mutant; a passing
one lets it survive.  The
checkout itself is never edited, and neither are its tests or checks.

The exit code is 1 if a mutant survives that is not listed as equivalent,
or a mutant listed as equivalent is killed (then a test pins more than the
answers), 2 if a mutant's text is not found exactly once, else 0.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
TIMEOUT = 60  # seconds per suite run; the unmutated suite takes about 13 s


class Mutant(NamedTuple):
    name: str
    path: str           # relative to the root of the checkout
    old: str
    new: str
    why: str
    equivalent: str = ""  # why the mutant computes the same answers, if it does


ENGINE = "src/cnomial/engine.py"
ORACLE = "src/cnomial/oracle.py"

MUTANTS = [
    # The sweep oracle's packed power: its bounds V and J, and its band.
    Mutant("oracle-V-1", ORACLE, "_power(table, k, width, len(levels), top)",
           "_power(table, k, width, len(levels), top - 1)",
           "the valuation bound V one short, so a band can overlap the next"),
    Mutant("oracle-J-1", ORACLE, "_power(table, k, width, len(levels), top)",
           "_power(table, k, width, len(levels) - 1, top)",
           "the jump bound J one short, so a term can land below bit 0"),
    Mutant("oracle-band-short", ORACLE, "band = (top + 1) * width // 8",
           "band = top * width // 8", "each answer's band read one slot short"),
    Mutant("oracle-skips-level-1", ORACLE, "    for a in chain:\n        for n in",
           "    for a in [a for a in chain if a != 1]:\n        for n in",
           "the corial table ignores a level of 1",
           equivalent="a level of 1 adds n - sum m_i = 0 to every valuation"),
    # The engine's packed kernel and the checks on its answers.
    Mutant("step-row-1-unshifted", ENGINE, "for row, shift in zip(rows, shifts):",
           "for row, shift in zip(rows, [0, 0, *shifts[2:]]):",
           "a digit step leaves row 1 unshifted"),
    Mutant("top-column-drops-c-eq-q", ENGINE, "<< c * width if c <= q else 0",
           "<< c * width if c < q else 0", "the top digit's column drops its entry c = q"),
    Mutant("contract-2-as-1", ENGINE, "term = (column[lam] if c == 1 else",
           "term = (column[lam] if c <= 2 else", "the contraction treats a coefficient 2 as 1"),
    Mutant("carry-free-drops-upper-digits", ENGINE, "zip((1, *levels), levels)]",
           "zip((1, *levels), levels[:1])]",
           "the carry-free factor reads only r's lowest chain digit"),
    Mutant("check-sum-misses-deficit", ENGINE, "if total != expected:",
           "if total > expected:", "the sum check passes a coefficient sum that is too small"),
    Mutant("check-sum-misses-excess", ENGINE, "if total != expected:",
           "if total < expected:", "the sum check passes a coefficient sum that is too large"),
    Mutant("check-c0-misses-deficit", ENGINE, "if coefficients.get(0, 0) != carry_free:",
           "if coefficients.get(0, 0) > carry_free:",
           "the constant-term check passes a constant term that is too small"),
    Mutant("check-c0-misses-excess", ENGINE, "if coefficients.get(0, 0) != carry_free:",
           "if coefficients.get(0, 0) < carry_free:",
           "the constant-term check passes a constant term that is too large"),
    Mutant("row-caps-shift", "src/cnomial/initvec.py", "v <<= c_in * width",
           "v <<= min(c_in, 1) * width", "the chain's carry step shifts by at most one slot"),
    Mutant("digit-counts-transposed", "src/cnomial/transfer.py",
           "digit_sum_count(k, b, d - lam + mu * b)", "digit_sum_count(k, b, d - mu + lam * b)",
           "the digit matrix is transposed"),
    # Apparition chains and sequence terms.
    Mutant("ratios-drop-ones", "src/cnomial/apparition.py",
           "(p,), repeat(1, e2 - e1 - 1), repeat(p)", "(p,), repeat(p)",
           "the Lucas chain drops the e_2 - e_1 - 1 ratios 1"),
    Mutant("stored-levels-off-by-one", "src/cnomial/apparition.py", "terms[a - 1::a]",
           "terms[a::a]", "the stored multiples of a are read one index late"),
    Mutant("lucas-jump-index-plus-1", "src/cnomial/seqcore.py", "for bit in bin(n)[2:]:",
           "for bit in bin(n + 1)[2:]:", "the jump returns (U_(n+1), U_(n+2))"),
    # The records' shared constructor.
    Mutant("record-rotates-fields", "src/cnomial/record.py", "zip(fields, args)",
           "zip(fields[1:] + fields[:1], args)",
           "positional arguments bind to the fields rotated by one"),
]


def run_suite(copy: str) -> tuple[str, float]:
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env,
                              capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        outcome = "killed (timeout)"
    else:
        outcome = "survived" if proc.returncode == 0 else "killed"
    # Hypothesis keeps failing examples; one mutant's must not replay on the next.
    shutil.rmtree(os.path.join(copy, ".hypothesis"), ignore_errors=True)
    return outcome, time.perf_counter() - start


def main() -> int:
    for m in MUTANTS:
        with open(os.path.join(ROOT, m.path), encoding="utf-8") as f:
            found = f.read().count(m.old)
        if found != 1:
            print(f"{m.name}: its text occurs {found} times in {m.path}, not once")
            return 2

    bad = killed = 0
    with tempfile.TemporaryDirectory(prefix="cnomial-mutate-") as tmp:
        copy = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out"))
        for m in MUTANTS:
            target = os.path.join(copy, m.path)
            with open(target, encoding="utf-8") as f:
                original = f.read()
            with open(target, "w", encoding="utf-8") as f:
                f.write(original.replace(m.old, m.new))
            try:
                outcome, seconds = run_suite(copy)
            finally:
                with open(target, "w", encoding="utf-8") as f:
                    f.write(original)
            killed += outcome != "survived"
            note = f"  equivalent: {m.equivalent}" if m.equivalent else ""
            if (outcome == "survived") != bool(m.equivalent):
                bad += 1
                note += "  <- unexpected"
            print(f"{outcome:<16} {seconds:6.1f} s  {m.name}: {m.why}{note}", flush=True)
    print(f"{len(MUTANTS)} mutants: {killed} killed, {len(MUTANTS) - killed} survived, "
          f"{bad} unexpected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
