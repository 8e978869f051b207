"""Check that two cnomial checkouts print the same thing for the same commands.

    python3 scripts/cli_parity.py PARENT [CHANGE]

For every argv in ``ARGVS`` each checkout (CHANGE defaults to this one)
runs ``python -m cnomial.cli ARGV`` in a fresh interpreter, from its own
root and with only its own ``src`` on PYTHONPATH, so relative paths such
as ``file:tests/data/...`` name that tree's copy.  Standard output,
standard error and the exit code must match byte for byte.  Every
mismatch is printed, and the exit code is 1 if there is any, else 0.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EDS14 = "file:tests/data/eds_a006769_14.txt"
EDS150 = "file:tests/data/eds_a006769_150.txt"
FIB = ["--seq", "fibonacci", "-p", "2"]
TIMEOUT = 120  # seconds per run; each argv here takes well under one second

ARGVS = [
    # The README's commands.
    ["eval", "--seq", "lucas:5,-2", "-p", "7", "-n", "12"],
    ["eval", "--seq", "fibonacci", "-p", "2", "-n", "13", "--format", "json"],
    ["classify", *FIB],
    ["vectors", *FIB],
    ["matrices", "-p", "7", "-d", "1"],
    ["verify", *FIB, "-k", "2", "--n-max", "120"],
    ["verify", *FIB, "-k", "3", "--n-max", "200"],
    ["oracle", *FIB, "-k", "3", "-n", "40", "--bigint-samples", "5"],
    ["export", "--seq", "lucas:5,-2", "-p", "7"],
    ["--help"],
    # The wider sweeps of the CLI tests.
    ["verify", *FIB, "-k", "6", "--n-max", "60"],
    ["verify", "--seq", "lucas:5,-2", "-p", "7", "-k", "5", "--n-max", "80"],
    ["verify", "--seq", EDS150, "-p", "3", "-k", "5", "--n-max", "60"],
    ["verify", "--seq", EDS150, "-p", "5", "-k", "4", "--n-max", "60"],
    ["verify", "--seq", EDS150, "-p", "7", "-k", "5", "--n-max", "60"],
    # Sequence files at every small prime: verified, undetermined (exit 3)
    # or too short (exit 1).
    *(["verify", "--seq", path, "-p", p, "--n-max", "40"]
      for path in (EDS14, EDS150) for p in ("2", "3", "5", "7", "11")),
    # A chain cut at depth 2 diverges at n=6 (exit 2), also at the wider
    # slots of k = 3 and 5; no apparition at all.
    ["verify", *FIB, "--n-max", "20", "--kmax", "2"],
    ["verify", *FIB, "-k", "3", "--n-max", "20", "--kmax", "2"],
    ["verify", *FIB, "-k", "5", "--n-max", "20", "--kmax", "2"],
    ["verify", "--seq", "lucas:1,2", "-p", "2", "--n-max", "20"],
    ["classify", "--seq", "lucas:1,2", "-p", "2"],
    # Apparition chains: deep kmax, a long run of ratios 1 (e_1 = 16), a
    # chain extended past an explicit kmax, p | D, and a 31-digit p | D.
    ["classify", *FIB, "--kmax", "300"],
    ["classify", "--seq", "lucas:1,-65535", "-p", "2"],
    ["classify", "--seq", "lucas:7,1", "-p", "2", "--kmax", "4"],
    ["classify", "--seq", "naturals", "-p", "3", "--kmax", "12"],
    ["classify", "--seq", "naturals", "-p", "2", "--format", "json"],
    ["classify", "--seq", "lucas:5,-2", "-p", "7", "--kmax", "12", "--format", "json"],
    ["classify", "--seq", "lucas:3,-1", "-p", "13", "--kmax", "9"],
    ["classify", "--seq", "lucas:1,-250000000000000000000000000014",
     "-p", "1000000000000000000000000000057"],
    ["verify", "--seq", "lucas:7,1", "-p", "2", "-k", "3", "--n-max", "100"],
    # Sweeps refused before any work: k * n_max^2 over the bound.
    ["verify", *FIB, "-k", "3", "--n-max", "1000000"],
    ["verify", *FIB, "-k", "2", "--n-max", "7072"],
    # Usage errors (exit 1).
    ["verify", *FIB, "--n-max", "-1"],
    ["verify", *FIB, "-k", "1", "--n-max", "5"],
    ["verify", *FIB, "--n-max", "5", "--kmax", "1"],
    ["verify", *FIB, "--n-max", "10", "--format", "json"],
    ["verify", "--seq", "fibonacci", "-p", "4", "--n-max", "5"],
    ["verify", "--seq", "file:/no/such/file", "-p", "2", "--n-max", "5"],
    ["verify", *FIB],
    ["classify", *FIB, "--kmax", "1"],
    ["vectors", *FIB, "-r", "6"],
    ["nonsense"],
]


def run(checkout: str, argv: list[str]) -> tuple:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    cmd = [sys.executable, "-m", "cnomial.cli", *argv]
    try:
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, b"", f"timed out after {TIMEOUT} s".encode()
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change", nargs="?", default=ROOT)
    args = ap.parse_args()
    sides = {"parent": args.parent, "change": args.change}

    mismatches = 0
    for argv in ARGVS:
        results = {name: run(os.path.abspath(path), argv)
                   for name, path in sides.items()}
        differ = [field for field, a, b in zip(("exit code", "stdout", "stderr"),
                                               *results.values()) if a != b]
        if differ:
            mismatches += 1
            print(f"MISMATCH in {', '.join(differ)}: cnomial {' '.join(argv)}")
            for name, (code, out, err) in results.items():
                print(f"  {name}: exit {code}\n    stdout {out[-500:]!r}\n"
                      f"    stderr {err[-500:]!r}")
        else:
            print(f"same (exit {results['parent'][0]}): cnomial {' '.join(argv)}")
    print(f"{len(ARGVS)} commands, {mismatches} mismatched")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
