"""The four workloads: seeded inputs, the op each one times, and its check.

Inputs are generated from the seed alone, by code that does not import
cnomial, so the same seed always gives the same inputs.  Each workload is
a fixed list of *shapes* (the input properties that set an op's cost:
sequence, prime, k, size); the seed draws the concrete inputs of every
shape.  One round runs every shape once, in a seeded order, and the timed
phase runs whole rounds, so every seed and every run does the same mix of
work and the percentiles do not depend on where the clock stopped.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from math import comb, gcd

EDS_FILE = os.path.join("tests", "data", "eds_a006769_150.txt")

# A round runs every shape once; a pool holds this many distinct rounds,
# reused cyclically once exhausted.
POOL_ROUNDS = 12


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _rng(workload: str, seed: int, *salt) -> random.Random:
    return random.Random(":".join(str(x) for x in (workload, seed) + salt))


def lucas_ok(P: int, Q: int) -> bool:
    """The validity rule of seqcore.LucasSpec: no zero term, gcd(U_2, U_3) = 1."""
    if P == 0 or (Q != 0 and P * P in (Q, 2 * Q, 3 * Q)):
        return False
    return gcd(abs(P), abs(P * P - Q)) == 1


def lucas_rank(P: int, Q: int, m: int, limit: int) -> int | None:
    """First n <= limit with m | U_n, by the recurrence mod m."""
    u, v = 1 % m, P % m
    for n in range(1, limit + 1):
        if u == 0:
            return n
        u, v = v, (P * v - Q * u) % m
    return None


def draw_lucas(rng: random.Random, p: int, alpha: int | None = None) -> tuple[int, int]:
    """A valid Lucas (P, Q) with p not dividing Q; when alpha is given, also
    alpha(p) = alpha and alpha(p^2) = alpha*p, so classification walks a
    known number of indices."""
    for _ in range(1_000_000):
        P, Q = rng.randint(-99, 99), rng.randint(-99, 99)
        if Q == 0 or Q % p == 0 or not lucas_ok(P, Q):
            continue
        if alpha is None:
            return P, Q
        if (lucas_rank(P, Q, p, alpha) == alpha
                and lucas_rank(P, Q, p * p, alpha * p) == alpha * p):
            return P, Q
    raise RuntimeError(f"no Lucas pair with alpha({p}) = {alpha}")


def _rounds(rng: random.Random, make_round) -> list[list[dict]]:
    rounds = []
    for _ in range(POOL_ROUNDS):
        ops = make_round()
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# eval_deep: few calls, huge integers.  The digit mat-vec loop does nearly
# all the work; classification happens once, in set-up.

# Every workload has an odd number of shapes.  With whole rounds, the
# median sample is then the middle sample of one shape, not the midpoint
# between the slowest run of one shape and the fastest of the next.

EVAL_SEQS = (("fibonacci", 2), ("lucas:5,-2", 7), ("lucas:3,-1", 5), ("naturals", 3))
EVAL_DIGITS = {2: (20, 35, 50, 65, 80), 3: (20, 35, 50, 65, 80), 5: (20, 30, 40)}
EVAL_SHAPES = tuple((sel, p, k, d) for sel, p in EVAL_SEQS for k, ds in EVAL_DIGITS.items()
                    for d in ds if (sel, k, d) != ("lucas:5,-2", 2, 20))  # the cheapest
EVAL_SHAPES_TINY = tuple((sel, p, k, 8) for sel, p in EVAL_SEQS[:3] for k in EVAL_DIGITS)


def gen_eval_deep(seed: int, tiny: bool) -> list[list[dict]]:
    rng = _rng("eval_deep", seed)
    shapes = EVAL_SHAPES_TINY if tiny else EVAL_SHAPES

    def make_round():
        return [{"seq": sel, "p": p, "k": k, "n": rng.randrange(10 ** (d - 1), 10 ** d)}
                for sel, p, k, d in shapes]

    rounds = _rounds(rng, make_round)
    return rounds[:1] if tiny else rounds


# ---------------------------------------------------------------------------
# cli_cold: one fresh interpreter per query.  (p, alpha(p), k): a cold
# classify walks about alpha*(1+p+p^2+p^3) indices, so fixing alpha(p) per
# shape fixes the cost while the seed draws (P, Q).

CLI_SHAPES = ((11, 10, 2), (13, 14, 3), (17, 18, 2), (19, 20, 3), (23, 12, 2),
              (29, 7, 3), (31, 8, 2), (37, 4, 3), (41, 4, 2), (43, 4, 3), (47, 2, 2))
CLI_SHAPES_TINY = ((11, 10, 2), (13, 14, 3), (17, 18, 2))


def gen_cli_cold(seed: int, tiny: bool) -> list[list[dict]]:
    rng = _rng("cli_cold", seed)
    shapes = CLI_SHAPES_TINY if tiny else CLI_SHAPES

    def make_round():
        ops = []
        for p, alpha, k in shapes:
            P, Q = draw_lucas(rng, p, alpha)
            ops.append({"seq": f"lucas:{P},{Q}", "p": p, "k": k,
                        "n": rng.randrange(1, 10 ** 12)})
        return ops

    rounds = _rounds(rng, make_round)
    return rounds[:1] if tiny else rounds


# ---------------------------------------------------------------------------
# verify_sweep: every n <= n_max through both evaluators; the oracle does
# most of the work, the matrix side makes thousands of tiny calls.
# (kind, p, k, n_max): n_max puts one sweep at roughly 0.1-0.5 s, with
# costs about 1.5x apart (0.1, 0.15, 0.25, 0.35, 0.5 s), so the median
# sample stays on the middle shape, the seed-independent EDS one.

VERIFY_SHAPES = (("lucas", 3, 2, 320), ("lucas", 7, 4, 34), ("eds", 2, 3, 92),
                 ("lucas", 5, 3, 105), ("eds", 5, 4, 50))
VERIFY_SHAPES_TINY = (("lucas", 3, 2, 40), ("lucas", 5, 3, 10), ("eds", 2, 3, 15))


def gen_verify_sweep(seed: int, tiny: bool) -> list[list[dict]]:
    rng = _rng("verify_sweep", seed)
    shapes = VERIFY_SHAPES_TINY if tiny else VERIFY_SHAPES

    def make_round():
        ops = []
        for kind, p, k, n_max in shapes:
            if kind == "eds":
                seq = "file:" + EDS_FILE
            else:
                P, Q = draw_lucas(rng, p)
                seq = f"lucas:{P},{Q}"
            ops.append({"seq": seq, "p": p, "k": k, "n_max": n_max})
        return ops

    rounds = _rounds(rng, make_round)
    return rounds[:1] if tiny else rounds


# ---------------------------------------------------------------------------
# export_acceptable: the acceptable-route linear representation, whose
# initial vectors come from residue-tuple enumeration (O(modulus^(k-1)) per
# residue).  Shapes fix k, the stable modulus and the prime or chain
# length; the seed draws the Lucas pair or the divisor chain and its
# prime.  Each shape has a few realizations, classified once in set-up.

# ("lucas", k, modulus, p): an ideal Lucas prime with alpha(p) = modulus.
# ("chain", k, modulus, s): an acceptable chain of length s ending at modulus.
EXPORT_SHAPES = (("lucas", 3, 18, 19), ("lucas", 3, 22, 23), ("lucas", 4, 10, 11),
                 ("lucas", 4, 12, 13), ("chain", 3, 24, 3), ("chain", 3, 20, 3),
                 ("chain", 4, 12, 2))
EXPORT_SHAPES_TINY = (("lucas", 3, 10, 11), ("chain", 3, 12, 2), ("chain", 3, 10, 2))
EXPORT_REALIZATIONS = 3
CHAIN_PRIMES = (2, 3, 5, 7)
CHAIN_TAIL = 3          # ratios equal to p after the chain, as classify confirms them


def divisor_chains(m: int, length: int) -> list[tuple[int, ...]]:
    """Strictly increasing chains a_1 | a_2 | ... | a_length = m with a_1 >= 2."""
    if length == 1:
        return [(m,)] if m >= 2 else []
    out = []
    for d in range(2, m):
        if m % d == 0:
            out.extend(c + (m,) for c in divisor_chains(d, length - 1))
    return out


def _export_realization(rng: random.Random, shape: tuple) -> dict:
    kind, k, m, extra = shape
    if kind == "lucas":
        P, Q = draw_lucas(rng, extra, m)
        return {"kind": "lucas", "seq": f"lucas:{P},{Q}", "p": extra, "k": k, "modulus": m}
    length = extra
    options = [(c, p) for c in divisor_chains(m, length) for p in CHAIN_PRIMES
               if length == 1 or c[-1] // c[-2] != p]
    chain, p = rng.choice(options)
    full = list(chain) + [m * p ** j for j in range(1, CHAIN_TAIL + 1)]
    return {"kind": "chain", "chain": full, "s": length, "p": p, "k": k, "modulus": m}


def gen_export_acceptable(seed: int, tiny: bool) -> list[list[dict]]:
    rng = _rng("export_acceptable", seed)
    shapes = EXPORT_SHAPES_TINY if tiny else EXPORT_SHAPES
    count = 1 if tiny else EXPORT_REALIZATIONS
    realizations = [[_export_realization(rng, shape) for _ in range(count)] for shape in shapes]
    rounds = []
    for i in range(count if tiny else POOL_ROUNDS):
        ops = [dict(r[i % count]) for r in realizations]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


GENERATORS = {
    "eval_deep": gen_eval_deep,
    "cli_cold": gen_cli_cold,
    "verify_sweep": gen_verify_sweep,
    "export_acceptable": gen_export_acceptable,
}


def chain_terms(chain: list[int], p: int) -> list[int]:
    """C_n = p^(number of chain entries dividing n), n = 1..chain[-1]: a
    strong divisibility sequence whose apparition chain is exactly chain."""
    return [p ** sum(1 for a in chain if n % a == 0) for n in range(1, chain[-1] + 1)]


def op_key(workload: str, op: dict) -> str:
    """Canonical description of an op's input, used to look up references."""
    return workload + "|" + json.dumps(op, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Running ops against the package.  Everything below needs cnomial on the
# import path; calls go through module attributes so a tracer can wrap them.


class Workload:
    """Set-up, one op, and the check of one op's output."""

    def __init__(self, name: str, root: str, workdir: str, seed: int, tiny: bool):
        self.name = name
        self.root = root
        self.workdir = workdir
        self.rounds = GENERATORS[name](seed, tiny)

    def setup(self) -> None:
        pass

    def run(self, op: dict):
        raise NotImplementedError

    def output_text(self, op: dict, result) -> str:
        """The text a user would read, whose digest the references store."""
        raise NotImplementedError

    def check(self, op: dict, result) -> str | None:
        """Seed-independent checks; a message on failure."""
        return None


def _sum_check(poly, n: int, k: int) -> str | None:
    want = comb(n + k - 1, k - 1)
    got = poly.eval_at_one()
    if got != want:
        return f"coefficients sum to {got}, expected C({n}+{k}-1, {k}-1) = {want}"
    return None


class EvalDeep(Workload):
    def setup(self):
        from cnomial import apparition, engine, seqcore
        self.specs = {}
        self.profiles = {}
        for sel, p in EVAL_SEQS:
            spec = seqcore.parse_selector(sel)
            self.specs[sel] = spec
            self.profiles[sel] = apparition.classify(spec, p)
        # Warm the digit-matrix cache through the attribute engine calls, so
        # a traced set-up counts the construction in transfer.digit_matrices.
        for _, p, k, _ in EVAL_SHAPES:
            engine.digit_matrices(p, k)

    def run(self, op):
        from cnomial import engine
        return engine.eval_generating_poly(self.specs[op["seq"]], self.profiles[op["seq"]],
                                           op["k"], op["n"])

    def output_text(self, op, result):
        return json.dumps(result.polynomial.to_json_dict(), separators=(",", ":"))

    def check(self, op, result):
        return _sum_check(result.polynomial, op["n"], op["k"])


def _parse_poly_text(text: str) -> dict[int, int]:
    """Inverse of ValPoly.__str__: '10 + 3*x + 2*x^5' -> {0: 10, 1: 3, 5: 2}."""
    coeffs = {}
    for term in text.strip().split(" + "):
        if "*x^" in term:
            c, e = term.split("*x^")
        elif term.endswith("*x"):
            c, e = term[:-2], "1"
        else:
            c, e = term, "0"
        coeffs[int(e)] = int(c)
    return coeffs


def child_env(root: str) -> dict[str, str]:
    """The pinned environment of every cnomial process: the package from
    src/ (it is not installed), no profile cache, fixed hash seed."""
    env = dict(os.environ)
    env.pop("CNOMIAL_PROFILE_CACHE", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class CliCold(Workload):
    # In traced runs the worker sets this to the command that starts a
    # traced child (perfbench/cli_child.py) in place of "python -m cnomial.cli".
    launcher: list[str] | None = None

    def setup(self):
        self.env = child_env(self.root)
        # One untimed query (the cheapest shape, so set-up costs the same for
        # every seed): every timed process then imports from compiled
        # bytecode with a warm page cache.
        self.run(min(self.rounds[0], key=lambda op: op["p"]))

    def argv(self, op):
        return ["eval", "--seq", op["seq"], "-p", str(op["p"]), "-k", str(op["k"]),
                "-n", str(op["n"])]

    def run(self, op):
        launcher = self.launcher or [sys.executable, "-m", "cnomial.cli"]
        proc = subprocess.run(launcher + self.argv(op), env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def output_text(self, op, result):
        return result[1]

    def check(self, op, result):
        rc, out, err = result
        if rc != 0:
            return f"exit code {rc}: {err.strip()[-200:]}"
        from cnomial.polyarith import ValPoly
        return _sum_check(ValPoly(_parse_poly_text(out)), op["n"], op["k"])


class VerifySweep(Workload):
    def argv(self, op):
        seq = op["seq"]
        if seq.startswith("file:"):
            seq = "file:" + os.path.join(self.root, seq[len("file:"):])
        return ["verify", "--seq", seq, "-p", str(op["p"]), "-k", str(op["k"]),
                "--n-max", str(op["n_max"])]

    def setup(self):
        from cnomial import cli  # noqa: F401  (import cost belongs to set-up)

    def run(self, op):
        from cnomial import cli
        out = io.StringIO()
        rc = cli.run(self.argv(op), stdout=out)
        return rc, out.getvalue()

    def check(self, op, result):
        rc, out = result
        argv = self.argv(op)
        want = f"verified {argv[2]} p={op['p']} k={op['k']} for all n <= {op['n_max']}\n"
        if rc != 0 or out != want:
            return f"verify exit code {rc}, output {out.strip()[:200]!r}"
        return None


class ExportAcceptable(Workload):
    def setup(self):
        from cnomial import apparition, engine, seqcore
        from cnomial.apparition import PrimeClass
        self.specs = {}
        self.profiles = {}
        for rnd in self.rounds:
            for op in rnd:
                key = op_key(self.name, op)
                if key in self.profiles:
                    continue
                if op["kind"] == "chain":
                    path = os.path.join(self.workdir, f"chain_{digest(key)}.txt")
                    with open(path, "w", encoding="utf-8") as f:
                        f.write(f"# chain {op['chain']} p={op['p']}\n")
                        f.write("\n".join(str(t) for t in chain_terms(op["chain"], op["p"])))
                        f.write("\n")
                    spec = seqcore.parse_selector("file:" + path)
                else:
                    spec = seqcore.parse_selector(op["seq"])
                profile = apparition.classify(spec, op["p"])
                want = PrimeClass.ACCEPTABLE if op["kind"] == "chain" else PrimeClass.IDEAL
                if profile.prime_class is not want or profile.stable_modulus != op["modulus"]:
                    raise RuntimeError(f"input generation broke: {key} classified as {profile}")
                self.specs[key] = spec
                self.profiles[key] = profile
                engine.digit_matrices(op["p"], op["k"])
        # Op key -> digest of the output that passed the full check.
        self.checked: dict[str, str] = {}

    def run(self, op):
        from cnomial import engine
        rep = engine.linear_representation(self.profiles[op_key(self.name, op)], op["k"],
                                           force_path="acceptable")
        return rep, json.dumps(rep.to_json_dict(), indent=1, sort_keys=True)

    def output_text(self, op, result):
        return result[1]

    def check(self, op, result):
        # The first op of each key gets the full check: evaluate the exported
        # representation (the coefficient sum at a large index, and the
        # oracle at every residue of one small period).  Every later op of
        # that key must give the same output, byte for byte.
        key = op_key(self.name, op)
        out = digest(result[1])
        if key in self.checked:
            if out != self.checked[key]:
                return "output differs from the first, fully checked output of this input"
            return None
        from cnomial import oracle
        rep = result[0]
        k, m = op["k"], op["modulus"]
        err = _sum_check(rep.evaluate(10 ** 6 + 7, m - 1), m * (10 ** 6 + 7) + m - 1, k)
        if err:
            return err
        for r in range(m):
            want = oracle.brute_generating_poly(self.specs[key], op["p"], k, m + r)
            if rep.evaluate(1, r) != want:
                return f"representation at n={m + r} disagrees with the oracle"
        self.checked[key] = out
        return None


WORKLOADS = {
    "eval_deep": EvalDeep,
    "cli_cold": CliCold,
    "verify_sweep": VerifySweep,
    "export_acceptable": ExportAcceptable,
}
