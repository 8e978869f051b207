"""Command-line front end.

Subcommands: eval, oracle, verify, classify, vectors, matrices, export.
Exit codes: 0 success, 1 usage error, 2 verification divergence,
3 classification undetermined within the available terms.

All numeric output is printed as decimal strings; polynomial JSON maps
exponent strings to coefficient strings, e.g. {"0":"10","2":"3"}.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import apparition, engine, initvec, seqcore
from .apparition import UndeterminedError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def _add_common(parser, *, seq=True, k=True):
    if seq:
        parser.add_argument("--seq", required=True,
                            help="sequence selector: fibonacci, naturals, lucas:P,Q, file:PATH")
    parser.add_argument("-p", type=int, required=True, help="prime")
    if k:
        parser.add_argument("-k", type=int, default=2,
                            help="number of multinomial parts (default 2)")
    parser.add_argument("--format", choices=("text", "json"), default="text")


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged."""
    parser = _Parser(prog="cnomial", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate via the matrix product")
    _add_common(p_eval)
    p_eval.add_argument("-n", type=int, required=True, help="index N")
    p_eval.set_defaults(func=_cmd_eval)

    p_oracle = sub.add_parser("oracle", help="evaluate by brute-force enumeration")
    _add_common(p_oracle)
    p_oracle.add_argument("-n", type=int, required=True, help="index N")
    p_oracle.add_argument("--bigint-samples", type=int, default=0,
                          help="cross-check this many tuples with big-integer products")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_verify = sub.add_parser("verify", help="compare matrix product against brute force")
    _add_common(p_verify)
    p_verify.add_argument("--n-max", type=int, required=True)
    p_verify.add_argument("--kmax", type=int, default=None,
                          help="cap on classification chain depth")
    p_verify.set_defaults(func=_cmd_verify)

    p_classify = sub.add_parser("classify", help="classify a prime for a sequence")
    _add_common(p_classify, k=False)
    p_classify.add_argument("--kmax", type=int, default=None,
                            help="number of apparition ratios to compute")
    p_classify.set_defaults(func=_cmd_classify)

    p_vectors = sub.add_parser("vectors", help="print the initial vectors")
    _add_common(p_vectors)
    p_vectors.add_argument("-r", type=int, default=None,
                           help="single residue (default: all residues)")
    p_vectors.set_defaults(func=_cmd_vectors)

    p_matrices = sub.add_parser("matrices", help="print the digit matrices")
    _add_common(p_matrices, seq=False)
    p_matrices.add_argument("-d", type=int, default=None,
                            help="single digit (default: all digits)")
    p_matrices.set_defaults(func=_cmd_matrices)

    p_export = sub.add_parser("export", help="export the linear representation as JSON")
    _add_common(p_export)
    p_export.add_argument("--out", default=None, help="output path (default stdout)")
    p_export.set_defaults(func=_cmd_export)

    return parser


def _parse_spec(args) -> seqcore.SequenceSpec:
    try:
        return seqcore.parse_selector(args.seq)
    except (ValueError, OSError) as e:
        raise _UsageError(str(e)) from None


def _check_numbers(args):
    if not apparition.is_prime(args.p):
        raise _UsageError(f"p must be prime, got {args.p}")
    if getattr(args, "k", 2) < 2:
        raise _UsageError(f"k must be >= 2, got {args.k}")
    if getattr(args, "n", 0) < 0:
        raise _UsageError(f"n must be >= 0, got {args.n}")


def _compact_json(payload) -> str:
    import json
    return json.dumps(payload, separators=(",", ":"))


def _cmd_eval(args, out) -> int:
    _check_numbers(args)
    spec = _parse_spec(args)
    profile = apparition.classify(spec, args.p)
    result = engine.eval_generating_poly(spec, profile, args.k, args.n)
    if args.format == "json":
        print(_compact_json(result.polynomial.to_json_dict()), file=out)
    else:
        print(result.polynomial, file=out)
    return 0


def _cmd_oracle(args, out) -> int:
    _check_numbers(args)
    if args.bigint_samples < 0:
        raise _UsageError(f"--bigint-samples must be >= 0, got {args.bigint_samples}")
    spec = _parse_spec(args)
    from . import oracle
    poly = oracle.brute_generating_poly(spec, args.p, args.k, args.n,
                                        bigint_samples=args.bigint_samples)
    if args.format == "json":
        print(_compact_json(poly.to_json_dict()), file=out)
    else:
        print(poly, file=out)
    return 0


def _cmd_verify(args, out) -> int:
    _check_numbers(args)
    if args.n_max < 0:
        raise _UsageError(f"--n-max must be >= 0, got {args.n_max}")
    spec = _parse_spec(args)
    profile = apparition.classify(spec, args.p, kmax=args.kmax)
    from . import oracle
    wants = oracle.generating_polys(spec, args.p, args.k, args.n_max)
    gots = engine.eval_sweep(spec, profile, args.k, args.n_max)
    for n, (got, want) in enumerate(zip(gots, wants)):
        if got.polynomial != want:
            print(f"divergence at n={n}: matrix {got.polynomial} vs oracle {want}", file=out)
            return 2
    print(f"verified {args.seq} p={args.p} k={args.k} for all n <= {args.n_max}", file=out)
    return 0


def _cmd_classify(args, out) -> int:
    _check_numbers(args)
    if args.kmax is not None and args.kmax < 2:
        raise _UsageError(f"--kmax must be >= 2, got {args.kmax}")
    spec = _parse_spec(args)
    profile = apparition.classify(spec, args.p, kmax=args.kmax)
    if args.format == "json":
        print(_compact_json(profile.to_json_dict()), file=out)
    else:
        print(f"p={profile.p} class={profile.prime_class} s={profile.s} "
              f"alpha_powers={list(profile.alpha_powers)} ratios={list(profile.ratios)} "
              f"evidence_kmax={profile.evidence_kmax}", file=out)
    return 0


def _cmd_vectors(args, out) -> int:
    _check_numbers(args)
    spec = _parse_spec(args)
    profile = apparition.classify(spec, args.p)
    initvec.check_vector_class(profile)
    modulus = profile.stable_modulus
    residues = [args.r] if args.r is not None else list(range(modulus))
    rows = {}
    for r in residues:
        if not 0 <= r < modulus:
            raise _UsageError(f"residue {r} not in [0, {modulus})")
        rows[r] = initvec.vector_for(profile, args.k, r)
    if args.format == "json":
        payload = {
            "p": args.p,
            "k": args.k,
            "modulus": modulus,
            "vectors": {str(r): [e.to_json_dict() for e in vec.entries]
                        for r, vec in rows.items()},
        }
        print(_compact_json(payload), file=out)
    else:
        for r, vec in rows.items():
            print(f"r={r}: [{', '.join(str(e) for e in vec.entries)}]", file=out)
    return 0


def _cmd_matrices(args, out) -> int:
    _check_numbers(args)
    if args.d is not None and not 0 <= args.d < args.p:
        raise _UsageError(f"digit {args.d} not in [0, {args.p})")
    digits = [args.d] if args.d is not None else list(range(args.p))
    from .transfer import multinomial_matrix
    mats = {d: multinomial_matrix(args.p, args.k, d) for d in digits}
    if args.format == "json":
        payload = {
            "p": args.p,
            "k": args.k,
            "matrices": {str(d): [[e.to_json_dict() for e in row] for row in m.entries]
                         for d, m in mats.items()},
        }
        print(_compact_json(payload), file=out)
    else:
        for d, m in mats.items():
            rows = ", ".join(
                "[" + ", ".join(str(e) for e in row) + "]" for row in m.entries
            )
            print(f"d={d}: [{rows}]", file=out)
    return 0


def _cmd_export(args, out) -> int:
    _check_numbers(args)
    spec = _parse_spec(args)
    profile = apparition.classify(spec, args.p)
    rep = engine.linear_representation(profile, args.k)
    import json
    text = json.dumps(rep.to_json_dict(), indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        print(f"wrote {args.out}", file=out)
    else:
        print(text, file=out)
    return 0


def run(argv: list[str], stdout=None) -> int:
    """Parse argv, execute one subcommand, and return the exit code."""
    out = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args, out)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except engine.NormalizationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UndeterminedError as e:
        print(f"undetermined: {e}", file=sys.stderr)
        return 3
    except (seqcore.InsufficientTermsError, apparition.StrongDivisibilityError,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
