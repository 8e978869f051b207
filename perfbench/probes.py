"""Fixed single-query timings: the ROADMAP "Current state" points that fit
in a run, taken after a traced run with tracing off.

Each figure is the minimum wall time over its repeats, in ms.  Which points
run depends on the workload whose layers they belong to.
"""

from __future__ import annotations

import time

from workloads import lucas_rank


def _best_ms(fn, repeats: int) -> float:
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = (time.perf_counter() - t0) * 1e3
        best = dt if best is None else min(best, dt)
    return best


def run(workload: str, tiny: bool) -> dict[str, float]:
    from cnomial import apparition, engine, initvec, oracle, seqcore
    from cnomial.apparition import PrimeClass, PrimeProfile

    fib = seqcore.LucasSpec(1, -1)
    out: dict[str, float] = {}
    if workload == "eval_deep":
        prof = apparition.classify(fib, 2)
        grid = [(2, 6), (2, 50), (3, 50)] if tiny else [(2, 6), (2, 50), (2, 200), (3, 50), (5, 50)]
        for k, e in grid:
            out[f"eval_fib_p2_k{k}_N1e{e}_ms"] = _best_ms(
                lambda: engine.eval_generating_poly(fib, prof, k, 10 ** e), 1 if e >= 200 else 3)
    elif workload == "cli_cold":
        for p in ((11,) if tiny else (11, 31, 53)):
            out[f"classify_fib_p{p}_ms"] = _best_ms(lambda: apparition.classify(fib, p), 1)
    elif workload == "verify_sweep":
        prof = apparition.classify(fib, 2)

        def matrix(k, n_max):
            for n in range(n_max + 1):
                engine.eval_generating_poly(fib, prof, k, n)

        def brute(k, n_max):
            table = oracle.corial_valuation_table(fib, 2, n_max)
            for n in range(n_max + 1):
                oracle.brute_generating_poly(fib, 2, k, n, _table=table)

        for k, n_max in ([(3, 40)] if tiny else [(2, 2000), (3, 200), (4, 80)]):
            out[f"sweep_fib_p2_k{k}_n{n_max}_matrix_ms"] = _best_ms(lambda: matrix(k, n_max), 1)
            out[f"sweep_fib_p2_k{k}_n{n_max}_oracle_ms"] = _best_ms(lambda: brute(k, n_max), 1)
    elif workload == "export_acceptable":
        # Fibonacci p=101: alpha(101) = 50 and alpha(101^2) = 5050, an ideal
        # prime with s = 1, so the acceptable route runs at modulus 50.  The
        # profile is built directly: classifying p=101 takes seconds.
        if lucas_rank(1, -1, 101, 50) != 50 or lucas_rank(1, -1, 101 ** 2, 5050) != 5050:
            raise RuntimeError("Fibonacci alpha(101) is not 50")
        prof = PrimeProfile(p=101, prime_class=PrimeClass.IDEAL, alpha_powers=(50,), s=1,
                            ratios=(50, 101, 101, 101), evidence_kmax=4)
        residues = range(0, 50, 10) if tiny else range(50)
        total = _best_ms(lambda: [initvec.acceptable_vector(prof, 3, r) for r in residues], 1)
        out["acceptable_vector_m50_k3_ms_per_residue"] = total / len(residues)
        if not tiny:
            out["acceptable_vector_m50_k4_ms_per_residue"] = _best_ms(
                lambda: initvec.acceptable_vector(prof, 4, 25), 1)
    return out
