"""Runs one workload in this process and prints its figures as one JSON line.

Started by run.py, one fresh process per workload and phase, so the
package's caches and the peak RSS never carry over between workloads.

    worker.py --workload NAME --seed N --seconds S --phase setup|run
              [--trace 0|1] [--tiny] [--spawned-at T]

The set-up phase ends just before the first timed op; --phase setup stops
there.  The run phase then times whole rounds of ops (one op at a time, a
closed loop with one client) until --seconds of op time have passed,
checking every output between ops, outside the timed intervals.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import probes  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile that has at
    least 10 samples above it; the maximum when there are 10 or fewer."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def interpreter_probe(env: dict, code: str, repeats: int = 5) -> float:
    """Median wall time, in ms, of a fresh `python -c code`."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--phase", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="parent's perf_counter() just before starting this process")
    args = ap.parse_args()

    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir = os.path.join(OUT, "work", tag)
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.start()
        op_name = tracer.name_id("bench.op")
        frame = tracer.begin()
    setup_t0 = time.perf_counter()

    wl = workloads.WORKLOADS[args.workload](args.workload, ROOT, workdir, args.seed, args.tiny)
    child_trace = os.path.join(workdir, "child_trace.json")
    if tracer is not None and isinstance(wl, workloads.CliCold):
        wl.launcher = [sys.executable, os.path.join(HERE, "cli_child.py"), child_trace]
    wl.setup()

    t_timed = time.perf_counter()
    if tracer is not None:
        tracer.end(frame, tracer.name_id("bench.setup"), setup_t0, t_timed)
    start = args.spawned_at if args.spawned_at is not None else T_START
    setup_s = t_timed - start
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as f:
        refs = json.load(f)["digests"]

    # Timed phase: whole rounds until --seconds of op time have passed.  Each
    # op is checked right after it returns, outside its timed interval, so
    # results need not be kept and memory stays flat.
    samples, failures = [], []
    refs_checked = 0
    rounds = wl.rounds
    r = 0
    timed = 0.0
    while timed < args.seconds:
        for op in rounds[r % len(rounds)]:
            if tracer is not None:
                tracer.op_id = len(samples)
                frame = tracer.begin()
                if os.path.exists(child_trace):
                    os.remove(child_trace)
            t0 = time.perf_counter()
            try:
                result, error = wl.run(op), None
            except Exception as e:  # a refused or crashed op counts as failed
                result, error = None, f"{type(e).__name__}: {e}"
            t1 = time.perf_counter()
            if tracer is not None:
                if os.path.exists(child_trace):
                    with open(child_trace, encoding="utf-8") as f:
                        tracer.merge_child(json.load(f), frame)
                tracer.end(frame, op_name, t0, t1)
                tracer.active = False
            samples.append(t1 - t0)
            timed += t1 - t0

            # Correctness gate.
            key = workloads.op_key(args.workload, op)
            if error is None:
                try:
                    error = wl.check(op, result)
                except Exception as e:
                    error = f"check raised {type(e).__name__}: {e}"
            ref = refs.get(workloads.digest(key))
            if error is None and ref is not None:
                refs_checked += 1
                if workloads.digest(wl.output_text(op, result)) != ref:
                    error = "output differs from the stored reference"
            if error is not None:
                failures.append(f"{key}: {error}")
            if tracer is not None:
                tracer.active = True
        r += 1

    who = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.CliCold) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.stop()

    n = len(samples)
    tail_s, tail_pct = tail(samples)
    out = {
        "setup_s": setup_s,
        "attempted": n,
        "failed": len(failures),
        "failures": failures[:5],
        "refs_checked": refs_checked,
        "rounds": r,
        "timed_s": timed,
        "ops_per_s": n / timed,
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "tail_percentile": tail_pct,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["trace.ops"] = n
        layers["trace.ops_per_s"] = n / timed
        env = workloads.child_env(ROOT)
        start_ms = interpreter_probe(env, "pass")
        layers["cli.interp_start_ms"] = start_ms
        layers["cli.import_ms"] = interpreter_probe(env, "import cnomial.cli") - start_ms
        out["layers"] = layers
        os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
        span_file = os.path.join(OUT, "trace", f"{args.workload}-seed{args.seed}.csv.gz")
        tracer.write_spans(span_file, T_START)
        out["span_file"] = os.path.relpath(span_file, ROOT)
        tracer.uninstall()
        out["probes"] = probes.run(args.workload, args.tiny)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
