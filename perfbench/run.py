"""The cnomial benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout that holds src/cnomial.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the metric names and units are those declared in
BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1).  The
exit code is 0 only when every op succeeded and every output checked out.

--trace 0 sets up eleven times in fresh processes (setup_s is the median),
then times the workload in the last of them.  --trace 1 runs the workload
untraced and then traced, each in a fresh process, and reports the layers
and the tracing overhead.  See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 11
DEFAULT_SEED = 1     # the seed refs.json holds reference outputs for


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "cnomial", "*.py"))):
        with open(path, "rb") as f:
            h.update(os.path.basename(path).encode() + b"\0" + f.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "git_sha": sha, "src_sha256": h.hexdigest()[:16]}


def worker(args, phase: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--phase", phase,
           "--trace", str(trace)]
    if args.tiny:
        cmd.append("--tiny")
    spawned_at = time.perf_counter()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                          env=workloads.child_env(ROOT), cwd=ROOT, capture_output=True,
                          text=True, timeout=args.seconds + 150)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the tests")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "cnomial", "__init__.py")):
        print(f"error: no src/cnomial under {ROOT}; run from a cnomial checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]

    env = environment()
    # Untimed: compile the package's bytecode once, so no set-up pays for it.
    subprocess.run([sys.executable, "-c", "import cnomial.cli"], env=workloads.child_env(ROOT),
                   cwd=ROOT, check=True, timeout=120)

    if args.trace:
        plain = worker(args, "run", 0)
        traced = worker(args, "run", 1)
        runs = [plain, traced]
        values = dict(traced["layers"])
        values["trace.overhead_pct"] = (plain["ops_per_s"] / traced["ops_per_s"] - 1) * 100
        detail = {"untraced": plain, "traced": traced}
    else:
        setups = [worker(args, "setup", 0)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        main_run = worker(args, "run", 0)
        setups.append(main_run["setup_s"])
        runs = [main_run]
        values = {
            "ops_per_s": main_run["ops_per_s"],
            "op_p50_ms": main_run["op_p50_ms"],
            "op_tail_ms": main_run["op_tail_ms"],
            "success_rate": 1 - main_run["failed"] / main_run["attempted"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
        detail = {"run": main_run, "setup_samples_s": setups}

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = os.path.join(OUT, "results",
                          f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(record, "w", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "tiny": args.tiny, "env": env, "result": result, "detail": detail}, f,
                  indent=1)

    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for r in runs:
        print(f"run: workload={args.workload} seed={args.seed} rounds={r['rounds']} "
              f"ops={r['attempted']} timed_s={r['timed_s']:.3f} "
              f"tail=p{r['tail_percentile']:.1f} of {r['attempted']} samples "
              f"refs_checked={r['refs_checked']} "
              f"error_rate={r['failed'] / r['attempted']:.6g}")
        for msg in r["failures"]:
            print(f"FAILED {msg}")
    if not args.trace:
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in detail["setup_samples_s"]))
    else:
        for name, ms in traced["probes"].items():
            print(f"probe: {name} = {ms:.3f}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"record: {os.path.relpath(record, ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
