"""Run perfbench for some workloads and seeds and record the medians.

    python3 scripts/bench_record.py --workload verify_sweep --seeds 11-20 \
        [--side parent=PATH] [--side change=PATH] [--out-dir DIR]

Each side is a cnomial checkout (default: this one, as ``change``); for
every seed the sides run ``python3 perfbench/run.py`` one after another,
at the benchmark's own run length, and the order rotates from seed to
seed, so no side always runs first.
The record, ``BENCH_<date>_<short-sha>.json`` in --out-dir (default: the
root of this checkout), holds the machine and Python, the arguments (side
names, not paths), every run's end-to-end metrics, each side's per-metric
median and quartiles, and, with two or more sides, on how many seeds the
last side beat the first (ties count for neither) in the direction
BENCHMARK.json declares.
<short-sha> is the git commit of the last side.  A run that fails, or
reports ``correct: false``, stops the recording with exit code 1.
"""

import argparse
import datetime
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(), "cpu": cpu}


def run_once(checkout: str, workload: str, seed: int, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    env = next((line for line in lines if line.startswith("env: ")), "")
    found = dict(re.findall(r"(git_sha|src_sha256)=(\S+)", env))
    result = json.loads(lines[-1])
    return {"seed": seed, "git_sha": found.get("git_sha"),
            "src_sha256": found.get("src_sha256"), "correct": result["correct"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = sorted(r["metrics"][name] for r in runs)
        q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else values * 3)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    return out


def wins(first: list[dict], last: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        pairs = list(zip(first, last))
        won = sum(1 for a, b in pairs
                  if sign * (b["metrics"][name] - a["metrics"][name]) > 0)
        out[name] = f"{won}/{len(pairs)}"
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 11-20 or 1,3,5")
    ap.add_argument("--side", action="append", default=[], metavar="NAME=PATH")
    ap.add_argument("--out-dir", default=ROOT)
    args = ap.parse_args()

    sides = [tuple(s.split("=", 1)) for s in args.side] or [("change", ROOT)]
    sides = [(name, os.path.abspath(path)) for name, path in sides]
    seeds = parse_seeds(args.seeds)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    timeout = benchmark["run_seconds"] * 4 + 600

    record = {"date": datetime.date.today().isoformat(), "machine": machine(),
              "arguments": {"workloads": args.workload, "seeds": args.seeds,
                            "sides": [name for name, _ in sides]},
              "workloads": {}}
    for workload in args.workload:
        runs: dict[str, list[dict]] = {name: [] for name, _ in sides}
        for i, seed in enumerate(seeds):
            shift = i % len(sides)
            for name, path in sides[shift:] + sides[:shift]:
                run = run_once(path, workload, seed, timeout)
                runs[name].append(run)
                print(f"{workload} seed={seed} {name}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in run["metrics"].items()), flush=True)
                if not run["correct"]:
                    print(f"error: {name} reported correct: false", file=sys.stderr)
                    return 1
        for side in runs.values():
            side.sort(key=lambda r: r["seed"])
        entry = {"seeds": seeds,
                 "sides": {name: {"checkout_git_sha": rs[0]["git_sha"],
                                  "src_sha256": rs[0]["src_sha256"],
                                  "summary": summarize(rs), "runs": rs}
                           for name, rs in runs.items()}}
        if len(sides) > 1:
            entry[f"{sides[-1][0]}_better_than_{sides[0][0]}"] = wins(
                runs[sides[0][0]], runs[sides[-1][0]], better)
        record["workloads"][workload] = entry

    sha = (runs[sides[-1][0]][0]["git_sha"] or "nogit")[:7]
    path = os.path.join(args.out_dir, f"BENCH_{record['date']}_{sha}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
