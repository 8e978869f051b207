"""Regenerate perfbench/refs.json: reference output digests for the default seed.

    python3 perfbench/make_refs.py

Runs every distinct op of the default seed (full size and --tiny) once,
through the same code the benchmark times, and stores a digest of each
output keyed by a digest of its input.  Run it only on a commit whose
acceptance suite passes; every op must also pass its own checks.
verify_sweep has no entry: its check is the oracle sweep inside the op.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402


def main() -> int:
    digests = {}
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    for name in ("eval_deep", "cli_cold", "export_acceptable"):
        for tiny in (False, True):
            with tempfile.TemporaryDirectory(dir=out) as workdir:
                wl = workloads.WORKLOADS[name](name, ROOT, workdir, DEFAULT_SEED, tiny)
                wl.setup()
                for rnd in wl.rounds:
                    for op in rnd:
                        key = workloads.digest(workloads.op_key(name, op))
                        if key in digests:
                            continue
                        result = wl.run(op)
                        error = wl.check(op, result)
                        if error:
                            print(f"{name}: {op}: {error}", file=sys.stderr)
                            return 1
                        digests[key] = workloads.digest(wl.output_text(op, result))
        print(f"{name}: {len(digests)} digests so far")
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as f:
        json.dump({"seed": DEFAULT_SEED, "digests": dict(sorted(digests.items()))}, f,
                  indent=0)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
