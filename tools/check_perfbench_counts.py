#!/usr/bin/env python3
"""Gates perfbench's deterministic work counts against a committed baseline.

Run from the repository root:

    python3 tools/check_perfbench_counts.py            # compare, exit 1 on drift
    python3 tools/check_perfbench_counts.py --update   # rewrite the baseline

Each workload runs once through perfbench/run.py at tiny size, traced, at a
fixed seed. Every per-layer metric whose BENCHMARK.json unit is `count` is
compared at exact equality with bench/baselines/perfbench_tiny_counts.json.
A change that alters work on purpose regenerates the baseline with
--update and says which counts moved and why.

Every gated count is independent of the worker pool's size: perfbench
prints the same counts with 2, 5 and 8 pool workers, so a runner of any
core count gets the same answer.
"""
import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
BASELINE = ROOT / "bench" / "baselines" / "perfbench_tiny_counts.json"
SEED = 3


def measure(workload, names):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", "1", "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload}: perfbench exit {done.returncode}\n{done.stdout}")
    metrics = json.loads(lines[-1])["metrics"]
    return {n: metrics[n]["value"] for n in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="rewrite the baseline file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [d["name"] for d in spec["per_layer"] if d["unit"] == "count"]
    got = {w["name"]: measure(w["name"], names) for w in spec["workloads"]}

    if args.update:
        BASELINE.write_text(json.dumps({"seed": SEED, "counts": got}, indent=2, sort_keys=True) + "\n")
        print(f"wrote {BASELINE.relative_to(ROOT)}")
        return 0

    want = json.loads(BASELINE.read_text())["counts"]
    failures = 0
    for workload in sorted(set(want) | set(got)):
        w, g = want.get(workload, {}), got.get(workload, {})
        for name in sorted(set(w) | set(g)):
            if w.get(name) != g.get(name):
                failures += 1
                print(f"FAIL {workload} {name}: baseline {w.get(name)} != measured {g.get(name)}")
    if failures == 0:
        print(f"ok   {sum(len(c) for c in got.values())} counts over {len(got)} workloads match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
