#!/usr/bin/env python3
"""Pairs perfbench runs of a base revision against the working tree.

Run from the repository root:

    python3 tools/perf_pairs.py --base HEAD --pairs 10 --workload reconverge-lossy
    python3 tools/perf_pairs.py --base HEAD~1 --pairs 3 --seconds 8

The base revision's committed files are exported with `git archive` into
<work-dir>/base/src (the same committed-files view the benchmark itself
checks out; nothing is registered in the repository's .git). Each side
builds perfbench/run.py into its own CARGO_TARGET_DIR under <work-dir>.

Per workload, each side first runs once as a discarded warm-up. Then come
`--pairs` pairs, one run per side, in an order drawn from `--order-seed`
(printed, so the order can be replayed). For every end-to-end metric of
BENCHMARK.json the tool prints both medians, both quartiles, the change of
the medians and how many pairs the working tree won. Every raw result line
is appended to <work-dir>/pairs.jsonl.

Exit status: 1 when any run failed its output checks (`correct: false`,
`failed > 0`) or printed no result line, else 0. perfbench is only called,
never modified.
"""
import argparse
import json
import os
import pathlib
import random
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(base, change, better):
    """Pairs in which the change is strictly better than its base partner."""
    if better == "lower":
        return sum(1 for b, c in zip(base, change) if c < b)
    return sum(1 for b, c in zip(base, change) if c > b)


def run_ok(result):
    """True when a parsed result line reports clean output checks."""
    return result is not None and result.get("correct") is True and result.get("failed") == 0


def summarize(metrics, pairs):
    """Rows (name, unit, base quartiles, change quartiles, change %, wins, n).

    `metrics` is BENCHMARK.json's end_to_end list; `pairs` is a list of
    (base result, change result) dicts as perfbench prints them. A metric
    missing from any result line is skipped.
    """
    rows = []
    for m in metrics:
        name = m["name"]
        if not all(name in b["metrics"] and name in c["metrics"] for b, c in pairs):
            continue
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        bq, cq = quartiles(base), quartiles(change)
        delta = (cq[1] - bq[1]) / bq[1] * 100.0 if bq[1] != 0 else float("nan")
        rows.append((name, m["unit"], bq, cq, delta, wins(base, change, m["better"]), len(pairs)))
    return rows


def format_rows(workload, rows):
    lines = [f"{workload}:",
             f"  {'metric':<12} {'base median [q1, q3]':>36} {'change median [q1, q3]':>36}"
             f" {'change':>8} {'wins':>6}"]
    for name, unit, bq, cq, delta, won, n in rows:
        base = f"{bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}] {unit}"
        change = f"{cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] {unit}"
        lines.append(f"  {name:<12} {base:>36} {change:>36} {delta:>+7.1f}% {won:>3}/{n}")
    return "\n".join(lines)


def export_base(rev, dest):
    """Extracts the committed files of `rev` into dest (once per revision)."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            stdout=subprocess.PIPE, text=True).stdout.strip()
    stamp = dest / ".perf_pairs_rev"
    if stamp.exists() and stamp.read_text() == commit:
        return commit
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"perf_pairs: git archive {rev} failed")
    stamp.write_text(commit)
    return commit


class Side:
    """One tree (base export or working tree) with its own build directory."""

    def __init__(self, src, build):
        self.src, self.build = src, build

    def run(self, workload, seed, seconds):
        env = dict(os.environ, CARGO_TARGET_DIR=str(self.build))
        cmd = [sys.executable, str(self.src / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=self.src, env=env, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if not isinstance(result, dict) or "metrics" not in result:
            result = None
        return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to pair (repeatable; default every workload)")
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--seed", type=int, default=1, help="perfbench workload seed")
    parser.add_argument("--order-seed", type=int, default=None,
                        help="seed of the in-pair order (default: drawn and printed)")
    parser.add_argument("--work-dir", default=str(ROOT / ".perf_pairs"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    order_seed = args.order_seed
    if order_seed is None:
        order_seed = random.SystemRandom().randrange(2**31)
    print(f"perf_pairs: base {args.base}, {args.pairs} pairs, {args.seconds} s runs, "
          f"workload seed {args.seed}, order seed {order_seed}", flush=True)
    order = random.Random(order_seed)

    work = pathlib.Path(args.work_dir).resolve()
    commit = export_base(args.base, work / "base" / "src")
    sides = {"base": Side(work / "base" / "src", work / "base" / "build"),
             "change": Side(ROOT, work / "change" / "build")}
    print(f"perf_pairs: base is {commit}", flush=True)

    log = (work / "pairs.jsonl").open("a")
    status = 0

    def measure(side, workload):
        nonlocal status
        code, result = sides[side].run(workload, args.seed, args.seconds)
        log.write(json.dumps({"side": side, "workload": workload, "exit": code,
                              "result": result}) + "\n")
        log.flush()
        if not run_ok(result):
            print(f"perf_pairs: {side} {workload} failed (exit {code}, result {result})",
                  flush=True)
            status = 1
        return result

    for workload in workloads:
        for side in ("base", "change"):  # discarded warm-ups (the first also builds)
            measure(side, workload)
        pairs = []
        for i in range(args.pairs):
            first = order.choice(("base", "change"))
            second = "change" if first == "base" else "base"
            got = {first: measure(first, workload), second: measure(second, workload)}
            if got["base"] is not None and got["change"] is not None:
                pairs.append((got["base"], got["change"]))
            print(f"  {workload} pair {i + 1}/{args.pairs} ({first} first)", flush=True)
        if pairs:
            print(format_rows(workload, summarize(spec["end_to_end"], pairs)), flush=True)
    log.close()
    return status


if __name__ == "__main__":
    sys.exit(main())
