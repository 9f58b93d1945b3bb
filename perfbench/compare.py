#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 perfbench/compare.py --a PARENT_DIR --b CHANGE_DIR \\
        [--workload NAME ...] [--pairs 10] [--seconds 10] [--out runs.jsonl]

Pair i runs seed i on both sides, A first on even i and B first on odd i,
each run a fresh `python3 perfbench/run.py` from the root of its checkout
(the benchmark code of each checkout is the one that runs). A and B may be
the same directory, which measures the benchmark's own run-to-run spread.

For every workload and end-to-end metric it prints each side's median and
quartiles (calibrated, and raw from the `raw` line), the quartile spread as a
share of the median, the change of B's median against A's as a share of A's,
and how many pairs B won. Every run's output is appended to --out.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s %s seed %d: exit %d\n%s"
                           % (tree, workload, seed, done.returncode, done.stderr))
    result = json.loads(lines[-1])
    result["raw"] = json.loads(lines[-2][len("raw "):])
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(workload: str, runs: dict) -> None:
    print("== %s (%d pairs)" % (workload, len(runs["a"])))
    for side in "ab":
        shares = {(r["failed"], r["attempted"]) for r in runs[side]}
        print("  %s: correct=%s failed/attempted=%s" % (
            side.upper(), all(r["correct"] for r in runs[side]),
            sorted("%d/%d" % s for s in shares)))
    for metric, better in BETTER.items():
        cal = {s: [r["metrics"][metric]["value"] for r in runs[s]] for s in "ab"}
        raw = {s: [r["raw"].get(metric) for r in runs[s]] for s in "ab"}
        for s in "ab":
            q1, med, q3 = quartiles(cal[s])
            line = "  %-12s %s cal  median %11.4f  q1 %11.4f  q3 %11.4f  spread %6.3f" % (
                metric, s.upper(), med, q1, q3, (q3 - q1) / med)
            if metric in runs[s][0]["raw"]:
                rq1, rmed, rq3 = quartiles(raw[s])
                line += "   raw median %11.4f spread %6.3f" % (rmed, (rq3 - rq1) / rmed)
            print(line)
        med_a, med_b = statistics.median(cal["a"]), statistics.median(cal["b"])
        change = (med_b - med_a) / med_a
        wins = sum((b < a) if better == "lower" else (b > a) for a, b in zip(cal["a"], cal["b"]))
        print("  %-12s B vs A: median %+.3f (%s is better), B won %d of %d pairs" % (
            metric, change, better, wins, len(cal["a"])))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", required=True, type=Path, help="root of the parent checkout")
    parser.add_argument("--b", required=True, type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--out", type=Path, default=None, help="append every run as JSON lines")
    args = parser.parse_args(argv)
    for workload in args.workload:
        runs = {"a": [], "b": []}
        for i in range(args.pairs):
            seed = i + 1
            for side in ("ab" if i % 2 == 0 else "ba"):
                tree = args.a if side == "a" else args.b
                result = run_once(tree.resolve(), workload, seed, args.seconds)
                runs[side].append(result)
                if args.out is not None:
                    args.out.parent.mkdir(parents=True, exist_ok=True)
                    with args.out.open("a") as handle:
                        handle.write(json.dumps({"side": side, "tree": str(tree),
                                                 "workload": workload, "seed": seed,
                                                 **result}) + "\n")
        summarize(workload, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
