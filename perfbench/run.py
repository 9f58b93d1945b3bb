#!/usr/bin/env python3
"""The thetadissect benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the engine is imported from its `src/`.
With --trace 0 the run measures `setup_s` (import time in fresh
interpreters), then runs an untimed warm-up round and whole rounds of the
workload until S seconds have passed and at least 100 operations have run,
and reports the end-to-end metrics in calibrated time (see calibrate.py).
With --trace 1 it runs an untimed warm-up round, one round untraced and one
traced, and reports the per-layer metrics of the traced round. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the line before it carries the
raw (uncalibrated) figures.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402

WORKLOAD_NAMES = ("catalog-named", "transform-grid", "dense-products")
SETUP_INTERPRETERS = 15
MIN_OPS = 100
CHILD_TIMEOUT_S = 170

_SETUP_CHILD = """
import json, statistics, sys, time
start, cpu = time.perf_counter(), time.process_time()
import thetadissect, thetadissect.cli
import_cpu_s, import_s = time.process_time() - cpu, time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
import calibrate
loop_ms = statistics.median(calibrate.sample_ms() for _ in range(5))
print(json.dumps({"import_s": import_s, "import_cpu_s": import_cpu_s, "loop_ms": loop_ms}))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the first import writes .pyc; later ones read it
    return env


def measure_setup() -> tuple[float, float]:
    """Median import time of thetadissect and its CLI over fresh interpreters,
    as (calibrated s, raw wall s). One interpreter runs first, untimed, so
    that compiling .pyc files does not count."""
    calibrated, raw = [], []
    for i in range(SETUP_INTERPRETERS + 1):
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(HERE)], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        if i == 0:
            continue
        sample = json.loads(done.stdout)
        raw.append(sample["import_s"])
        calibrated.append(sample["import_cpu_s"] * calibrate.REFERENCE_MS / sample["loop_ms"])
    return statistics.median(calibrated), statistics.median(raw)


def tail_percentile(count: int) -> int:
    """Highest whole percentile, at most 90, with at least ten samples beyond it."""
    return max(1, min(90, (100 * (count - 10)) // count))


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Tally:
    """Outcomes of the operations of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def run(self, op, calibrator=None):
        """Run one operation and check it; returns (start, wall s, CPU s, ok)."""
        if calibrator is not None:
            calibrator.maybe_sample()
        self.attempted += 1
        start, cpu = time.perf_counter(), time.process_time()
        try:
            result = op.call()
        except Exception as exc:  # a traceback is a wrong answer, not a crash of the run
            cpu, wall = time.process_time() - cpu, time.perf_counter() - start
            self.failed += 1
            self.wrong.append("%s: raised %s: %s" % (op.label, type(exc).__name__, exc))
            return start, wall, cpu, False
        cpu, wall = time.process_time() - cpu, time.perf_counter() - start
        try:
            ok = op.check(op, result)
        except Exception as exc:  # WrongOutput, or output the check could not read
            self.wrong.append("%s (%s)" % (exc, type(exc).__name__))
            ok = True
        if not ok:
            self.failed += 1
        return start, wall, cpu, ok

    def result(self, metrics: dict) -> dict:
        for line in self.wrong[:20]:
            print("WRONG %s" % line, file=sys.stderr)
        return {"correct": not self.wrong, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def timed_run(ops, seconds: float) -> tuple[dict, dict]:
    tally = Tally()
    for op in ops:  # warm-up round, untimed
        tally.run(op)
    calibrator = calibrate.Calibrator()
    records = []
    rounds = 0
    min_rounds = -(-MIN_OPS // len(ops))
    begin = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - begin < seconds:
        for op in ops:
            records.append(tally.run(op, calibrator))
        rounds += 1
    for _ in range(calibrate.WINDOW):
        calibrator.sample()
    cal = [(calibrator.calibrated_ms(start, wall, cpu), wall * 1000.0, ok)
           for start, wall, cpu, ok in records]
    ok_cal = [c for c, _, ok in cal if ok]
    ok_raw = [r for _, r, ok in cal if ok]
    pct = tail_percentile(len(ok_cal))
    calibrated = {
        "ops_per_s": len(ok_cal) / (sum(c for c, _, _ in cal) / 1000.0),
        "op_ms_p50": statistics.median(ok_cal),
        "op_ms_tail": percentile(ok_cal, pct),
    }
    raw = {
        "ops_per_s": len(ok_raw) / (sum(r for _, r, _ in cal) / 1000.0),
        "op_ms_p50": statistics.median(ok_raw),
        "op_ms_tail": percentile(ok_raw, pct),
        "tail_percentile": pct,
        "rounds": rounds,
        "loop_ms_median": calibrator.median_ms(),
        "wall_s": time.perf_counter() - begin,
    }
    return tally.result(calibrated), raw


def traced_run(ops) -> tuple[dict, dict]:
    import spans

    tally = Tally()
    calibrator = calibrate.Calibrator()

    def round_ms() -> float:
        records = [tally.run(op, calibrator) for op in ops]
        calibrator.sample()
        return sum(calibrator.calibrated_ms(start, wall, cpu) for start, wall, cpu, _ in records)

    round_ms()  # warm-up
    untraced_ms = round_ms()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_ms = round_ms()
    finally:
        tracer.uninstall()
    scale = calibrate.REFERENCE_MS / calibrator.median_ms() * 1000.0
    metrics = {}
    for name in spans.CALL_COUNTS:
        metrics[name + ".calls"] = (tracer.calls[name], "count")
    for name in spans.SELF_TIMES:
        metrics[name + ".self_ms"] = (tracer.self_s[name] * scale, "ms")
    for name in spans.COUNTERS:
        metrics[name] = (tracer.counters[name], "count")
    metrics["trace.overhead_x"] = (traced_ms / untraced_ms, "x")
    result = tally.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    raw = {"untraced_ms": untraced_ms, "traced_ms": traced_ms,
           "loop_ms_median": calibrator.median_ms()}
    return result, raw


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one result line each."""
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                              text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("%s: exit %d\n%s" % (name, done.returncode, done.stderr), file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print("%s: correct=%s attempted=%d failed=%d" % (
            name, result["correct"], result["attempted"], result["failed"]))
        for key, metric in result["metrics"].items():
            print("  %-28s %14.4f %s" % (key, metric["value"], metric["unit"]))
        if len(lines) > 1:
            print("  %s" % lines[-2])
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "thetadissect" / "__init__.py").is_file():
        print("no thetadissect sources under %s: run from the root of a checkout" % SRC,
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    setup = measure_setup() if not args.trace else None
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload](args.seed)
    if args.trace:
        result, raw = traced_run(ops)
    else:
        result, raw = timed_run(ops, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms"}
        result["metrics"] = {
            "setup_s": {"value": setup[0], "unit": "s"},
            **{k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        raw["setup_s"] = setup[1]
    print("raw " + json.dumps(raw))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
