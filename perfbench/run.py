#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload hot-mem --seed 1 --seconds 8 --trace 0 \
        --rate-hot-mem 150 --rate-wire-tcp 100 --rate-cold-disk 100 \
        --result-cache-bytes 4194304 --residency-bytes 12582912 --setups 3

Run from the root of a source checkout. The first run configures and builds
perfbench/ (and the library it pulls in from ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
rebuild what changed. The benchmark binary's report is passed through, and
its last line - one JSON object with the keys correct, attempted, failed and
metrics - is checked against the metric names in BENCHMARK.json before it is
printed as this script's last line. Exits non-zero, without a result line,
when the build or the run fails; exits 1 after the result line when the
benchmark served a wrong answer.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("hot-mem", "wire-tcp", "cold-disk")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; one that also builds gets the build time on top.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    for w in WORKLOADS:
        p.add_argument(f"--rate-{w}", required=True, type=float,
                       help=f"offered requests/s on {w}")
    p.add_argument("--result-cache-bytes", required=True, type=int)
    p.add_argument("--residency-bytes", required=True, type=int,
                   help="per-machine residency budget of the cold-disk store")
    p.add_argument("--setups", required=True, type=int,
                   help="set-ups per untraced run (median reported)")
    return p.parse_args()


def build(root, build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    def step(cmd):
        proc = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")

    if not (build_dir / "CMakeCache.txt").exists():
        step(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    step(["cmake", "--build", str(build_dir), "--target", "perfbench_serve",
          "-j", jobs])


def build_dir_of(root):
    """$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under root."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (target if target.is_absolute() else root / target) / "perfbench"


def expected_metrics(root, trace):
    with open(root / "BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, expected):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON ({e}): {line[:200]}")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail(f"result keys are not {sorted(RESULT_KEYS)}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("no request was attempted")
    metrics = result["metrics"]
    bad = [n for n in metrics if not NAME_RE.fullmatch(n)]
    if bad:
        fail(f"invalid metric names: {bad}")
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or not isinstance(
                m["value"], (int, float)) or isinstance(m["value"], bool):
            fail(f"metric {name} has no numeric value")
    return result


def main():
    args = parse_args()
    root = Path(__file__).resolve().parent.parent
    build_dir = build_dir_of(root)
    work_dir = build_dir / "work"
    trace_dir = build_dir / "traces"
    started = time.monotonic()
    build(root, build_dir)
    expected = expected_metrics(root, args.trace == "1")
    work_dir.mkdir(parents=True, exist_ok=True)
    trace_dir.mkdir(parents=True, exist_ok=True)

    # The program's DPPR_* knobs would silently change what is measured, so
    # none reach it; every setting comes from the command line instead.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DPPR_")}
    env["TMPDIR"] = str(work_dir)
    if args.trace == "1":
        env["DPPR_TRACE"] = str(
            trace_dir / f"{args.workload}-seed{args.seed}.json")

    rate = getattr(args, "rate_" + args.workload.replace("-", "_"))
    cmd = [str(build_dir / "perfbench_serve"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--rate", repr(rate),
           "--result-cache-bytes", str(args.result_cache_bytes),
           "--residency-bytes", str(args.residency_bytes),
           "--setups", str(args.setups), "--work-dir", str(work_dir)]
    build_s = time.monotonic() - started
    timeout = RUN_TIMEOUT_S + (build_s if build_s > 30 else 0)
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {timeout:.0f} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode} and no result")
    result = check_result(lines[-1], expected)
    print("\n".join(lines))
    sys.stdout.flush()
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
