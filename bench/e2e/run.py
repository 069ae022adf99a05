#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark (see README.md).

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call builds bench_e2e from source
with CMake into $CARGO_TARGET_DIR (default .bench_build), relative to the
current directory; later calls reuse the build. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where
metrics holds every end_to_end metric of BENCHMARK.json (--trace 0) or
every per_layer metric (--trace 1), each as {"value", "unit"}, the unit
taken from BENCHMARK.json. Anything else goes to stderr. Exit status is 0
only when a result was printed.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

PKG = Path(__file__).resolve().parent
ROOT = PKG.parent.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure and build bench_e2e; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    # One build at a time per checkout; later runs find it up to date.
    with open(build_dir / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(PKG), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release", *gen])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                      "--target", "bench_e2e"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                fail(f"build step failed: {' '.join(cmd)}\n{tail}")
    return build_dir / "bench_e2e"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    bench = build(out_root / "e2e")

    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch = out_root / "e2e-scratch" / tag
    cmd = [str(bench), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--dir", str(scratch)]
    spans = None
    if args.trace:
        spans = out_root / "e2e-spans" / f"{tag}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(spans)]

    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"bench_e2e exited with status {proc.returncode}")
    result = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"bench_e2e did not report {m['name']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(f"{args.workload}: {result['lifetimes']} lifetimes, "
          f"{result['iterations']} iterations in "
          f"{time.monotonic() - started:.1f} s"
          + (f", spans in {spans}" if spans else ""), file=sys.stderr)
    print(json.dumps({
        "correct": bool(result["correct"]) and result["ops"]["failed"] == 0,
        "attempted": result["ops"]["attempted"],
        "failed": result["ops"]["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
