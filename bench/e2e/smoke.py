#!/usr/bin/env python3
"""e2e_smoke: run every workload of bench_e2e at --smoke size, untraced
and traced, and check what the benchmark promises.

    python3 smoke.py --bench <bench_e2e> --benchmark-json <BENCHMARK.json> --dir <scratch>

Checks:
  * BENCHMARK.json has the required shape, names and bounds;
  * every end-to-end metric it lists is reported and positive, and every
    per-layer metric appears in the traced run (BENCHMARK.json is the only
    place that gives their units and directions);
  * no operation failed;
  * the span file parses and holds the span of every layer the workload
    exercises, and layer spans cover >= 95% of every traced iteration's
    timed work;
  * the traced run finished: bench_e2e exits non-zero when a traced
    lifetime — run on CountingDevice-wrapped devices through the bench's
    own layer calls — differs from the untraced one in director records,
    stored bytes or any ServerClocks value (modeled-clock parity).
"""
import argparse
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Spans around the layer spans of an iteration that backs up and restores.
FRAME_SPANS = {"iteration", "job.backup", "file", "job.dedup2", "job.restore"}
# Layers cluster-daily does not reach: its servers run SIL, store and SIU
# inside the cluster phases, and its clients send synthetic payloads
# unchunked. The single-server workloads reach every layer but the phases.
CLUSTER_IDLE = {"chunking", "fingerprint", "sil", "store", "siu"}


def expected_spans(spec, workload):
    """Span names a traced iteration of `workload` must produce. A layer's
    span is the one whose self time gives its *.busy_s or cluster phase
    metric in BENCHMARK.json."""
    if workload == "restore-aged":  # its iterations only restore
        return {"iteration", "job.restore", "restore"}
    spans = set(FRAME_SPANS)
    for m in spec["per_layer"]:
        layer, _, rest = m["name"].rpartition(".")
        if layer.startswith("device"):
            continue  # device time comes from the decorator, not spans
        if rest == "busy_s":
            spans.add(layer)
        elif layer == "cluster" and rest.endswith("_s") and rest != "model_s":
            spans.add("cluster." + rest[:-2])
    if workload == "cluster-daily":
        return spans - CLUSTER_IDLE
    return {s for s in spans if not s.startswith("cluster.")}


failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", file=sys.stderr)
    return ok


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for n in names:
        check(NAME.match(n), f"name {n!r} is well-formed")
    check(len(names) == len(set(names)), "names are unique")
    for m in spec["end_to_end"]:
        check(0 < m["bound"] <= 0.25, f"{m['name']} bound in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s is in s, lower, with the largest bound")


def run(bench, workload, scratch, spans=None):
    cmd = [bench, "--workload", workload, "--seed", "1", "--smoke",
           "--dir", str(scratch)]
    if spans:
        cmd += ["--trace", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    tag = f"{workload}{' traced' if spans else ''}"
    if not check(proc.returncode == 0, f"{tag}: exit status {proc.returncode}"):
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(result["correct"] and result["ops"]["failed"] == 0,
          f"{tag}: no failed operations")
    check(result["ops"]["attempted"] > 0, f"{tag}: operations attempted")
    return result


def check_metrics(result, wanted, tag, nonzero):
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if not check(got is not None, f"{tag}: reports {m['name']}"):
            continue
        check(math.isfinite(got["value"]) and (got["value"] > 0 or not nonzero),
              f"{tag}: {m['name']} = {got['value']} is a positive number")


def check_spans(path, spec, workload):
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    ids = {s["id"] for s in spans}
    check(all(s["parent"] == 0 or s["parent"] in ids for s in spans),
          f"{workload}: every span's parent exists")
    check(all(s["end_us"] >= s["start_us"] for s in spans),
          f"{workload}: spans end after they start")
    missing = expected_spans(spec, workload) - {s["name"] for s in spans}
    check(not missing, f"{workload}: spans present (missing {sorted(missing)})")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True)
    ap.add_argument("--benchmark-json", required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()
    spec = json.loads(Path(args.benchmark_json).read_text())
    check_spec(spec)
    scratch = Path(args.dir)
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    for w in (w["name"] for w in spec["workloads"]):
        before = len(failures)
        plain = run(args.bench, w, scratch / "run")
        if plain:
            check_metrics(plain, spec["end_to_end"], w, nonzero=True)
        spans = scratch / f"{w}.spans.jsonl"
        traced = run(args.bench, w, scratch / "run", spans)
        if traced:
            check_metrics(traced, spec["per_layer"], f"{w} traced",
                          nonzero=False)
            check_spans(spans, spec, w)
            coverage = traced["metrics"]["trace.coverage_frac"]["value"]
            check(coverage >= 0.95,
                  f"{w}: layer spans cover {coverage:.3f} >= 0.95 of the "
                  "worst traced iteration")
        print(f"{w}: {'ok' if len(failures) == before else 'FAILED'}")
    shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
