#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace <0|1>
  python3 perfbench/run.py --self-test

The C++ program is built (Release) under $CARGO_TARGET_DIR, default
.bench_build, on first use. A run prints a report and, as its last line,
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("simulate_cold", "xeb_warm", "dense_baselines")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build_id():
    """Commit when run inside a git checkout, plus a digest of the sources."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE, ROOT / "CMakeLists.txt"):
        files = sorted(top.rglob("*")) if top.is_dir() else [top]
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    ident = "src-sha256:" + h.hexdigest()[:16]
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            ident = "commit:" + head.stdout.strip()[:12] + " " + ident
    return ident


def build():
    """Configure (once) and build the benchmark program; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no noisim sources next to {HERE.name}/ -- nothing to build")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    bdir = build_dir() / "perfbench"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append([cmake, "--build", str(bdir), "-j", str(min(os.cpu_count() or 1, 8))])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed")
    return bdir / "perfbench"


def run_one(exe, workload, seed, seconds, trace, quick=False, echo=True):
    """Run one workload; returns its parsed result line or exits."""
    out_dir = build_dir() / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", str(out_dir), "--build-id", build_id()]
    if quick:
        cmd.append("--quick")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} run timed out", 1)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"{workload} run failed (exit {done.returncode})", 1)
    if echo:
        print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_all(exe, args):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        r = run_one(exe, w, args.seed, args.seconds, args.trace)
        combined["correct"] = combined["correct"] and r["correct"]
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))


def self_test(exe):
    """Every workload, untraced and traced, at quick sizing: every check
    passes, every metric BENCHMARK.json declares is reported with its unit,
    and the traced runs split the layers as designed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from the benchmark's", 1)
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            before = len(problems)
            r = run_one(exe, w, 1, 1, trace, quick=True, echo=False)
            tag = f"{w} trace={trace}"
            if set(r) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(r)}")
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append(f"{tag}: correct={r['correct']} failed={r['failed']}")
            want = {m["name"]: m["unit"] for m in declared[trace]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            for k, v in r["metrics"].items():
                val = v["value"]
                if not isinstance(val, (int, float)) or not math.isfinite(val):
                    problems.append(f"{tag}: {k} is not a finite number")
                elif trace == 0 and val == 0:
                    problems.append(f"{tag}: end-to-end metric {k} is 0")
            if trace == 0:
                print(f"{'ok ' if len(problems) == before else 'bad'} {tag}: {r['attempted']} ops",
                      flush=True)
                continue
            layers = json.loads((build_dir() / "traces" / f"{w}-seed1.layers.json").read_text())
            json.loads((build_dir() / "traces" / f"{w}-seed1.trace.json").read_text())
            checks, metric = layers["checks"], layers["metrics"]
            if metric["trace.coverage"] < 0.9:
                problems.append(f"{tag}: trace.coverage {metric['trace.coverage']:.3f} < 0.9")
            if w == "simulate_cold":
                if checks["template_key_misses"] != 0:
                    problems.append(f"{tag}: the benchmark's template key missed the cache")
                if not metric["tn.plan.compile_share"] > 0:
                    problems.append(f"{tag}: no planning measured")
            if w == "xeb_warm":
                if checks["timed_plan_cache_misses"] != 0:
                    problems.append(f"{tag}: plan-cache misses during timed ops")
                if checks["sim_spans"] != 0:
                    problems.append(f"{tag}: sim.* spans present")
            if w == "dense_baselines" and checks["tn_spans"] != 0:
                problems.append(f"{tag}: tn.* spans present")
            print(f"{'ok ' if len(problems) == before else 'bad'} {tag}: {r['attempted']} ops, "
                  f"coverage {metric['trace.coverage']:.3f}, checks {json.dumps(checks)}",
                  flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true",
                   help="run every workload and check, and the metric names")
    args = p.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("need --workload, --seed, --seconds and --trace (or --self-test)")
    exe = build()
    if args.self_test:
        sys.exit(self_test(exe))
    if args.workload == "all":
        run_all(exe, args)
        return
    print(json.dumps(run_one(exe, args.workload, args.seed, args.seconds, args.trace)))


if __name__ == "__main__":
    main()
