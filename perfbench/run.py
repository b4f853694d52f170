#!/usr/bin/env python3
"""Builds and runs the CN-Probase serving benchmark.

Usage, from the repository root:
  python3 perfbench/run.py --workload table2_hot|inproc_cold|ingest_churn \
      --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the repository's src/) into
.bench_build/perfbench on first use, runs one workload, and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones (see perfbench/METRICS.md). Exits 1 when any output is wrong, and
without a result line when the benchmark cannot build or run.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("table2_hot", "inproc_cold", "ingest_churn")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # keep the checkout clean
sys.path.insert(0, HERE)
import trace_summary  # noqa: E402


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(env):
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"] + generator
        if subprocess.run(configure, stdout=sys.stderr, env=env,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                "-j", str(os.cpu_count() or 1)]
    return subprocess.run(compile_, stdout=sys.stderr, env=env,
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def source_id():
    """The commit when run from a git checkout, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as source:
                    digest.update(source.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    """Metric name -> unit from BENCHMARK.json for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as spec:
        entries = json.load(spec)["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no repository sources next to perfbench/")
        return 2
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not build(env):
        log("perfbench: build failed")
        return 2

    work = os.path.join(BUILD_ROOT, "perfbench-run", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans = os.path.join(work, "spans.tsv")
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work]
    if args.trace:
        command += ["--spans", spans]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             env=env, timeout=RUN_TIMEOUT_S)
        result = None
        untraced_p50_us = None
        for line in run.stdout.splitlines():
            if line.startswith("PERFBENCH_RESULT "):
                result = json.loads(line[len("PERFBENCH_RESULT "):])
                continue
            if line.startswith("info: untraced_p50_us "):
                untraced_p50_us = float(line.split()[-1])
            print(line)
        if result is None:
            log(f"perfbench: no result (exit code {run.returncode})")
            return 2
        metrics = result["metrics"]
        if args.trace:
            print("\nspans:")
            for name, (value, unit) in trace_summary.summarise(
                    spans, untraced_p50_us).items():
                metrics[name] = {"value": value, "unit": unit}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = declared_metrics(args.trace)
    if declared is not None:
        reported = {name: m["unit"] for name, m in metrics.items()}
        if reported != declared:
            wrong_unit = sorted(n for n in declared if n in reported
                                and reported[n] != declared[n])
            log("perfbench: reported metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(declared) - set(reported))}, "
                f"extra {sorted(set(reported) - set(declared))}, "
                f"units {wrong_unit}")
            return 3
    machine = {
        "commit": source_id(),
        "nproc": os.cpu_count(),
        "build_type": BUILD_TYPE,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("machine: " + json.dumps(machine))
    correct = bool(result["correct"]) and run.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
