#!/usr/bin/env python3
"""Build and run the numaws benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (and the library sources under src/) into the build
directory: $CARGO_TARGET_DIR when it names a directory inside the
checkout, else .bench_build. Later runs only re-check the build.

The binary prints a human-readable table (every metric with its unit
and sample count, plus the host stamps), then one JSON line. This script
relays the table and ends with one JSON object holding correct,
attempted, failed and the metrics BENCHMARK.json lists for the mode:
its end_to_end metrics with --trace 0, its per_layer metrics with
--trace 1. Per-layer metrics of layers a workload never calls (see
NOT_TOUCHED) are reported as 0. It exits non-zero, without a result
line, when the build fails or a listed metric is missing, and exits 1
when any output check failed.
"""
import argparse
import fnmatch
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


# Per-layer metrics of layers a workload never calls; a traced run
# reports them as 0. Any other listed metric the binary did not print
# fails the run.
_SERVE_ONLY = ["job.gen_late_us.p99", "job.light_p99_us",
               "job.sat_jobs_per_s"]
_SIM_ONLY = ["sim.*", "selftime.sim_ms"]
_FIB_ONLY = ["workloads.fib.*"]
_KERNELS_ONLY = ["workloads.cilksort.*", "workloads.heat.*",
                 "workloads.matmul-z.*"]
NOT_TOUCHED = {
    "fj-fine": _SERVE_ONLY + _SIM_ONLY + _KERNELS_ONLY,
    "numa-kernels": _SERVE_ONLY + _SIM_ONLY + _FIB_ONLY,
    "serve-mix": _SIM_ONLY + _FIB_ONLY + _KERNELS_ONLY,
    "sim-suite": _SERVE_ONLY + _FIB_ONLY + _KERNELS_ONLY,
}


def fail(msg, code=2):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    env = os.environ.get("CARGO_TARGET_DIR")
    if env:
        path = os.path.realpath(os.path.join(ROOT, env))
        if path == ROOT or path.startswith(ROOT + os.sep):
            return os.path.join(path, "perfbench")
    return os.path.join(ROOT, ".bench_build", "perfbench")


def source_sha():
    """git HEAD when the checkout is a repository, else a hash of the
    library and benchmark sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def run_logged(cmd, log, timeout):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        proc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT, timeout=timeout)
    return proc.returncode


def build(bdir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources: run from the root of a full checkout")
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    started = time.monotonic()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log, BUILD_TIMEOUT_S) != 0:
            fail("configure failed; see " + log, 1)
    left = BUILD_TIMEOUT_S - (time.monotonic() - started)
    if run_logged(["cmake", "--build", bdir, "-j", jobs], log, left) != 0:
        fail("build failed; see " + log, 1)
    return os.path.join(bdir, "perfbench")


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced inputs (smoke test only)")
    args = ap.parse_args()

    listed = listed_metrics(args.trace)
    bdir = build_dir()
    exe = build(bdir)
    trace_dir = os.path.join(os.path.dirname(bdir), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--sha=" + source_sha(), "--trace-dir=" + trace_dir]
    if args.small:
        cmd.append("--small=1")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish in %d s" % RUN_TIMEOUT_S, 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines:
        fail("benchmark exited with %d" % proc.returncode, 1)
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    metrics = {}
    not_touched = NOT_TOUCHED.get(args.workload, []) if args.trace else []
    for m in listed:
        got = raw["metrics"].get(m["name"])
        if got is None and any(fnmatch.fnmatchcase(m["name"], pat)
                               for pat in not_touched):
            got = {"value": 0.0, "unit": m["unit"]}
            print("%-36s %16g  %-8s %9d  n/a on this workload"
                  % (m["name"], 0.0, m["unit"], 0))
        if got is None:
            fail("metric %s was not measured" % m["name"], 3)
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]), 3)
        if not math.isfinite(got["value"]):
            fail("metric %s is not finite" % m["name"], 3)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {"correct": bool(raw["correct"]) and proc.returncode == 0,
              "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
