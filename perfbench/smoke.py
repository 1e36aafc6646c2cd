#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Builds the benchmark, runs the helper tests (perfbench_selftest), then
runs every workload in BENCHMARK.json at reduced size for one second,
untraced and traced. Each run must exit 0, end with a result line that
holds every metric BENCHMARK.json lists for its mode with the listed
unit, and print each of those metrics by name with its unit in the
human-readable table. Exits 1 on the first failure.
"""
import importlib.util
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_runner():
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(HERE, "run.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def fail(msg):
    print("smoke: FAIL " + msg)
    sys.exit(1)


def table_units(lines):
    """metric name -> unit, from the human-readable table rows."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith(("#", "{", "==")):
            out[parts[0]] = parts[2]
    return out


def main():
    runner = load_runner()
    exe = runner.build(runner.build_dir())
    selftest = os.path.join(os.path.dirname(exe), "perfbench_selftest")
    if subprocess.run([selftest]).returncode != 0:
        fail("perfbench_selftest")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for wl in spec["workloads"]:
        for trace in (0, 1):
            listed = spec["per_layer" if trace else "end_to_end"]
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", wl["name"], "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--small"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=170)
            what = "%s trace=%d" % (wl["name"], trace)
            if proc.returncode != 0:
                fail("%s exited %d: %s" % (what, proc.returncode,
                                           proc.stderr[-2000:]))
            lines = proc.stdout.rstrip("\n").split("\n")
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (what, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                fail("%s: output checks failed" % what)
            printed = table_units(lines[:-1])
            for m in listed:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    fail("%s: %s missing or wrong unit in the result"
                         % (what, m["name"]))
                if printed.get(m["name"]) != m["unit"]:
                    fail("%s: %s not printed with unit %s"
                         % (what, m["name"], m["unit"]))
            print("smoke: ok %-14s trace=%d (%d metrics)"
                  % (wl["name"], trace, len(listed)))
    print("smoke: all passed")


if __name__ == "__main__":
    main()
