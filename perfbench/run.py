#!/usr/bin/env python3
"""fcsl-cpp verdict benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus|diamond3|daemon \
        --seed N --seconds S --trace 0|1

Builds the fcsl library, the shipped fcsl-serve daemon and the
fcsl-perfbench binary from the sources in this checkout (RelWithDebInfo,
into .bench_build/perfbench), runs one workload for S seconds of
measurement, and checks every verdict against its known answer, the
exact counters against perfbench/pins.json, and that exact counters
repeat across runs of the same sources. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics (0 for a layer the workload
bypasses), a Chrome trace-event file is written, and per-layer self
times are printed. The full record of a run (provenance, exact counters,
errors) is kept in .bench_build/perfbench/runs/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 165


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then brings the three targets up to date."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "fcsl-perfbench", "fcsl-serve"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return (os.path.join(BUILD, "fcsl-perfbench"),
            os.path.join(BUILD, "tools", "fcsl-serve"))


def source_hash():
    """Content hash of everything the measured binaries are built from."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_bench(cmd):
    """Runs fcsl-perfbench in its own process group, so a timeout also takes
    down any daemon it started; returns its stdout lines."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("fcsl-perfbench timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail("fcsl-perfbench exited with code %d" % proc.returncode)
    return out.splitlines()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    with open(os.path.join(HERE, "metric_map.json")) as f:
        metric_map = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    missing = [m["name"] for m in bench["per_layer"]
               if m["name"] not in metric_map["per_layer"]]
    if missing:
        fail("metric_map.json lacks per-layer metrics: " + ", ".join(missing))
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("fcsl sources not found next to perfbench/")

    bench_bin, serve = build()
    run_dir = os.path.join(BUILD, "runs", "%s-seed%d-trace%s" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    started = time.time()
    lines = run_bench([bench_bin, "--workload", args.workload,
                       "--seed", str(args.seed),
                       "--seconds", repr(args.seconds),
                       "--trace", args.trace,
                       # Relative, so the daemon's socket path stays short.
                       "--out", os.path.relpath(run_dir, ROOT),
                       "--serve", serve])
    for line in lines[:-1]:
        print(line)
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("fcsl-perfbench printed no result")

    errors = list(record["errors"])
    checks = 0
    # Exact counters: the pinned ones must match their known values ...
    exact = record["exact"]
    for key, want in sorted(pins.get(args.workload, {}).items()):
        checks += 1
        if exact.get(key) != want:
            errors.append("exact %s = %s, pinned %s" % (key, exact.get(key),
                                                        want))
    # ... and all of them must repeat across runs of the same sources.
    src = source_hash()
    ledger = os.path.join(BUILD, "exact-%s.json" % args.workload)
    checks += 1
    prev = None
    if os.path.exists(ledger):
        with open(ledger) as f:
            prev = json.load(f)
    if prev and prev["source"] == src:
        diff = sorted(k for k in set(prev["exact"]) | set(exact)
                      if prev["exact"].get(k) != exact.get(k))
        if diff:
            errors.append("exact counters differ from an earlier run of the "
                          "same sources: " + ", ".join(diff[:8]))
    else:
        with open(ledger, "w") as f:
            json.dump({"source": src, "exact": exact}, f, indent=1,
                      sort_keys=True)
    failed = record["failed"] + (len(errors) - len(record["errors"]))

    wanted = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            if args.trace == "0":
                fail("fcsl-perfbench did not report " + m["name"])
            got = {"value": 0.0, "unit": m["unit"]}  # layer bypassed
        if got["unit"] != m["unit"]:
            fail("%s reported in %s, declared in %s" % (m["name"], got["unit"],
                                                        m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    known = {m["name"] for m in bench["per_layer"]} | \
        {m["name"] for m in bench["end_to_end"]}
    stray = sorted(set(record["metrics"]) - known)
    if stray:
        fail("fcsl-perfbench reported undeclared metrics: " + ", ".join(stray))

    provenance = dict(record["provenance"])
    provenance.update({"git_sha": git_sha(), "source_hash": src,
                       "wall_s": "%.1f" % (time.time() - started)})
    result = {"correct": failed == 0, "attempted": record["attempted"] + checks,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump({"provenance": provenance, "exact": exact, "errors": errors,
                   "all_metrics": record["metrics"], "result": result}, f,
                  indent=1, sort_keys=True)
    for name in os.listdir(run_dir):
        if name.startswith("daemon"):
            shutil.rmtree(os.path.join(run_dir, name), ignore_errors=True)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for e in errors:
        print("FAILED: " + e)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
