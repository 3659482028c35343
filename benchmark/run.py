#!/usr/bin/env python3
"""End-to-end benchmark of the cloudprov simulator.

Builds the benchmark program cloudprov_bench (benchmark/CMakeLists.txt,
which compiles the library from this checkout into .bench_build/), runs
each workload in its own process, prints every metric by name with its unit, writes a results
JSON, and exits non-zero if any correctness check fails.

    python3 benchmark/run.py --workload web_day --seed 42 --trace 0
    python3 benchmark/run.py --seed 42            # every workload, both passes
    python3 benchmark/run.py --smoke              # 1 rep each, 1/10 horizon
    python3 benchmark/run.py --calibrate          # value to pin as CALIB_REF_S

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
with tracing off for run_seconds (--seconds may repeat that value, nothing
else); with --trace 1 they are its per_layer list, from a traced
replication plus per-layer side measurements. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Seed 42 is the default; seed 7 is held out for claims.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BENCH_BIN = BUILD / "cloudprov_bench"
SPEC = ROOT / "BENCHMARK.json"

# Median calibration-loop time on the reference host (see README.md), from
# `run.py --calibrate`. Host times (CPU seconds, or wall seconds on the
# sharded workload) are scaled by CALIB_REF_S / calib_s, the calibration
# loop's time in slices interleaved with each replication and timed the same
# way, so a slower or faster moment of the machine cancels out. Changing it rescales every time metric; keep it fixed
# across the commits being compared.
CALIB_REF_S = 0.3

# A cloudprov_bench process must end within 180 s of the invocation; the
# first build in a checkout may take longer.
BENCH_TIMEOUT_S = 170.0
BUILD_TIMEOUT_S = 850.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds cloudprov_bench; False on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("run.py: the cloudprov sources (CMakeLists.txt, src/) are not in "
            f"{ROOT}; nothing to build")
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-B", str(BUILD), "-S", str(HERE),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "cloudprov_bench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"run.py: build step {cmd[:2]} failed: {err}")
            return False
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"run.py: build step {' '.join(cmd[:2])} exited "
                f"{done.returncode}")
            return False
    return BENCH_BIN.is_file()


def run_bench(args):
    """Runs cloudprov_bench; returns the JSON records it printed, or None."""
    try:
        done = subprocess.run([str(BENCH_BIN)] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: cloudprov_bench {' '.join(args)} ran past {BENCH_TIMEOUT_S} s")
        return None
    records = []
    for line in done.stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            records.append(json.loads(line))
    if not records:
        log(f"run.py: cloudprov_bench {' '.join(args)} exited {done.returncode} "
            "without a result")
        return None
    return records


def normalised(host_s, calib_s):
    return host_s * CALIB_REF_S / calib_s


def end_to_end(record):
    reps = record["reps"]
    requests = sum(r["requests"] for r in reps)
    return {
        "req_per_s": statistics.median(
            r["requests"] / normalised(r["host_s"], r["calib_s"]) for r in reps),
        "setup_s": statistics.median(
            normalised(setup, calib) for calib, setup in record["setups"]),
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
        "allocs_per_req": sum(r["allocs"] for r in reps) / requests,
    }


def per_layer(record):
    reps = record["reps"]
    layers = dict(record["layers"])
    layers["experiment.timed_reps"] = float(len(reps))
    layers["experiment.wall_s"] = statistics.median(r["wall_s"] for r in reps)
    layers["experiment.calib_s"] = statistics.median(r["calib_s"] for r in reps)
    layers["experiment.cpu_util"] = (sum(r["cpu_s"] for r in reps) /
                                     sum(r["wall_s"] for r in reps))
    return layers


def result_line(record, trace, spec):
    """The result object for one cloudprov_bench record."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(record) if trace else end_to_end(record)
    metrics = {}
    missing = []
    for metric in declared:
        if metric["name"] not in values:
            missing.append(metric["name"])
            continue
        metrics[metric["name"]] = {"value": values[metric["name"]],
                                   "unit": metric["unit"]}
    failures = list(record["failures"])
    if missing:
        failures.append("cloudprov_bench did not report " + ", ".join(missing))
    return {
        "correct": record["failed"] == 0 and not failures,
        "attempted": record["attempted"],
        "failed": record["failed"] + (1 if missing else 0),
        "metrics": metrics,
    }, failures


def print_metrics(workload, result, n_reps):
    for name, metric in result["metrics"].items():
        print(f"{workload:15s} {name:34s} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    print(f"{workload:15s} {'(timed replications)':34s} {n_reps:>16d}")


def write_results(path, runs, build_info):
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"schema": "cloudprov-benchmark-results/1",
           "calib_ref_s": CALIB_REF_S, "build": build_info, "runs": runs}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"run.py: results written to {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="timed-loop length; must equal BENCHMARK.json's "
                             "run_seconds, so runs of two commits compare")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: 0 for one workload, both for all)")
    parser.add_argument("--results", type=Path,
                        help="results JSON path (default under .bench_build/)")
    parser.add_argument("--smoke", action="store_true",
                        help="one replication of each workload at 1/10 "
                             "horizon with every check on")
    parser.add_argument("--calibrate", action="store_true",
                        help="print the calibration median to pin as "
                             "CALIB_REF_S")
    args = parser.parse_args()
    start = time.monotonic()

    spec = json.loads(SPEC.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads}")
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds {args.seconds:g} differs from run_seconds "
                     f"{seconds} in BENCHMARK.json")
    if not build():
        return 1

    if args.calibrate:
        records = run_bench(["--calibrate"])
        if records is None:
            return 1
        samples = records[-1]["calib_s"]
        print(f"calibration loop: median {statistics.median(samples):.6f} s, "
              f"min {min(samples):.6f} s, max {max(samples):.6f} s over "
              f"{len(samples)} samples (CALIB_REF_S = {CALIB_REF_S})")
        return 0

    if args.smoke:
        ok = True
        for name in ([args.workload] if args.workload else workloads):
            records = run_bench(["--smoke", "--workload", name])
            if records is None:
                return 1
            record = records[-1]
            ok = ok and record["failed"] == 0
            print(f"{name:15s} smoke: {record['attempted']} replications, "
                  f"{record['failed']} failed")
            for failure in record["failures"]:
                print(f"{name:15s}   check failed: {failure}")
        print(json.dumps({"smoke": "ok" if ok else "failed",
                          "seconds": round(time.monotonic() - start, 3)}))
        return 0 if ok else 1

    names =[args.workload] if args.workload else workloads
    if args.trace is not None:
        traces = [args.trace]
    else:
        traces = [0] if args.workload else [0, 1]
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    runs = []
    last = None
    build_info = {}
    all_correct = True
    for name in names:
        for trace in traces:
            records = run_bench(
                ["--workload", name, "--seed", str(args.seed), "--seconds",
                 str(seconds), "--trace", str(trace), "--out", str(out_dir)])
            if records is None:
                return 1
            record = records[-1]
            build_info = record.get("build", build_info)
            result, failures = result_line(record, trace, spec)
            print_metrics(name, result, len(record["reps"]))
            for failure in failures:
                print(f"{name:15s} check failed: {failure}")
            all_correct = all_correct and result["correct"]
            # The raw replication timings stay with the result as diagnostics.
            runs.append({"workload": name, "seed": args.seed, "trace": trace,
                         "seconds": seconds, "failures": failures, **result,
                         "reps": record["reps"]})
            last = result

    label = args.workload or "all"
    path = args.results or (
        BUILD / "results" / f"{label}-seed{args.seed}-trace"
        f"{''.join(map(str, traces))}-{time.strftime('%Y%m%dT%H%M%S')}.json")
    write_results(path, runs, build_info)
    if args.workload is None:
        last = {"correct": all_correct,
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": {f"{r['workload']}/{m}": v for r in runs
                            for m, v in r["metrics"].items()}}
    print(json.dumps(last))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
