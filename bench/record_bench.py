#!/usr/bin/env python3
"""Record microbenchmark results into a tracked trajectory file.

Runs the google-benchmark binaries in JSON mode and appends one labelled
entry (git commit, date, name -> items/s) to BENCH_kernel.json at the repo
root, so kernel performance is tracked across PRs rather than asserted in
prose. Re-running with an existing label replaces that entry in place, which
keeps the file idempotent under repeated local runs.

Usage:
    python3 bench/record_bench.py --build-dir build --label after-slab-kernel \
        --repetitions 5
    python3 bench/record_bench.py --label ci-smoke --min-time 0.01 \
        --output /tmp/bench_check.json --no-compare
    python3 bench/record_bench.py --check --min-time 0.01 \
        --anchor-label after-bare-request-path

With --repetitions N (N > 1) every benchmark runs N times and the entry
records the median of the N runs, so one noisy run cannot set a baseline.

With --check the script becomes a regression gate instead of a recorder: it
runs the benchmarks, compares items/s against the stored baseline entry in
BENCH_kernel.json (the newest entry, or the one named by --baseline-label),
and exits non-zero when any shared benchmark regresses by more than
--tolerance (default 15%). With --anchor-label it also compares against
that pinned entry, so a slow drift that passes each step against the newest
entry still fails once it adds up past the tolerance. The trajectory file is
never modified in this mode. Benchmarks present on only one side are
reported but never fail the gate, so adding a new benchmark does not require
re-recording first.

Exit status is non-zero when a benchmark binary is missing or fails, so CI
can use this script as a smoke test for the perf tooling itself.
"""
import argparse
import datetime
import json
import pathlib
import re
import socket
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BENCHMARKS = ["bench/bench_micro_kernel", "bench/bench_micro_simulator"]


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"


def cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler_info(build_dir: pathlib.Path) -> str:
    """Compiler id + version from the build dir's CMake cache, e.g.
    'GNU 12.2.0 (/usr/bin/c++)'. Numbers on the same machine are only
    comparable if this string matches."""
    cache = build_dir / "CMakeCache.txt"
    compiler = ""
    try:
        match = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.+)$",
                          cache.read_text(), re.MULTILINE)
        if match:
            compiler = match.group(1).strip()
    except OSError:
        pass
    if not compiler:
        return "unknown"
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, check=True)
        first_line = out.stdout.splitlines()[0] if out.stdout else ""
        version = re.search(r"\d+\.\d+(?:\.\d+)?", first_line)
        ident = "clang" if "clang" in first_line.lower() else "GNU"
        if version:
            return f"{ident} {version.group(0)} ({compiler})"
    except (subprocess.CalledProcessError, FileNotFoundError, OSError):
        pass
    return compiler


def run_benchmark(binary: pathlib.Path, min_time: str, bench_filter: str,
                  repetitions: int) -> dict:
    cmd = [str(binary), "--benchmark_format=json"]
    if min_time:
        cmd.append(f"--benchmark_min_time={min_time}")
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    if repetitions > 1:
        cmd.append(f"--benchmark_repetitions={repetitions}")
    print(f"running {' '.join(cmd)}", file=sys.stderr)
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    try:
        report = json.loads(out.stdout)
    except json.JSONDecodeError:
        # google-benchmark exits 0 with non-JSON output when --benchmark_filter
        # matches nothing in this binary; treat that as an empty result set.
        print(f"warning: no parsable output from {binary.name}", file=sys.stderr)
        return {}
    results = {}
    for bench in report.get("benchmarks", []):
        if "items_per_second" not in bench:
            continue
        if repetitions > 1:
            # Keep the median aggregate, under the benchmark's own name.
            if bench.get("aggregate_name") == "median":
                results[bench["run_name"]] = bench["items_per_second"]
        elif bench.get("run_type") != "aggregate":
            results[bench["name"]] = bench["items_per_second"]
    return results


def find_entry(trajectory: list, label: str):
    """The newest entry labelled `label`, or the newest entry when empty."""
    if not label:
        return trajectory[-1] if trajectory else None
    matches = [e for e in trajectory if e["label"] == label]
    return matches[-1] if matches else None


def check_against_baseline(results: dict, baseline: dict,
                           tolerance: float) -> int:
    """Compare a fresh run against a stored entry; 1 on regression, else 0."""
    shared = sorted(set(results) & set(baseline["results"]))
    if not shared:
        print("error: no benchmarks in common with the baseline",
              file=sys.stderr)
        return 1

    print(f"checking {len(shared)} benchmarks against baseline "
          f"'{baseline['label']}' (commit {baseline['commit']}, "
          f"tolerance {tolerance:.0%}):")
    regressions = []
    for name in shared:
        base = baseline["results"][name]
        ratio = results[name] / base
        flag = ""
        if ratio < 1.0 - tolerance:
            regressions.append(name)
            flag = "  REGRESSION"
        print(f"  {name:45s} {results[name] / 1e6:8.2f}M vs "
              f"{base / 1e6:8.2f}M  x{ratio:.2f}{flag}")
    for name in sorted(set(results) - set(baseline["results"])):
        print(f"  {name:45s} {results[name] / 1e6:8.2f}M  (new, not gated)")
    for name in sorted(set(baseline["results"]) - set(results)):
        print(f"  {name:45s} missing from this run (not gated)")

    if regressions:
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed more than "
              f"{tolerance:.0%}: {', '.join(regressions)}", file=sys.stderr)
        return 1
    print(f"\nOK: no benchmark regressed more than {tolerance:.0%}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory holding bench binaries")
    parser.add_argument("--label",
                        help="entry label, e.g. 'before' or 'after-slab-kernel' "
                             "(required unless --check)")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_kernel.json"),
                        help="trajectory file to append to (or, with --check, "
                             "the baseline file to compare against)")
    parser.add_argument("--benchmarks", nargs="*", default=DEFAULT_BENCHMARKS,
                        help="bench binaries relative to the build dir")
    parser.add_argument("--min-time", default="",
                        help="forwarded as --benchmark_min_time in seconds (e.g. '0.01' for CI)")
    parser.add_argument("--filter", default="",
                        help="forwarded as --benchmark_filter")
    parser.add_argument("--no-compare", action="store_true",
                        help="skip the ratio table against the previous entry")
    parser.add_argument("--check", action="store_true",
                        help="compare against the stored baseline instead of "
                             "recording; exit non-zero on regression")
    parser.add_argument("--baseline-label", default="",
                        help="with --check: baseline entry label "
                             "(default: newest entry)")
    parser.add_argument("--anchor-label", default="",
                        help="with --check: also compare against this "
                             "pinned entry, so accumulated drift fails")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="with --check: allowed items/s drop before "
                             "failing (default 0.15 = 15%%)")
    parser.add_argument("--repetitions", type=int, default=1,
                        help="forwarded as --benchmark_repetitions; above 1 "
                             "the median of the repetitions is used")
    args = parser.parse_args()
    if not args.check and not args.label:
        parser.error("--label is required unless --check is given")
    if args.anchor_label and not args.check:
        parser.error("--anchor-label needs --check")
    if args.repetitions < 1:
        parser.error("--repetitions must be at least 1")

    build_dir = pathlib.Path(args.build_dir)
    if not build_dir.is_absolute():
        build_dir = REPO_ROOT / build_dir

    output = pathlib.Path(args.output)
    trajectory = []
    if output.exists():
        trajectory = json.loads(output.read_text())["entries"]
    elif args.check:
        print(f"error: baseline file not found: {output}", file=sys.stderr)
        return 1
    # With --check, find every baseline before spending time on a run.
    baselines = []
    if args.check:
        labels = [args.baseline_label]
        if args.anchor_label and args.anchor_label != args.baseline_label:
            labels.append(args.anchor_label)
        for label in labels:
            baseline = find_entry(trajectory, label)
            if baseline is None:
                what = f"labelled '{label}'" if label else "(file is empty)"
                print(f"error: no baseline entry {what}", file=sys.stderr)
                return 1
            baselines.append(baseline)

    results = {}
    for rel in args.benchmarks:
        binary = build_dir / rel
        if not binary.exists():
            print(f"error: benchmark binary not found: {binary}", file=sys.stderr)
            return 1
        results.update(run_benchmark(binary, args.min_time, args.filter,
                                     args.repetitions))
    if not results:
        print("error: no benchmark results collected", file=sys.stderr)
        return 1

    if args.check:
        status = 0
        for baseline in baselines:
            status |= check_against_baseline(results, baseline,
                                             args.tolerance)
        return status

    # Machine/compiler provenance: numbers in the trajectory are only
    # comparable between entries recorded on the same machine with the same
    # toolchain. --check reads only label/commit/results, so older entries
    # without these fields stay valid.
    entry = {
        "label": args.label,
        "commit": git_commit(),
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%d"),
        "machine": socket.gethostname(),
        "cpu": cpu_model(),
        "compiler": compiler_info(build_dir),
        "repetitions": args.repetitions,
        "results": results,
    }
    previous = trajectory[-1] if trajectory else None
    trajectory = [e for e in trajectory if e["label"] != args.label]
    trajectory.append(entry)
    output.write_text(json.dumps({"entries": trajectory}, indent=2) + "\n")
    print(f"recorded '{args.label}' ({len(results)} benchmarks) -> {output}",
          file=sys.stderr)

    if previous is not None and not args.no_compare:
        print(f"\nitems/s vs previous entry '{previous['label']}':")
        for name in sorted(results):
            if name in previous["results"]:
                ratio = results[name] / previous["results"][name]
                print(f"  {name:45s} {results[name] / 1e6:8.2f}M  x{ratio:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
