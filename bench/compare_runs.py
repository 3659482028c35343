#!/usr/bin/env python3
"""Diff two run provenance manifests and flag regressions.

Manifests are written by `run_scenario --manifest-out` (schema
cloudprov-run-manifest/1). Two modes:

  # validate one manifest (exit 2 on parse/schema failure)
  python3 bench/compare_runs.py --self-check run.json [--min-coverage 0.9]

  # diff two manifests (exit 1 when a regression is flagged)
  python3 bench/compare_runs.py baseline.json candidate.json \
      [--tolerance 0.02] [--wall-tolerance 0.25]

The diff compares every metric: integer metrics must match exactly unless
the runs differ in scenario/seed (then they are reported, not flagged);
float metrics compare with a relative tolerance. The manifest's
metric_directions block says which metrics regress when they rise
(rejection_rate, avg_response_time, ...) or fall (completed, availability,
...); such a metric flags a regression when it moves the wrong way beyond
tolerance. Directions are read from whichever manifest carries them, so a
manifest from before the block existed still diffs. The wall section
compares total wall_seconds and per-category self time with a looser
tolerance (wall time is machine-noisy).

Exit codes: 0 ok, 1 regression found, 2 parse/validation error.
"""

import argparse
import json
import sys

SCHEMA = "cloudprov-run-manifest/1"

DIRECTIONS = ("higher_is_worse", "lower_is_worse")

# Wall categories that are waiting, not work: barrier self-time is worker
# threads parked at the window sync (it legitimately appears/scales with
# --shards and can exceed wall clock when summed across threads), so it is
# reported but never flagged.
IDLE_WALL_CATEGORIES = {"shard.barrier"}

REQUIRED_SECTIONS = ["build", "scenario", "metrics", "wall"]
REQUIRED_METRICS = ["generated", "accepted", "rejected", "wall_seconds",
                    "simulated_events"]


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot parse {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != SCHEMA:
        print(f"error: {path}: schema {doc.get('schema')!r} != {SCHEMA!r}",
              file=sys.stderr)
        sys.exit(2)
    return doc


def validate(doc, path, min_coverage):
    problems = []
    for section in REQUIRED_SECTIONS:
        if not isinstance(doc.get(section), dict):
            problems.append(f"missing section {section!r}")
    # Multi-tenant manifests (run_scenario --tenants) carry a multi_tenant
    # section with per-tenant metric blocks instead of seed_streams (each
    # tenant derives its own streams from the master seed).
    multi_tenant = doc.get("multi_tenant")
    if multi_tenant is not None:
        rows = multi_tenant.get("tenant_metrics")
        if not isinstance(rows, list) or not rows:
            problems.append("multi_tenant.tenant_metrics is not a "
                            "non-empty list")
        else:
            if len(rows) != multi_tenant.get("tenants"):
                problems.append(
                    f"multi_tenant.tenants = {multi_tenant.get('tenants')} "
                    f"but {len(rows)} tenant_metrics rows")
            for row in rows:
                if not {"id", "kind", "metrics"} <= set(row):
                    problems.append(f"malformed tenant row: "
                                    f"{sorted(row)}")
                    break
        if multi_tenant.get("shards", 0) < 1:
            problems.append("multi_tenant.shards < 1")
    metrics = doc.get("metrics", {})
    for key in REQUIRED_METRICS:
        if key not in metrics:
            problems.append(f"missing metric {key!r}")
    for key, direction in doc.get("metric_directions", {}).items():
        if key not in metrics:
            problems.append(f"metric_directions names {key!r}, which is "
                            f"not in metrics")
        if direction not in DIRECTIONS:
            problems.append(f"metric_directions[{key!r}] = {direction!r}")
    if metrics.get("generated", 0) <= 0:
        problems.append("metrics.generated is not positive")
    accepted = metrics.get("accepted", 0)
    rejected = metrics.get("rejected", 0)
    # Admission counts are per attempt. With the retry gateway on, each
    # logical request can reach admission several times, a breaker fast-fail
    # never does, and a cache hit is admitted by the cache pool without
    # passing the gateway.
    gateway = doc.get("scenario", {}).get(
        "resilience_enabled", metrics.get("client_attempts", 0) > 0)
    if gateway:
        expected = (metrics.get("cache_hits", 0)
                    + metrics.get("client_attempts", 0)
                    - metrics.get("breaker_fast_fails", 0))
        law = "cache_hits + client_attempts - breaker_fast_fails"
    else:
        expected = metrics.get("generated", -1)
        law = "generated"
    if accepted + rejected != expected:
        problems.append(f"accepted + rejected = {accepted + rejected} != "
                        f"{law} = {expected}")
    wall = doc.get("wall", {})
    if wall.get("wall_seconds", -1.0) < 0.0:
        problems.append("wall.wall_seconds is negative")
    breakdown = wall.get("breakdown")
    if not isinstance(breakdown, list):
        problems.append("wall.breakdown is not a list")
    else:
        for row in breakdown:
            if not {"category", "self_seconds", "count"} <= set(row):
                problems.append(f"malformed breakdown row: {row}")
                break
    coverage = wall.get("covered_fraction")
    if min_coverage > 0.0:
        if coverage is None:
            problems.append("no wall.covered_fraction (run with --profile?)")
        elif coverage < min_coverage:
            problems.append(
                f"wall breakdown covers {coverage:.1%} of wall_seconds "
                f"(< {min_coverage:.0%})")
    if multi_tenant is None:
        seeds = doc.get("seed_streams", {})
        expected_streams = {"workload", "placement", "fault", "market",
                            "lookahead", "resilience", "apptier"}
        if set(seeds) != expected_streams:
            problems.append(f"seed_streams keys {sorted(seeds)} != "
                            f"{sorted(expected_streams)}")
    # Multi-tier manifests carry the cache-tier block; sanity-bound the hit
    # ratio and require the lookup counters that derive it.
    if doc.get("scenario", {}).get("apptier_enabled"):
        ratio = metrics.get("cache_hit_ratio")
        if ratio is None:
            problems.append("apptier enabled but no metrics.cache_hit_ratio")
        elif not 0.0 <= ratio <= 1.0:
            problems.append(f"cache_hit_ratio {ratio} outside [0, 1]")
        if "cache_hits" not in metrics or "cache_misses" not in metrics:
            problems.append("apptier enabled but cache_hits/cache_misses "
                            "missing")

    if problems:
        for p in problems:
            print(f"error: {path}: {p}", file=sys.stderr)
        sys.exit(2)
    cov = f", breakdown covers {coverage:.1%} of wall" if coverage else ""
    mt = (f", {multi_tenant['tenants']} tenants / "
          f"{multi_tenant['shards']} shard(s)" if multi_tenant else "")
    tiers = (f", cache tier hit ratio {metrics.get('cache_hit_ratio', 0):.3f}"
             if doc.get("scenario", {}).get("apptier_enabled") else "")
    print(f"{path}: valid {SCHEMA} manifest "
          f"(policy {doc.get('policy')!r}, seed {doc.get('seed')}, "
          f"{metrics['generated']} requests{mt}{tiers}{cov})")


def same_run_identity(a, b):
    return (a.get("scenario") == b.get("scenario")
            and a.get("seed") == b.get("seed")
            and a.get("policy") == b.get("policy"))


def rel_delta(base, cand):
    if base == cand:
        return 0.0
    denom = max(abs(base), abs(cand), 1e-12)
    return (cand - base) / denom


def diff_metrics(base_m, cand_m, prefix, directions, tolerance,
                 identical_inputs, regressions, notes):
    """Diffs one metrics block; `prefix` names it in the report lines."""
    for key in sorted(set(base_m) | set(cand_m)):
        if key == "wall_seconds":
            continue  # handled with the wall section
        b, c = base_m.get(key), cand_m.get(key)
        if b is None or c is None:
            notes.append(f"metric {prefix}{key} present in only one "
                         f"manifest")
            continue
        if b == c:
            continue
        delta = rel_delta(b, c)
        line = f"  {prefix}{key}: {b} -> {c} ({delta:+.2%})"
        direction = directions.get(key)
        if direction == "higher_is_worse" and delta > tolerance:
            regressions.append(line)
        elif direction == "lower_is_worse" and delta < -tolerance:
            regressions.append(line)
        elif identical_inputs and isinstance(b, int) and isinstance(c, int):
            # Same scenario + seed should be deterministic: any integer
            # drift means behavior changed, which is worth failing loudly.
            regressions.append(line + " [determinism]")
        else:
            notes.append(line)


def diff(base_doc, cand_doc, base_path, cand_path, tolerance, wall_tolerance):
    regressions = []
    notes = []
    identical_inputs = same_run_identity(base_doc, cand_doc)
    if not identical_inputs:
        notes.append("scenario/seed/policy differ: metric deltas are "
                     "reported but integer mismatches are not regressions")
    if base_doc["build"].get("git_commit") != cand_doc["build"].get("git_commit"):
        notes.append(f"commits: {base_doc['build'].get('git_commit')} -> "
                     f"{cand_doc['build'].get('git_commit')}")

    directions = {**base_doc.get("metric_directions", {}),
                  **cand_doc.get("metric_directions", {})}
    base_m, cand_m = base_doc["metrics"], cand_doc["metrics"]
    diff_metrics(base_m, cand_m, "", directions, tolerance, identical_inputs,
                 regressions, notes)

    # Multi-tenant manifests additionally diff the arbiter history and every
    # per-tenant metrics block. Shard count is free to differ: sharding is
    # bit-identical by construction, so on an identical population ANY
    # integer drift — aggregate, arbiter, or per-tenant — is a determinism
    # failure even across different --shards values.
    base_mt = base_doc.get("multi_tenant")
    cand_mt = cand_doc.get("multi_tenant")
    if base_mt is not None and cand_mt is not None:
        if base_mt.get("shards") != cand_mt.get("shards"):
            notes.append(f"shards: {base_mt.get('shards')} -> "
                         f"{cand_mt.get('shards')} (must not move results)")
        for key in ("windows", "capacity", "grant_clips", "instances_denied",
                    "peak_granted", "simulated_events"):
            b, c = base_mt.get(key), cand_mt.get(key)
            if b == c:
                continue
            line = f"  multi_tenant.{key}: {b} -> {c}"
            if identical_inputs:
                regressions.append(line + " [determinism]")
            else:
                notes.append(line)
        base_rows = {r["id"]: r for r in base_mt.get("tenant_metrics", [])}
        cand_rows = {r["id"]: r for r in cand_mt.get("tenant_metrics", [])}
        for tid in sorted(set(base_rows) | set(cand_rows)):
            if tid not in base_rows or tid not in cand_rows:
                notes.append(f"tenant {tid} present in only one manifest")
                continue
            diff_metrics(base_rows[tid]["metrics"],
                         cand_rows[tid]["metrics"], f"tenant[{tid}].",
                         directions, tolerance, identical_inputs,
                         regressions, notes)
    elif (base_mt is None) != (cand_mt is None):
        notes.append("only one manifest is multi-tenant")

    # Multi-tier manifests get a per-tier summary block: cache tier and
    # backend tier side by side. The individual cache_* deltas are already
    # diffed (and flagged) by the generic metrics loop above; this block
    # groups the headline signals per tier so tier-sizing shifts read at a
    # glance.
    tier_lines = []
    if (base_doc.get("scenario", {}).get("apptier_enabled")
            or cand_doc.get("scenario", {}).get("apptier_enabled")):
        for label, key in (("cache.hit_ratio", "cache_hit_ratio"),
                           ("cache.vm_hours", "cache_vm_hours"),
                           ("cache.utilization", "cache_utilization"),
                           ("cache.avg_instances", "cache_avg_instances"),
                           ("backend.vm_hours", "vm_hours"),
                           ("backend.lambda_miss", "lambda_miss_mean"),
                           ("backend.utilization", "utilization")):
            b = base_m.get(key, 0.0)
            c = cand_m.get(key, 0.0)
            tier_lines.append(
                f"  {label}: {b:.4g} -> {c:.4g} ({rel_delta(b, c):+.2%})")

    base_w, cand_w = base_doc["wall"], cand_doc["wall"]
    bw, cw = base_w.get("wall_seconds", 0.0), cand_w.get("wall_seconds", 0.0)
    if bw > 0.0 and cw > 0.0 and bw != cw:
        delta = rel_delta(bw, cw)
        line = f"  wall_seconds: {bw:.3f} -> {cw:.3f} ({delta:+.2%})"
        (regressions if delta > wall_tolerance else notes).append(line)
    base_cats = {r["category"]: r for r in base_w.get("breakdown", [])}
    cand_cats = {r["category"]: r for r in cand_w.get("breakdown", [])}
    for cat in sorted(set(base_cats) | set(cand_cats)):
        b = base_cats.get(cat, {}).get("self_seconds", 0.0)
        c = cand_cats.get(cat, {}).get("self_seconds", 0.0)
        if b == c:
            continue
        delta = rel_delta(b, c)
        line = f"  wall[{cat}]: {b:.4f}s -> {c:.4f}s ({delta:+.2%})"
        # Absolute floor: categories in the noise (sub-50ms) never flag.
        if (delta > wall_tolerance and c - b > 0.05
                and cat not in IDLE_WALL_CATEGORIES):
            regressions.append(line)
        else:
            notes.append(line)

    print(f"baseline:  {base_path} ({base_doc.get('policy')}, "
          f"seed {base_doc.get('seed')})")
    print(f"candidate: {cand_path} ({cand_doc.get('policy')}, "
          f"seed {cand_doc.get('seed')})")
    if tier_lines:
        print("\nper-tier (cache + backend):")
        for line in tier_lines:
            print(line)
    if notes:
        print("\nchanges (informational):")
        for n in notes:
            print(n)
    if regressions:
        print("\nREGRESSIONS:")
        for r in regressions:
            print(r)
        return 1
    print("\nno regressions flagged")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Diff two cloudprov run manifests.")
    parser.add_argument("manifests", nargs="+",
                        help="one manifest with --self-check, else two")
    parser.add_argument("--self-check", action="store_true",
                        help="validate a single manifest instead of diffing")
    parser.add_argument("--min-coverage", type=float, default=0.0,
                        help="with --self-check: require the wall breakdown "
                             "to cover at least this fraction of wall_seconds")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="relative tolerance for float metric regressions")
    parser.add_argument("--wall-tolerance", type=float, default=0.25,
                        help="relative tolerance for wall-time regressions")
    args = parser.parse_args()

    if args.self_check:
        if len(args.manifests) != 1:
            parser.error("--self-check takes exactly one manifest")
        validate(load(args.manifests[0]), args.manifests[0],
                 args.min_coverage)
        return 0
    if len(args.manifests) != 2:
        parser.error("diff mode takes exactly two manifests")
    base_path, cand_path = args.manifests
    return diff(load(base_path), load(cand_path), base_path, cand_path,
                args.tolerance, args.wall_tolerance)


if __name__ == "__main__":
    sys.exit(main())
