// Run provenance manifest: a single JSON document that makes a result
// reproducible and attributable — the build that produced it (git commit,
// compiler, flags), the full run identity (scenario spec, policy label, base
// seed and all seven derived seed streams), the complete RunMetrics with
// each metric's regression direction (both from for_each_metric), and —
// when a profiler was attached — the wall-time breakdown and engine
// internals. bench/compare_runs.py diffs two manifests and flags metric or
// wall-breakdown regressions.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "experiment/metrics.h"
#include "experiment/scenario.h"

namespace cloudprov {

class WallProfiler;
struct MultiTenantConfig;
struct MultiTenantResult;

/// Writes the manifest JSON ("cloudprov-run-manifest/1"). `profiler` may be
/// null (e.g. a metrics-only run); the wall section then carries only
/// wall_seconds. `replications` records how many seeds the surrounding
/// invocation ran; the metrics themselves are the instrumented replication's.
void write_run_manifest(std::ostream& out, const ScenarioConfig& config,
                        const std::string& policy_label, std::uint64_t seed,
                        std::size_t replications, const RunMetrics& metrics,
                        const WallProfiler* profiler);

/// Multi-tenant variant of the manifest (same schema id): the aggregate
/// rollup is the top-level `metrics` block, and a `multi_tenant` section
/// carries the population/sharding parameters, arbiter contention totals,
/// and one full metrics block per tenant. bench/compare_runs.py validates
/// and diffs these per-tenant blocks the same way (integer drift on an
/// identical population is a determinism failure).
void write_multi_tenant_manifest(std::ostream& out,
                                 const MultiTenantConfig& config,
                                 const MultiTenantResult& result,
                                 const WallProfiler* profiler);

}  // namespace cloudprov
