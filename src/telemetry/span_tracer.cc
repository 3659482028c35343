#include "telemetry/span_tracer.h"

#include "util/check.h"

namespace cloudprov {
namespace {

// splitmix64 finalizer: the sampling hash. Stateless (unlike SplitMix64) so
// the decision depends only on (request id, seed).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* to_string(SpanTracer::Outcome outcome) {
  switch (outcome) {
    case SpanTracer::Outcome::kInFlight: return "in_flight";
    case SpanTracer::Outcome::kCompleted: return "completed";
    case SpanTracer::Outcome::kRejected: return "rejected";
    case SpanTracer::Outcome::kLost: return "lost";
  }
  return "?";
}

SpanTracer::SpanTracer(Options options) : options_(options) {
  ensure_arg(options_.capacity >= 1, "SpanTracer: capacity must be >= 1");
  finished_.reserve(options_.capacity);
}

bool SpanTracer::sampled(std::uint64_t request_id) const {
  if (options_.sample_rate >= 1.0) return true;
  if (options_.sample_rate <= 0.0) return false;
  // Top 53 bits of the hash as a uniform double in [0, 1).
  const double u =
      static_cast<double>(mix(request_id ^ options_.seed) >> 11) * 0x1.0p-53;
  return u < options_.sample_rate;
}

SpanTracer::RequestTrace* SpanTracer::pending(std::uint64_t request_id) {
  if (!sampled(request_id)) return nullptr;  // cheap pre-filter before the probe
  const std::uint32_t slot = index_.find(request_id, key_of());
  return slot == FlatIndex::kNil ? nullptr : &pending_[slot];
}

void SpanTracer::on_arrival(SimTime t, std::uint64_t request_id) {
  if (!sampled(request_id)) return;
  ++traced_;
  const auto slot = static_cast<std::uint32_t>(
      free_.empty() ? pending_.size() : free_.back());
  // An id already in flight keeps its first trace.
  if (!index_.insert(request_id, slot, key_of())) return;
  RequestTrace trace;
  trace.trace_id = request_id;
  trace.arrival = t;
  if (free_.empty()) {
    pending_.push_back(trace);
  } else {
    pending_[slot] = trace;
    free_.pop_back();
  }
}

void SpanTracer::on_admit(SimTime t, std::uint64_t request_id,
                          std::uint64_t vm_id) {
  (void)t;
  if (RequestTrace* trace = pending(request_id)) trace->vm_id = vm_id;
}

void SpanTracer::on_reject(SimTime t, std::uint64_t request_id) {
  finish(t, request_id, Outcome::kRejected, /*qos_violation=*/false);
}

void SpanTracer::on_service_start(SimTime t, std::uint64_t request_id,
                                  std::uint64_t vm_id) {
  if (RequestTrace* trace = pending(request_id)) {
    trace->service_start = t;
    trace->vm_id = vm_id;
  }
}

void SpanTracer::on_complete(SimTime t, std::uint64_t request_id,
                             bool qos_violation) {
  finish(t, request_id, Outcome::kCompleted, qos_violation);
}

void SpanTracer::on_lost(SimTime t, std::uint64_t request_id) {
  finish(t, request_id, Outcome::kLost, /*qos_violation=*/false);
}

void SpanTracer::on_tier(std::uint64_t request_id, std::uint8_t tier) {
  if (RequestTrace* trace = pending(request_id)) {
    trace->tier = tier;
    has_tiers_ = true;
  }
}

void SpanTracer::finish(SimTime t, std::uint64_t request_id, Outcome outcome,
                        bool qos_violation) {
  if (!sampled(request_id)) return;  // cheap pre-filter before the probe
  const std::uint32_t slot = index_.erase(request_id, key_of());
  if (slot == FlatIndex::kNil) return;
  free_.push_back(slot);
  RequestTrace trace = pending_[slot];
  trace.finish = t;
  trace.outcome = outcome;
  trace.qos_violation = qos_violation;
  if (finished_.size() == options_.capacity) {
    finished_.pop_front();
    ++dropped_;
  }
  finished_.push_back(trace);
}

}  // namespace cloudprov
