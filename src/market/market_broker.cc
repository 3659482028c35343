#include "market/market_broker.h"

#include <cmath>
#include <ostream>

#include "market/pricing.h"
#include "profile/wall_profiler.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/log.h"

namespace cloudprov {

void MarketConfig::validate() const {
  catalog.validate();
  acquisition.validate();
  revocation.validate();
  spot_price.validate();
  ensure_arg(tick > 0.0, "MarketConfig: tick must be > 0");
}

MarketBroker::MarketBroker(Simulation& sim, Datacenter& datacenter,
                           MarketConfig config, std::uint64_t seed)
    : sim_(sim), datacenter_(datacenter), config_(std::move(config)) {
  config_.validate();
  // The price stream exists only when spot purchases are actually possible:
  // a pure on-demand/reserved market then schedules zero events and cannot
  // perturb the simulation (the strict-no-op guarantee the golden tests pin).
  if (config_.acquisition.spot_enabled(config_.catalog)) {
    price_.emplace(config_.spot_price, seed);
  }
}

void MarketBroker::attach(ApplicationProvisioner& provisioner) {
  provisioner_ = &provisioner;
  provisioner.set_vm_factory([this](const VmSpec& spec) {
    return acquire(spec);
  });
}

void MarketBroker::start() {
  if (state_.running || !price_.has_value()) return;
  state_.running = true;
  state_.last_accrual = sim_.now();
  pending_tick_ = sim_.schedule_in(config_.tick, [this] { tick(); });
}

void MarketBroker::stop() {
  if (!state_.running) return;
  state_.running = false;
  if (pending_tick_ != kInvalidEventId) {
    sim_.cancel(pending_tick_);
    pending_tick_ = kInvalidEventId;
  }
}

double MarketBroker::spot_price() const {
  if (price_.has_value()) return price_->current();
  const std::size_t spot = config_.catalog.find(PurchaseKind::kSpot);
  return spot == MarketCatalog::npos
             ? 0.0
             : config_.catalog.classes[spot].pricing.price_per_hour;
}

std::size_t MarketBroker::live_count(PurchaseKind kind) const {
  std::size_t count = 0;
  for (const Entry& entry : entries_) {
    if (entry.kind == kind && entry.vm->state() != VmState::kDestroyed) {
      ++count;
    }
  }
  return count;
}

double MarketBroker::accrual_rate(const Entry& entry) const {
  if (entry.vm->state() == VmState::kDestroyed) return 0.0;
  if (entry.kind == PurchaseKind::kSpot && price_.has_value()) {
    return price_->current();
  }
  return config_.catalog.classes[entry.class_index].pricing.price_per_hour;
}

void MarketBroker::accrue(SimTime t) {
  if (t <= state_.last_accrual) return;
  const double dt_hours = (t - state_.last_accrual) / duration::kHour;
  for (const Entry& entry : entries_) {
    state_.accrued_burn += accrual_rate(entry) * dt_hours;
  }
  state_.last_accrual = t;
}

Vm* MarketBroker::acquire(const VmSpec& spec) {
  const SimTime t = sim_.now();
  if (price_.has_value()) {
    accrue(t);
    price_->advance_to(t);
  }
  const std::size_t target =
      provisioner_ != nullptr ? provisioner_->commanded_target() : 0;
  const std::size_t index = config_.acquisition.choose(
      config_.catalog, spot_price(), live_count(PurchaseKind::kReserved),
      live_count(PurchaseKind::kSpot), target);
  const InstanceClass& cls = config_.catalog.classes[index];
  Vm* vm = cls.boot_delay.has_value()
               ? datacenter_.create_vm(spec, *cls.boot_delay)
               : datacenter_.create_vm(spec);
  if (vm == nullptr) return nullptr;  // capacity or outage denial
  entries_.push_back({vm, index, cls.kind, t, false, false});
  state_.purchases[static_cast<std::size_t>(cls.kind)] += 1;
  if (telemetry_ != nullptr) {
    telemetry_->market_purchase(t, vm->id(), to_string(cls.kind));
  }
  return vm;
}

void MarketBroker::tick() {
  // revoke() runs inside this scope; hard_kill() fires later under its own.
  ProfileScope profile(sim_.profiler(), ProfileCategory::kMarketHook);
  pending_tick_ = kInvalidEventId;
  if (!state_.running) return;
  const SimTime t = sim_.now();
  accrue(t);
  price_->advance_to(t);
  const double price = price_->current();
  if (telemetry_ != nullptr) {
    telemetry_->spot_price_sample(t, price, state_.accrued_burn);
  }
  if (config_.revocation.should_revoke(price, config_.acquisition.bid)) {
    // Index loop: revoke() may grow entries_ indirectly (pool healing buys
    // replacements through acquire), which would invalidate iterators.
    const std::size_t count = entries_.size();
    for (std::size_t i = 0; i < count; ++i) {
      const Entry& entry = entries_[i];
      if (entry.kind != PurchaseKind::kSpot || entry.revoked) continue;
      if (entry.vm->state() == VmState::kDestroyed) continue;
      revoke(i);
    }
  }
  pending_tick_ = sim_.schedule_in(config_.tick, [this] { tick(); });
}

void MarketBroker::revoke(std::size_t entry_index) {
  Entry& entry = entries_[entry_index];
  entry.revoked = true;
  ++state_.revocations;
  const SimTime t = sim_.now();
  if (telemetry_ != nullptr) {
    telemetry_->spot_revoked(t, entry.vm->id(), price_->current(),
                             config_.acquisition.bid);
  }
  CLOUDPROV_LOG(Debug) << "spot revocation for vm-" << entry.vm->id()
                       << " at t=" << t << " (price " << price_->current()
                       << " > bid " << config_.acquisition.bid << ")";
  if (provisioner_ != nullptr) provisioner_->revoke_instance(*entry.vm);
  // The hard kill outlives stop(): a notice already served is the IaaS
  // provider's commitment. entries_ is append-only, so the index is stable.
  kills_.push_back(KillRecord{
      sim_.schedule_in(config_.revocation.notice,
                       [this, entry_index] { hard_kill(entry_index); }),
      entry_index});
}

void MarketBroker::hard_kill(std::size_t entry_index) {
  ProfileScope profile(sim_.profiler(), ProfileCategory::kMarketHook);
  Entry& entry = entries_[entry_index];
  if (entry.vm->state() == VmState::kDestroyed) return;  // drained in time
  entry.hard_killed = true;
  ++state_.revocation_kills;
  const std::size_t lost =
      datacenter_.fail_vm(*entry.vm, FaultCause::kSpotRevocation);
  if (telemetry_ != nullptr) {
    telemetry_->spot_kill(sim_.now(), entry.vm->id(), lost);
  }
}

MarketBroker::Snapshot MarketBroker::checkpoint() const {
  Snapshot snap;
  static_cast<State&>(snap) = state_;
  if (price_.has_value()) snap.price = price_->state();
  snap.entries.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    snap.entries.push_back(Snapshot::EntrySnap{
        entry.vm->id(), entry.class_index, entry.kind, entry.purchase_time,
        entry.revoked, entry.hard_killed});
  }
  for (const KillRecord& kill : kills_) {
    if (auto stamp = sim_.stamp(kill.event)) {
      snap.kills.push_back(Snapshot::Kill{*stamp, kill.entry_index});
    }
  }
  snap.pending_tick = sim_.stamp(pending_tick_);
  return snap;
}

void MarketBroker::restore(const Snapshot& snap) {
  ensure(!state_.running && entries_.empty(),
         "MarketBroker::restore: broker already used");
  ensure(price_.has_value() == snap.price.has_value(),
         "MarketBroker::restore: spot-stream configuration mismatch");
  state_ = snap;
  if (snap.price) price_->set_state(*snap.price);
  entries_.reserve(snap.entries.size());
  for (const Snapshot::EntrySnap& entry : snap.entries) {
    Vm* vm = datacenter_.find_vm(entry.vm_id);
    ensure(vm != nullptr, "MarketBroker::restore: ledger VM missing");
    entries_.push_back({vm, entry.class_index, entry.kind, entry.purchase_time,
                        entry.revoked, entry.hard_killed});
  }
  for (const Snapshot::Kill& kill : snap.kills) {
    const std::size_t entry_index = kill.entry_index;
    kills_.push_back(KillRecord{
        sim_.schedule_stamped(kill.stamp,
                              [this, entry_index] { hard_kill(entry_index); }),
        entry_index});
  }
  if (snap.pending_tick) {
    pending_tick_ = sim_.schedule_stamped(*snap.pending_tick, [this] { tick(); });
  }
}

double MarketBroker::billed(const Entry& entry, SimTime end_time,
                            SimTime horizon) const {
  const PricingPolicy& pricing =
      config_.catalog.classes[entry.class_index].pricing;
  switch (entry.kind) {
    case PurchaseKind::kOnDemand:
      return billed_cost(end_time - entry.purchase_time, pricing);
    case PurchaseKind::kReserved:
      // Term commitment: billed to the horizon even if destroyed early.
      return billed_cost(horizon - entry.purchase_time, pricing);
    case PurchaseKind::kSpot: {
      // Quantum-rounded usage billed at the realized market price: the
      // integral of the piecewise-constant path over the billed window.
      double span = std::max(end_time - entry.purchase_time,
                             pricing.minimum_billed);
      span = std::ceil(span / pricing.billing_quantum) *
             pricing.billing_quantum;
      return price_.has_value()
                 ? price_->integrate(entry.purchase_time,
                                     entry.purchase_time + span) /
                       duration::kHour
                 : span / duration::kHour * pricing.price_per_hour;
    }
  }
  return 0.0;
}

MarketReport MarketBroker::finalize(SimTime horizon) {
  ensure_arg(horizon >= 0.0, "MarketBroker::finalize: negative horizon");
  MarketReport report;
  if (price_.has_value()) {
    price_->advance_to(horizon);
    report.spot_path = price_->path();
    report.spot_price_mean = price_->mean_price(horizon);
    report.spot_price_max = price_->max_price(horizon);
  }
  for (const Entry& entry : entries_) {
    MarketPurchase purchase;
    purchase.vm_id = entry.vm->id();
    purchase.class_index = entry.class_index;
    purchase.kind = entry.kind;
    purchase.purchase_time = entry.purchase_time;
    purchase.end_time = entry.vm->destruction_time().value_or(horizon);
    purchase.revoked = entry.revoked;
    purchase.hard_killed = entry.hard_killed;
    purchase.cost = billed(entry, purchase.end_time, horizon);
    switch (entry.kind) {
      case PurchaseKind::kOnDemand:
        report.on_demand_cost += purchase.cost;
        break;
      case PurchaseKind::kReserved:
        report.reserved_cost += purchase.cost;
        break;
      case PurchaseKind::kSpot:
        report.spot_cost += purchase.cost;
        break;
    }
    report.total_cost += purchase.cost;
    report.ledger.push_back(purchase);
  }
  report.on_demand_purchases = purchases(PurchaseKind::kOnDemand);
  report.spot_purchases = purchases(PurchaseKind::kSpot);
  report.reserved_purchases = purchases(PurchaseKind::kReserved);
  report.revocations = state_.revocations;
  report.revocation_kills = state_.revocation_kills;
  return report;
}

double MarketBroker::total_cost(SimTime horizon) {
  ensure_arg(horizon >= 0.0, "MarketBroker::total_cost: negative horizon");
  if (price_.has_value()) price_->advance_to(horizon);
  double total = 0.0;
  for (const Entry& entry : entries_) {
    total += billed(entry, entry.vm->destruction_time().value_or(horizon),
                    horizon);
  }
  return total;
}

void write_market_csv(std::ostream& out, const MarketReport& report) {
  CsvWriter csv(out);
  csv.write_header({"record", "time", "vm_id", "class", "kind", "end_time",
                    "value", "revoked", "hard_killed"});
  for (const PricePoint& point : report.spot_path) {
    csv.write_row({"price", CsvWriter::format(point.time), "", "", "", "",
                   CsvWriter::format(point.price), "", ""});
  }
  for (const MarketPurchase& purchase : report.ledger) {
    csv.write_row(
        {"purchase", CsvWriter::format(purchase.purchase_time),
         CsvWriter::format(static_cast<std::int64_t>(purchase.vm_id)),
         CsvWriter::format(static_cast<std::int64_t>(purchase.class_index)),
         to_string(purchase.kind), CsvWriter::format(purchase.end_time),
         CsvWriter::format(purchase.cost), purchase.revoked ? "1" : "0",
         purchase.hard_killed ? "1" : "0"});
  }
}

}  // namespace cloudprov
