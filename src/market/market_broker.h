// Online IaaS market broker: the provisioner buys capacity here instead of
// conjuring uniform VMs for free.
//
// The broker installs itself as the ApplicationProvisioner's VM factory, so
// every instance the adaptive policy (or the reconciler) asks for becomes a
// market purchase: AcquisitionPolicy picks the class (reserved base load,
// spot while price <= bid and under the spot-fraction cap, on-demand
// otherwise), the data center delivers the VM with the class boot-delay
// profile, and a ledger entry records the purchase for exact billing.
//
// On each market tick the SpotPriceProcess advances; when the price crosses
// the bid, every live spot instance receives a revocation notice: it drains
// through the provisioner's graceful drain-before-destroy lifecycle, and an
// instance still alive when the notice expires is hard-killed through the
// fault path (FaultCause::kSpotRevocation), losing its in-flight requests.
// The resulting pool deficit is healed by the adaptive cycle or the
// Reconciler, whose replacement purchases fall back to on-demand (price >
// bid after a revocation, so AcquisitionPolicy::choose cannot pick spot).
//
// A disabled market (or a pure on-demand configuration: spot_fraction 0 /
// bid 0, inherited boot delay) is a strict no-op: no events are scheduled
// and every simulation observable stays bit-identical to a market-less run.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <vector>

#include "core/application_provisioner.h"
#include "market/acquisition.h"
#include "market/instance_class.h"
#include "market/spot_price.h"

namespace cloudprov {

struct MarketConfig {
  /// Master switch; disabled keeps runs byte-identical to market-less ones.
  bool enabled = false;
  MarketCatalog catalog = MarketCatalog::standard();
  AcquisitionPolicy acquisition;
  RevocationPolicy revocation;
  SpotPriceConfig spot_price;
  /// Market evaluation cadence in seconds: advance the price path, check
  /// bids, accrue cost burn. Only armed while spot purchases are possible.
  SimTime tick = 60.0;
  /// Non-zero pins the spot-price stream to this seed instead of the
  /// replication's derived market stream. Multi-tenant runs set one shared
  /// value so every tenant prices against the same market trajectory.
  std::uint64_t price_seed_override = 0;

  void validate() const;
};

/// One row of the purchase ledger, closed at finalize().
struct MarketPurchase {
  std::uint64_t vm_id = 0;
  std::size_t class_index = 0;
  PurchaseKind kind = PurchaseKind::kOnDemand;
  SimTime purchase_time = 0.0;
  SimTime end_time = 0.0;  ///< destruction, or the horizon for live VMs
  double cost = 0.0;       ///< billed under the class pricing policy
  bool revoked = false;
  bool hard_killed = false;
};

/// Everything a replication's market did: the ledger, the realized spot
/// path, and the cost/revocation aggregates that feed RunMetrics.
struct MarketReport {
  std::vector<MarketPurchase> ledger;
  std::vector<PricePoint> spot_path;
  double total_cost = 0.0;
  double on_demand_cost = 0.0;
  double spot_cost = 0.0;
  double reserved_cost = 0.0;
  std::uint64_t on_demand_purchases = 0;
  std::uint64_t spot_purchases = 0;
  std::uint64_t reserved_purchases = 0;
  std::uint64_t revocations = 0;      ///< notices issued
  std::uint64_t revocation_kills = 0; ///< hard kills at notice expiry
  double spot_price_mean = 0.0;       ///< time-weighted over the horizon
  double spot_price_max = 0.0;
};

/// Long-form CSV of one market report: `price` rows (the realized spot
/// path) followed by `purchase` rows (the ledger, purchase order). Byte
/// -identical across runs for the same (scenario, seed).
void write_market_csv(std::ostream& out, const MarketReport& report);

class MarketBroker {
 public:
  /// `seed` feeds the spot-price stream (derived after the workload,
  /// placement, and fault streams, so enabling the market never perturbs
  /// them). The config is validated here.
  MarketBroker(Simulation& sim, Datacenter& datacenter, MarketConfig config,
               std::uint64_t seed);
  ~MarketBroker() { stop(); }
  MarketBroker(const MarketBroker&) = delete;
  MarketBroker& operator=(const MarketBroker&) = delete;

  /// Attaches the replication's telemetry collector (null disables).
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Routes the provisioner's VM creation through acquire().
  void attach(ApplicationProvisioner& provisioner);

  /// Arms the market tick (idempotent; no-op unless spot is purchasable).
  void start();
  /// Cancels the pending tick. Pending hard-kill notices stay armed: a
  /// revocation already issued is the IaaS provider's decision, not ours.
  void stop();
  bool running() const { return state_.running; }

  /// One purchase: picks a class, creates the VM (nullptr when the data
  /// center has no capacity or allocation is suspended), ledgers it.
  Vm* acquire(const VmSpec& spec);

  /// Closes the ledger at `horizon` and bills every purchase: on-demand by
  /// lifetime under the class PricingPolicy, spot by integrating the
  /// realized price path over the billed quanta, reserved as a term
  /// commitment to the horizon. Call once, after the simulation ran.
  MarketReport finalize(SimTime horizon);
  /// finalize()'s total_cost alone, bit-identical to it: advances the price
  /// path to `horizon` and sums the same bills in ledger order, without
  /// copying the path or building the ledger. What-if forks rank by it.
  double total_cost(SimTime horizon);

  // --- live statistics ----------------------------------------------------
  std::uint64_t purchases(PurchaseKind kind) const {
    return state_.purchases[static_cast<std::size_t>(kind)];
  }
  std::uint64_t revocations() const { return state_.revocations; }
  std::uint64_t revocation_kills() const { return state_.revocation_kills; }
  /// Current spot price (list price when no spot stream is armed).
  double spot_price() const;
  bool spot_active() const { return price_.has_value(); }

  const MarketConfig& config() const { return config_; }

  /// Adjusts the spot bid in place (lookahead what-if candidates explore
  /// bid levels). Takes effect from the next tick/purchase.
  void set_bid(double bid) { config_.acquisition.bid = bid; }

  // --- checkpoint support (src/lookahead) ---------------------------------
  /// Run flag, cost accrual and counters: the state checkpoint() and
  /// restore() copy whole.
  struct State {
    bool running = false;
    SimTime last_accrual = 0.0;
    double accrued_burn = 0.0;  ///< telemetry-only running cost estimate
    std::array<std::uint64_t, kPurchaseKindCount> purchases{};
    std::uint64_t revocations = 0;
    std::uint64_t revocation_kills = 0;
  };
  struct Snapshot : State {
    std::optional<SpotPriceProcess::State> price;
    struct EntrySnap {
      std::uint64_t vm_id = 0;
      std::size_t class_index = 0;
      PurchaseKind kind = PurchaseKind::kOnDemand;
      SimTime purchase_time = 0.0;
      bool revoked = false;
      bool hard_killed = false;
    };
    std::vector<EntrySnap> entries;
    struct Kill {
      EventStamp stamp;
      std::size_t entry_index = 0;
    };
    std::vector<Kill> kills;  ///< pending hard-kill notices
    std::optional<EventStamp> pending_tick;
  };
  Snapshot checkpoint() const;
  /// Rebinds the ledger against the (already restored) data center and
  /// re-arms the market tick and pending hard-kills under their original
  /// stamps. Call attach() first; use instead of start() on a fresh broker
  /// built with the same config/seed.
  void restore(const Snapshot& snap);

 private:
  struct Entry {
    Vm* vm = nullptr;
    std::size_t class_index = 0;
    PurchaseKind kind = PurchaseKind::kOnDemand;
    SimTime purchase_time = 0.0;
    bool revoked = false;
    bool hard_killed = false;
  };

  void tick();
  void revoke(std::size_t entry_index);
  void hard_kill(std::size_t entry_index);
  void accrue(SimTime t);
  std::size_t live_count(PurchaseKind kind) const;
  double accrual_rate(const Entry& entry) const;  ///< currency per hour
  /// The bill of one purchase that ended at `end_time`, closed at `horizon`;
  /// the price path must already be advanced to the horizon.
  double billed(const Entry& entry, SimTime end_time, SimTime horizon) const;

  Simulation& sim_;
  Datacenter& datacenter_;
  ApplicationProvisioner* provisioner_ = nullptr;
  MarketConfig config_;
  Telemetry* telemetry_ = nullptr;

  std::optional<SpotPriceProcess> price_;
  std::vector<Entry> entries_;
  /// Hard-kill notices in flight (fired records keep a dead EventId and are
  /// skipped by checkpoint()).
  struct KillRecord {
    EventId event = kInvalidEventId;
    std::size_t entry_index = 0;
  };
  std::vector<KillRecord> kills_;
  State state_;
  EventId pending_tick_ = kInvalidEventId;
};

}  // namespace cloudprov
