// Differential fuzz of the slab-backed EventQueue against a transparent
// oracle (std::priority_queue over (time, seq) with a cancelled-token set),
// plus directed regression tests for the cancel() bookkeeping bugs the
// kernel rewrite fixed: double-cancel underflowing size(), cancels of
// already-popped handles, and stale handles aliasing a reused slot, and for
// the FIFO lane's fallback to the heap.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace cloudprov {
namespace {

// --- directed cancel regressions -------------------------------------------

TEST(EventQueueCancel, DoubleCancelDoesNotUnderflowSize) {
  EventQueue queue;
  queue.push(1.0, [] {});
  const EventId id = queue.push(2.0, [] {});
  queue.push(3.0, [] {});
  queue.cancel(id);
  EXPECT_EQ(queue.size(), 2u);
  queue.cancel(id);  // second cancel of the same handle: no-op
  queue.cancel(id);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop().time, 1.0);
  EXPECT_EQ(queue.pop().time, 3.0);
  EXPECT_TRUE(queue.empty());
  queue.cancel(id);  // cancel on an empty queue: still a no-op
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueCancel, CancelOfPoppedHandleIsNoOp) {
  EventQueue queue;
  const EventId id = queue.push(1.0, [] {});
  queue.push(2.0, [] {});
  EXPECT_EQ(queue.pop().id, id);
  queue.cancel(id);  // already executed
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.pop().time, 2.0);
}

TEST(EventQueueCancel, StaleHandleNeverCancelsSlotReuse) {
  EventQueue queue;
  // Exhaust and recycle the same slot many times; every retired handle must
  // stay dead even though the slot index repeats.
  std::vector<EventId> retired;
  for (int i = 0; i < 100; ++i) {
    const EventId id = queue.push(static_cast<SimTime>(i), [] {});
    for (const EventId old : retired) queue.cancel(old);
    EXPECT_EQ(queue.size(), 1u);
    EXPECT_EQ(queue.pop().id, id);
    retired.push_back(id);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueCancel, InvalidAndOutOfRangeHandlesAreNoOps) {
  EventQueue queue;
  queue.push(1.0, [] {});
  queue.cancel(kInvalidEventId);
  queue.cancel(static_cast<EventId>(1) << 32 | 12345u);  // slot never issued
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueueCancel, HeapStaysCompactUnderCancelChurn) {
  // Push/cancel churn with nothing ever popped: the lazy stale entries must
  // not grow the queue's footprint without bound (cancel() compacts when
  // dead records dominate). Observable proxy: size() stays exact and the
  // eventual drain yields exactly the survivors in time order.
  EventQueue queue;
  std::vector<EventId> live;
  for (int i = 0; i < 10000; ++i) {
    live.push_back(queue.push(1000.0 + i, [] {}));
    if (live.size() > 4) {
      queue.cancel(live.front());
      live.erase(live.begin());
    }
  }
  EXPECT_EQ(queue.size(), live.size());
  SimTime last = 0.0;
  while (!queue.empty()) {
    const SimTime t = queue.pop().time;
    EXPECT_GT(t, last);
    last = t;
  }
}

// --- FIFO lane --------------------------------------------------------------

TEST(EventQueueLane, EarlierPushFallsBackToHeap) {
  EventQueue queue;
  std::vector<int> order;
  queue.push_fifo(5.0, [&order] { order.push_back(1); });
  // Sorts before the lane's tail at 5.0: goes to the heap.
  const EventId early = queue.push_fifo(3.0, [&order] { order.push_back(2); });
  // Exact ties with the lane head: push order decides, whatever the side.
  queue.push(5.0, [&order] { order.push_back(3); });
  queue.push_fifo(5.0, [&order] { order.push_back(4); });
  const EventId cancelled =
      queue.push_fifo(6.0, [&order] { order.push_back(5); });
  queue.push_fifo(7.0, [&order] { order.push_back(6); });
  EXPECT_EQ(queue.heap_depth(), 2u);  // events 2 and 3; the rest are lane
  EXPECT_EQ(queue.size(), 6u);

  const auto stamp = queue.stamp(early);
  ASSERT_TRUE(stamp.has_value());
  EXPECT_EQ(stamp->time, 3.0);
  EXPECT_EQ(stamp->seq, 2u);  // the push counter runs across both sides
  const auto lane_stamp = queue.stamp(cancelled);
  ASSERT_TRUE(lane_stamp.has_value());
  EXPECT_EQ(lane_stamp->time, 6.0);
  EXPECT_EQ(lane_stamp->seq, 5u);
  queue.cancel(cancelled);
  EXPECT_FALSE(queue.stamp(cancelled).has_value());
  EXPECT_EQ(queue.size(), 5u);

  EXPECT_EQ(queue.next_time(), 3.0);
  while (!queue.empty()) queue.pop().action();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3, 4, 6}));
  EXPECT_EQ(queue.pushed_count(), 6u);
}

// --- differential fuzz ------------------------------------------------------

struct OracleEntry {
  SimTime time;
  std::uint64_t seq;    // push order: the FIFO tie-break among equal times
  std::uint64_t token;  // identifies the action for cross-checking
};

struct OracleLater {
  bool operator()(const OracleEntry& a, const OracleEntry& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

// One fuzz round: a random interleaving of pushes (with forced equal-time
// ties), cancels (live, stale, and bogus), stamp lookups and pops, checked
// op-by-op against the oracle for size, pop time, and pop identity. About a
// third of the pushes go to the FIFO lane: two streams a fixed delay ahead of
// a clock that follows the pops, non-decreasing on their own, so that
// interleaved the shorter delay falls back to the heap. Heap pushes reuse
// lane times, so lane and heap events tie exactly. Every 2500 ops the queue is stamped, cleared and refilled
// from the stamps in shuffled order, to the lane or to the heap.
void fuzz_round(std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "seed=" << seed);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);

  EventQueue queue;
  std::priority_queue<OracleEntry, std::vector<OracleEntry>, OracleLater>
      oracle;
  std::unordered_set<std::uint64_t> cancelled;  // tokens cancelled, not popped
  std::vector<std::uint64_t> executed;          // filled by queue actions

  struct Issued {
    EventId id;
    std::uint64_t token;
  };
  std::vector<Issued> issued;  // every handle ever returned (live or not)
  // Tokens still inside both, with their oracle entry and current handle
  // (a refill re-issues every pending token under a new handle).
  std::unordered_map<std::uint64_t, std::pair<OracleEntry, EventId>> pending;
  std::uint64_t next_seq = 0;
  std::uint64_t next_token = 0;
  std::vector<SimTime> recent_times;  // pool for forcing equal-time ties
  SimTime now = 0.0;  // last popped time
  SimTime lane_clock = 0.0;
  std::size_t laned = 0;      // lane pushes that stayed on the lane
  std::size_t fell_back = 0;  // lane pushes that sorted before its tail

  const auto action = [&executed](std::uint64_t token) {
    return EventAction::make([&executed, token] { executed.push_back(token); });
  };

  for (int op = 0; op < 20000; ++op) {
    const double dice = uniform(rng);
    if (op % 2500 == 2499) {
      // Stamp every pending event, clear, and refill in shuffled order.
      std::vector<std::uint64_t> tokens;
      for (const auto& entry : pending) tokens.push_back(entry.first);
      std::sort(tokens.begin(), tokens.end());
      std::shuffle(tokens.begin(), tokens.end(), rng);
      std::vector<EventStamp> stamps;
      for (const std::uint64_t token : tokens) {
        const auto stamp = queue.stamp(pending.at(token).second);
        ASSERT_TRUE(stamp.has_value());
        stamps.push_back(*stamp);
      }
      queue.clear();
      ASSERT_TRUE(queue.empty());
      for (std::size_t i = 0; i < tokens.size(); ++i) {
        const EventId id =
            uniform(rng) < 0.5
                ? queue.push_fifo_stamped(stamps[i], action(tokens[i]))
                : queue.push_stamped(stamps[i], action(tokens[i]));
        pending.at(tokens[i]).second = id;
        issued.push_back(Issued{id, tokens[i]});
      }
    } else if (dice < 0.45 || queue.empty()) {
      SimTime t = 0.0;
      const bool lane = uniform(rng) < 0.35;
      if (lane) {
        // The lane clock follows the pops; 30% of pushes do not advance it,
        // so a stream repeats its previous time exactly.
        lane_clock = std::max(lane_clock, now) +
                     (uniform(rng) < 0.3 ? 0.0 : uniform(rng) * 0.5);
        t = lane_clock + (rng() % 2 == 0 ? 2.0 : 7.0);
      } else if (!recent_times.empty() && uniform(rng) < 0.3) {
        // Reuse a recent heap or lane timestamp to force a tie.
        t = recent_times[rng() % recent_times.size()];
      } else {
        t = uniform(rng) * 1000.0;
      }
      if (recent_times.size() < 32) {
        recent_times.push_back(t);
      } else {
        recent_times[rng() % recent_times.size()] = t;
      }
      const std::uint64_t token = next_token++;
      const std::size_t heap_before = queue.heap_depth();
      const EventId id = lane ? queue.push_fifo(t, action(token))
                              : queue.push(t, action(token));
      if (lane) ++(queue.heap_depth() > heap_before ? fell_back : laned);
      const OracleEntry entry{t, next_seq++, token};
      oracle.push(entry);
      issued.push_back(Issued{id, token});
      pending.emplace(token, std::make_pair(entry, id));
    } else if (dice < 0.6 && !issued.empty()) {
      // Cancel a handle drawn from everything ever issued: sometimes live,
      // sometimes already popped, cancelled or superseded by a refill
      // (stale), exercising the generation check on slots that have long
      // since been reused.
      const Issued pick = issued[rng() % issued.size()];
      const auto it = pending.find(pick.token);
      queue.cancel(pick.id);
      if (it != pending.end() && it->second.second == pick.id) {
        pending.erase(it);
        cancelled.insert(pick.token);
      }
    } else if (dice < 0.65 && !issued.empty()) {
      // A live handle stamps as (time, push number); any other as nothing.
      const Issued pick = issued[rng() % issued.size()];
      const auto it = pending.find(pick.token);
      const auto stamp = queue.stamp(pick.id);
      if (it != pending.end() && it->second.second == pick.id) {
        ASSERT_TRUE(stamp.has_value());
        EXPECT_EQ(stamp->time, it->second.first.time);
        EXPECT_EQ(stamp->seq, it->second.first.seq + 1);  // pushes count from 1
      } else {
        EXPECT_FALSE(stamp.has_value());
      }
    } else {
      // Pop and cross-check time + identity against the oracle.
      while (!oracle.empty() && cancelled.count(oracle.top().token) > 0) {
        cancelled.erase(oracle.top().token);
        oracle.pop();
      }
      ASSERT_FALSE(oracle.empty());
      const OracleEntry expected = oracle.top();
      oracle.pop();
      ASSERT_EQ(queue.next_time(), expected.time);
      Event event = queue.pop();
      ASSERT_EQ(event.time, expected.time);
      now = event.time;
      event.action();
      ASSERT_EQ(executed.back(), expected.token);
      pending.erase(expected.token);
    }
    ASSERT_EQ(queue.size(), pending.size());
    ASSERT_EQ(queue.empty(), pending.empty());
  }

  // Drain both to the end: full sequences must agree.
  while (!queue.empty()) {
    while (!oracle.empty() && cancelled.count(oracle.top().token) > 0) {
      oracle.pop();
    }
    ASSERT_FALSE(oracle.empty());
    Event event = queue.pop();
    ASSERT_EQ(event.time, oracle.top().time);
    event.action();
    ASSERT_EQ(executed.back(), oracle.top().token);
    oracle.pop();
  }
  while (!oracle.empty()) {
    EXPECT_GT(cancelled.count(oracle.top().token), 0u);
    oracle.pop();
  }
  EXPECT_GT(laned, 500u);
  EXPECT_GT(fell_back, 500u);
}

TEST(EventQueueFuzz, MatchesPriorityQueueOracleAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) fuzz_round(seed);
}

}  // namespace
}  // namespace cloudprov
