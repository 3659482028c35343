#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "sim/entity.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace cloudprov {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<double> popped;
  queue.push(3.0, [] {});
  queue.push(1.0, [] {});
  queue.push(2.0, [] {});
  while (!queue.empty()) popped.push_back(queue.pop().time);
  EXPECT_EQ(popped, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(EventQueue, FifoAmongEqualTimes) {
  EventQueue queue;
  std::vector<int> order;
  const EventId a = queue.push(5.0, [&] { order.push_back(1); });
  const EventId b = queue.push(5.0, [&] { order.push_back(2); });
  const EventId c = queue.push(5.0, [&] { order.push_back(3); });
  // Handles are opaque (slot | generation), merely distinct; FIFO among
  // equal times is guaranteed by the internal sequence number, which the
  // execution order below observes.
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  while (!queue.empty()) queue.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue queue;
  queue.push(1.0, [] {});
  const EventId id = queue.push(2.0, [] {});
  queue.push(3.0, [] {});
  queue.cancel(id);
  EXPECT_EQ(queue.pop().time, 1.0);
  EXPECT_EQ(queue.pop().time, 3.0);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, CancelHeadIsReflectedByEmptyAndNextTime) {
  EventQueue queue;
  const EventId id = queue.push(1.0, [] {});
  queue.push(2.0, [] {});
  queue.cancel(id);
  EXPECT_EQ(queue.next_time(), 2.0);
  queue.pop();
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue queue;
  queue.push(1.0, [] {});
  queue.cancel(kInvalidEventId);
  queue.cancel(99999);
  EXPECT_FALSE(queue.empty());
}

TEST(EventQueue, CancelAllLeavesEmptyQueue) {
  EventQueue queue;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(queue.push(i, [] {}));
  for (EventId id : ids) queue.cancel(id);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue queue;
  EXPECT_THROW(queue.pop(), std::logic_error);
  EXPECT_THROW(queue.next_time(), std::logic_error);
}

TEST(EventQueue, StressAgainstReferenceHeap) {
  // Randomized differential test: the custom heap must pop the same order as
  // std::priority_queue over (time, id).
  EventQueue queue;
  using Ref = std::pair<double, EventId>;
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> reference;
  Rng rng(2024);
  for (int round = 0; round < 20000; ++round) {
    if (reference.empty() || rng.bernoulli(0.6)) {
      const double t = rng.uniform(0.0, 1000.0);
      const EventId id = queue.push(t, [] {});
      reference.push({t, id});
    } else {
      const Event event = queue.pop();
      EXPECT_EQ(event.time, reference.top().first);
      EXPECT_EQ(event.id, reference.top().second);
      reference.pop();
    }
  }
  while (!reference.empty()) {
    const Event event = queue.pop();
    EXPECT_EQ(event.id, reference.top().second);
    reference.pop();
  }
  EXPECT_TRUE(queue.empty());
}

TEST(Simulation, ExecutesInOrderAndAdvancesClock) {
  Simulation sim;
  std::vector<double> times;
  sim.schedule_at(2.0, [&] { times.push_back(sim.now()); });
  sim.schedule_at(1.0, [&] { times.push_back(sim.now()); });
  sim.schedule_at(3.0, [&] { times.push_back(sim.now()); });
  const auto executed = sim.run();
  EXPECT_EQ(executed, 3u);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(Simulation, ScheduleInIsRelative) {
  Simulation sim;
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_in(5.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 15.0);
}

TEST(Simulation, SchedulingInThePastThrows) {
  Simulation sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulation, RunUntilExecutesBoundaryEventAndAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(5.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.schedule_at(10.5, [&] { ++fired; });
  sim.run(10.0);
  EXPECT_EQ(fired, 2);           // 5.0 and exactly-10.0 run
  EXPECT_EQ(sim.now(), 10.0);    // clock parked at the horizon
  sim.run(20.0);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 20.0);    // advanced to horizon past the last event
}

TEST(Simulation, StepExecutesSingleEvent) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(PeriodicProcess, FiresAtFixedCadence) {
  Simulation sim;
  std::vector<double> fires;
  PeriodicProcess process(sim, 10.0, 5.0, [&](SimTime t) { fires.push_back(t); });
  sim.run(27.0);
  EXPECT_EQ(fires, (std::vector<double>{10.0, 15.0, 20.0, 25.0}));
}

TEST(PeriodicProcess, StopPreventsFurtherFires) {
  Simulation sim;
  int count = 0;
  PeriodicProcess process(sim, 1.0, 1.0, [&](SimTime) { ++count; });
  sim.schedule_at(3.5, [&] { process.stop(); });
  sim.run(10.0);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(process.running());
}

TEST(PeriodicProcess, DestructionCancelsPendingEvent) {
  Simulation sim;
  int count = 0;
  {
    PeriodicProcess process(sim, 1.0, 1.0, [&](SimTime) { ++count; });
  }
  sim.run(10.0);
  EXPECT_EQ(count, 0);
}

TEST(Entity, ExposesNameAndClock) {
  Simulation sim;
  class Dummy : public Entity {
   public:
    using Entity::Entity;
  };
  Dummy entity(sim, "dummy");
  EXPECT_EQ(entity.name(), "dummy");
  EXPECT_EQ(entity.now(), 0.0);
}

TEST(Simulation, DeterministicEventCountForFixedSeedModel) {
  // A self-scheduling chain driven by a seeded RNG must execute an identical
  // number of events run-to-run.
  auto run_once = [] {
    Simulation sim;
    Rng rng(5);
    std::function<void()> chain = [&] {
      if (sim.now() < 100.0) sim.schedule_in(rng.exponential(1.0), chain);
    };
    sim.schedule_at(0.0, chain);
    sim.run();
    return sim.executed_events();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EventQueueAux, SizeAndPushedCountAndClear) {
  EventQueue queue;
  EXPECT_EQ(queue.size(), 0u);
  const EventId a = queue.push(1.0, [] {});
  queue.push(2.0, [] {});
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pushed_count(), 2u);
  queue.cancel(a);
  EXPECT_EQ(queue.size(), 1u);  // live events only
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.pushed_count(), 2u);  // history preserved
}

TEST(EventQueueEdge, CancelledIdsAreNeverRevalidatedByReuse) {
  EventQueue queue;
  const EventId a = queue.push(1.0, [] {});
  queue.cancel(a);
  // The replacement may reuse a's slab slot, but its bumped generation makes
  // the handle distinct — the stale handle can never alias the new event.
  const EventId b = queue.push(1.0, [] {});
  EXPECT_NE(b, a);
  queue.cancel(a);  // stale: must be a no-op on b
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.pop().id, b);
}

}  // namespace
}  // namespace cloudprov
