#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "common/assert.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace blackdp::sim {
namespace {

// -------------------------------------------------------------------- time

TEST(TimeTest, DurationConstructors) {
  EXPECT_EQ(Duration::microseconds(5).us(), 5);
  EXPECT_EQ(Duration::milliseconds(2).us(), 2'000);
  EXPECT_EQ(Duration::seconds(3).us(), 3'000'000);
}

TEST(TimeTest, FromSecondsRoundsToNearestMicrosecond) {
  EXPECT_EQ(Duration::fromSeconds(0.0000014).us(), 1);
  EXPECT_EQ(Duration::fromSeconds(0.0000016).us(), 2);
  EXPECT_EQ(Duration::fromSeconds(-0.0000014).us(), -1);
}

TEST(TimeTest, DurationArithmetic) {
  const Duration a = Duration::milliseconds(3);
  const Duration b = Duration::milliseconds(2);
  EXPECT_EQ((a + b).us(), 5'000);
  EXPECT_EQ((a - b).us(), 1'000);
  EXPECT_EQ((b * 4).us(), 8'000);
}

TEST(TimeTest, DurationComparison) {
  EXPECT_LT(Duration::microseconds(1), Duration::microseconds(2));
  EXPECT_EQ(Duration::seconds(1), Duration::milliseconds(1000));
}

TEST(TimeTest, TimePointArithmetic) {
  const TimePoint t = TimePoint::fromUs(100);
  EXPECT_EQ((t + Duration::microseconds(50)).us(), 150);
  EXPECT_EQ((TimePoint::fromUs(150) - t).us(), 50);
}

TEST(TimeTest, ToSeconds) {
  EXPECT_DOUBLE_EQ(Duration::milliseconds(1500).toSeconds(), 1.5);
  EXPECT_DOUBLE_EQ(TimePoint::fromUs(2'000'000).toSeconds(), 2.0);
}

// --------------------------------------------------------------- simulator

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator simulator;
  EXPECT_EQ(simulator.now().us(), 0);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule(Duration::microseconds(30), [&] { order.push_back(3); });
  simulator.schedule(Duration::microseconds(10), [&] { order.push_back(1); });
  simulator.schedule(Duration::microseconds(20), [&] { order.push_back(2); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, EqualTimestampsRunFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.schedule(Duration::microseconds(5),
                       [&order, i] { order.push_back(i); });
  }
  simulator.run();
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator simulator;
  TimePoint seen;
  simulator.schedule(Duration::milliseconds(7), [&] { seen = simulator.now(); });
  simulator.run();
  EXPECT_EQ(seen.us(), 7'000);
  EXPECT_EQ(simulator.now().us(), 7'000);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule(Duration::microseconds(1), [&] {
    order.push_back(1);
    simulator.schedule(Duration::microseconds(1), [&] { order.push_back(2); });
  });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, RunUntilStopsAtBound) {
  Simulator simulator;
  int ran = 0;
  simulator.schedule(Duration::microseconds(10), [&] { ++ran; });
  simulator.schedule(Duration::microseconds(20), [&] { ++ran; });
  simulator.schedule(Duration::microseconds(30), [&] { ++ran; });
  simulator.run(TimePoint::fromUs(20));
  EXPECT_EQ(ran, 2);  // the event exactly at the bound still runs
  simulator.run();
  EXPECT_EQ(ran, 3);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator simulator;
  bool ran = false;
  const EventHandle handle =
      simulator.schedule(Duration::microseconds(5), [&] { ran = true; });
  simulator.cancel(handle);
  simulator.run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelAfterExecutionIsNoOp) {
  Simulator simulator;
  bool ran = false;
  const EventHandle handle =
      simulator.schedule(Duration::microseconds(5), [&] { ran = true; });
  simulator.run();
  EXPECT_TRUE(ran);
  EXPECT_NO_THROW(simulator.cancel(handle));
}

TEST(SimulatorTest, CancelDefaultHandleIsNoOp) {
  Simulator simulator;
  EXPECT_NO_THROW(simulator.cancel(EventHandle{}));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator simulator;
  bool ran = false;
  simulator.schedule(Duration::microseconds(-10), [&] { ran = true; });
  simulator.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(simulator.now().us(), 0);
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator simulator;
  int ran = 0;
  simulator.schedule(Duration::microseconds(1), [&] { ++ran; });
  simulator.schedule(Duration::microseconds(2), [&] { ++ran; });
  EXPECT_TRUE(simulator.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(simulator.step());
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(simulator.step());
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator simulator;
  for (int i = 0; i < 5; ++i) {
    simulator.schedule(Duration::microseconds(i), [] {});
  }
  simulator.run();
  EXPECT_EQ(simulator.executedEvents(), 5u);
}

TEST(SimulatorTest, RunReturnsExecutedCount) {
  Simulator simulator;
  for (int i = 0; i < 3; ++i) {
    simulator.schedule(Duration::microseconds(i), [] {});
  }
  EXPECT_EQ(simulator.run(), 3u);
}

TEST(SimulatorTest, NullCallbackIsRejected) {
  Simulator simulator;
  EXPECT_THROW(simulator.schedule(Duration{}, nullptr),
               common::AssertionError);
}

// Property: for any random set of schedule times, execution is sorted.
class SimulatorOrderProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SimulatorOrderProperty, ExecutionOrderIsSortedByTime) {
  Rng rng{GetParam()};
  Simulator simulator;
  std::vector<std::int64_t> executed;
  for (int i = 0; i < 200; ++i) {
    const auto when = rng.uniformInt(0, 1000);
    simulator.schedule(Duration::microseconds(when), [&executed, &simulator] {
      executed.push_back(simulator.now().us());
    });
  }
  simulator.run();
  ASSERT_EQ(executed.size(), 200u);
  EXPECT_TRUE(std::is_sorted(executed.begin(), executed.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorOrderProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Reference model of the kernel's observable semantics, written the plain
// way: pending (when, seq) entries in a sorted list plus a set of cancelled
// seqs that a pop consumes. A cancelled entry stays pending (and counted by
// pendingEvents) until it reaches the front; step() skips such entries and
// runs the next live one whatever its time; run(until) checks `until`
// against the front before each step.
class ReferenceSimulator {
 public:
  struct Handle {
    std::uint64_t seq{0};
  };

  [[nodiscard]] TimePoint now() const { return now_; }

  Handle schedule(Duration delay, std::function<void()> fn) {
    if (delay < Duration{}) delay = Duration{};
    const Entry entry{now_ + delay, nextSeq_++, std::move(fn)};
    const auto at = std::upper_bound(
        pending_.begin(), pending_.end(), entry,
        [](const Entry& a, const Entry& b) {
          return a.when != b.when ? a.when < b.when : a.seq < b.seq;
        });
    const std::uint64_t seq = entry.seq;
    pending_.insert(at, entry);
    return Handle{seq};
  }

  void cancel(Handle handle) {
    if (handle.seq != 0) cancelled_.insert(handle.seq);
  }

  bool step() {
    while (!pending_.empty()) {
      Entry top = std::move(pending_.front());
      pending_.erase(pending_.begin());
      if (cancelled_.erase(top.seq) != 0) continue;
      now_ = top.when;
      ++executed_;
      top.fn();
      return true;
    }
    return false;
  }

  std::size_t run(TimePoint until) {
    std::size_t ran = 0;
    while (!pending_.empty() && pending_.front().when <= until) {
      if (step()) ++ran;
    }
    return ran;
  }

  [[nodiscard]] std::size_t pendingEvents() const { return pending_.size(); }
  [[nodiscard]] std::size_t executedEvents() const { return executed_; }

 private:
  struct Entry {
    TimePoint when;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  TimePoint now_{};
  std::uint64_t nextSeq_{1};
  std::size_t executed_{0};
  std::vector<Entry> pending_;
  std::set<std::uint64_t> cancelled_;
};

class SimulatorCancelModel : public ::testing::TestWithParam<std::uint64_t> {};

// Random schedule / cancel / step / run(until) sequences drive the kernel
// and the reference model side by side. Cancels hit pending, already-run,
// already-cancelled and default handles alike; some events schedule and
// cancel others from inside their callback, which recycles slots while
// stale handles to them are still held. Every observable must agree.
TEST_P(SimulatorCancelModel, MatchesReferenceSemantics) {
  Rng rng{GetParam()};
  Simulator real;
  ReferenceSimulator model;
  std::vector<EventHandle> realHandles;
  std::vector<ReferenceSimulator::Handle> modelHandles;
  std::vector<std::uint64_t> realLog;
  std::vector<std::uint64_t> modelLog;

  // Per-event script, drawn once so both sides do the same thing. The real
  // kernel always runs an event first (its side is stepped first), so it
  // draws a spawned child's script and the model reuses it.
  struct Script {
    std::int64_t delayUs;
    bool spawns;
    std::int64_t childDelayUs;
    std::size_t cancelTarget;  ///< handle index, or SIZE_MAX for none
    std::size_t child{SIZE_MAX};
  };
  std::vector<Script> scripts;

  const auto drawScript = [&](std::int64_t delayUs) {
    const bool spawns = rng.bernoulli(0.2);
    const std::int64_t childDelay = rng.uniformInt(0, 3);
    std::size_t target = SIZE_MAX;
    if (!realHandles.empty() && rng.bernoulli(0.3)) {
      target = rng.index(realHandles.size());
    }
    scripts.push_back(Script{delayUs, spawns, childDelay, target});
    realHandles.emplace_back();
    modelHandles.emplace_back();
    return scripts.size() - 1;
  };
  std::function<void(std::size_t, bool)> fire;
  const auto scheduleOn = [&](std::size_t id, bool onReal) {
    const Duration delay = Duration::microseconds(scripts[id].delayUs);
    if (onReal) {
      realHandles[id] = real.schedule(delay, [&, id] { fire(id, true); });
    } else {
      modelHandles[id] = model.schedule(delay, [&, id] { fire(id, false); });
    }
  };
  fire = [&](std::size_t id, bool onReal) {
    (onReal ? realLog : modelLog).push_back(id);
    const Script script = scripts[id];
    if (script.cancelTarget != SIZE_MAX) {
      if (onReal) {
        real.cancel(realHandles[script.cancelTarget]);
      } else {
        model.cancel(modelHandles[script.cancelTarget]);
      }
    }
    if (!script.spawns) return;
    if (onReal) scripts[id].child = drawScript(script.childDelayUs);
    scheduleOn(scripts[id].child, onReal);
  };

  for (int op = 0; op < 3000; ++op) {
    const double pick = rng.uniformReal(0.0, 1.0);
    if (pick < 0.45) {
      const std::size_t id = drawScript(rng.uniformInt(-2, 40));
      scheduleOn(id, true);  // negative delays clamp to now
      scheduleOn(id, false);
    } else if (pick < 0.7) {
      // Cancel anything: pending, already run, already cancelled.
      if (realHandles.empty()) continue;
      const std::size_t k = rng.index(realHandles.size());
      real.cancel(realHandles[k]);
      model.cancel(modelHandles[k]);
    } else if (pick < 0.75) {
      real.cancel(EventHandle{});
    } else if (pick < 0.9) {
      const bool realStepped = real.step();
      const bool modelStepped = model.step();
      EXPECT_EQ(realStepped, modelStepped);
    } else {
      const TimePoint until = real.now() + Duration::microseconds(
                                               rng.uniformInt(0, 20));
      const std::size_t realRan = real.run(until);
      const std::size_t modelRan = model.run(until);
      EXPECT_EQ(realRan, modelRan);
    }
    ASSERT_EQ(real.now(), model.now()) << "op " << op;
    ASSERT_EQ(real.pendingEvents(), model.pendingEvents()) << "op " << op;
    ASSERT_EQ(real.executedEvents(), model.executedEvents()) << "op " << op;
  }
  real.run();
  model.run(TimePoint::fromUs(std::numeric_limits<std::int64_t>::max()));
  EXPECT_EQ(real.executedEvents(), model.executedEvents());
  EXPECT_EQ(real.pendingEvents(), 0u);
  EXPECT_EQ(model.pendingEvents(), 0u);
  ASSERT_FALSE(realLog.empty());
  EXPECT_EQ(realLog, modelLog);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorCancelModel,
                         ::testing::Values(1, 7, 42, 20170605, 314159));

TEST(SimulatorTest, CancelOfRunEventLeavesNothingQueued) {
  Simulator simulator;
  int ran = 0;
  const EventHandle handle =
      simulator.schedule(Duration::microseconds(1), [&ran] { ++ran; });
  simulator.run();
  // The slot is reused by the next event; the stale handle must not cancel
  // it, and must not leave a tombstone that a later pop would consume.
  simulator.schedule(Duration::microseconds(1), [&ran] { ++ran; });
  simulator.cancel(handle);
  EXPECT_EQ(simulator.pendingEvents(), 1u);
  simulator.run();
  EXPECT_EQ(ran, 2);
}

// --------------------------------------------------------------------- rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.nextU64(), b.nextU64());
  }
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformRealStaysInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniformReal(1.0, 2.0);
    EXPECT_GE(v, 1.0);
    EXPECT_LT(v, 2.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng{7};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyFair) {
  Rng rng{7};
  int heads = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (rng.bernoulli(0.5)) ++heads;
  }
  EXPECT_GT(heads, 4'500);
  EXPECT_LT(heads, 5'500);
}

TEST(RngTest, IndexCoversRange) {
  Rng rng{7};
  std::vector<bool> hit(10, false);
  for (int i = 0; i < 1000; ++i) hit[rng.index(10)] = true;
  EXPECT_TRUE(std::all_of(hit.begin(), hit.end(), [](bool b) { return b; }));
}

TEST(SeedSequenceTest, NamedStreamsAreIndependent) {
  const SeedSequence seeds{99};
  EXPECT_NE(seeds.deriveSeed("medium"), seeds.deriveSeed("crypto"));
  EXPECT_NE(seeds.deriveSeed("a"), seeds.deriveSeed("b"));
}

TEST(SeedSequenceTest, SameNameSameSeed) {
  const SeedSequence seeds{99};
  EXPECT_EQ(seeds.deriveSeed("medium"), seeds.deriveSeed("medium"));
}

TEST(SeedSequenceTest, DifferentMastersDiverge) {
  EXPECT_NE(SeedSequence{1}.deriveSeed("x"), SeedSequence{2}.deriveSeed("x"));
}

TEST(SeedSequenceTest, StreamsReproduce) {
  const SeedSequence seeds{5};
  Rng a = seeds.stream("s");
  Rng b = seeds.stream("s");
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(DeriveTrialSeedTest, AdjacentTrialsGetDistinctUncorrelatedSeeds) {
  // Adjacent indices must not produce near-identical seeds (the campaign
  // engine derives every trial's master seed from its index).
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 256; ++i) {
    seeds.push_back(deriveTrialSeed(42, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  // Avalanche: consecutive indices flip roughly half the output bits.
  for (std::uint64_t i = 0; i < 64; ++i) {
    const int flipped = std::popcount(deriveTrialSeed(42, i) ^
                                      deriveTrialSeed(42, i + 1));
    EXPECT_GT(flipped, 16);
    EXPECT_LT(flipped, 48);
  }
}

TEST(DeriveTrialSeedTest, IndependentOfEvaluationOrder) {
  // A pure function of (campaignSeed, index): querying indices in any order
  // or in isolation yields the same values.
  const std::uint64_t late = deriveTrialSeed(7, 1000);
  const std::uint64_t early = deriveTrialSeed(7, 3);
  EXPECT_EQ(deriveTrialSeed(7, 1000), late);
  EXPECT_EQ(deriveTrialSeed(7, 3), early);
}

TEST(DeriveTrialSeedTest, PinnedValuesAreStableAcrossRuns) {
  // SplitMix64 golden values: resumed campaigns and cross-machine reruns
  // depend on these never changing.
  EXPECT_EQ(deriveTrialSeed(0, 0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(deriveTrialSeed(0, 1), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(deriveTrialSeed(20170605, 0), 0x8fca87c02bfbe5cdull);
  EXPECT_NE(deriveTrialSeed(1, 0), deriveTrialSeed(2, 0));
}

}  // namespace
}  // namespace blackdp::sim
