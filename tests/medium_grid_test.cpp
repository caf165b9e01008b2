// Pins the spatial-grid medium's determinism contract: the grid is a pure
// lookup accelerator. Whichever path finds the candidates (cell neighborhood
// or full linear scan), the in-range receivers are visited in strictly
// ascending node-id order and the RNG stream is consumed for exactly the
// same receiver sequence — so grid and linear runs replay byte-identically,
// including a full seeded scenario's trace.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "net/medium.hpp"
#include "obs/trace.hpp"
#include "scenario/highway_scenario.hpp"
#include "sim/rng.hpp"

namespace blackdp {
namespace {

using net::Frame;
using net::MediumConfig;
using net::Radio;
using net::WirelessMedium;

class Ping final : public net::Payload {
 public:
  [[nodiscard]] std::string_view typeName() const override { return "ping"; }
};

/// Radio that appends its node id to a shared delivery log on every frame,
/// capturing the exact receiver visit order.
class LoggingRadio final : public Radio {
 public:
  LoggingRadio(std::uint32_t id, std::vector<std::uint32_t>& log)
      : id_{id}, log_{&log} {}

  [[nodiscard]] mobility::Position radioPosition() const override {
    return where;
  }
  void onFrame(const Frame&) override { log_->push_back(id_); }
  void onSendFailed(const Frame&) override { ++sendFailures; }

  mobility::Position where{};
  std::uint32_t sendFailures{0};

 private:
  std::uint32_t id_;
  std::vector<std::uint32_t>* log_;
};

/// One randomized broadcast workload: `fleet` radios scattered over a square,
/// several senders broadcasting, some mid-run drift and one teleport. Returns
/// the delivery log and final stats.
struct WorkloadResult {
  std::vector<std::uint32_t> deliveries;
  net::MediumStats stats;
};

WorkloadResult runWorkload(bool spatialGrid, std::uint32_t fleet,
                           double lossProbability) {
  MediumConfig config;
  config.transmissionRangeM = 500.0;
  config.spatialGrid = spatialGrid;
  config.lossProbability = lossProbability;

  sim::Simulator simulator;
  WirelessMedium medium{simulator, sim::Rng{99}, config};

  WorkloadResult result;
  std::vector<LoggingRadio> radios;
  radios.reserve(fleet);
  sim::Rng placement{2024};  // same scatter for both paths
  for (std::uint32_t i = 0; i < fleet; ++i) {
    radios.emplace_back(i + 1, result.deliveries);
    radios.back().where =
        mobility::Position{placement.uniformReal(0.0, 4'000.0),
                           placement.uniformReal(0.0, 4'000.0)};
    medium.attach(common::NodeId{i + 1}, radios.back());
  }

  const auto broadcastFrom = [&](std::uint32_t origin) {
    medium.send(common::NodeId{origin},
                Frame{common::Address{origin}, common::kBroadcastAddress,
                      net::makePayload<Ping>()});
    simulator.run();
  };

  for (std::uint32_t origin = 1; origin <= fleet; origin += 7) {
    broadcastFrom(origin);
  }

  // Bounded drift (under maxNodeSpeedMps × elapsed is moot here because the
  // positions are re-read per send; nudge everyone within one cell).
  for (auto& radio : radios) radio.where.x += 40.0;
  broadcastFrom(1);
  broadcastFrom(fleet / 2 + 1);

  // Teleport: discontinuous jump across many cells must be safe after
  // invalidateGrid() (the BasicNode::setMotion hook in the full stack).
  radios[0].where = mobility::Position{3'900.0, 3'900.0};
  medium.invalidateGrid();
  broadcastFrom(1);
  broadcastFrom(fleet);

  result.stats = medium.stats();
  return result;
}

TEST(MediumGridTest, GridAndLinearScanDeliverIdentically) {
  for (const double loss : {0.0, 0.3}) {
    const WorkloadResult grid = runWorkload(true, 200, loss);
    const WorkloadResult linear = runWorkload(false, 200, loss);

    // Same receivers, same visit order, same RNG stream (loss draws line up).
    EXPECT_EQ(grid.deliveries, linear.deliveries) << "loss=" << loss;
    EXPECT_EQ(grid.stats.framesSent, linear.stats.framesSent);
    EXPECT_EQ(grid.stats.framesDelivered, linear.stats.framesDelivered);
    EXPECT_EQ(grid.stats.framesLost, linear.stats.framesLost);
    EXPECT_EQ(grid.stats.bytesSent, linear.stats.bytesSent);
    EXPECT_GT(grid.deliveries.size(), 0u);
    EXPECT_GT(grid.stats.gridRebuilds, 0u);
    EXPECT_EQ(linear.stats.gridRebuilds, 0u);
  }
}

TEST(MediumGridTest, DeliveryOrderIsAscendingNodeId) {
  // Within one broadcast every delivery carries the same timestamp, so the
  // per-send segments of the log must each be ascending.
  MediumConfig config;
  config.transmissionRangeM = 500.0;
  config.maxJitter = sim::Duration{};  // keep delivery order = visit order
  sim::Simulator simulator;
  WirelessMedium medium{simulator, sim::Rng{5}, config};

  std::vector<std::uint32_t> log;
  std::vector<LoggingRadio> radios;
  radios.reserve(64);
  sim::Rng placement{77};
  for (std::uint32_t i = 0; i < 64; ++i) {
    radios.emplace_back(i + 1, log);
    radios.back().where = mobility::Position{
        placement.uniformReal(0.0, 900.0), placement.uniformReal(0.0, 900.0)};
    medium.attach(common::NodeId{i + 1}, radios.back());
  }
  for (const std::uint32_t origin : {1u, 17u, 40u, 64u}) {
    const std::size_t begin = log.size();
    medium.send(common::NodeId{origin},
                Frame{common::Address{origin}, common::kBroadcastAddress,
                      net::makePayload<Ping>()});
    simulator.run();
    ASSERT_GT(log.size(), begin);
    for (std::size_t i = begin + 1; i < log.size(); ++i) {
      EXPECT_LT(log[i - 1], log[i]) << "broadcast from " << origin;
    }
  }
}

TEST(MediumGridTest, SeedScenarioReplaysByteIdenticallyGridVsLinear) {
  // The full protocol stack on the paper's highway world: the recorded trace
  // (every tx/rx/drop/verdict event, timestamps included) must be identical
  // with the grid on and off.
  const auto run = [](bool spatialGrid) {
    obs::MemoryRecorder recorder;
    obs::ScopedTraceRecorder scoped{&recorder};
    scenario::ScenarioConfig config;
    config.seed = 20260805;
    config.attack = scenario::AttackType::kCooperative;
    config.attackerCluster = common::ClusterId{2};
    config.medium.spatialGrid = spatialGrid;
    scenario::HighwayScenario world(config);
    (void)world.runVerification();
    (void)world.sendDataBurst(50);
    return std::pair{recorder.events(), world.medium().stats()};
  };

  const auto [gridTrace, gridStats] = run(true);
  const auto [linearTrace, linearStats] = run(false);

  ASSERT_FALSE(gridTrace.empty());
  EXPECT_EQ(gridTrace, linearTrace);
  EXPECT_EQ(gridStats.framesSent, linearStats.framesSent);
  EXPECT_EQ(gridStats.framesDelivered, linearStats.framesDelivered);
  EXPECT_EQ(gridStats.framesLost, linearStats.framesLost);
  EXPECT_EQ(gridStats.bytesSent, linearStats.bytesSent);
  EXPECT_GT(gridStats.gridRebuilds, 0u);
}

TEST(MediumGridTest, DetachUnbindsAddressesAndReusedAddressRoutesToNewOwner) {
  MediumConfig config;
  config.maxJitter = sim::Duration{};
  sim::Simulator simulator;
  WirelessMedium medium{simulator, sim::Rng{3}, config};

  std::vector<std::uint32_t> log;
  LoggingRadio sender{1, log};
  LoggingRadio old{2, log};
  LoggingRadio fresh{3, log};
  sender.where = {0.0, 0.0};
  old.where = {100.0, 0.0};
  fresh.where = {200.0, 0.0};
  medium.attach(common::NodeId{1}, sender);
  medium.attach(common::NodeId{2}, old);
  medium.bindAddress(common::Address{55}, common::NodeId{2});

  // Owner present: the unicast ACKs (no send failure).
  medium.send(common::NodeId{1}, Frame{common::Address{1}, common::Address{55},
                                       net::makePayload<Ping>()});
  simulator.run();
  EXPECT_EQ(sender.sendFailures, 0u);

  // Detach must drop the stale address binding: with no owner, the MAC ACK
  // model reports the transmission failed.
  medium.detach(common::NodeId{2});
  medium.send(common::NodeId{1}, Frame{common::Address{1}, common::Address{55},
                                       net::makePayload<Ping>()});
  simulator.run();
  EXPECT_EQ(sender.sendFailures, 1u);

  // A re-used address routes to its new owner, never to the ghost.
  medium.attach(common::NodeId{3}, fresh);
  medium.bindAddress(common::Address{55}, common::NodeId{3});
  medium.send(common::NodeId{1}, Frame{common::Address{1}, common::Address{55},
                                       net::makePayload<Ping>()});
  simulator.run();
  EXPECT_EQ(sender.sendFailures, 1u);  // unchanged: the send succeeded
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.back(), 3u);
}

// ---------------------------------------------------------------------------
// Zero-jitter batch delivery. One transmission is one simulator event that
// visits the surviving receivers in ascending id order; these pin that it is
// indistinguishable from the per-receiver events it replaces.

class Tagged final : public net::Payload {
 public:
  explicit Tagged(std::uint32_t value) : tag{value} {}
  [[nodiscard]] std::string_view typeName() const override { return "tag"; }
  std::uint32_t tag;
};

/// Logs "id" on every frame (and "fail" on a send failure) into a shared
/// string log, then runs an optional per-test hook.
class ScriptedRadio final : public Radio {
 public:
  ScriptedRadio(std::uint32_t id, std::vector<std::string>& log)
      : id_{id}, log_{&log} {}

  [[nodiscard]] mobility::Position radioPosition() const override {
    return where;
  }
  void onFrame(const Frame& frame) override {
    const auto* tagged = net::payloadAs<Tagged>(frame.payload);
    log_->push_back(std::to_string(id_) + ":" +
                    std::to_string(tagged != nullptr ? tagged->tag : 0));
    if (onFrameHook) onFrameHook(frame);
  }
  void onSendFailed(const Frame&) override { log_->push_back("fail"); }

  mobility::Position where{};
  std::function<void(const Frame&)> onFrameHook;

 private:
  std::uint32_t id_;
  std::vector<std::string>* log_;
};

/// Drops every delivery to one receiver as a jam loss.
class DropOneReceiver final : public net::MediumFaultHook {
 public:
  explicit DropOneReceiver(common::NodeId target) : target_{target} {}
  obs::DropCause dropDelivery(common::NodeId, common::NodeId receiver,
                              const mobility::Position&,
                              const mobility::Position&) override {
    return receiver == target_ ? obs::DropCause::kJam : obs::DropCause::kNone;
  }

 private:
  common::NodeId target_;
};

/// `count` radios, ids 1..count, 10 m apart on a line: all mutually in range
/// of a zero-jitter medium.
class MediumBatchTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kRadios = 12;

  MediumBatchTest() : medium_{simulator_, sim::Rng{11}, zeroJitter()} {
    radios_.reserve(kRadios);
    for (std::uint32_t i = 0; i < kRadios; ++i) {
      radios_.emplace_back(i + 1, log_);
      radios_.back().where = {10.0 * i, 0.0};
      medium_.attach(common::NodeId{i + 1}, radios_.back());
    }
  }

  static MediumConfig zeroJitter() {
    MediumConfig config;
    config.maxJitter = sim::Duration{};
    return config;
  }

  void broadcast(std::uint32_t from, std::uint32_t tag) {
    medium_.send(common::NodeId{from},
                 Frame{common::Address{from}, common::kBroadcastAddress,
                       net::makePayload<Tagged>(tag)});
  }

  /// "id:tag" for ids first..last, skipping `except`.
  static std::vector<std::string> expected(std::uint32_t first,
                                           std::uint32_t last,
                                           std::uint32_t tag,
                                           std::uint32_t except = 0) {
    std::vector<std::string> out;
    for (std::uint32_t id = first; id <= last; ++id) {
      if (id != except) {
        out.push_back(std::to_string(id) + ":" + std::to_string(tag));
      }
    }
    return out;
  }

  ScriptedRadio& radio(std::uint32_t id) { return radios_[id - 1]; }

  sim::Simulator simulator_;
  WirelessMedium medium_;
  std::vector<std::string> log_;
  std::vector<ScriptedRadio> radios_;
};

TEST_F(MediumBatchTest, BroadcastIsOneEventDeliveredInAscendingId) {
  const std::size_t before = simulator_.executedEvents();
  broadcast(1, 7);
  EXPECT_EQ(simulator_.pendingEvents(), 1u);
  simulator_.run();
  EXPECT_EQ(simulator_.executedEvents() - before, 1u);
  EXPECT_EQ(log_, expected(2, kRadios, 7));
  EXPECT_EQ(medium_.stats().framesDelivered, kRadios - 1);
}

TEST_F(MediumBatchTest, ReceiverDetachedByEarlierReceiverIsSkipped) {
  radio(3).onFrameHook = [this](const Frame&) {
    medium_.detach(common::NodeId{8});
  };
  broadcast(1, 1);
  simulator_.run();
  EXPECT_EQ(log_, expected(2, kRadios, 1, /*except=*/8));
  EXPECT_EQ(medium_.stats().framesDelivered, kRadios - 2);
}

TEST_F(MediumBatchTest, ZeroDelayEventFromHandlerRunsAfterWholeBatch) {
  radio(2).onFrameHook = [this](const Frame&) {
    simulator_.schedule(sim::Duration{}, [this] { log_.push_back("timer"); });
  };
  broadcast(1, 3);
  simulator_.run();
  std::vector<std::string> want = expected(2, kRadios, 3);
  want.push_back("timer");
  EXPECT_EQ(log_, want);
}

TEST_F(MediumBatchTest, FaultDroppedAddresseeFailsBetweenNeighbours) {
  // Node 6 owns the unicast address; the fault layer eats its delivery, so
  // the sender's onSendFailed must run after 2..5 and before 7..12 — where
  // the per-receiver events would have put it.
  DropOneReceiver hook{common::NodeId{6}};
  medium_.setFaultHook(&hook);
  medium_.bindAddress(common::Address{66}, common::NodeId{6});
  const std::size_t before = simulator_.executedEvents();
  medium_.send(common::NodeId{1}, Frame{common::Address{1},
                                        common::Address{66},
                                        net::makePayload<Tagged>(4)});
  simulator_.run();
  std::vector<std::string> want = expected(2, 5, 4);
  want.push_back("fail");
  const std::vector<std::string> after = expected(7, kRadios, 4);
  want.insert(want.end(), after.begin(), after.end());
  EXPECT_EQ(log_, want);
  // Batch before, the failure, batch after.
  EXPECT_EQ(simulator_.executedEvents() - before, 3u);
  EXPECT_EQ(medium_.stats().sendFailures, 1u);
  EXPECT_EQ(medium_.stats().framesFaultDropped, 1u);
  medium_.setFaultHook(nullptr);
}

TEST_F(MediumBatchTest, NestedSendsGrowingThePoolMidBatchDeliverCorrectly) {
  // Receiver 2 answers the first frame with a burst of broadcasts of its
  // own. Each opens a batch slot while the outer batch is still being
  // walked, forcing the pool to grow; the outer batch must still reach all
  // of its receivers with its own frame, and each nested frame its own.
  constexpr std::uint32_t kNested = 40;
  radio(2).onFrameHook = [this](const Frame& frame) {
    if (net::payloadAs<Tagged>(frame.payload)->tag != 100) return;
    for (std::uint32_t k = 0; k < kNested; ++k) broadcast(2, 200 + k);
  };
  broadcast(1, 100);
  simulator_.run();

  std::vector<std::string> want = expected(2, kRadios, 100);
  for (std::uint32_t k = 0; k < kNested; ++k) {
    std::vector<std::string> nested = expected(1, kRadios, 200 + k, 2);
    want.insert(want.end(), nested.begin(), nested.end());
  }
  EXPECT_EQ(log_, want);
  EXPECT_EQ(simulator_.executedEvents(), 1u + kNested);
  EXPECT_EQ(medium_.stats().framesDelivered,
            (kRadios - 1) * (1u + kNested));
}

TEST(MediumGridTest, InRangeAgreesWithDeliveryPredicate) {
  MediumConfig config;
  config.transmissionRangeM = 300.0;
  sim::Simulator simulator;
  WirelessMedium medium{simulator, sim::Rng{4}, config};
  std::vector<std::uint32_t> log;
  LoggingRadio a{1, log};
  LoggingRadio b{2, log};
  a.where = {0.0, 0.0};
  b.where = {300.0, 0.0};  // exactly at range: inclusive
  medium.attach(common::NodeId{1}, a);
  medium.attach(common::NodeId{2}, b);
  EXPECT_TRUE(medium.inRange(common::NodeId{1}, common::NodeId{2}));
  b.where = {300.1, 0.0};
  EXPECT_FALSE(medium.inRange(common::NodeId{1}, common::NodeId{2}));
}

}  // namespace
}  // namespace blackdp
