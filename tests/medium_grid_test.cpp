// Pins the spatial-grid medium's determinism contract: the grid is a pure
// lookup accelerator. Whichever path finds the candidates (cell neighborhood
// or full linear scan), the in-range receivers are visited in strictly
// ascending node-id order and the RNG stream is consumed for exactly the
// same receiver sequence — so grid and linear runs replay byte-identically,
// including a full seeded scenario's trace.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
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

  // Bounded drift: after one second everyone may have moved up to
  // maxNodeSpeedMps (50 m); nudge everyone 40 m without refiling.
  const auto advance = [&](sim::Duration by) {
    simulator.schedule(by, [] {});
    simulator.run();
  };
  advance(sim::Duration::seconds(1));
  for (auto& radio : radios) radio.where.x += 40.0;
  broadcastFrom(1);
  broadcastFrom(fleet / 2 + 1);

  // Teleport: discontinuous jump across many cells must be safe after
  // refile() (the BasicNode::setMotion hook in the full stack).
  radios[0].where = mobility::Position{3'900.0, 3'900.0};
  medium.refile(common::NodeId{1});
  broadcastFrom(1);
  broadcastFrom(fleet);

  // Age the grid past its drift bound: the next send refiles everyone.
  advance(sim::Duration::seconds(10));
  broadcastFrom(fleet / 3);

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
    EXPECT_LT(grid.stats.candidatesScanned, linear.stats.candidatesScanned);
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
  // The grid path really ran: it examined fewer candidates than the scan.
  EXPECT_LT(gridStats.candidatesScanned, linearStats.candidatesScanned);
}

TEST(MediumGridTest, FastFleetReplaysByteIdenticallyGridVsLinear) {
  // Vehicles faster than the medium's default maxNodeSpeedMps (50 m/s): the
  // scenario must raise the drift bound to its own top speed, or the grid's
  // window misses receivers the linear scan reaches.
  const auto run = [](bool spatialGrid) {
    obs::MemoryRecorder recorder;
    obs::ScopedTraceRecorder scoped{&recorder};
    scenario::ScenarioConfig config;
    config.seed = 7;
    config.minSpeedKmh = 350.0;
    config.maxSpeedKmh = 400.0;
    config.medium.spatialGrid = spatialGrid;
    scenario::HighwayScenario world(config);
    world.runFor(sim::Duration::seconds(12));
    (void)world.runVerification();
    return recorder.events();
  };
  const auto grid = run(true);
  ASSERT_FALSE(grid.empty());
  EXPECT_TRUE(grid == run(false));  // (a mismatch would print every event)
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

// ---------------------------------------------------------------------------
// Incremental filing. attach, detach and refile move one grid entry each and
// never force a whole-grid rebuild; the window must still cover every node
// in range.

/// Radio on a straight line at constant velocity, read off the simulator's
/// clock like BasicNode's LinearMotion.
class MovingRadio final : public Radio {
 public:
  MovingRadio(std::uint32_t id, const sim::Simulator& simulator,
              std::vector<std::uint32_t>& log)
      : id_{id}, simulator_{&simulator}, log_{&log} {}

  [[nodiscard]] mobility::Position radioPosition() const override {
    const double t = (simulator_->now() - since).toSeconds();
    return {origin.x + vx * t, origin.y + vy * t};
  }
  void onFrame(const Frame&) override { log_->push_back(id_); }

  /// Starts a new straight line here and now (a setMotion).
  void moveTo(mobility::Position at, double newVx, double newVy) {
    origin = at;
    vx = newVx;
    vy = newVy;
    since = simulator_->now();
  }

  mobility::Position origin{};
  double vx{0.0};
  double vy{0.0};
  sim::TimePoint since{};

 private:
  std::uint32_t id_;
  const sim::Simulator* simulator_;
  std::vector<std::uint32_t>* log_;
};

/// Interleaves attach, detach, refile (teleports and velocity changes) and
/// in-speed-bound drift with broadcasts and unicasts, all while the grid
/// stays valid. Returns the delivery log and stats.
WorkloadResult runChurn(bool spatialGrid, std::uint64_t seed) {
  MediumConfig config;
  config.transmissionRangeM = 400.0;
  config.spatialGrid = spatialGrid;
  config.lossProbability = 0.2;
  sim::Simulator simulator;
  WirelessMedium medium{simulator, sim::Rng{seed}, config};

  WorkloadResult result;
  constexpr std::uint32_t kPool = 120;
  std::vector<std::unique_ptr<MovingRadio>> radios;
  std::vector<bool> attached(kPool, false);
  sim::Rng script{seed * 31 + 1};
  const auto randomSpot = [&] {
    return mobility::Position{script.uniformReal(-2'000.0, 2'000.0),
                              script.uniformReal(-600.0, 600.0)};
  };
  const auto randomVelocity = [&](double& vx, double& vy) {
    vx = script.uniformReal(-config.maxNodeSpeedMps, config.maxNodeSpeedMps) *
         0.7;
    vy = script.uniformReal(-config.maxNodeSpeedMps, config.maxNodeSpeedMps) *
         0.7;
  };
  for (std::uint32_t i = 0; i < kPool; ++i) {
    radios.push_back(std::make_unique<MovingRadio>(
        // Node ids deliberately not in pool order.
        (i * 37) % kPool + 1, simulator, result.deliveries));
  }
  const auto nodeOf = [&](std::uint32_t i) {
    return common::NodeId{(i * 37) % kPool + 1};
  };
  const auto attach = [&](std::uint32_t i) {
    double vx = 0.0;
    double vy = 0.0;
    randomVelocity(vx, vy);
    radios[i]->moveTo(randomSpot(), vx, vy);
    medium.attach(nodeOf(i), *radios[i]);
    medium.bindAddress(common::Address{1000 + i}, nodeOf(i));
    attached[i] = true;
  };
  for (std::uint32_t i = 0; i < kPool; i += 2) attach(i);

  for (int op = 0; op < 2'000; ++op) {
    const std::uint32_t i =
        static_cast<std::uint32_t>(script.index(kPool));
    const double pick = script.uniformReal(0.0, 1.0);
    if (pick < 0.1) {
      if (attached[i]) {
        medium.detach(nodeOf(i));
        attached[i] = false;
      } else {
        attach(i);
      }
    } else if (pick < 0.2 && attached[i]) {
      // setMotion: a teleport or a new heading, then refile.
      double vx = 0.0;
      double vy = 0.0;
      randomVelocity(vx, vy);
      radios[i]->moveTo(script.bernoulli(0.5) ? randomSpot()
                                              : radios[i]->radioPosition(),
                        vx, vy);
      medium.refile(nodeOf(i));
    } else if (pick < 0.3) {
      // Let time pass: nodes drift at up to 0.7 × maxNodeSpeedMps.
      simulator.schedule(sim::Duration::milliseconds(script.uniformInt(1, 900)),
                         [] {});
      simulator.run();
    } else if (attached[i]) {
      const std::uint32_t to =
          static_cast<std::uint32_t>(script.index(kPool));
      const common::Address dst = script.bernoulli(0.3)
                                      ? common::Address{1000 + to}
                                      : common::kBroadcastAddress;
      medium.send(nodeOf(i), Frame{common::Address{1000 + i}, dst,
                                   net::makePayload<Ping>()});
      simulator.run();
    }
  }
  result.stats = medium.stats();
  return result;
}

TEST(MediumGridTest, GridMatchesLinearScanUnderChurn) {
  for (const std::uint64_t seed : {3u, 17u, 2024u}) {
    const WorkloadResult grid = runChurn(true, seed);
    const WorkloadResult linear = runChurn(false, seed);
    ASSERT_GT(grid.deliveries.size(), 1'000u);
    EXPECT_EQ(grid.deliveries, linear.deliveries) << "seed " << seed;
    EXPECT_EQ(grid.stats.framesSent, linear.stats.framesSent);
    EXPECT_EQ(grid.stats.framesDelivered, linear.stats.framesDelivered);
    EXPECT_EQ(grid.stats.framesLost, linear.stats.framesLost);
    EXPECT_EQ(grid.stats.sendFailures, linear.stats.sendFailures);
    EXPECT_LT(grid.stats.candidatesScanned, linear.stats.candidatesScanned);
  }
}

TEST(MediumGridTest, WindowCoversEveryNodeInRange) {
  // Nodes at every speed up to maxNodeSpeedMps, some parked exactly on cell
  // boundaries or exactly one range from the sender. Sends land at grid ages
  // spread over the whole refile interval; each must reach exactly the
  // nodes a brute-force range check finds.
  MediumConfig config;
  config.transmissionRangeM = 250.0;
  config.maxJitter = sim::Duration{};
  const double range = config.transmissionRangeM;
  const double vmax = config.maxNodeSpeedMps;
  sim::Simulator simulator;
  WirelessMedium medium{simulator, sim::Rng{9}, config};

  std::vector<std::uint32_t> log;
  std::vector<std::unique_ptr<MovingRadio>> radios;
  sim::Rng placement{4242};
  const auto add = [&](mobility::Position at, double vx, double vy) {
    const auto id = static_cast<std::uint32_t>(radios.size() + 1);
    radios.push_back(std::make_unique<MovingRadio>(id, simulator, log));
    radios.back()->moveTo(at, vx, vy);
    medium.attach(common::NodeId{id}, *radios.back());
  };
  // Sender, parked on a cell corner.
  add({2 * range, -range}, 0.0, 0.0);
  // Parked on cell boundaries, and exactly one range away on each axis.
  for (int k = -3; k <= 3; ++k) {
    add({k * range, -range}, 0.0, 0.0);
    add({2 * range, k * range}, 0.0, 0.0);
  }
  add({3 * range, -range}, 0.0, 0.0);
  add({2 * range, 0.0}, 0.0, 0.0);
  // Movers at full speed along each axis, and in random directions.
  for (int k = 0; k < 40; ++k) {
    const mobility::Position at{placement.uniformReal(-4 * range, 6 * range),
                                placement.uniformReal(-4 * range, 3 * range)};
    switch (k % 4) {
      case 0: add(at, vmax, 0.0); break;
      case 1: add(at, 0.0, -vmax); break;
      default: {
        const double heading = placement.uniformReal(0.0, 6.283185307179586);
        const double speed = placement.uniformReal(0.0, vmax);
        add(at, speed * std::cos(heading) * (1.0 - 1e-12),
            speed * std::sin(heading) * (1.0 - 1e-12));
      }
    }
  }
  for (int k = 0; k < 200; ++k) {
    add({placement.uniformReal(-4 * range, 6 * range),
         placement.uniformReal(-4 * range, 3 * range)},
        0.0, 0.0);
  }

  // One refile interval is kRefileDriftFraction × range / vmax seconds;
  // sample three intervals' worth of grid ages.
  const double intervalS = WirelessMedium::kRefileDriftFraction * range / vmax;
  std::size_t sends = 0;
  for (int step = 0; step < 150; ++step) {
    simulator.schedule(sim::Duration::fromSeconds(intervalS / 50.0), [] {});
    simulator.run();
    for (const std::uint32_t sender :
         {1u, static_cast<std::uint32_t>(placement.index(radios.size()) + 1)}) {
      const mobility::Position origin = radios[sender - 1]->radioPosition();
      std::vector<std::uint32_t> expected;
      for (std::uint32_t id = 1; id <= radios.size(); ++id) {
        if (id == sender) continue;
        const mobility::Position p = radios[id - 1]->radioPosition();
        const double dx = p.x - origin.x;
        const double dy = p.y - origin.y;
        if (dx * dx + dy * dy <= range * range) expected.push_back(id);
      }
      log.clear();
      medium.send(common::NodeId{sender},
                  Frame{common::Address{sender}, common::kBroadcastAddress,
                        net::makePayload<Ping>()});
      simulator.run();
      ASSERT_EQ(log, expected) << "step " << step << " sender " << sender;
      ++sends;
    }
  }
  EXPECT_EQ(sends, 300u);
  EXPECT_GE(medium.stats().gridRebuilds, 2u);
}

TEST(MediumGridTest, RebindThenDetachKeepsTheNewOwner) {
  // An address re-bound to a second node without an unbind in between
  // belongs to the second node: detaching the first must not unbind it.
  MediumConfig config;
  config.maxJitter = sim::Duration{};
  sim::Simulator simulator;
  WirelessMedium medium{simulator, sim::Rng{3}, config};
  std::vector<std::uint32_t> log;
  LoggingRadio sender{1, log};
  LoggingRadio first{2, log};
  LoggingRadio second{3, log};
  sender.where = {0.0, 0.0};
  first.where = {10.0, 0.0};
  second.where = {20.0, 0.0};
  medium.attach(common::NodeId{1}, sender);
  medium.attach(common::NodeId{2}, first);
  medium.attach(common::NodeId{3}, second);
  medium.bindAddress(common::Address{77}, common::NodeId{2});
  medium.bindAddress(common::Address{78}, common::NodeId{2});
  medium.bindAddress(common::Address{77}, common::NodeId{3});
  medium.detach(common::NodeId{2});
  const auto unicast = [&](std::uint64_t dst) {
    medium.send(common::NodeId{1}, Frame{common::Address{1},
                                         common::Address{dst},
                                         net::makePayload<Ping>()});
    simulator.run();
  };
  unicast(77);
  EXPECT_EQ(sender.sendFailures, 0u);  // node 3 still owns 77
  unicast(78);
  EXPECT_EQ(sender.sendFailures, 1u);  // 78 went with node 2
  // Detach and re-attach of the new owner: its bindings are gone.
  medium.detach(common::NodeId{3});
  medium.attach(common::NodeId{3}, second);
  unicast(77);
  EXPECT_EQ(sender.sendFailures, 2u);
}

TEST(MediumGridTest, HighwayConstructionDoesNotRebuildPerAttach) {
  // World construction attaches ~100 nodes, each followed by a join
  // broadcast. Attaching files one entry, so the build must not turn into a
  // whole-grid refile per attach.
  scenario::ScenarioConfig config;
  config.seed = 20170605;
  config.attack = scenario::AttackType::kCooperative;
  scenario::HighwayScenario world(config);
  EXPECT_GT(world.medium().stats().framesSent, 50u);
  EXPECT_LE(world.medium().stats().gridRebuilds, 2u);
}

}  // namespace
}  // namespace blackdp
