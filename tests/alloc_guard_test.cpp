// Zero-allocation steady-state guard.
//
// Links common/alloc_hook (counting operator new/delete) and asserts that a
// steady-state Medium::send → deliver → AODV-forward cycle performs zero
// heap allocations once the pools are warm: payloads come from the arena,
// simulator slots and heap entries recycle, the medium's zero-jitter
// delivery batches recycle, and the dense-id tables stop rehashing. Both
// delivery paths are covered: one batch event per transmission (zero
// jitter) and one event per receiver (jittered). A negative control verifies the hook actually counts, so a
// silently-unlinked hook cannot fake a pass.
//
// Under ASan/UBSan the sanitizer runtime owns the allocator and adds its
// own bookkeeping allocations, so the zero-delta assertion is skipped there
// (the cycle still runs; the negative control still must count).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "aodv/agent.hpp"
#include "common/alloc_hook.hpp"
#include "net/medium.hpp"
#include "net/node.hpp"

namespace blackdp {
namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Five stationary nodes on a line, 800 m apart (range 1000 m): every data
/// packet from node 0 to node 4 crosses four AODV forwarding hops.
class SteadyLine {
 public:
  static constexpr std::size_t kNodes = 5;

  /// Zero jitter (the default) takes the medium's batch path.
  explicit SteadyLine(sim::Duration maxJitter = sim::Duration{})
      : medium_{simulator_, sim::Rng{7}, mediumConfig(maxJitter)} {
    for (std::size_t i = 0; i < kNodes; ++i) {
      auto node = std::make_unique<net::BasicNode>(
          simulator_, medium_,
          common::NodeId{static_cast<std::uint32_t>(i + 1)},
          mobility::LinearMotion::stationary(
              {800.0 * static_cast<double>(i), 0.0}));
      node->setLocalAddress(common::Address{100 + i});
      auto agent = std::make_unique<aodv::AodvAgent>(simulator_, *node);
      nodes_.push_back(std::move(node));
      agents_.push_back(std::move(agent));
    }
  }

  bool establishRoute() {
    bool ok = false;
    agents_.front()->findRoute(destination(), [&ok](bool good) { ok = good; });
    simulator_.run(simulator_.now() + sim::Duration::seconds(10));
    return ok;
  }

  /// One steady-state cycle: source sends a data packet, the queue drains
  /// (four forward hops plus MAC ACK echoes).
  void cycle() {
    agents_.front()->sendData(destination());
    simulator_.run();
  }

  [[nodiscard]] common::Address destination() const {
    return common::Address{100 + kNodes - 1};
  }
  [[nodiscard]] aodv::AodvAgent& destinationAgent() {
    return *agents_.back();
  }

 private:
  static net::MediumConfig mediumConfig(sim::Duration maxJitter) {
    net::MediumConfig c;
    c.maxJitter = maxJitter;
    return c;
  }

  sim::Simulator simulator_;
  net::WirelessMedium medium_;
  std::vector<std::unique_ptr<net::BasicNode>> nodes_;
  std::vector<std::unique_ptr<aodv::AodvAgent>> agents_;
};

/// Negative control: the hook must be linked and must observe an ordinary
/// heap allocation, otherwise the zero-delta test below proves nothing.
TEST(AllocGuardTest, HookCountsOrdinaryAllocations) {
  ASSERT_TRUE(common::allocHookActive())
      << "blackdp_alloc_hook is not linked into this test binary";

  const common::AllocCounters before = common::threadAllocCounters();
  auto block = std::make_unique<std::vector<std::uint64_t>>();
  block->resize(4096);
  const common::AllocCounters after = common::threadAllocCounters();
  ASSERT_GT(after.allocations, before.allocations);
  block.reset();
  const common::AllocCounters freed = common::threadAllocCounters();
  ASSERT_GT(freed.deallocations, after.deallocations);
}

/// The forwarding cycle on `line`: warm up, then measure. Zero heap
/// allocations over the measured span, and every packet delivered.
void expectAllocationFreeForwarding(SteadyLine& line) {
  ASSERT_TRUE(common::allocHookActive());
  ASSERT_TRUE(line.establishRoute());

  // Warmup: payload arena free lists fill, simulator heap/slot vectors and
  // the dense-id tables reach their steady-state capacity.
  constexpr int kWarmupCycles = 256;
  constexpr int kMeasuredCycles = 512;
  for (int i = 0; i < kWarmupCycles; ++i) line.cycle();

  const std::uint64_t deliveredBefore =
      line.destinationAgent().stats().dataDelivered;
  const common::AllocCounters before = common::threadAllocCounters();
  for (int i = 0; i < kMeasuredCycles; ++i) line.cycle();
  const common::AllocCounters after = common::threadAllocCounters();

  // The workload must actually have run end to end.
  EXPECT_EQ(line.destinationAgent().stats().dataDelivered,
            deliveredBefore + kMeasuredCycles);

  if (kSanitized) {
    GTEST_SKIP() << "sanitizer runtime owns the allocator; zero-delta "
                    "assertion is only meaningful in the plain build";
  }
  EXPECT_EQ(after.allocations, before.allocations)
      << (after.allocations - before.allocations) << " heap allocations in "
      << kMeasuredCycles << " steady-state send->deliver->forward cycles";
  EXPECT_EQ(after.deallocations, before.deallocations);
}

TEST(AllocGuardTest, SteadyStateForwardingCycleIsAllocationFree) {
  SteadyLine line;  // zero jitter: one batch event per transmission
  expectAllocationFreeForwarding(line);
}

TEST(AllocGuardTest, SteadyStateForwardingCycleWithJitterIsAllocationFree) {
  SteadyLine line{sim::Duration::microseconds(100)};  // per-receiver events
  expectAllocationFreeForwarding(line);
}

class Ping final : public net::Payload {
 public:
  explicit Ping(bool relayed) : relay{relayed} {}
  [[nodiscard]] std::string_view typeName() const override { return "ping"; }
  bool relay;
};

/// Answers every relay-flagged frame with a broadcast of its own, from
/// inside the batch walk — so several batches are in flight at once and
/// new ones open while an older one is mid-delivery.
class RelayRadio final : public net::Radio {
 public:
  RelayRadio(net::WirelessMedium& medium, common::NodeId id, double x)
      : medium_{&medium}, id_{id}, x_{x} {}

  [[nodiscard]] mobility::Position radioPosition() const override {
    return {x_, 0.0};
  }
  void onFrame(const net::Frame& frame) override {
    if (!net::payloadAs<Ping>(frame.payload)->relay) return;
    if (id_.value() % 4 != 0) return;
    medium_->send(id_, net::Frame{common::Address{id_.value()},
                                  common::kBroadcastAddress,
                                  net::makePayload<Ping>(false)});
  }

 private:
  net::WirelessMedium* medium_;
  common::NodeId id_;
  double x_;
};

TEST(AllocGuardTest, ZeroJitterFanOutBatchesAreAllocationFree) {
  ASSERT_TRUE(common::allocHookActive());

  constexpr std::uint32_t kRadios = 32;  // all mutually in range
  net::MediumConfig config;
  config.maxJitter = sim::Duration{};
  sim::Simulator simulator;
  net::WirelessMedium medium{simulator, sim::Rng{3}, config};
  std::vector<std::unique_ptr<RelayRadio>> radios;
  for (std::uint32_t i = 1; i <= kRadios; ++i) {
    radios.push_back(std::make_unique<RelayRadio>(medium, common::NodeId{i},
                                                  20.0 * i));
    medium.attach(common::NodeId{i}, *radios.back());
  }
  // One cycle: a relay-flagged broadcast from a rotating sender; a quarter
  // of its receivers answer mid-batch.
  std::uint32_t sender = 0;
  const auto cycle = [&] {
    sender = sender % kRadios + 1;
    medium.send(common::NodeId{sender},
                net::Frame{common::Address{sender}, common::kBroadcastAddress,
                           net::makePayload<Ping>(true)});
    simulator.run();
  };

  for (int i = 0; i < 256; ++i) cycle();
  const std::uint64_t sentBefore = medium.stats().framesSent;
  const std::uint64_t deliveredBefore = medium.stats().framesDelivered;
  const std::size_t eventsBefore = simulator.executedEvents();
  const common::AllocCounters before = common::threadAllocCounters();
  for (int i = 0; i < 512; ++i) cycle();
  const common::AllocCounters after = common::threadAllocCounters();

  const std::uint64_t sent = medium.stats().framesSent - sentBefore;
  const std::uint64_t delivered =
      medium.stats().framesDelivered - deliveredBefore;
  // The batch path ran: one event per transmission, ~kRadios-1 frames each.
  EXPECT_EQ(simulator.executedEvents() - eventsBefore, sent);
  EXPECT_EQ(delivered, sent * (kRadios - 1));

  if (kSanitized) {
    GTEST_SKIP() << "sanitizer runtime owns the allocator; zero-delta "
                    "assertion is only meaningful in the plain build";
  }
  EXPECT_EQ(after.allocations, before.allocations)
      << (after.allocations - before.allocations) << " heap allocations over "
      << delivered << " delivered frames";
  EXPECT_EQ(after.deallocations, before.deallocations);
}

}  // namespace
}  // namespace blackdp
