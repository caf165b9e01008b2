// highway: the steady-state data plane of a Table I highway (BM_E2eHighway).
//
// One pass = build a benign, stationary HighwayScenario, let clusters join,
// establish an AODV route from source to destination, warm up with 2000
// packets, then stream one burst of 10k data packets at a 100 us gap on one
// thread. Passes go in pairs over kWorlds world seeds N, N+1, ...: the
// layout (route length, receivers per send) changes the cost of a frame, so
// one run averages several layouts. A pass takes about a quarter of a
// second, so every world is measured all through the run. Setup (build, joins, discovery,
// warm-up) is setup_s. work_per_s is medium deliveries per wall second
// (highway.frames_per_s): each burst is cut into chunks of kChunkPackets
// sends, every chunk of a stationary stream is the same work, and a world's
// rate is the kQuietQuantile of all its chunk rates over the run (about 20
// chunks lie above it); then the mean over worlds.
//
// Operation = one measured packet; it fails if the destination's agent
// does not deliver it. Every pass of a world seed must reproduce that
// seed's first pass exactly (frames, deliveries and events per burst).
#include <map>
#include <memory>
#include <string>

#include "bench.hpp"
#include "common/alloc_hook.hpp"
#include "scenario/highway_scenario.hpp"

namespace perfbench {
namespace {

namespace scenario = blackdp::scenario;
namespace sim = blackdp::sim;

constexpr std::uint32_t kWarmupPackets = 2000;
constexpr std::uint32_t kBurstPackets = 10000;
constexpr std::uint32_t kBurstsPerPass = 1;
constexpr std::uint64_t kWorlds = 4;
/// About 2 ms of wall time: short enough that many chunks fall inside one
/// quiet moment of a shared host, so the upper quantile finds them.
constexpr std::uint32_t kChunkPackets = 100;

/// Self-rescheduling sender: one pending send event at a time, so the
/// event queue stays at its steady-state size during a burst. With
/// `chunkRates` set it appends the medium's deliveries per wall second of
/// every whole chunk of kChunkPackets sends; the drain after the last send
/// is not a chunk.
struct BurstDriver {
  sim::Simulator& simulator;
  blackdp::aodv::AodvAgent& source;
  blackdp::common::Address destination;
  const blackdp::net::WirelessMedium& medium;
  std::vector<double>* chunkRates{nullptr};
  sim::Duration gap{sim::Duration::microseconds(100)};
  std::uint32_t remaining{0};
  bool chunkOpen{false};
  Clock::time_point chunkStart{};
  std::uint64_t chunkFrames{0};

  void run(std::uint32_t count) {
    remaining = count;
    chunkOpen = false;
    tick();
    simulator.run(simulator.now() + gap * static_cast<std::int64_t>(count) +
                  sim::Duration::milliseconds(50));
  }
  void tick() {
    if (remaining == 0) return;
    if (chunkRates != nullptr && remaining % kChunkPackets == 0) markChunk();
    --remaining;
    source.sendData(destination);
    simulator.schedule(gap, [this] { tick(); });
  }
  void markChunk() {
    const auto now = Clock::now();
    const std::uint64_t frames = medium.stats().framesDelivered;
    if (chunkOpen) {
      chunkRates->push_back(
          static_cast<double>(frames - chunkFrames) /
          std::chrono::duration<double>(now - chunkStart).count());
    }
    chunkOpen = true;
    chunkStart = now;
    chunkFrames = frames;
  }
};

/// Public counters sampled around a burst.
struct Counters {
  std::uint64_t framesDelivered{0};
  std::uint64_t framesSent{0};
  std::uint64_t events{0};
  std::uint64_t dataDelivered{0};
  std::uint64_t dataOriginated{0};
  std::uint64_t dataForwarded{0};
  std::uint64_t allocations{0};
};

Counters sample(scenario::HighwayScenario& world) {
  Counters c;
  c.framesDelivered = world.medium().stats().framesDelivered;
  c.framesSent = world.medium().stats().framesSent;
  c.events = world.simulator().executedEvents();
  c.dataDelivered = world.destination().agent->stats().dataDelivered;
  c.dataOriginated = world.source().agent->stats().dataOriginated;
  for (const auto& vehicle : world.vehicles()) {
    c.dataForwarded += vehicle->agent->stats().dataForwarded;
  }
  c.allocations = blackdp::common::threadAllocCounters().allocations;
  return c;
}

struct Burst {
  double seconds{0.0};
  Counters delta;
};

struct Pass {
  std::uint64_t worldSeed{0};
  double setupS{0.0};
  std::vector<Burst> bursts;
  std::vector<double> chunkRates;  ///< frames/s of every measured chunk
  std::uint64_t gridRebuilds{0};
  std::uint64_t digest{0};
};

Pass runPass(std::uint64_t worldSeed, SpanRecorder& spans, std::uint64_t unit,
             Result& result) {
  Pass pass;
  pass.worldSeed = worldSeed;
  const SpanRecorder::Scope passSpan{spans, "highway.pass", SpanRecorder::kNone,
                                     unit};
  const auto setupStart = Clock::now();
  scenario::ScenarioConfig config;
  config.seed = worldSeed;
  config.attack = scenario::AttackType::kNone;
  config.minSpeedKmh = 0.0;  // stationary: no re-joins inside a burst
  config.maxSpeedKmh = 0.0;

  std::unique_ptr<scenario::HighwayScenario> world;
  {
    const SpanRecorder::Scope span{spans, "scenario.construct", passSpan.id(),
                                   unit};
    world = std::make_unique<scenario::HighwayScenario>(config);
  }
  const blackdp::common::Address dest = world->destination().address();
  bool routed = false;
  {
    const SpanRecorder::Scope span{spans, "aodv.discovery", passSpan.id(),
                                   unit};
    world->runFor(sim::Duration::milliseconds(500));  // cluster joins
    world->source().agent->findRoute(dest, [&](bool ok) { routed = ok; });
    world->runFor(sim::Duration::seconds(2));
  }
  if (!routed) {
    ++result.failed;
    result.mismatch("highway route discovery failed for world seed " +
                    std::to_string(worldSeed));
    return pass;
  }
  BurstDriver driver{world->simulator(), *world->source().agent, dest,
                     world->medium()};
  {
    const SpanRecorder::Scope span{spans, "highway.warmup", passSpan.id(),
                                   unit};
    driver.run(kWarmupPackets);
  }
  pass.setupS = secondsSince(setupStart);

  // Reserved, so that recording a chunk never allocates inside a burst
  // (net.allocs_per_frame counts this thread's allocations).
  pass.chunkRates.reserve(kBurstsPerPass * kBurstPackets / kChunkPackets);
  driver.chunkRates = &pass.chunkRates;
  Digest digest;
  for (std::uint32_t b = 0; b < kBurstsPerPass; ++b) {
    const Counters before = sample(*world);
    const auto burstStart = Clock::now();
    {
      const SpanRecorder::Scope span{spans, "sim.run", passSpan.id(), b};
      driver.run(kBurstPackets);
    }
    Burst burst;
    burst.seconds = secondsSince(burstStart);
    const Counters after = sample(*world);
    burst.delta = {after.framesDelivered - before.framesDelivered,
                   after.framesSent - before.framesSent,
                   after.events - before.events,
                   after.dataDelivered - before.dataDelivered,
                   after.dataOriginated - before.dataOriginated,
                   after.dataForwarded - before.dataForwarded,
                   after.allocations - before.allocations};
    result.attempted += burst.delta.dataOriginated;
    if (burst.delta.dataDelivered != burst.delta.dataOriginated) {
      result.failed += burst.delta.dataOriginated - burst.delta.dataDelivered;
    }
    digest.add(burst.delta.framesDelivered);
    digest.add(burst.delta.framesSent);
    digest.add(burst.delta.events);
    digest.add(burst.delta.dataDelivered);
    digest.add(burst.delta.dataForwarded);
    pass.bursts.push_back(burst);
  }
  pass.gridRebuilds = world->medium().stats().gridRebuilds;
  pass.digest = digest.value();
  return pass;
}

}  // namespace

void runHighway(const Options& options, SpanRecorder& spans, Result& result) {
  const std::uint64_t seed = options.seedGiven ? options.seed : 101;
  const bool traced = spans.enabled();

  // Passes go in pairs per world seed: N, N, N+1, N+1, ... until every
  // world has had a pair. The traced run traces the second pass of each
  // pair (for trace_overhead).
  std::vector<Pass> passes;
  double rssMb = 0.0;
  const auto start = Clock::now();
  while (passes.size() < 2 * kWorlds ||
         secondsSince(start) < options.seconds) {
    const std::size_t p = passes.size();
    spans.setEnabled(traced && p % 2 == 1);
    passes.push_back(runPass(seed + (p / 2) % kWorlds, spans, p, result));
    // Peak memory over setup and one pass: later passes repeat the same
    // work, and per-thread allocator arenas would otherwise let the peak
    // creep with the number of passes the time allows.
    if (passes.size() == 1) rssMb = peakRssMb();
    if (passes.back().bursts.empty()) break;
  }
  spans.setEnabled(traced);
  if (!result.correct) return;

  std::map<std::uint64_t, std::uint64_t> firstDigest;
  Digest digest;
  for (const Pass& pass : passes) {
    const auto [it, inserted] =
        firstDigest.try_emplace(pass.worldSeed, pass.digest);
    if (inserted) {
      digest.add(pass.worldSeed);
      digest.add(pass.digest);
    } else if (it->second != pass.digest) {
      result.mismatch("highway world seed " + std::to_string(pass.worldSeed) +
                      " did not replay its first pass");
    }
  }
  result.digest = digest.hex();

  std::map<std::uint64_t, std::vector<double>> chunkRates;  ///< per world
  std::vector<double> fpsUntraced;
  std::vector<double> fpsTraced;
  std::vector<double> setups;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    setups.push_back(passes[p].setupS);
    std::vector<double>& rates = chunkRates[passes[p].worldSeed];
    rates.insert(rates.end(), passes[p].chunkRates.begin(),
                 passes[p].chunkRates.end());
    for (const Burst& burst : passes[p].bursts) {
      (p % 2 == 1 ? fpsTraced : fpsUntraced)
          .push_back(static_cast<double>(burst.delta.framesDelivered) /
                     burst.seconds);
    }
  }
  if (!traced) {
    double fps = 0.0;
    for (auto& [worldSeed, rates] : chunkRates) {
      fps += quantile(std::move(rates), kQuietQuantile);
    }
    result.metric("work_per_s", fps / static_cast<double>(chunkRates.size()),
                  "1/s");
    result.metric("setup_s", median(setups), "s");
    result.metric("peak_rss_mb", rssMb, "MB");
    return;
  }

  // ---- per-layer (traced run): counts over pass 0's first burst ----
  const Counters& d = passes.front().bursts.front().delta;
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return static_cast<double>(num) / static_cast<double>(den);
  };
  result.metric("sim.events_per_frame", ratio(d.events, d.framesDelivered),
                "ratio");
  result.metric("net.deliveries_per_send",
                ratio(d.framesDelivered, d.framesSent), "ratio");
  result.metric("net.grid_rebuilds",
                static_cast<double>(passes.front().gridRebuilds), "count");
  result.metric("net.allocs_per_frame", ratio(d.allocations, d.framesDelivered),
                "ratio");
  result.metric("aodv.forwards_per_packet",
                ratio(d.dataForwarded, d.dataDelivered), "ratio");
  result.metric("trace_overhead", median(fpsUntraced) / median(fpsTraced),
                "ratio");
}

}  // namespace perfbench
