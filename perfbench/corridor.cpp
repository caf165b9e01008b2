// corridor: the sharded megacity, as `soak_run --megacity` runs it.
//
// One pass = construct CorridorWorld (100 km, 100 RSUs, 10k vehicles, ~1%
// black holes, churn) on 4 shards and min(4, nproc) threads, step its 12
// one-second epochs, and take a whole-world saveCheckpoint every 4 epochs.
// work_per_s is medium deliveries per wall second over the steps and their
// checkpoints (corridor.frames_per_s), over a steadyPassSeconds pass time.
//
// Checks per pass: every isolated address is a scripted attacker
// (vehicleSpec), at least one verdict was confirmed, and the surfaces
// (metrics JSON + canonical log) digest equal to the first pass's. After
// the loop the last checkpoint must restore into a fresh world and
// reproduce the canonical log.
#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>

#include "bench.hpp"
#include "scenario/corridor_world.hpp"
#include "sim/parallel.hpp"

namespace perfbench {
namespace {

using blackdp::scenario::CorridorConfig;
using blackdp::scenario::CorridorWorld;

constexpr std::uint32_t kEpochs = 12;
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kCheckpointEvery = 4;
constexpr std::uint32_t kSetupRepeats = 5;
/// Epochs the traced run's attribution legs replay at 1 thread.
constexpr std::uint32_t kAttributionEpochs = 4;

struct Pass {
  std::vector<double> setupS;  ///< one per construction
  double runS{0.0};  ///< steps + checkpoints
  std::uint64_t frames{0};
  std::vector<double> stepS;          ///< per epoch, step only
  std::vector<double> saveS;          ///< per checkpoint
  std::vector<std::vector<double>> busyS;  ///< [epoch][shard]
  std::uint64_t envelopes{0};
  std::uint64_t framesSent{0};
  std::uint64_t confirmed{0};
  std::string metricsJson;   ///< deterministic surface 1
  std::string canonicalLog;  ///< deterministic surface 2
  blackdp::common::Bytes checkpoint;  ///< the last one taken
  bool ok{true};
};

/// Runs `epochs` epochs of a fresh world. Checkpoints and the final
/// surfaces are taken only for full passes (`full`).
Pass runPass(const CorridorConfig& config, std::uint32_t shards,
             blackdp::sim::ThreadPool& pool, std::uint32_t epochs, bool full,
             SpanRecorder& spans, std::uint64_t unit, Result& result) {
  Pass pass;
  const SpanRecorder::Scope passSpan{spans, "corridor.pass",
                                     SpanRecorder::kNone, unit};
  // Construction takes milliseconds: full passes build the world
  // kSetupRepeats times (keeping the last) so setup_s is a steady median.
  std::unique_ptr<CorridorWorld> world;
  for (std::uint32_t i = 0; i < (full ? kSetupRepeats : 1); ++i) {
    world.reset();
    const auto setupStart = Clock::now();
    const SpanRecorder::Scope span{spans, "scenario.construct", passSpan.id(),
                                   unit};
    world = std::make_unique<CorridorWorld>(config, shards, pool);
    pass.setupS.push_back(secondsSince(setupStart));
  }

  std::vector<double> busyBefore(shards, 0.0);
  const auto runStart = Clock::now();
  for (std::uint32_t epoch = 0; epoch < epochs; ++epoch) {
    if (full) ++result.attempted;
    const auto stepStart = Clock::now();
    try {
      const SpanRecorder::Scope span{spans, "scenario.step", passSpan.id(),
                                     unit * kEpochs + epoch};
      world->step();
    } catch (const std::exception& e) {
      ++result.failed;
      result.mismatch(std::string{"corridor step threw: "} + e.what());
      pass.ok = false;
      return pass;
    }
    pass.stepS.push_back(secondsSince(stepStart));
    const std::vector<double>& busy = world->shardStats().busySeconds;
    std::vector<double> epochBusy(shards, 0.0);
    for (std::size_t s = 0; s < busy.size() && s < shards; ++s) {
      epochBusy[s] = busy[s] - busyBefore[s];
      busyBefore[s] = busy[s];
    }
    pass.busyS.push_back(std::move(epochBusy));
    if (full && world->nextEpoch() % kCheckpointEvery == 0) {
      const auto saveStart = Clock::now();
      const SpanRecorder::Scope span{spans, "codec.save", passSpan.id(),
                                     unit * kEpochs + epoch};
      pass.checkpoint = world->saveCheckpoint();
      pass.saveS.push_back(secondsSince(saveStart));
    }
  }
  pass.runS = secondsSince(runStart);
  if (!full) return pass;

  world->finish();
  pass.frames = world->framesDelivered();
  pass.envelopes = world->shardStats().envelopesExchanged;
  const blackdp::obs::Snapshot snapshot = world->metricsSnapshot();
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  pass.framesSent = counter("medium.frames_sent");
  pass.confirmed = counter("corridor.confirmed");
  pass.metricsJson = world->metricsJson();
  pass.canonicalLog = world->canonicalLog();

  std::uint64_t honestIsolated = 0;
  world->forEachSegment([&](std::uint32_t, const auto& isolated, const auto&) {
    for (const blackdp::common::Address address : isolated) {
      const std::uint64_t raw = address.value();
      const bool vehicle = raw >= blackdp::scenario::kVehicleAddressBase &&
                           raw < blackdp::scenario::kVehicleAddressBase +
                                     config.vehicles;
      if (!vehicle ||
          !blackdp::scenario::vehicleSpec(
               config, static_cast<std::uint32_t>(
                           raw - blackdp::scenario::kVehicleAddressBase))
               .attacker) {
        ++honestIsolated;
      }
    }
  });
  if (honestIsolated != 0) {
    result.mismatch("corridor isolated " + std::to_string(honestIsolated) +
                    " non-attacker address(es)");
    pass.ok = false;
  }
  if (pass.confirmed == 0) {
    result.mismatch("corridor confirmed no verdict");
    pass.ok = false;
  }
  return pass;
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

}  // namespace

void runCorridor(const Options& options, SpanRecorder& spans, Result& result) {
  CorridorConfig config;
  config.seed = options.seedGiven ? options.seed : 42;
  const blackdp::sim::ParallelRunner runner{benchThreads()};
  blackdp::sim::ThreadPool& pool = runner.threadPool();
  const bool traced = spans.enabled();

  // The traced run alternates untraced and traced passes (for
  // trace_overhead) and keeps part of its time for the attribution legs.
  const double budget = traced ? options.seconds * 0.5 : options.seconds;
  std::vector<Pass> passes;
  std::vector<bool> passTraced;
  double rssMb = 0.0;
  const auto start = Clock::now();
  while (passes.empty() || secondsSince(start) < budget ||
         (traced && passes.size() < 2)) {
    const bool tracePass = traced && passes.size() % 2 == 1;
    spans.setEnabled(tracePass);
    passes.push_back(runPass(config, kShards, pool, kEpochs, true, spans,
                             passes.size(), result));
    passTraced.push_back(tracePass);
    // Peak memory over setup and one pass: later passes repeat the same
    // work, and per-thread allocator arenas would otherwise let the peak
    // creep with the number of passes the time allows.
    if (passes.size() == 1) rssMb = peakRssMb();
    if (!passes.back().ok) break;
    Pass& pass = passes.back();
    if (pass.metricsJson != passes.front().metricsJson ||
        pass.canonicalLog != passes.front().canonicalLog) {
      result.mismatch("corridor pass surfaces differ from the first pass");
      break;
    }
    // Only the first pass's surfaces and the newest checkpoint are kept, so
    // memory does not grow with the number of passes.
    if (passes.size() > 1) {
      pass.metricsJson = std::string{};
      pass.canonicalLog = std::string{};
      passes[passes.size() - 2].checkpoint = blackdp::common::Bytes{};
    }
  }
  spans.setEnabled(traced);
  if (!result.correct) return;

  const Pass& first = passes.front();
  Digest digest;
  digest.add(first.metricsJson);
  digest.add(first.canonicalLog);
  result.digest = digest.hex();

  // The last checkpoint (epoch 12) must restore into a fresh world.
  {
    CorridorWorld restored{config, kShards, pool};
    const blackdp::common::Status status =
        restored.restoreCheckpoint(passes.back().checkpoint);
    if (!status.ok()) {
      result.mismatch("corridor checkpoint restore failed: " +
                      status.error().code);
    } else if (restored.nextEpoch() != kEpochs ||
               restored.canonicalLog() != first.canonicalLog) {
      result.mismatch("corridor restored world diverges from the run");
    }
  }

  std::vector<double> fps;
  std::vector<double> setups;
  for (const Pass& pass : passes) {
    fps.push_back(static_cast<double>(pass.frames) / pass.runS);
    setups.insert(setups.end(), pass.setupS.begin(), pass.setupS.end());
  }
  if (!traced) {
    std::vector<std::vector<double>> unitS;
    for (const Pass& pass : passes) {
      unitS.push_back(pass.stepS);
      unitS.back().insert(unitS.back().end(), pass.saveS.begin(),
                          pass.saveS.end());
    }
    result.metric("work_per_s",
                  static_cast<double>(first.frames) / steadyPassSeconds(unitS),
                  "1/s");
    result.metric("setup_s", median(setups), "s");
    result.metric("peak_rss_mb", rssMb, "MB");
    return;
  }

  // ---- per-layer (traced run): timings from spans, counts from stats ----
  // Attribution legs: the first epochs again on 1 thread, 4 shards and 1.
  blackdp::sim::ThreadPool serial{1};
  const std::uint64_t fourOnOne = passes.size();
  const std::uint64_t oneOnOne = passes.size() + 1;
  (void)runPass(config, kShards, serial, kAttributionEpochs, false, spans,
                fourOnOne, result);
  (void)runPass(config, 1, serial, kAttributionEpochs, false, spans, oneOnOne,
                result);

  std::map<std::uint64_t, double> stepSpanS;  // epoch id -> seconds
  std::vector<double> saveMs;
  for (const SpanRecorder::Span& span : spans.snapshot()) {
    const double s = static_cast<double>(span.endNs - span.startNs) / 1e9;
    if (span.name == "scenario.step") stepSpanS[span.unit] = s;
    if (span.name == "codec.save") saveMs.push_back(s * 1e3);
  }
  const auto stepOf = [&](std::uint64_t pass, std::size_t epoch) {
    return stepSpanS.at(pass * kEpochs + epoch);
  };
  const auto headS = [&](std::uint64_t pass) {
    double total = 0.0;
    for (std::size_t e = 0; e < kAttributionEpochs; ++e) {
      total += stepOf(pass, e);
    }
    return total;
  };

  std::vector<double> fpsUntraced;
  std::vector<double> fpsTraced;
  std::vector<double> busyNsPerFrame;
  std::vector<double> imbalance;
  std::vector<double> coord;
  std::vector<double> balance;
  std::vector<double> steps;
  std::vector<double> fourOnFour;  // head epochs, traced passes
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const Pass& pass = passes[p];
    (passTraced[p] ? fpsTraced : fpsUntraced).push_back(fps[p]);
    if (!passTraced[p]) continue;
    std::vector<double> busyTotal(kShards, 0.0);
    double imbalanceS = 0.0;
    double coordS = 0.0;
    for (std::size_t e = 0; e < pass.busyS.size(); ++e) {
      const std::vector<double>& busy = pass.busyS[e];
      const double maxBusy = *std::max_element(busy.begin(), busy.end());
      imbalanceS += maxBusy - sum(busy) / static_cast<double>(busy.size());
      coordS += stepOf(p, e) - maxBusy;
      steps.push_back(stepOf(p, e));
      for (std::size_t s = 0; s < busy.size(); ++s) busyTotal[s] += busy[s];
    }
    busyNsPerFrame.push_back(sum(busyTotal) * 1e9 /
                             static_cast<double>(pass.frames));
    imbalance.push_back(imbalanceS);
    coord.push_back(coordS);
    balance.push_back(*std::min_element(busyTotal.begin(), busyTotal.end()) /
                      *std::max_element(busyTotal.begin(), busyTotal.end()));
    fourOnFour.push_back(headS(p));
  }

  result.metric("shard.busy_ns_per_frame", median(busyNsPerFrame), "ns");
  result.metric("shard.imbalance_s", median(imbalance), "s");
  result.metric("shard.coord_s", median(coord), "s");
  result.metric("shard.balance", median(balance), "ratio");
  result.metric("shard.envelopes", static_cast<double>(first.envelopes),
                "count");
  result.metric("shard.algorithmic_speedup", headS(oneOnOne) / headS(fourOnOne),
                "x");
  result.metric("shard.parallel_speedup", headS(fourOnOne) / median(fourOnFour),
                "x");
  result.metric("net.deliveries_per_send",
                static_cast<double>(first.frames) /
                    static_cast<double>(first.framesSent),
                "ratio");
  result.metric("scenario.step_s_p50", median(steps), "s");
  result.metric("scenario.step_s_max",
                *std::max_element(steps.begin(), steps.end()), "s");
  result.metric("codec.save_ms", median(saveMs), "ms");
  result.metric("codec.ckpt_bytes",
                static_cast<double>(passes.back().checkpoint.size()), "bytes");
  result.metric("trace_overhead", median(fpsUntraced) / median(fpsTraced),
                "ratio");
}

}  // namespace perfbench
