// stream: the detector service (StreamWorld) ingesting a d_req stream.
//
// One pass = construct a 16-cluster StreamWorld with the default population
// (6 d_reqs per cluster per epoch) and run kEpochsPerPass epochs on one
// thread, calling checkInvariants() after every epoch; every 64 epochs it
// saves a checkpoint and writes it with codec::writeFileAtomic into a
// temporary directory under --out. work_per_s is d_reqs injected per wall
// second, invariants and checkpoints included (stream.dreqs_per_s), over a
// quietPassSeconds pass time. Its units are each epoch with its invariant
// check (about a millisecond, short enough to catch the quiet moments of a
// shared host) and each checkpoint's save and write.
//
// Operation = one epoch; it fails if a watermark invariant breaks. Every
// pass must end on the same metrics().toJson() as pass 0, and a world
// restored from the last checkpoint must reproduce it.
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <numeric>
#include <string>

#include "bench.hpp"
#include "codec/checkpoint.hpp"
#include "scenario/stream_world.hpp"

namespace perfbench {
namespace {

namespace scenario = blackdp::scenario;

constexpr std::uint32_t kClusters = 16;
constexpr std::uint32_t kCheckpointEvery = 64;
constexpr std::uint32_t kEpochsPerPass = 32 * kCheckpointEvery;
constexpr std::uint32_t kSetupRepeats = 5;

std::uint64_t injected(const scenario::StreamMetrics& m) {
  return std::accumulate(std::begin(m.injectedByKind),
                         std::end(m.injectedByKind), std::uint64_t{0});
}

struct Pass {
  std::vector<double> setupS;  ///< one per construction
  /// Wall time per unit, in pass order: every epoch with its invariant
  /// check, and after every kCheckpointEvery epochs the checkpoint.
  std::vector<double> unitS;
  scenario::StreamMetrics metrics;
  std::string metricsJson;
  blackdp::common::Bytes checkpoint;  ///< the last one taken
};

Pass runPass(const scenario::StreamConfig& config, const std::string& path,
             SpanRecorder& spans, std::uint64_t unit, Result& result) {
  Pass pass;
  const SpanRecorder::Scope passSpan{spans, "stream.pass", SpanRecorder::kNone,
                                     unit};
  // Construction takes about a millisecond: build the world kSetupRepeats
  // times (keeping the last) so setup_s is a steady median.
  std::unique_ptr<scenario::StreamWorld> world;
  for (std::uint32_t i = 0; i < kSetupRepeats; ++i) {
    world.reset();
    const auto setupStart = Clock::now();
    const SpanRecorder::Scope span{spans, "scenario.construct", passSpan.id(),
                                   unit};
    world = std::make_unique<scenario::StreamWorld>(config);
    pass.setupS.push_back(secondsSince(setupStart));
  }

  for (std::uint32_t chunk = 0; chunk < kEpochsPerPass / kCheckpointEvery;
       ++chunk) {
    for (std::uint32_t e = 0; e < kCheckpointEvery; ++e) {
      const std::uint64_t epoch = world->nextEpoch();
      const auto epochStart = Clock::now();
      {
        const SpanRecorder::Scope span{spans, "core.epoch", passSpan.id(),
                                       epoch};
        world->runEpoch();
      }
      std::vector<std::string> violations;
      {
        const SpanRecorder::Scope span{spans, "core.invariants", passSpan.id(),
                                       epoch};
        violations = world->checkInvariants();
      }
      pass.unitS.push_back(secondsSince(epochStart));
      ++result.attempted;
      if (!violations.empty()) {
        ++result.failed;
        result.mismatch("stream epoch " + std::to_string(epoch) + ": " +
                        violations.front());
      }
    }
    const auto checkpointStart = Clock::now();
    {
      const SpanRecorder::Scope span{spans, "codec.save", passSpan.id(), chunk};
      pass.checkpoint = world->saveCheckpoint();
    }
    blackdp::common::Status written;
    {
      const SpanRecorder::Scope span{spans, "codec.write", passSpan.id(),
                                     chunk};
      written = blackdp::codec::writeFileAtomic(path, pass.checkpoint);
    }
    pass.unitS.push_back(secondsSince(checkpointStart));
    if (!written.ok()) {
      result.mismatch("stream checkpoint write failed: " +
                      written.error().code);
    }
  }
  pass.metrics = world->metrics();
  pass.metricsJson = pass.metrics.toJson();
  return pass;
}

}  // namespace

void runStream(const Options& options, SpanRecorder& spans, Result& result) {
  scenario::StreamConfig config;
  config.seed = options.seedGiven ? options.seed : 2024;
  config.clusters = kClusters;
  const bool traced = spans.enabled();

  const std::string dir =
      options.outDir + "/stream-ckpt-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/world.ckpt";

  std::vector<Pass> passes;
  double rssMb = 0.0;
  const auto start = Clock::now();
  while (passes.size() < 2 || secondsSince(start) < options.seconds) {
    spans.setEnabled(traced && passes.size() % 2 == 1);
    passes.push_back(runPass(config, path, spans, passes.size(), result));
    // Peak memory over setup and one pass: later passes repeat the same
    // work, and per-thread allocator arenas would otherwise let the peak
    // creep with the number of passes the time allows.
    if (passes.size() == 1) rssMb = peakRssMb();
    if (passes.back().metricsJson != passes.front().metricsJson) {
      result.mismatch("stream pass metrics differ from pass 0");
    }
    if (!result.correct) break;
    // Only the newest checkpoint is kept, so memory does not grow with
    // the number of passes.
    if (passes.size() > 1) {
      passes[passes.size() - 2].checkpoint = blackdp::common::Bytes{};
    }
  }
  spans.setEnabled(traced);

  const Pass& first = passes.front();
  const Pass& last = passes.back();
  Digest digest;
  digest.add(first.metricsJson);
  result.digest = digest.hex();
  const blackdp::common::Result<blackdp::common::Bytes> onDisk =
      blackdp::codec::readFile(path);
  if (!onDisk.ok() || onDisk.value() != last.checkpoint) {
    result.mismatch("stream checkpoint file does not hold the last blob");
  }
  {
    scenario::StreamWorld restored{config};
    const blackdp::common::Status status =
        restored.restoreCheckpoint(last.checkpoint);
    if (!status.ok()) {
      result.mismatch("stream restore failed: " + status.error().code);
    } else if (restored.metrics().toJson() != last.metricsJson) {
      result.mismatch("stream restored world does not reproduce metrics");
    }
  }
  std::filesystem::remove_all(dir);

  const auto dreqsPerPass = static_cast<double>(injected(first.metrics));
  std::vector<std::vector<double>> unitS;
  std::vector<double> setups;
  std::vector<double> ratesUntraced;
  std::vector<double> ratesTraced;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    unitS.push_back(passes[p].unitS);
    setups.insert(setups.end(), passes[p].setupS.begin(),
                  passes[p].setupS.end());
    double passS = 0.0;
    for (const double s : passes[p].unitS) passS += s;
    (p % 2 == 1 ? ratesTraced : ratesUntraced).push_back(dreqsPerPass / passS);
  }
  if (!traced) {
    result.metric("work_per_s", dreqsPerPass / quietPassSeconds(unitS),
                  "1/s");
    result.metric("setup_s", median(setups), "s");
    result.metric("peak_rss_mb", rssMb, "MB");
    return;
  }

  // ---- per-layer (traced run) ----
  const scenario::StreamMetrics& m = first.metrics;
  const std::uint64_t refused = m.dreqRejectedAuth + m.dreqRateLimited +
                                m.dreqReplayed;
  const std::vector<double> epochMs = spans.durationsMs("core.epoch");
  result.metric("core.epoch_ms_p50", quantile(epochMs, 0.5), "ms");
  result.metric("core.epoch_ms_p99", quantile(epochMs, 0.99), "ms");
  result.metric("core.invariants_ms_p50",
                median(spans.durationsMs("core.invariants")), "ms");
  result.metric("core.dreq_accept_ratio",
                static_cast<double>(m.dreqReceived - refused) /
                    static_cast<double>(m.dreqReceived),
                "ratio");
  result.metric("core.probes_sent", static_cast<double>(m.probesSent),
                "count");
  measureCrypto(spans, result);
  result.metric("codec.save_ms", median(spans.durationsMs("codec.save")), "ms");
  result.metric("codec.write_ms", median(spans.durationsMs("codec.write")),
                "ms");
  result.metric("codec.ckpt_bytes", static_cast<double>(last.checkpoint.size()),
                "bytes");
  result.metric("trace_overhead", median(ratesUntraced) / median(ratesTraced),
                "ratio");
}

}  // namespace perfbench
