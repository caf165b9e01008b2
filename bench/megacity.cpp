// The megacity gate: a national corridor (default 100 km, 10k vehicles,
// join/leave churn, ~1% black holes) run twice — once monolithic
// (--shards-a, default 1) and once partitioned (--shards-b, default 4) —
// on the same thread pool of --jobs workers. With more than one job the
// partitioned run is repeated on a one-worker pool, which splits the
// speedup of B over A into its two sources: algorithmic_speedup (shards_b
// on one thread vs shards_a — smaller per-shard event queues and grids) and
// parallel_speedup (shards_b on --jobs threads vs on one). Their product is
// `speedup`.
//
// The bench asserts the tentpole guarantee end to end: both runs must be
// BYTE-IDENTICAL on the deterministic surfaces (merged metrics JSON and the
// canonical per-segment log); a mismatch is an exit-1 failure, not a
// statistic. A third leg re-runs the partitioned configuration with a
// scripted mid-run shard crash (supervisor restart + envelope replay) while
// checkpointing every other epoch — it must converge to the same surfaces,
// with the checkpoint time reported as overhead. That leg runs 5 times,
// because at CI size it lasts only tens of milliseconds and one run's
// checkpoint share swings with the host; the sidecar lists every run's
// share. BENCH_megacity.json
// (schema v2) carries two machine-dependent sidecars: "sharding"
// (per-configuration fps, speedup split into algorithmic and parallel
// parts, per-shard busy seconds and balance, envelope volume) and
// "fault_tolerance" (checkpoint seconds/bytes, crash epoch,
// restart/replay/recovery counters, identity verdict).
// scripts/bench_compare.py gates frames_per_second against the committed
// baseline and the median checkpoint share against 5% of the leg's wall
// clock;
// CI additionally checks the baseline's speedup and parallel_speedup stay
// > 1.
//
// Flags: --segments N       corridor length in km (default 100)
//        --vehicles N       fleet size (default 10000)
//        --epochs N         1 s epochs to run (default 12: full churn window)
//        --shards-a N       first partitioning (default 1)
//        --shards-b N       second partitioning (default 4)
//        --seed N           corridor seed (default 42)
//        --jobs N           worker threads (also BLACKDP_JOBS)
//        --surfaces-out-a F dump run A's metrics+log to file F (CI cmp)
//        --surfaces-out-b F dump run B's metrics+log to file F (CI cmp)
//        --no-json          skip writing BENCH_megacity.json
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "metrics/table.hpp"
#include "obs/bench_json.hpp"
#include "scenario/corridor_world.hpp"
#include "sim/parallel.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace blackdp;

std::uint32_t flagValue(int& argc, char** argv, std::string_view name,
                        std::uint32_t fallback) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] != name) continue;
    std::uint32_t value = fallback;
    if (i + 1 < argc) value = static_cast<std::uint32_t>(
                          std::strtoul(argv[i + 1], nullptr, 10));
    const int removed = i + 1 < argc ? 2 : 1;
    for (int j = i; j + removed < argc; ++j) argv[j] = argv[j + removed];
    argc -= removed;
    return value;
  }
  return fallback;
}

std::string flagString(int& argc, char** argv, std::string_view name) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] != name) continue;
    std::string value;
    if (i + 1 < argc) value = argv[i + 1];
    const int removed = i + 1 < argc ? 2 : 1;
    for (int j = i; j + removed < argc; ++j) argv[j] = argv[j + removed];
    argc -= removed;
    return value;
  }
  return {};
}

bool flagPresent(int& argc, char** argv, std::string_view name) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] != name) continue;
    for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
    --argc;
    return true;
  }
  return false;
}

struct RunResult {
  std::string metricsJson;
  std::string canonicalLog;
  std::uint64_t framesDelivered{0};
  double runSeconds{0.0};
  double fps{0.0};
  shard::ShardStats stats;
  obs::Snapshot snapshot;
};

RunResult runCorridor(const scenario::CorridorConfig& config,
                      std::uint32_t shards, std::uint32_t epochs,
                      sim::ThreadPool& pool) {
  scenario::CorridorWorld world{config, shards, pool};
  const auto begin = std::chrono::steady_clock::now();
  world.run(epochs);
  RunResult out;
  out.runSeconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
  out.metricsJson = world.metricsJson();
  out.canonicalLog = world.canonicalLog();
  out.framesDelivered = world.framesDelivered();
  out.fps = out.runSeconds > 0.0
                ? static_cast<double>(out.framesDelivered) / out.runSeconds
                : 0.0;
  out.stats = world.shardStats();
  out.snapshot = world.metricsSnapshot();
  return out;
}

/// The fault-tolerance leg: the partitioned corridor re-run with a scripted
/// mid-run shard crash (supervisor restart + envelope replay) while writing
/// an in-memory checkpoint every other epoch boundary. Its surfaces must
/// still equal the healthy partitioned run's, and the checkpoint time is
/// the overhead bench_compare.py gates (<= 5% of the leg's wall clock).
struct FaultToleranceResult {
  std::string metricsJson;
  std::string canonicalLog;
  double runSeconds{0.0};
  double checkpointSeconds{0.0};
  std::uint64_t checkpointsWritten{0};
  std::uint64_t checkpointBytes{0};  ///< last checkpoint's size
  std::uint32_t crashEpoch{0};
  shard::ShardStats stats;
};

FaultToleranceResult runFaultTolerance(const scenario::CorridorConfig& base,
                                       std::uint32_t shards,
                                       std::uint32_t epochs,
                                       sim::ThreadPool& pool) {
  constexpr std::uint32_t kCheckpointEvery = 2;
  FaultToleranceResult out;
  out.crashEpoch = epochs / 2;

  scenario::CorridorConfig config = base;
  config.supervisionEvery = kCheckpointEvery;
  config.faults.shardCrashes.push_back({out.crashEpoch, shards - 1});

  scenario::CorridorWorld world{config, shards, pool};
  const auto begin = std::chrono::steady_clock::now();
  while (world.nextEpoch() < epochs) {
    world.step();
    if (world.nextEpoch() % kCheckpointEvery != 0) continue;
    const auto ckptBegin = std::chrono::steady_clock::now();
    const common::Bytes blob = world.saveCheckpoint();
    out.checkpointSeconds += std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - ckptBegin)
                                 .count();
    ++out.checkpointsWritten;
    out.checkpointBytes = blob.size();
  }
  world.finish();
  out.runSeconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
  out.metricsJson = world.metricsJson();
  out.canonicalLog = world.canonicalLog();
  out.stats = world.shardStats();
  return out;
}

bool dumpSurfaces(const std::string& path, const RunResult& run) {
  if (path.empty()) return true;
  std::ofstream os{path};
  if (!os) {
    std::cerr << "megacity: cannot write " << path << '\n';
    return false;
  }
  os << run.metricsJson << '\n' << run.canonicalLog;
  return true;
}

std::string num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using metrics::Table;

  const obs::BenchTimer timer;
  const unsigned jobs = sim::resolveJobCount(sim::consumeJobsFlag(argc, argv));
  scenario::CorridorConfig config;
  config.segments = flagValue(argc, argv, "--segments", 100);
  config.vehicles = flagValue(argc, argv, "--vehicles", 10'000);
  config.seed = flagValue(argc, argv, "--seed", 42);
  const std::uint32_t epochs = flagValue(argc, argv, "--epochs", 12);
  const std::uint32_t shardsA = flagValue(argc, argv, "--shards-a", 1);
  const std::uint32_t shardsB = flagValue(argc, argv, "--shards-b", 4);
  const std::string outA = flagString(argc, argv, "--surfaces-out-a");
  const std::string outB = flagString(argc, argv, "--surfaces-out-b");
  const bool noJson = flagPresent(argc, argv, "--no-json");

  const sim::ParallelRunner runner{jobs};
  sim::ThreadPool& pool = runner.threadPool();

  std::cout << "Megacity corridor: " << config.segments << " km, "
            << config.vehicles << " vehicles, " << epochs << " epochs, "
            << "shards " << shardsA << " vs " << shardsB << ", jobs " << jobs
            << "\n\n";

  const RunResult a = runCorridor(config, shardsA, epochs, pool);
  const RunResult b = runCorridor(config, shardsB, epochs, pool);
  // The partitioned run on one thread; with --jobs 1 that is run B itself.
  RunResult serialB;
  if (jobs > 1) {
    sim::ThreadPool serialPool{1};
    serialB = runCorridor(config, shardsB, epochs, serialPool);
  }
  const RunResult& b1 = jobs > 1 ? serialB : b;
  constexpr std::uint32_t kFaultToleranceRuns = 5;
  std::vector<FaultToleranceResult> ftAll;
  for (std::uint32_t r = 0; r < kFaultToleranceRuns; ++r) {
    ftAll.push_back(runFaultTolerance(config, shardsB, epochs, pool));
  }
  const auto share = [](const FaultToleranceResult& run) {
    return run.runSeconds > 0.0 ? run.checkpointSeconds / run.runSeconds : 0.0;
  };
  // The run with the median checkpoint share stands for the leg.
  std::vector<const FaultToleranceResult*> byShare;
  for (const FaultToleranceResult& run : ftAll) byShare.push_back(&run);
  std::sort(byShare.begin(), byShare.end(), [&](const auto* x, const auto* y) {
    return share(*x) < share(*y);
  });
  const FaultToleranceResult& ft = *byShare[byShare.size() / 2];

  const bool identical = a.metricsJson == b.metricsJson &&
                         a.canonicalLog == b.canonicalLog &&
                         a.framesDelivered == b.framesDelivered &&
                         b1.metricsJson == b.metricsJson &&
                         b1.canonicalLog == b.canonicalLog;
  // The crashed-and-restarted run must converge to the same surfaces: the
  // supervisor replayed the retained envelopes, so the recovery is
  // unobservable on the deterministic side.
  bool ftIdentical = true;
  for (const FaultToleranceResult& run : ftAll) {
    ftIdentical = ftIdentical && run.metricsJson == b.metricsJson &&
                  run.canonicalLog == b.canonicalLog &&
                  run.stats.shardRestarts == 1;
  }
  const double speedup = a.fps > 0.0 ? b.fps / a.fps : 0.0;
  const double algorithmicSpeedup = a.fps > 0.0 ? b1.fps / a.fps : 0.0;
  const double parallelSpeedup = b1.fps > 0.0 ? b.fps / b1.fps : 0.0;

  double busyMin = 0.0;
  double busyMax = 0.0;
  for (std::size_t s = 0; s < b.stats.busySeconds.size(); ++s) {
    const double busy = b.stats.busySeconds[s];
    if (s == 0 || busy < busyMin) busyMin = busy;
    if (s == 0 || busy > busyMax) busyMax = busy;
  }
  const double balance = busyMax > 0.0 ? busyMin / busyMax : 0.0;

  Table table({"Run", "Shards", "Frames", "Wall s", "Frames/s"});
  table.addRow({"A", std::to_string(shardsA),
                std::to_string(a.framesDelivered), Table::num(a.runSeconds, 3),
                Table::num(a.fps, 0)});
  table.addRow({"B", std::to_string(shardsB),
                std::to_string(b.framesDelivered), Table::num(b.runSeconds, 3),
                Table::num(b.fps, 0)});
  if (jobs > 1) {
    table.addRow({"B, 1 thread", std::to_string(shardsB),
                  std::to_string(b1.framesDelivered),
                  Table::num(b1.runSeconds, 3), Table::num(b1.fps, 0)});
  }
  table.print(std::cout);
  std::cout << "\nidentical surfaces : " << (identical ? "yes" : "NO — BUG")
            << "\nspeedup (B/A)      : " << Table::num(speedup, 2)
            << "\n  algorithmic      : " << Table::num(algorithmicSpeedup, 2)
            << "\n  parallel         : " << Table::num(parallelSpeedup, 2)
            << "\nshard balance      : " << Table::num(balance, 3)
            << "\nenvelopes exchanged: " << b.stats.envelopesExchanged << '\n';
  std::cout << "\nFault tolerance (crash shard " << shardsB - 1 << " at epoch "
            << ft.crashEpoch << ", checkpoint every 2):"
            << "\n  recovered identical: " << (ftIdentical ? "yes" : "NO — BUG")
            << "\n  restarts/replayed  : " << ft.stats.shardRestarts << " / "
            << ft.stats.envelopesReplayed << " envelopes over "
            << ft.stats.recoveryEpochs << " epochs"
            << "\n  checkpoint overhead: " << Table::num(ft.checkpointSeconds, 3)
            << " s of " << Table::num(ft.runSeconds, 3) << " s ("
            << ft.checkpointsWritten << " checkpoints, last "
            << ft.checkpointBytes << " bytes; median share of "
            << kFaultToleranceRuns << " runs)\n";

  const bool dumped = dumpSurfaces(outA, a) && dumpSurfaces(outB, b);

  if (!noJson) {
    std::string sidecar = "{\n    \"shards_a\": " + std::to_string(shardsA) +
                          ",\n    \"shards_b\": " + std::to_string(shardsB) +
                          ",\n    \"jobs\": " + std::to_string(jobs) +
                          ",\n    \"segments\": " +
                          std::to_string(config.segments) +
                          ",\n    \"vehicles\": " +
                          std::to_string(config.vehicles) +
                          ",\n    \"epochs\": " + std::to_string(epochs) +
                          ",\n    \"fps_shards_a\": " + num(a.fps) +
                          ",\n    \"fps_shards_b\": " + num(b.fps) +
                          ",\n    \"fps_shards_b_jobs1\": " + num(b1.fps) +
                          ",\n    \"speedup\": " + num(speedup) +
                          ",\n    \"algorithmic_speedup\": " +
                          num(algorithmicSpeedup) +
                          ",\n    \"parallel_speedup\": " +
                          num(parallelSpeedup) +
                          ",\n    \"balance_ratio\": " + num(balance) +
                          ",\n    \"busy_seconds\": [";
    for (std::size_t s = 0; s < b.stats.busySeconds.size(); ++s) {
      if (s > 0) sidecar += ", ";
      sidecar += num(b.stats.busySeconds[s]);
    }
    sidecar += "],\n    \"envelopes_exchanged\": " +
               std::to_string(b.stats.envelopesExchanged) +
               ",\n    \"identical\": " + (identical ? "true" : "false") +
               "\n  }";

    std::string faultSidecar =
        "{\n    \"checkpoint_seconds\": " + num(ft.checkpointSeconds) +
        ",\n    \"wall_clock_seconds\": " + num(ft.runSeconds) +
        ",\n    \"checkpoints_written\": " +
        std::to_string(ft.checkpointsWritten) +
        ",\n    \"checkpoint_bytes\": " + std::to_string(ft.checkpointBytes) +
        ",\n    \"crash_epoch\": " + std::to_string(ft.crashEpoch) +
        ",\n    \"shard_restarts\": " +
        std::to_string(ft.stats.shardRestarts) +
        ",\n    \"recovery_epochs\": " +
        std::to_string(ft.stats.recoveryEpochs) +
        ",\n    \"envelopes_replayed\": " +
        std::to_string(ft.stats.envelopesReplayed) +
        ",\n    \"crc_rejects\": " + std::to_string(ft.stats.crcRejects) +
        ",\n    \"identical\": " + (ftIdentical ? "true" : "false") +
        ",\n    \"checkpoint_shares\": [";
    for (std::size_t r = 0; r < ftAll.size(); ++r) {
      if (r > 0) faultSidecar += ", ";
      faultSidecar += num(share(ftAll[r]));
    }
    faultSidecar += "]\n  }";

    // Headline throughput is the partitioned run: frames over ITS wall
    // clock, so frames_per_second == sharding.fps_shards_b.
    obs::BenchRunInfo info;
    info.wallClockSeconds = b.runSeconds;
    info.framesDelivered = b.framesDelivered;
    info.addExtra("sharding", sidecar);
    info.addExtra("fault_tolerance", faultSidecar);
    obs::writeBenchJson("megacity", b.snapshot, info);
  }

  const bool healthy = identical && ftIdentical && dumped &&
                       a.framesDelivered > 0 && ft.stats.shardRestarts == 1 &&
                       ft.stats.envelopesReplayed > 0 &&
                       timer.elapsedSeconds() > 0.0;
  return healthy ? 0 : 1;
}
