// Chaos-soak driver, plus the checkpointed stream and megacity soaks.
//
//   soak_run --seconds 30                 # randomized soak within a budget
//   soak_run --seconds 30 --jobs 8        # parallel trials
//   soak_run --trials 12                  # fixed trial count instead
//   soak_run --seed 42 --trial 7          # replay exactly one trial
//   soak_run --inject-violation ...       # prove the harness catches bugs
//
// Checkpointed worlds, --stream (the d_req detector service) and --megacity
// (the sharded corridor), run through one driver
// (src/soak/checkpointed_run.hpp) and take the same run flags:
//
//   soak_run --stream --epochs 40 --checkpoint-every 10
//            --checkpoint-dir ckpts --json metrics.json  # checkpointed run
//   soak_run --stream ... --stop-after 25                # emulated kill
//   soak_run --stream ... --resume                       # continue from ckpt
//   soak_run --stream ... --trace trace.jsonl            # record d_req trace
//   soak_run --megacity --segments 8 --vehicles 800 --shards 4 --epochs 6
//            --checkpoint-every 2 --checkpoint-dir ckpts   # checkpointed run
//   soak_run --megacity ... --chaos-kills 3                # kill/resume chaos
//   soak_run --megacity ... --surfaces-out surfaces.txt    # byte-compare file
//
// --epochs and --stop-after are absolute epoch counts. Each checkpoint
// appends one line to the append-only DIR/manifest.jsonl after its
// ckpt-NNNNNN.bdpc has landed. --resume re-verifies the newest entry (seed,
// size, CRC) and first rewrites the manifest without a torn last line. A
// resumed --trace drops the epochs the resume re-runs. Numeric flags must
// be whole numbers in range (epoch counts are 32-bit), or soak_run exits 2.
//
// On any invariant violation the process prints one replay line per
// violation and exits 1. Replays are pure functions of the seed: one
// thread, any machine, same violation.
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <system_error>

#include "obs/trace_io.hpp"
#include "sim/parallel.hpp"
#include "soak/checkpointed_run.hpp"
#include "soak/megacity_soak.hpp"
#include "soak/soak_runner.hpp"
#include "soak/stream_soak.hpp"

namespace {

/// The whole of `text` as a T; non-numeric input, trailing characters or a
/// value outside T's range is a usage error (exit 2).
template <typename T>
T parseNumber(const std::string& flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || stop != end) {
    std::cerr << flag << ": '" << text << "' is not a number in range\n";
    std::exit(2);
  }
  return value;
}

/// Writes `text` to `path` ("" = skip); false, with a message, on failure.
bool writeText(const std::string& path, const std::string& text) {
  if (path.empty()) return true;
  std::ofstream out{path, std::ios::trunc};
  if (out << text) return true;
  std::cerr << "cannot write " << path << "\n";
  return false;
}

int runWorldMode(const std::string& name,
                 const blackdp::soak::RunOptions& options,
                 const blackdp::soak::WorldFactory& makeWorld,
                 const std::string& jsonPath,
                 const std::string& surfacesPath) {
  const blackdp::soak::RunResult result =
      blackdp::soak::runCheckpointed(options, makeWorld);
  for (const blackdp::soak::RunViolation& v : result.violations) {
    std::cout << "VIOLATION [" << v.invariant << "] epoch " << v.epoch << ": "
              << v.detail << "\n";
  }
  // --surfaces-out holds both surfaces, so CI can byte-compare a resumed
  // run against an uninterrupted one with a single cmp.
  const blackdp::soak::Surfaces& surfaces = result.surfaces;
  if (!writeText(jsonPath, surfaces.metricsJson + "\n") ||
      !writeText(surfacesPath,
                 surfaces.metricsJson + "\n" + surfaces.canonicalLog)) {
    return 2;
  }
  if (result.passed()) {
    std::cout << name << " soak PASS: epochs " << result.startEpoch << ".."
              << result.endEpoch << ", all invariants held.\n";
    if (!result.lastCheckpointPath.empty()) {
      std::cout << "last checkpoint: " << result.lastCheckpointPath << "\n";
    }
    return 0;
  }
  std::cout << name << " soak FAIL: " << result.violations.size()
            << " violation(s).\n";
  return 1;
}

void printViolations(const blackdp::soak::SoakRunner& runner,
                     const std::vector<blackdp::soak::SoakViolation>& violations,
                     bool injected) {
  for (const blackdp::soak::SoakViolation& v : violations) {
    std::cout << "VIOLATION [" << v.invariant << "] trial " << v.trialIndex
              << " (seed " << v.trialSeed << "): " << v.detail << "\n"
              << "  replay: soak_run --seed "
              << runner.options().masterSeed << " --trial " << v.trialIndex
              << (injected ? " --inject-violation" : "") << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  blackdp::soak::SoakOptions options;
  options.log = &std::cout;
  std::optional<std::uint64_t> replayTrial;
  std::string tracePath;

  bool streamMode = false;
  bool megacityMode = false;
  blackdp::soak::RunOptions run;
  run.log = &std::cout;
  std::optional<std::uint32_t> epochs;
  blackdp::scenario::StreamConfig stream;
  blackdp::scenario::CorridorConfig corridor;
  std::uint32_t shards = 4;
  std::string jsonPath;
  std::string surfacesPath;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto u32 = [&] { return parseNumber<std::uint32_t>(arg, value()); };
    const auto u64 = [&] { return parseNumber<std::uint64_t>(arg, value()); };
    if (arg == "--stream") {
      streamMode = true;
    } else if (arg == "--megacity") {
      megacityMode = true;
    } else if (arg == "--epochs") {
      epochs = u32();
    } else if (arg == "--checkpoint-every") {
      run.checkpointEvery = u32();
    } else if (arg == "--checkpoint-dir") {
      run.checkpointDir = value();
    } else if (arg == "--resume") {
      run.resume = true;
    } else if (arg == "--stop-after") {
      run.stopAfter = u32();
    } else if (arg == "--chaos-kills") {
      run.chaosKills = u32();
    } else if (arg == "--json") {
      jsonPath = value();
    } else if (arg == "--surfaces-out") {
      surfacesPath = value();
    } else if (arg == "--stream-seed") {
      stream.seed = u64();
    } else if (arg == "--clusters") {
      stream.clusters = u32();
    } else if (arg == "--dreqs-per-epoch") {
      stream.dreqsPerEpoch = u32();
    } else if (arg == "--megacity-seed") {
      corridor.seed = u64();
    } else if (arg == "--segments") {
      corridor.segments = u32();
    } else if (arg == "--vehicles") {
      corridor.vehicles = u32();
    } else if (arg == "--shards") {
      shards = u32();
    } else if (arg == "--seconds") {
      options.wallClockBudgetS = parseNumber<double>(arg, value());
    } else if (arg == "--trials") {
      options.maxTrials = u64();
      options.wallClockBudgetS = 1e9;  // trial count is the stop condition
    } else if (arg == "--seed") {
      options.masterSeed = u64();
    } else if (arg == "--jobs") {
      options.jobs = parseNumber<unsigned>(arg, value());
    } else if (arg == "--trial") {
      replayTrial = u64();
    } else if (arg == "--trace") {
      tracePath = value();
    } else if (arg == "--inject-violation") {
      options.injectViolation = true;
    } else if (arg == "--quiet") {
      options.log = nullptr;
      run.log = nullptr;
    } else {
      std::cerr << "unknown argument: " << arg << "\n"
                << "usage: soak_run [--seconds N] [--trials N] [--seed S] "
                   "[--jobs J] [--trial K] [--trace FILE] "
                   "[--inject-violation] [--quiet]\n"
                   "   or: soak_run --stream|--megacity [--epochs N] "
                   "[--checkpoint-every K] [--checkpoint-dir DIR] [--resume] "
                   "[--stop-after E] [--chaos-kills C] [--json FILE] "
                   "[--surfaces-out FILE] [--quiet]\n"
                   "       --stream:   [--stream-seed S] [--clusters C] "
                   "[--dreqs-per-epoch D] [--trace FILE]\n"
                   "       --megacity: [--megacity-seed S] [--segments N] "
                   "[--vehicles V] [--shards P] [--jobs J]\n";
      return 2;
    }
  }

  if (megacityMode) {
    run.epochs = epochs.value_or(8);
    const blackdp::sim::ParallelRunner runner{options.jobs};
    return runWorldMode(
        "megacity", run,
        blackdp::soak::corridorWorlds(corridor, shards, runner.threadPool()),
        jsonPath, surfacesPath);
  }
  if (streamMode) {
    run.epochs = epochs.value_or(40);
    return runWorldMode("stream", run,
                        blackdp::soak::streamWorlds(stream, tracePath),
                        jsonPath, surfacesPath);
  }

  const blackdp::soak::SoakRunner runner{options};

  if (replayTrial) {
    std::vector<blackdp::obs::TraceEvent> trace;
    const blackdp::soak::SoakTrialReport report = runner.runTrial(
        *replayTrial, tracePath.empty() ? nullptr : &trace);
    std::cout << "replaying trial " << report.trialIndex << " (seed "
              << report.trialSeed << "): " << report.description << "\n";
    if (!tracePath.empty()) {
      std::ofstream out{tracePath, std::ios::trunc};
      if (!out) {
        std::cerr << "cannot write trace to " << tracePath << "\n";
        return 2;
      }
      blackdp::obs::writeJsonl(trace, out);
      std::cout << "trace (" << trace.size() << " events) written to "
                << tracePath << "\n";
    }
    printViolations(runner, report.violations, options.injectViolation);
    if (report.violations.empty()) {
      std::cout << "all invariants held.\n";
      return 0;
    }
    return 1;
  }

  const blackdp::soak::SoakResult result = runner.run();
  printViolations(runner, result.violations, options.injectViolation);
  if (result.passed()) {
    std::cout << "soak PASS: " << result.trialsRun
              << " randomized trial(s), all invariants held.\n";
    return 0;
  }
  std::cout << "soak FAIL: " << result.violations.size()
            << " violation(s) across " << result.trialsRun << " trial(s).\n";
  return 1;
}
