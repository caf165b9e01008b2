#include "soak/stream_soak.hpp"

#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "codec/checkpoint.hpp"

namespace blackdp::soak {

namespace {

class StreamSoakWorld final : public SoakWorld {
 public:
  StreamSoakWorld(const scenario::StreamConfig& config, std::string tracePath)
      : world_{config}, tracePath_{std::move(tracePath)} {}

  std::uint64_t nextEpoch() const override { return world_.nextEpoch(); }

  common::Status runEpoch() override {
    if (!tracePath_.empty() && !trace_.is_open()) {
      if (auto opened = openTrace(); !opened.ok()) return opened;
    }
    const std::uint64_t epoch = world_.nextEpoch();
    const std::vector<scenario::InjectionSpec> specs = world_.planEpoch(epoch);
    if (trace_.is_open()) {
      std::string line;
      for (const scenario::InjectionSpec& spec : specs) {
        line.clear();
        scenario::appendInjectionJson(line, epoch, spec);
        trace_ << line << '\n';
      }
    }
    world_.runEpochFromSpecs(specs);
    return {};
  }

  common::Bytes saveCheckpoint() override {
    if (trace_.is_open()) trace_.flush();
    return world_.saveCheckpoint();
  }

  common::Status restoreCheckpoint(
      std::span<const std::uint8_t> blob) override {
    return world_.restoreCheckpoint(blob);
  }

  Surfaces surfaces() override {
    if (trace_.is_open()) trace_.flush();
    return {world_.metrics().toJson(), {}};
  }

  std::vector<RunViolation> invariants() const override {
    std::vector<RunViolation> violations;
    for (std::string& broken : world_.checkInvariants()) {
      violations.push_back({0, "memory-watermark", std::move(broken)});
    }
    return violations;
  }

  std::uint64_t seed() const override { return world_.config().seed; }

  std::string replayRecipe(std::uint64_t epochs) const override {
    const scenario::StreamConfig& config = world_.config();
    return "replay: soak_run --stream --stream-seed " +
           std::to_string(config.seed) + " --clusters " +
           std::to_string(config.clusters) + " --dreqs-per-epoch " +
           std::to_string(config.dreqsPerEpoch) + " --epochs " +
           std::to_string(epochs);
  }

 private:
  common::Status openTrace() {
    std::string kept;
    if (const auto old = codec::readFile(tracePath_); old.ok()) {
      std::string_view text{reinterpret_cast<const char*>(old.value().data()),
                            old.value().size()};
      // Only complete lines of epochs this world already holds survive; a
      // torn last line from a kill mid-write has no newline and is dropped.
      for (std::size_t newline = text.find('\n');
           newline != std::string_view::npos; newline = text.find('\n')) {
        const std::string_view line = text.substr(0, newline);
        text.remove_prefix(newline + 1);
        const auto parsed = scenario::parseInjectionJson(line);
        if (parsed && parsed->first < world_.nextEpoch()) {
          kept += line;
          kept += '\n';
        }
      }
    }
    if (const auto wrote = codec::writeFileAtomic(
            tracePath_, {reinterpret_cast<const std::uint8_t*>(kept.data()),
                         kept.size()});
        !wrote.ok()) {
      return common::Error{"trace-io",
                           tracePath_ + ": " + wrote.error().detail};
    }
    trace_.open(tracePath_, std::ios::app);
    if (!trace_) return common::Error{"trace-io", "cannot open " + tracePath_};
    return {};
  }

  scenario::StreamWorld world_;
  std::string tracePath_;
  std::ofstream trace_;
};

}  // namespace

WorldFactory streamWorlds(const scenario::StreamConfig& config,
                          const std::string& tracePath) {
  return [config, tracePath] {
    return std::make_unique<StreamSoakWorld>(config, tracePath);
  };
}

}  // namespace blackdp::soak
