#include "soak/megacity_soak.hpp"

#include <memory>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "core/lite_detector.hpp"

namespace blackdp::soak {

namespace {

class CorridorSoakWorld final : public SoakWorld {
 public:
  CorridorSoakWorld(const scenario::CorridorConfig& config,
                    std::uint32_t shards, sim::ThreadPool& pool)
      : config_{config}, shards_{shards}, world_{config, shards, pool} {}

  std::uint64_t nextEpoch() const override { return world_.nextEpoch(); }

  common::Status runEpoch() override {
    world_.step();
    return {};
  }

  common::Bytes saveCheckpoint() override { return world_.saveCheckpoint(); }

  common::Status restoreCheckpoint(
      std::span<const std::uint8_t> blob) override {
    return world_.restoreCheckpoint(blob);
  }

  Surfaces surfaces() override {
    world_.finish();
    return {world_.metricsJson(), world_.canonicalLog()};
  }

  std::vector<RunViolation> invariants() const override {
    std::vector<RunViolation> broken;
    std::size_t totalSessions = 0;
    world_.forEachSegment([&](std::uint32_t segment,
                              const std::vector<common::Address>& isolated,
                              const core::LiteDetector& detector) {
      for (const common::Address address : isolated) {
        const bool isVehicle =
            address.value() >= scenario::kVehicleAddressBase &&
            address.value() < scenario::kVehicleAddressBase + config_.vehicles;
        const auto id = static_cast<std::uint32_t>(
            address.value() - scenario::kVehicleAddressBase);
        if (!isVehicle || !scenario::vehicleSpec(config_, id).attacker) {
          broken.push_back({0, "honest-isolation",
                            "segment " + std::to_string(segment) +
                                " isolated " +
                                std::to_string(address.value()) +
                                " which is not a scripted attacker"});
        }
      }
      totalSessions += detector.activeSessions();
      detector.forEachSession([&](const core::LiteSessionState& session) {
        if (session.probesSent > config_.detector.maxProbes ||
            session.forwards > config_.detector.maxForwards ||
            session.violations >= config_.detector.probesToConfirm) {
          broken.push_back(
              {0, "tables-drained",
               "segment " + std::to_string(segment) + " session for " +
                   std::to_string(session.suspect.value()) +
                   " exceeds its budgets (probes " +
                   std::to_string(session.probesSent) + ", forwards " +
                   std::to_string(session.forwards) + ", violations " +
                   std::to_string(session.violations) + ")"});
        }
      });
    });
    if (totalSessions > config_.vehicles) {
      broken.push_back({0, "tables-drained",
                        std::to_string(totalSessions) +
                            " live sessions exceed the fleet of " +
                            std::to_string(config_.vehicles)});
    }
    return broken;
  }

  std::uint64_t seed() const override { return config_.seed; }

  std::string replayRecipe(std::uint64_t epochs) const override {
    return "replay: soak_run --megacity --megacity-seed " +
           std::to_string(config_.seed) + " --segments " +
           std::to_string(config_.segments) + " --vehicles " +
           std::to_string(config_.vehicles) + " --shards " +
           std::to_string(shards_) + " --epochs " + std::to_string(epochs);
  }

 private:
  scenario::CorridorConfig config_;
  std::uint32_t shards_;
  scenario::CorridorWorld world_;
};

}  // namespace

WorldFactory corridorWorlds(const scenario::CorridorConfig& config,
                            std::uint32_t shards, sim::ThreadPool& pool) {
  return [config, shards, &pool] {
    return std::make_unique<CorridorSoakWorld>(config, shards, pool);
  };
}

}  // namespace blackdp::soak
