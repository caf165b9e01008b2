#include "scenario/urban_scenario.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace blackdp::scenario {

namespace {
constexpr std::uint32_t kRsuNodeIdBase = 200'000;
constexpr std::uint64_t kRsuAddressBase = 500;
}  // namespace

UrbanScenario::UrbanScenario(UrbanConfig config)
    : config_{config},
      seeds_{config.seed},
      rng_{seeds_.stream("urban-placement")},
      grid_{config.blocksX, config.blocksY, config.blockM} {
  engine_ =
      std::make_unique<crypto::CryptoEngine>(seeds_.deriveSeed("crypto"));
  taNetwork_ =
      std::make_unique<crypto::TaNetwork>(simulator_, *engine_, config_.ta);
  net::MediumConfig mediumConfig = config_.medium;
  mediumConfig.transmissionRangeM = config_.transmissionRangeM;
  // The grid's drift bound must cover the fleet's own top speed.
  mediumConfig.maxNodeSpeedMps = std::max(
      mediumConfig.maxNodeSpeedMps, mobility::kmhToMps(config_.maxSpeedKmh));
  medium_ = std::make_unique<net::WirelessMedium>(
      simulator_, seeds_.stream("medium"), mediumConfig);
  backbone_ = std::make_unique<net::Backbone>(simulator_);
  buildWorld();
}

UrbanScenario::~UrbanScenario() = default;

void UrbanScenario::buildWorld() {
  for (std::uint32_t i = 0; i < std::max(config_.taCount, 1u); ++i) {
    taIds_.push_back(taNetwork_->addAuthority());
  }

  // One RSU per intersection.
  for (std::uint32_t zone = 1; zone <= grid_.zoneCount(); ++zone) {
    auto rsu = std::make_unique<RsuEntity>();
    rsu->cluster = common::ClusterId{zone};
    rsu->node = std::make_unique<net::BasicNode>(
        simulator_, *medium_, common::NodeId{kRsuNodeIdBase + zone},
        mobility::LinearMotion::stationary(
            grid_.zoneCenter(common::ClusterId{zone})));
    rsu->node->setLocalAddress(common::Address{kRsuAddressBase + zone});
    rsu->head = std::make_unique<cluster::ClusterHead>(
        simulator_, *rsu->node, *backbone_, grid_, rsu->cluster);
    rsu->detector = std::make_unique<core::RsuDetector>(
        simulator_, *rsu->head, *taNetwork_, *engine_, config_.detector);
    taNetwork_->subscribeRevocations(
        [head = rsu->head.get()](const crypto::RevocationNotice& notice) {
          head->applyRevocation(notice);
        });
    rsus_.push_back(std::move(rsu));
  }

  // Source at the south-west corner, destination at the north-east corner —
  // the longest multi-hop path the grid offers.
  source_ = &addVehicle(0, 0, false, attack::AttackRole::kSingle);
  destination_ = &addVehicle(grid_.intersectionsX() - 1,
                             grid_.intersectionsY() - 1, false,
                             attack::AttackRole::kSingle);

  if (config_.attack != AttackType::kNone) {
    const attack::AttackRole primaryRole =
        config_.attack == AttackType::kCooperative
            ? attack::AttackRole::kPrimary
            : attack::AttackRole::kSingle;
    primaryAttacker_ = &addVehicle(config_.attackerIx, config_.attackerIy,
                                   true, primaryRole);
    const double separation = mobility::distance(
        primaryAttacker_->node->radioPosition(),
        destination_->node->radioPosition());
    BDP_ASSERT_MSG(separation > config_.transmissionRangeM,
                   "attacker must start out of the destination's range");
    if (config_.attack == AttackType::kCooperative) {
      // Teammate at the same intersection (mutual range guaranteed).
      accomplice_ = &addVehicle(config_.attackerIx, config_.attackerIy, true,
                                attack::AttackRole::kAccomplice);
      primaryAttacker_->attacker->setTeammate(accomplice_->address());
    }
  }

  // Background fleet: round-robin over intersections.
  std::uint32_t next = 0;
  while (vehicles_.size() < config_.vehicleCount) {
    const std::uint32_t ix = next % grid_.intersectionsX();
    const std::uint32_t iy =
        (next / grid_.intersectionsX()) % grid_.intersectionsY();
    ++next;
    addVehicle(ix, iy, false, attack::AttackRole::kSingle);
  }
}

VehicleEntity& UrbanScenario::addVehicle(std::uint32_t ix, std::uint32_t iy,
                                         bool isAttacker,
                                         attack::AttackRole role) {
  auto vehicle = std::make_unique<VehicleEntity>();
  vehicle->nodeId = common::NodeId{nextNodeId_++};
  vehicle->node = std::make_unique<net::BasicNode>(
      simulator_, *medium_, vehicle->nodeId,
      mobility::LinearMotion::stationary(grid_.intersectionAt(ix, iy)));
  vehicle->membership = std::make_unique<cluster::MembershipClient>(
      simulator_, *vehicle->node, grid_);

  if (isAttacker) {
    attack::BlackHoleConfig attackConfig;  // no evasion in the urban study
    auto agent = std::make_unique<attack::BlackHoleAgent>(
        simulator_, *vehicle->node, role, attackConfig,
        seeds_.stream("attacker-" + std::to_string(vehicle->nodeId.value())));
    vehicle->attacker = agent.get();
    vehicle->agent = std::move(agent);
  } else {
    vehicle->agent = std::make_unique<aodv::AodvAgent>(
        simulator_, *vehicle->node, config_.aodv);
  }

  enroll(*vehicle);

  vehicle->membership->setJoinedCallback(
      [agent = vehicle->agent.get()](common::ClusterId joined,
                                     common::Address) {
        agent->setCurrentCluster(joined);
      });
  vehicle->membership->setExitCallback(
      [node = vehicle->node.get()] { node->detachFromMedium(); });

  if (!isAttacker) {
    vehicle->verifier = std::make_unique<core::SourceVerifier>(
        simulator_, *vehicle->node, *vehicle->agent, *vehicle->membership,
        *taNetwork_, *engine_, config_.verifier);
  }

  // Turn-by-turn driver. The leg callback re-arms zone tracking (and the
  // leave/join protocol) against the new trajectory.
  const double speed = mobility::kmhToMps(
      rng_.uniformReal(config_.minSpeedKmh, config_.maxSpeedKmh));
  auto driver = std::make_unique<mobility::UrbanMobilityController>(
      simulator_, grid_, speed,
      seeds_.stream("driver-" + std::to_string(vehicle->nodeId.value())),
      [node = vehicle->node.get()](const mobility::LinearMotion& motion) {
        node->setMotion(motion);
      });

  vehicle->membership->start();
  driver->setLegCallback(
      [membership = vehicle->membership.get()] { membership->forceRejoin(); });
  const auto exits = grid_.exitsFrom(ix, iy);
  driver->start(ix, iy, exits[rng_.index(exits.size())]);

  drivers_.push_back(std::move(driver));
  vehicles_.push_back(std::move(vehicle));
  return *vehicles_.back();
}

void UrbanScenario::enroll(VehicleEntity& vehicle) {
  vehicle.ta = taIds_[vehicle.nodeId.value() % taIds_.size()];
  auto enrollment = taNetwork_->enroll(vehicle.ta, vehicle.nodeId);
  BDP_ASSERT(enrollment.ok());
  const crypto::Enrollment& e = enrollment.value();
  vehicle.node->setLocalAddress(e.certificate.pseudonym);
  vehicle.agent->setCredentials({e.certificate, e.privateKey}, engine_.get());
  if (vehicle.isAttacker()) {
    attackerPseudonyms_[e.certificate.pseudonym] = vehicle.nodeId;
  }
}

void UrbanScenario::runFor(sim::Duration span) {
  simulator_.run(simulator_.now() + span);
}

bool UrbanScenario::runUntil(const std::function<bool()>& predicate,
                             sim::Duration cap) {
  const sim::TimePoint deadline = simulator_.now() + cap;
  while (!predicate()) {
    if (simulator_.now() > deadline) break;
    if (!simulator_.step()) break;
  }
  return predicate();
}

core::VerificationReport UrbanScenario::runVerification() {
  runFor(sim::Duration::milliseconds(500));
  core::VerificationReport report;
  bool done = false;
  source_->verifier->establishVerifiedRoute(
      destination_->address(), [&](const core::VerificationReport& r) {
        report = r;
        done = true;
      });
  const bool finished = runUntil([&] { return done; }, config_.trialTimeout);
  BDP_ASSERT_MSG(finished, "urban verification did not complete");
  runFor(sim::Duration::seconds(2));
  return report;
}

DetectionSummary UrbanScenario::detectionSummary() const {
  DetectionSummary summary;
  for (const auto& rsu : rsus_) {
    for (const core::SessionRecord& record :
         rsu->detector->completedSessions()) {
      summary.sessions.push_back(record);
      const bool confirmed =
          record.verdict == core::Verdict::kSingleBlackHole ||
          record.verdict == core::Verdict::kCooperativeBlackHole;
      if (confirmed) {
        summary.anyConfirmed = true;
        summary.verdict = record.verdict;
        if (attackerPseudonyms_.contains(record.suspect)) {
          summary.confirmedOnAttacker = true;
        } else {
          summary.falsePositive = true;
        }
      }
      if (summary.packetsUsed == 0) summary.packetsUsed = record.packetsUsed;
    }
  }
  return summary;
}

}  // namespace blackdp::scenario
