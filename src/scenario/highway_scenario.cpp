#include "scenario/highway_scenario.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"

namespace blackdp::scenario {

std::string_view toString(AttackType type) {
  switch (type) {
    case AttackType::kNone: return "none";
    case AttackType::kSingle: return "single";
    case AttackType::kCooperative: return "cooperative";
    case AttackType::kSelective: return "selective";
  }
  return "?";
}

namespace {
constexpr std::uint32_t kRsuNodeIdBase = 100'000;
constexpr std::uint64_t kRsuAddressBase = 100;
}  // namespace

HighwayScenario::HighwayScenario(ScenarioConfig config)
    : config_{config},
      seeds_{config.seed},
      rng_{seeds_.stream("placement")},
      highway_{config.highwayLengthM, config.highwayWidthM,
               config.clusterLengthM} {
  engine_ = std::make_unique<crypto::CryptoEngine>(seeds_.deriveSeed("crypto"));
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
  if (!config_.faults.empty()) {
    faultInjector_ = std::make_unique<fault::FaultInjector>(
        simulator_, seeds_.stream("faults"), config_.faults);
    faultInjector_->install(*medium_, *backbone_);
  }
  buildWorld();
}

HighwayScenario::~HighwayScenario() = default;

void HighwayScenario::buildWorld() {
  // --- trusted authorities ---
  const std::uint32_t taCount = std::max(config_.taCount, 1u);
  for (std::uint32_t i = 0; i < taCount; ++i) {
    taIds_.push_back(taNetwork_->addAuthority());
  }

  // --- one RSU / cluster head / detector per segment ---
  for (std::uint32_t c = 1; c <= highway_.clusterCount(); ++c) {
    auto rsu = std::make_unique<RsuEntity>();
    rsu->cluster = common::ClusterId{c};
    rsu->node = std::make_unique<net::BasicNode>(
        simulator_, *medium_, common::NodeId{kRsuNodeIdBase + c},
        mobility::LinearMotion::stationary(
            highway_.clusterCenter(rsu->cluster)));
    rsu->node->setLocalAddress(common::Address{kRsuAddressBase + c});
    rsu->head = std::make_unique<cluster::ClusterHead>(
        simulator_, *rsu->node, *backbone_, highway_, rsu->cluster);
    if (config_.chFailover) {
      // Advertise the adjacent CHs (next in travel direction first) so
      // members can re-home when this RSU dies.
      std::vector<cluster::NeighborChInfo> neighbors;
      if (c + 1 <= highway_.clusterCount()) {
        neighbors.push_back({common::ClusterId{c + 1},
                             common::Address{kRsuAddressBase + c + 1}});
      }
      if (c >= 2) {
        neighbors.push_back({common::ClusterId{c - 1},
                             common::Address{kRsuAddressBase + c - 1}});
      }
      rsu->head->setNeighborAnnouncement(std::move(neighbors));
    }
    if (faultInjector_) {
      faultInjector_->registerRsu(rsu->cluster, *rsu->head);
    }
    // Each detector gets its own derived probe stream (jitter + hardened
    // destination draws). deriveSeed is pure, so this never perturbs any
    // other stream — with hardening off the stream is simply never drawn.
    core::DetectorConfig detectorConfig = config_.detector;
    if (detectorConfig.probeSeed == 0) {
      detectorConfig.probeSeed =
          seeds_.deriveSeed("detector-" + std::to_string(c));
    }
    rsu->detector = std::make_unique<core::RsuDetector>(
        simulator_, *rsu->head, *taNetwork_, *engine_, detectorConfig);
    // Revocation notices from the TA reach every CH (blacklist + member
    // announcement + JREP piggyback for newly joined vehicles).
    taNetwork_->subscribeRevocations(
        [head = rsu->head.get()](const crypto::RevocationNotice& notice) {
          head->applyRevocation(notice);
        });
    rsus_.push_back(std::move(rsu));
  }

  const std::uint32_t clusterCount = highway_.clusterCount();
  const double clusterLen = highway_.clusterLength();

  // --- placement (paper §IV-A) ---
  const common::ClusterId attackerCluster =
      config_.attackerCluster.value_or(common::ClusterId{static_cast<
          std::uint32_t>(rng_.uniformInt(1, clusterCount))});

  const auto randomY = [this] {
    return rng_.uniformReal(2.0, highway_.width() - 2.0);
  };
  const auto randomSpeed = [this] {
    return mobility::kmhToMps(
        rng_.uniformReal(config_.minSpeedKmh, config_.maxSpeedKmh));
  };

  // Source car at the beginning of the highway.
  const mobility::Position sourcePos{rng_.uniformReal(50.0, clusterLen * 0.4),
                                     randomY()};
  source_ = &addVehicle(sourcePos, randomSpeed(),
                        mobility::Direction::kEastbound, false,
                        attack::AttackRole::kSingle, {});

  // Attacker(s): inside the chosen cluster; cooperative pairs within range
  // of each other.
  if (config_.attack != AttackType::kNone) {
    const double base = highway_.clusterBegin(attackerCluster);
    const mobility::Position primaryPos{
        base + rng_.uniformReal(0.45, 0.6) * clusterLen, randomY()};
    const attack::AttackRole primaryRole =
        config_.attack == AttackType::kCooperative
            ? attack::AttackRole::kPrimary
            : attack::AttackRole::kSingle;
    primaryAttacker_ =
        &addVehicle(primaryPos, randomSpeed(), mobility::Direction::kEastbound,
                    true, primaryRole,
                    makeAttackConfig(attackerCluster, primaryRole));
    if (config_.attack == AttackType::kCooperative) {
      // Ahead of the primary, still inside the segment: within range of the
      // primary (cooperation), of this segment's RSU, and of the next
      // segment's RSU (which may inherit the detection if the primary
      // flees).
      const mobility::Position accomplicePos{
          std::min(primaryPos.x + rng_.uniformReal(150.0, 300.0),
                   highway_.clusterEnd(attackerCluster) - 10.0),
          randomY()};
      accomplice_ = &addVehicle(
          accomplicePos, randomSpeed(), mobility::Direction::kEastbound, true,
          attack::AttackRole::kAccomplice,
          makeAttackConfig(attackerCluster, attack::AttackRole::kAccomplice));
      primaryAttacker_->attacker->setTeammate(accomplice_->address());
    }
  }

  // Destination: far enough from the attacker that it can never be in the
  // attacker's transmission range during the trial.
  std::uint32_t destCluster;
  const std::uint32_t ac = attackerCluster.value();
  if (config_.attack == AttackType::kNone) {
    destCluster = std::min(5u, clusterCount);
  } else if (ac + 3 <= clusterCount) {
    destCluster = static_cast<std::uint32_t>(
        rng_.uniformInt(ac + 3, clusterCount));
  } else {
    BDP_ASSERT_MSG(ac >= 4, "highway too short to separate attacker and "
                            "destination");
    destCluster = static_cast<std::uint32_t>(rng_.uniformInt(1, ac - 3));
  }
  mobility::Position destPos{};
  for (int attempt = 0; attempt < 64; ++attempt) {
    destPos =
        mobility::Position{highway_.clusterBegin(common::ClusterId{destCluster}) +
                               rng_.uniformReal(0.1, 0.9) * clusterLen,
                           randomY()};
    if (primaryAttacker_ == nullptr ||
        mobility::distance(destPos,
                           primaryAttacker_->node->radioPosition()) >
            config_.transmissionRangeM + 500.0) {
      break;
    }
  }
  destination_ = &addVehicle(destPos, randomSpeed(),
                             mobility::Direction::kEastbound, false,
                             attack::AttackRole::kSingle, {});

  // Background fleet: vehicles are "randomly distributed within the
  // clusters" (§IV-A) — round-robin over segments, uniform inside each, so
  // the whole highway stays covered and multi-hop connectivity holds.
  std::uint32_t nextCluster = 0;
  while (vehicles_.size() < config_.vehicleCount) {
    const common::ClusterId cluster{(nextCluster++ % clusterCount) + 1};
    const mobility::Position pos{
        highway_.clusterBegin(cluster) +
            rng_.uniformReal(0.02, 0.98) * clusterLen,
        randomY()};
    const auto direction = rng_.bernoulli(0.5)
                               ? mobility::Direction::kEastbound
                               : mobility::Direction::kWestbound;
    addVehicle(pos, randomSpeed(), direction, false,
               attack::AttackRole::kSingle, {});
  }

  // Accusation flooders ride on top of the fleet (spawned last so default
  // configurations keep the placement stream's draw sequence untouched).
  for (std::uint32_t i = 0; i < config_.accusationFlooders; ++i) {
    spawnAccusationFlooder(attackerCluster, config_.flooder);
  }
}

attack::BlackHoleConfig HighwayScenario::makeAttackConfig(
    common::ClusterId cluster, attack::AttackRole role) {
  (void)role;
  attack::BlackHoleConfig attackConfig;
  attackConfig.sendFakeHelloReply = config_.attackerFakesHelloReply;

  // Evasion is a per-trial behavioural choice (the paper's cluster 8–10
  // reasons: acted legitimately, renewed its certificate, or fled). The
  // per-cluster probabilities pick the trial's behaviour once; the chosen
  // behaviour then applies at every detection checkpoint.
  const EvasionPolicy& policy = config_.evasion;
  const std::uint32_t c = cluster.value();
  if (c >= policy.firstEvasiveCluster) {
    const auto k = static_cast<double>(c - policy.firstEvasiveCluster);
    if (rng_.bernoulli(policy.actLegitBase + k * policy.actLegitStep)) {
      attackConfig.actLegitProbability = 1.0;
    } else if (rng_.bernoulli(policy.renewBase + k * policy.renewStep)) {
      attackConfig.renewProbability = 1.0;
    } else if (c == highway_.clusterCount() &&
               rng_.bernoulli(policy.fleeOffHighway)) {
      attackConfig.fleeMode = attack::FleeMode::kBeforeReply;
    }
  }
  if (config_.forcedFleeMode) {
    attackConfig.fleeMode =
        static_cast<attack::FleeMode>(*config_.forcedFleeMode);
  }
  return attackConfig;
}

VehicleEntity& HighwayScenario::addVehicle(
    mobility::Position position, double speedMps,
    mobility::Direction direction, bool isAttacker, attack::AttackRole role,
    const attack::BlackHoleConfig& attackConfig) {
  auto vehicle = std::make_unique<VehicleEntity>();
  vehicle->nodeId = common::NodeId{nextNodeId_++};
  vehicle->node = std::make_unique<net::BasicNode>(
      simulator_, *medium_, vehicle->nodeId,
      mobility::LinearMotion{position, speedMps, direction,
                             simulator_.now()});
  vehicle->membership = std::make_unique<cluster::MembershipClient>(
      simulator_, *vehicle->node, highway_);

  if (isAttacker) {
    sim::Rng attackerRng = seeds_.stream(
        "attacker-" + std::to_string(vehicle->nodeId.value()));
    if (config_.attack == AttackType::kSelective) {
      auto agent = std::make_unique<attack::SelectiveBlackHoleAgent>(
          simulator_, *vehicle->node, role, attackConfig,
          std::move(attackerRng));
      vehicle->selective = agent.get();
      vehicle->attacker = agent.get();
      vehicle->agent = std::move(agent);
    } else {
      auto agent = std::make_unique<attack::BlackHoleAgent>(
          simulator_, *vehicle->node, role, attackConfig,
          std::move(attackerRng));
      vehicle->attacker = agent.get();
      vehicle->agent = std::move(agent);
    }
  } else {
    vehicle->agent = std::make_unique<aodv::AodvAgent>(
        simulator_, *vehicle->node, config_.aodv);
  }

  enroll(*vehicle);

  // Keep the agent's cluster stamp current; drop off the air on exit.
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
  } else {
    wireAttackerCallbacks(*vehicle);
  }

  vehicle->agent->startHello();  // no-op unless config enables beaconing
  vehicle->membership->start();
  vehicles_.push_back(std::move(vehicle));
  return *vehicles_.back();
}

void HighwayScenario::enroll(VehicleEntity& vehicle) {
  vehicle.ta = taIds_[vehicle.nodeId.value() % taIds_.size()];
  auto enrollment = taNetwork_->enroll(vehicle.ta, vehicle.nodeId);
  BDP_ASSERT(enrollment.ok());
  const crypto::Enrollment& e = enrollment.value();
  vehicle.node->setLocalAddress(e.certificate.pseudonym);
  vehicle.agent->setCredentials({e.certificate, e.privateKey}, engine_.get());
  if (vehicle.isAttacker() || vehicle.attacker != nullptr) {
    attackerPseudonyms_[e.certificate.pseudonym] = vehicle.nodeId;
  }
}

void HighwayScenario::wireAttackerCallbacks(VehicleEntity& vehicle) {
  // Fleeing = a short hop just across the segment boundary: the attacker
  // leaves its cluster (leave notice + join at the neighbour CH) but stays
  // close enough that in-flight replies still reach the old CH. From the
  // last cluster the hop leaves the highway entirely.
  vehicle.attacker->setFleeCallback([this, v = &vehicle] {
    const mobility::Position pos = v->node->radioPosition();
    const auto cluster = highway_.clusterAt(pos.x);
    double newX = 0.0;
    if (v->node->motion().direction() == mobility::Direction::kEastbound) {
      newX = (cluster ? highway_.clusterEnd(*cluster) : highway_.length()) +
             120.0;
    } else {
      newX = (cluster ? highway_.clusterBegin(*cluster) : 0.0) - 120.0;
    }
    relocateVehicle(*v, newX);
  });
  vehicle.attacker->setRenewCallback([this, v = &vehicle]() -> bool {
    auto renewed = taNetwork_->renew(v->ta, v->nodeId);
    if (!renewed.ok()) return false;  // renewal paused: isolation worked
    const crypto::Enrollment& e = renewed.value();
    v->node->setLocalAddress(e.certificate.pseudonym);
    v->agent->setCredentials({e.certificate, e.privateKey}, engine_.get());
    attackerPseudonyms_[e.certificate.pseudonym] = v->nodeId;
    v->membership->forceRejoin();
    return true;
  });
}

void HighwayScenario::relocateVehicle(VehicleEntity& vehicle, double newX) {
  const mobility::LinearMotion old = vehicle.node->motion();
  const double y = vehicle.node->radioPosition().y;
  vehicle.node->setMotion(mobility::LinearMotion{
      mobility::Position{newX, y}, old.speedMps(), old.direction(),
      simulator_.now()});
  vehicle.membership->forceRejoin();
}

VehicleEntity& HighwayScenario::spawnGrayHole(
    common::ClusterId cluster, attack::GrayHoleConfig grayConfig) {
  auto vehicle = std::make_unique<VehicleEntity>();
  vehicle->nodeId = common::NodeId{nextNodeId_++};
  const mobility::Position position{
      highway_.clusterBegin(cluster) +
          rng_.uniformReal(0.3, 0.7) * highway_.clusterLength(),
      rng_.uniformReal(2.0, highway_.width() - 2.0)};
  const double speed = mobility::kmhToMps(
      rng_.uniformReal(config_.minSpeedKmh, config_.maxSpeedKmh));
  vehicle->node = std::make_unique<net::BasicNode>(
      simulator_, *medium_, vehicle->nodeId,
      mobility::LinearMotion{position, speed,
                             mobility::Direction::kEastbound,
                             simulator_.now()});
  vehicle->membership = std::make_unique<cluster::MembershipClient>(
      simulator_, *vehicle->node, highway_);

  auto agent = std::make_unique<attack::GrayHoleAgent>(
      simulator_, *vehicle->node, grayConfig,
      seeds_.stream("grayhole-" + std::to_string(vehicle->nodeId.value())));
  vehicle->grayHole = agent.get();
  vehicle->agent = std::move(agent);

  enroll(*vehicle);
  vehicle->membership->setJoinedCallback(
      [agentPtr = vehicle->agent.get()](common::ClusterId joined,
                                        common::Address) {
        agentPtr->setCurrentCluster(joined);
      });
  vehicle->membership->setExitCallback(
      [node = vehicle->node.get()] { node->detachFromMedium(); });
  vehicle->membership->start();
  vehicles_.push_back(std::move(vehicle));
  return *vehicles_.back();
}

VehicleEntity& HighwayScenario::spawnAccusationFlooder(
    common::ClusterId cluster, attack::FlooderConfig flooderConfig) {
  auto vehicle = std::make_unique<VehicleEntity>();
  vehicle->nodeId = common::NodeId{nextNodeId_++};
  const mobility::Position position{
      highway_.clusterBegin(cluster) +
          rng_.uniformReal(0.3, 0.7) * highway_.clusterLength(),
      rng_.uniformReal(2.0, highway_.width() - 2.0)};
  const double speed = mobility::kmhToMps(
      rng_.uniformReal(config_.minSpeedKmh, config_.maxSpeedKmh));
  vehicle->node = std::make_unique<net::BasicNode>(
      simulator_, *medium_, vehicle->nodeId,
      mobility::LinearMotion{position, speed,
                             mobility::Direction::kEastbound,
                             simulator_.now()});
  vehicle->membership = std::make_unique<cluster::MembershipClient>(
      simulator_, *vehicle->node, highway_);

  auto agent = std::make_unique<attack::AccusationFlooderAgent>(
      simulator_, *vehicle->node, *vehicle->membership, *engine_,
      flooderConfig,
      seeds_.stream("flooder-" + std::to_string(vehicle->nodeId.value())));
  vehicle->flooder = agent.get();
  vehicle->agent = std::move(agent);

  enroll(*vehicle);
  vehicle->membership->setJoinedCallback(
      [agentPtr = vehicle->agent.get()](common::ClusterId joined,
                                        common::Address) {
        agentPtr->setCurrentCluster(joined);
      });
  vehicle->membership->setExitCallback(
      [node = vehicle->node.get()] { node->detachFromMedium(); });
  vehicle->membership->start();
  vehicles_.push_back(std::move(vehicle));
  return *vehicles_.back();
}

std::size_t HighwayScenario::honestRevocations() const {
  std::size_t count = 0;
  for (const crypto::RevocationNotice& notice : taNetwork_->revocations()) {
    if (!isAttackerPseudonym(notice.pseudonym)) ++count;
  }
  return count;
}

HighwayScenario::DataTransferResult HighwayScenario::sendDataBurst(
    std::uint32_t count, sim::Duration gap) {
  DataTransferResult result;
  const std::uint64_t deliveredBefore =
      destination_->agent->stats().dataDelivered;
  const common::Address dest = destination_->address();
  for (std::uint32_t i = 0; i < count; ++i) {
    simulator_.schedule(gap * static_cast<std::int64_t>(i),
                        [this, dest, &result] {
                          ++result.sent;
                          if (source_->agent->sendData(dest)) {
                            ++result.routable;
                            return;
                          }
                          // Route broke (mobility, RERR): re-discover and
                          // send this packet late, as a real application
                          // stack would.
                          source_->agent->findRoute(
                              dest, [this, dest, &result](bool ok) {
                                if (ok && source_->agent->sendData(dest)) {
                                  ++result.routable;
                                }
                              });
                        });
  }
  runFor(gap * static_cast<std::int64_t>(count) + sim::Duration::seconds(2));
  result.delivered = static_cast<std::uint32_t>(
      destination_->agent->stats().dataDelivered - deliveredBefore);
  return result;
}

RsuEntity& HighwayScenario::rsu(common::ClusterId cluster) {
  BDP_ASSERT(cluster.value() >= 1 && cluster.value() <= rsus_.size());
  return *rsus_[cluster.value() - 1];
}

bool HighwayScenario::isAttackerPseudonym(common::Address pseudonym) const {
  return attackerPseudonyms_.contains(pseudonym);
}

void HighwayScenario::runFor(sim::Duration span) {
  simulator_.run(simulator_.now() + span);
}

bool HighwayScenario::runUntil(const std::function<bool()>& predicate,
                               sim::Duration cap) {
  const sim::TimePoint deadline = simulator_.now() + cap;
  while (!predicate()) {
    if (simulator_.now() > deadline) break;
    if (!simulator_.step()) break;
  }
  return predicate();
}

core::VerificationReport HighwayScenario::runVerification(int rounds) {
  BDP_ASSERT(rounds >= 1);
  // Let the fleet join its clusters first.
  runFor(sim::Duration::milliseconds(500));

  core::VerificationReport report;
  for (int round = 0; round < rounds; ++round) {
    bool done = false;
    source_->verifier->establishVerifiedRoute(
        destination_->address(), [&](const core::VerificationReport& r) {
          report = r;
          done = true;
        });
    const bool finished = runUntil([&] { return done; }, config_.trialTimeout);
    BDP_ASSERT_MSG(finished, "verification did not complete within the trial "
                             "timeout");
  }
  // Allow isolation / revocation propagation to finish.
  runFor(sim::Duration::seconds(2));
  return report;
}

DetectionSummary HighwayScenario::detectionSummary() const {
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
        if (isAttackerPseudonym(record.suspect)) {
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

void HighwayScenario::injectDetectionRequest(VehicleEntity& reporter,
                                             common::Address suspect,
                                             common::ClusterId suspectCluster) {
  const auto chAddress = reporter.membership->clusterHeadAddress();
  const auto myCluster = reporter.membership->currentCluster();
  BDP_ASSERT_MSG(chAddress && myCluster,
                 "reporter has not joined a cluster yet");
  auto dreq = net::makeMutablePayload<core::DetectionRequest>();
  dreq->reporter = reporter.address();
  dreq->reporterCluster = *myCluster;
  dreq->suspect = suspect;
  dreq->suspectCluster = suspectCluster;
  BDP_ASSERT(reporter.agent->credentials().has_value());
  dreq->envelope = core::makeEnvelope(dreq->canonicalBytes(),
                                      *reporter.agent->credentials(), *engine_);
  reporter.node->sendTo(*chAddress, std::move(dreq));
}

VehicleEntity* HighwayScenario::findHonestVehicleIn(common::ClusterId cluster) {
  for (const auto& vehicle : vehicles_) {
    if (vehicle->isAttacker()) continue;
    if (vehicle.get() == source_ || vehicle.get() == destination_) continue;
    if (vehicle->membership->currentCluster() == cluster) {
      return vehicle.get();
    }
  }
  return nullptr;
}

}  // namespace blackdp::scenario
