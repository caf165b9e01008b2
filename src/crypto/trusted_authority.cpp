#include "crypto/trusted_authority.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace blackdp::crypto {

std::optional<Certificate> TrustedAuthority::currentCertificate(
    common::NodeId node) const {
  if (const auto it = latestCert_.find(node); it != latestCert_.end()) {
    return it->second;
  }
  return std::nullopt;
}

TaNetwork::TaNetwork(sim::Simulator& simulator, CryptoEngine& engine,
                     TaConfig config)
    : simulator_{simulator}, engine_{engine}, config_{config} {}

common::TaId TaNetwork::addAuthority() {
  const common::TaId id{nextTaId_++};
  authorities_.push_back(std::unique_ptr<TrustedAuthority>(
      new TrustedAuthority{id, engine_.generateKeyPair()}));
  return id;
}

const TrustedAuthority& TaNetwork::authority(common::TaId id) const {
  for (const auto& ta : authorities_) {
    if (ta->id() == id) return *ta;
  }
  throw std::out_of_range("TaNetwork::authority: unknown TA id");
}

TrustedAuthority* TaNetwork::findAuthority(common::TaId id) {
  for (auto& ta : authorities_) {
    if (ta->id() == id) return ta.get();
  }
  return nullptr;
}

common::Result<Enrollment> TaNetwork::issue(TrustedAuthority& ta,
                                            common::NodeId node) {
  const common::Address pseudonym{nextPseudonym_++};
  const KeyPair keys = engine_.generateKeyPair();

  Certificate cert;
  cert.pseudonym = pseudonym;
  cert.subjectKey = keys.pub;
  cert.serial = common::CertSerial{nextSerial_++};
  cert.issuedAt = simulator_.now();
  cert.expiresAt = simulator_.now() + config_.certificateLifetime;
  cert.issuer = ta.id();
  cert.issuerSignature = engine_.sign(ta.keys_.priv, cert.tbsBytes());

  ta.latestCert_[node] = cert;
  ta.pseudonymOwner_[pseudonym] = node;
  return Enrollment{cert, keys.priv};
}

common::Result<Enrollment> TaNetwork::enroll(common::TaId taId,
                                             common::NodeId node) {
  TrustedAuthority* ta = findAuthority(taId);
  if (ta == nullptr) return common::Error{"unknown-ta", "no such TA"};
  return issue(*ta, node);
}

common::Result<Enrollment> TaNetwork::renew(common::TaId taId,
                                            common::NodeId node) {
  TrustedAuthority* ta = findAuthority(taId);
  if (ta == nullptr) return common::Error{"unknown-ta", "no such TA"};
  if (pausedNodes_.contains(node)) {
    return common::Error{"renewal-paused",
                         "node was reported for misbehaviour; renewal paused"};
  }
  return issue(*ta, node);
}

std::optional<RevocationNotice> TaNetwork::reportMisbehaviour(
    common::Address pseudonym) {
  // The report may land at any TA; TAs search cooperatively for the owner.
  for (auto& ta : authorities_) {
    const auto ownerIt = ta->pseudonymOwner_.find(pseudonym);
    if (ownerIt == ta->pseudonymOwner_.end()) continue;

    const common::NodeId node = ownerIt->second;
    // "Inform other trusted authority nodes to pause attacker renewal":
    // the paused set is shared TA-network state, synchronised here.
    pausedNodes_.insert(node);

    const auto certIt = ta->latestCert_.find(node);
    BDP_ASSERT_MSG(certIt != ta->latestCert_.end(),
                   "pseudonym owner without a certificate");
    const Certificate& cert = certIt->second;
    const RevocationNotice notice{cert.pseudonym, cert.serial, cert.expiresAt};
    revocations_.push_back(notice);

    // Push to CH subscribers after the backbone propagation delay.
    for (const auto& subscriber : subscribers_) {
      simulator_.schedule(config_.propagationDelay,
                          [subscriber, notice] { subscriber(notice); });
    }
    return notice;
  }
  return std::nullopt;  // unknown pseudonym (e.g. attacker already renewed)
}

bool TaNetwork::validateCertificate(const Certificate& cert,
                                    sim::TimePoint now) const {
  if (cert.isExpired(now)) return false;
  for (const auto& ta : authorities_) {
    if (ta->id() != cert.issuer) continue;
    return engine_.verify(ta->publicKey(), cert.tbsBytes(),
                          cert.issuerSignature);
  }
  return false;  // unknown issuer
}

void TaNetwork::subscribeRevocations(RevocationSubscriber subscriber) {
  BDP_ASSERT(subscriber != nullptr);
  subscribers_.push_back(std::move(subscriber));
}

void TaNetwork::saveState(common::ByteWriter& w) const {
  std::vector<common::NodeId> paused(pausedNodes_.begin(), pausedNodes_.end());
  std::sort(paused.begin(), paused.end());
  w.writeU32(static_cast<std::uint32_t>(paused.size()));
  for (const common::NodeId node : paused) w.writeU32(node.value());

  w.writeU32(static_cast<std::uint32_t>(revocations_.size()));
  for (const RevocationNotice& n : revocations_) {
    w.writeU64(n.pseudonym.value());
    w.writeU64(n.serial.value());
    w.writeI64(n.certExpiry.us());
  }

  w.writeU64(nextPseudonym_);
  w.writeU64(nextSerial_);
}

void TaNetwork::restoreState(common::ByteReader& r) {
  pausedNodes_.clear();
  const std::uint32_t pausedCount = r.readU32();
  for (std::uint32_t i = 0; i < pausedCount; ++i) {
    pausedNodes_.insert(common::NodeId{r.readU32()});
  }

  revocations_.clear();
  const std::uint32_t revCount = r.readU32();
  for (std::uint32_t i = 0; i < revCount; ++i) {
    RevocationNotice n;
    n.pseudonym = common::Address{r.readU64()};
    n.serial = common::CertSerial{r.readU64()};
    n.certExpiry = sim::TimePoint::fromUs(r.readI64());
    revocations_.push_back(n);
  }

  nextPseudonym_ = r.readU64();
  nextSerial_ = r.readU64();
}

}  // namespace blackdp::crypto
