#include "core/secure.hpp"

namespace blackdp::core {

aodv::SecureEnvelope makeEnvelope(std::span<const std::uint8_t> body,
                                  const aodv::Credentials& credentials,
                                  const crypto::CryptoEngine& engine) {
  return aodv::SecureEnvelope{
      credentials.certificate,
      engine.sign(credentials.privateKey, body)};
}

EnvelopeCheck verifyEnvelope(
    std::span<const std::uint8_t> body,
    const std::optional<aodv::SecureEnvelope>& envelope,
    common::Address expectedPseudonym, const crypto::TaNetwork& taNetwork,
    const crypto::CryptoEngine& engine, sim::TimePoint now,
    const crypto::RevocationStore* revocations) {
  if (!envelope) return {false, "no-envelope"};
  const crypto::Certificate& cert = envelope->certificate;
  if (!taNetwork.validateCertificate(cert, now)) {
    return {false, "bad-certificate"};
  }
  if (cert.pseudonym != expectedPseudonym) {
    return {false, "pseudonym-mismatch"};
  }
  if (revocations != nullptr && revocations->isRevokedSerial(cert.serial)) {
    return {false, "revoked"};
  }
  if (!engine.verify(cert.subjectKey, body, envelope->signature)) {
    return {false, "bad-signature"};
  }
  return {true, {}};
}

}  // namespace blackdp::core
