// Secure-packet helpers (paper §III-B1).
//
// A "secure packet" is {message, certificate, d_sign(message, K⁻)}. Signing
// hashes the canonical message bytes and signs with the sender's private
// key; verification checks (1) the certificate against the TA (issuer
// signature, expiry), (2) that the certificate's pseudonym matches the
// claimed sender, (3) the payload signature under the certified key, and
// optionally (4) local revocation state.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "aodv/agent.hpp"
#include "crypto/revocation_store.hpp"
#include "crypto/trusted_authority.hpp"

namespace blackdp::core {

/// Signs `body` with the node's credentials.
[[nodiscard]] aodv::SecureEnvelope makeEnvelope(
    std::span<const std::uint8_t> body, const aodv::Credentials& credentials,
    const crypto::CryptoEngine& engine);

struct EnvelopeCheck {
  bool ok{false};
  std::string reason;  ///< failure category when !ok ("no-envelope", ...)
};

/// Full secure-packet verification.
[[nodiscard]] EnvelopeCheck verifyEnvelope(
    std::span<const std::uint8_t> body,
    const std::optional<aodv::SecureEnvelope>& envelope,
    common::Address expectedPseudonym, const crypto::TaNetwork& taNetwork,
    const crypto::CryptoEngine& engine, sim::TimePoint now,
    const crypto::RevocationStore* revocations = nullptr);

}  // namespace blackdp::core
