// Pseudonymous certificates (IEEE 1609.2 style).
//
// A certificate binds a temporary pseudonym (the node's radio address) to a
// public key and carries the issuing Trusted Authority's signature. Vehicles
// attach their certificate to every secure packet; receivers validate the TA
// signature, the expiry, and the revocation status.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "crypto/keys.hpp"
#include "sim/time.hpp"

namespace blackdp::crypto {

struct Certificate {
  common::Address pseudonym{};    ///< subject temporary id (radio address)
  PublicKey subjectKey{};         ///< subject's public key
  common::CertSerial serial{};    ///< unique per issued certificate
  sim::TimePoint issuedAt{};
  sim::TimePoint expiresAt{};
  common::TaId issuer{};
  Signature issuerSignature{};    ///< TA signature over tbsBytes()

  /// Length of tbsBytes(): "cert-v1" (u32 length + 7 bytes), pseudonym,
  /// key id, serial, issuedAt, expiresAt (u64 each) and issuer (u32).
  static constexpr std::size_t kTbsSize = 4 + 7 + 5 * 8 + 4;
  using TbsBytes = std::array<std::uint8_t, kTbsSize>;

  /// Canonical "to be signed" encoding (everything except the signature),
  /// the same bytes common::ByteWriter would produce, built on the stack:
  /// every received secure packet checks one.
  [[nodiscard]] TbsBytes tbsBytes() const;

  [[nodiscard]] bool isExpired(sim::TimePoint now) const {
    return now >= expiresAt;
  }

  friend bool operator==(const Certificate&, const Certificate&) = default;
};

/// A revocation notice as distributed by the TA to cluster heads: latest
/// pseudonym, certificate serial, and the certificate's natural expiry (the
/// notice is stored until then and purged afterwards).
struct RevocationNotice {
  common::Address pseudonym{};
  common::CertSerial serial{};
  sim::TimePoint certExpiry{};

  friend bool operator==(const RevocationNotice&, const RevocationNotice&) = default;
};

}  // namespace blackdp::crypto
