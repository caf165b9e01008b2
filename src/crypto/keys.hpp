// Simulated asymmetric signatures.
//
// The paper uses ECDSA per IEEE 1609.2. Inside the simulation only two
// properties of ECDSA matter: (1) a signature verifies against the matching
// public key, and (2) nobody can produce a valid signature without the
// private key. We model this with HMAC-SHA-256 under a per-key secret seed.
// The CryptoEngine owns the key-id → key mapping and stands in for "the
// math": verification resolves the key through the engine, while signing
// requires possession of the PrivateKey object. No modelled adversary can
// reach another node's PrivateKey, so unforgeability holds exactly as it
// would with ECDSA. Signing and verifying take no simulated time: the
// simulator does not model ECDSA's latency (ROADMAP lists the gap).
//
// Neither side keeps the raw seed: a PrivateKey and the engine's registry
// both hold the seed's HMAC key schedule (HmacKey, its ipad/opad blocks
// hashed once at key generation), so each sign or verify is two SHA-256
// block compressions for a short message.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "sim/rng.hpp"

namespace blackdp::crypto {

/// Public half of a key pair: an opaque fingerprint.
struct PublicKey {
  std::uint64_t keyId{0};

  friend bool operator==(PublicKey, PublicKey) = default;
};

/// Private half of a key pair. Only its owner's code path holds it.
class PrivateKey {
 public:
  PrivateKey() = default;

  [[nodiscard]] std::uint64_t keyId() const { return keyId_; }

 private:
  friend class CryptoEngine;
  std::uint64_t keyId_{0};
  HmacKey key_{};
};

struct KeyPair {
  PublicKey pub;
  PrivateKey priv;
};

/// A signature: the signing key's fingerprint plus the MAC over the message.
struct Signature {
  std::uint64_t keyId{0};
  Digest mac{};

  friend bool operator==(const Signature&, const Signature&) = default;
};

/// Per-simulation signature engine; see the file comment for the model.
class CryptoEngine {
 public:
  explicit CryptoEngine(std::uint64_t seed) : rng_{seed} {}

  CryptoEngine(const CryptoEngine&) = delete;
  CryptoEngine& operator=(const CryptoEngine&) = delete;

  /// Generates a fresh key pair and registers it with the engine.
  [[nodiscard]] KeyPair generateKeyPair();

  /// Signs `message` with `key`. Deterministic given key and message.
  [[nodiscard]] Signature sign(const PrivateKey& key,
                               std::span<const std::uint8_t> message) const;

  /// True iff `sig` is a valid signature of `message` under `pub`.
  [[nodiscard]] bool verify(const PublicKey& pub,
                            std::span<const std::uint8_t> message,
                            const Signature& sig) const;

  [[nodiscard]] std::size_t registeredKeys() const { return keys_.size(); }

 private:
  sim::Rng rng_;
  std::unordered_map<std::uint64_t, HmacKey> keys_;
};

}  // namespace blackdp::crypto
