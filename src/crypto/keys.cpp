#include "crypto/keys.hpp"

#include "common/assert.hpp"

namespace blackdp::crypto {

KeyPair CryptoEngine::generateKeyPair() {
  std::array<std::uint8_t, 32> seed;
  for (std::size_t i = 0; i < seed.size(); i += 8) {
    const std::uint64_t word = rng_.nextU64();
    for (std::size_t j = 0; j < 8; ++j) {
      seed[i + j] = static_cast<std::uint8_t>((word >> (8 * j)) & 0xff);
    }
  }

  // The key id is a fingerprint of the seed; collisions are astronomically
  // unlikely but would corrupt the registry, so they are checked.
  const Digest fp = Sha256::hash(seed);
  std::uint64_t keyId = 0;
  for (std::size_t i = 0; i < 8; ++i) keyId = (keyId << 8) | fp[i];
  BDP_ASSERT_MSG(!keys_.contains(keyId), "key-id collision");

  PrivateKey priv;
  priv.keyId_ = keyId;
  priv.key_ = HmacKey{seed};
  keys_.emplace(keyId, priv.key_);
  return KeyPair{PublicKey{keyId}, priv};
}

Signature CryptoEngine::sign(const PrivateKey& key,
                             std::span<const std::uint8_t> message) const {
  BDP_ASSERT_MSG(key.keyId_ != 0, "signing with an uninitialised key");
  return Signature{key.keyId_, key.key_.mac(message)};
}

bool CryptoEngine::verify(const PublicKey& pub,
                          std::span<const std::uint8_t> message,
                          const Signature& sig) const {
  if (sig.keyId != pub.keyId) return false;
  const auto it = keys_.find(pub.keyId);
  if (it == keys_.end()) return false;  // unknown key: cannot verify
  return digestEquals(it->second.mac(message), sig.mac);
}

}  // namespace blackdp::crypto
