// HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//
// Used by the simulated signature scheme and by the Sachan-style HMAC
// authentication baseline; validated against RFC 4231 test vectors.
//
// An HmacKey is the key schedule of RFC 2104 §4: the SHA-256 chaining values
// left after absorbing K⊕ipad and K⊕opad, computed once per key. Each MAC
// then resumes from them, so a message of up to 55 bytes costs two block
// compressions instead of four. The MACs are the plain RFC 2104 values.
#pragma once

#include <span>
#include <string_view>

#include "crypto/sha256.hpp"

namespace blackdp::crypto {

class HmacKey {
 public:
  /// The empty key's schedule, as carried by an unissued PrivateKey.
  HmacKey() : HmacKey{std::span<const std::uint8_t>{}} {}
  explicit HmacKey(std::span<const std::uint8_t> key);

  [[nodiscard]] Digest mac(std::span<const std::uint8_t> message) const;

 private:
  detail::Sha256State inner_{};  ///< after K⊕ipad
  detail::Sha256State outer_{};  ///< after K⊕opad
};

[[nodiscard]] Digest hmacSha256(std::span<const std::uint8_t> key,
                                std::span<const std::uint8_t> message);

[[nodiscard]] Digest hmacSha256(std::string_view key, std::string_view message);

/// Constant-time digest comparison (hygiene; the simulator has no real timing
/// side channel, but verification code should model the correct idiom).
[[nodiscard]] bool digestEquals(const Digest& a, const Digest& b);

}  // namespace blackdp::crypto
