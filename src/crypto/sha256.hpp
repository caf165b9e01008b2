// SHA-256 (FIPS 180-4).
//
// BlackDP signs every secure packet over a SHA-256 digest of its canonical
// serialisation (the paper's d_sign / one-way hash step), so the hash is
// implemented for real and validated against the published NIST vectors.
// The block function itself lives in sha256_block.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "crypto/sha256_block.hpp"

namespace blackdp::crypto {

/// A 256-bit digest.
using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() { reset(); }

  /// Resumes a context that has absorbed `blocks` whole 64-byte blocks,
  /// leaving chaining value `state` (HMAC's precomputed key pads).
  Sha256(const detail::Sha256State& state, std::uint64_t blocks)
      : state_{state}, totalLen_{blocks * 64} {}

  void reset();
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view data);
  [[nodiscard]] Digest finish();

  /// One-shot convenience.
  [[nodiscard]] static Digest hash(std::span<const std::uint8_t> data);
  [[nodiscard]] static Digest hash(std::string_view data);

 private:
  detail::Sha256State state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t bufferLen_{0};
  std::uint64_t totalLen_{0};
};

/// Lowercase hex rendering of a digest.
[[nodiscard]] std::string toHex(const Digest& digest);

}  // namespace blackdp::crypto
