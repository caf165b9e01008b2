#include "crypto/hmac.hpp"

#include <array>

namespace blackdp::crypto {

HmacKey::HmacKey(std::span<const std::uint8_t> key) {
  constexpr std::size_t kBlockSize = 64;

  // Keys longer than the block size are hashed first.
  std::array<std::uint8_t, kBlockSize> keyBlock{};
  if (key.size() > kBlockSize) {
    const Digest hashed = Sha256::hash(key);
    std::copy(hashed.begin(), hashed.end(), keyBlock.begin());
  } else {
    std::copy(key.begin(), key.end(), keyBlock.begin());
  }

  std::array<std::uint8_t, kBlockSize> pad;
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    pad[i] = static_cast<std::uint8_t>(keyBlock[i] ^ 0x36);
  }
  inner_ = detail::kSha256Initial;
  detail::sha256Block(inner_, pad.data());
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    pad[i] = static_cast<std::uint8_t>(keyBlock[i] ^ 0x5c);
  }
  outer_ = detail::kSha256Initial;
  detail::sha256Block(outer_, pad.data());
}

Digest HmacKey::mac(std::span<const std::uint8_t> message) const {
  Sha256 inner{inner_, 1};
  inner.update(message);
  const Digest innerDigest = inner.finish();

  Sha256 outer{outer_, 1};
  outer.update(std::span<const std::uint8_t>{innerDigest.data(), innerDigest.size()});
  return outer.finish();
}

Digest hmacSha256(std::span<const std::uint8_t> key,
                  std::span<const std::uint8_t> message) {
  return HmacKey{key}.mac(message);
}

Digest hmacSha256(std::string_view key, std::string_view message) {
  return hmacSha256(
      std::span<const std::uint8_t>{
          reinterpret_cast<const std::uint8_t*>(key.data()), key.size()},
      std::span<const std::uint8_t>{
          reinterpret_cast<const std::uint8_t*>(message.data()),
          message.size()});
}

bool digestEquals(const Digest& a, const Digest& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = static_cast<std::uint8_t>(diff | (a[i] ^ b[i]));
  }
  return diff == 0;
}

}  // namespace blackdp::crypto
