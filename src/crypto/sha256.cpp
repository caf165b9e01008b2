#include "crypto/sha256.hpp"

#include <cstring>

#include "common/bytes.hpp"

namespace blackdp::crypto {

void Sha256::reset() {
  state_ = detail::kSha256Initial;
  bufferLen_ = 0;
  totalLen_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  totalLen_ += data.size();
  std::size_t offset = 0;
  if (bufferLen_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - bufferLen_);
    std::memcpy(buffer_.data() + bufferLen_, data.data(), take);
    bufferLen_ += take;
    offset = take;
    if (bufferLen_ == 64) {
      detail::sha256Block(state_, buffer_.data());
      bufferLen_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    detail::sha256Block(state_, data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    bufferLen_ = data.size() - offset;
  }
}

void Sha256::update(std::string_view data) {
  update(std::span<const std::uint8_t>{
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()});
}

Digest Sha256::finish() {
  const std::uint64_t bitLen = totalLen_ * 8;

  // Padding: 0x80, zeros, 64-bit big-endian bit length, written in place.
  buffer_[bufferLen_++] = 0x80;
  if (bufferLen_ > 56) {
    std::memset(buffer_.data() + bufferLen_, 0, 64 - bufferLen_);
    detail::sha256Block(state_, buffer_.data());
    bufferLen_ = 0;
  }
  std::memset(buffer_.data() + bufferLen_, 0, 56 - bufferLen_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>((bitLen >> (56 - 8 * i)) & 0xff);
  }
  detail::sha256Block(state_, buffer_.data());

  Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>((state_[i] >> 16) & 0xff);
    out[i * 4 + 2] = static_cast<std::uint8_t>((state_[i] >> 8) & 0xff);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i] & 0xff);
  }
  reset();
  return out;
}

Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Digest Sha256::hash(std::string_view data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

std::string toHex(const Digest& digest) {
  return common::toHex(std::span<const std::uint8_t>{digest.data(), digest.size()});
}

}  // namespace blackdp::crypto
