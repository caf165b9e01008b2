#include "crypto/certificate.hpp"

#include <string_view>

#include "common/assert.hpp"

namespace blackdp::crypto {

namespace {

/// Writes `v` big-endian at `out`; returns the byte after it.
template <typename T>
std::uint8_t* putBigEndian(std::uint8_t* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * (sizeof(T) - 1 - i)));
  }
  return out + sizeof(T);
}

}  // namespace

Certificate::TbsBytes Certificate::tbsBytes() const {
  constexpr std::string_view kTag = "cert-v1";
  TbsBytes out;
  std::uint8_t* p =
      putBigEndian(out.data(), static_cast<std::uint32_t>(kTag.size()));
  for (const char c : kTag) *p++ = static_cast<std::uint8_t>(c);
  p = putBigEndian(p, pseudonym.value());
  p = putBigEndian(p, subjectKey.keyId);
  p = putBigEndian(p, serial.value());
  p = putBigEndian(p, static_cast<std::uint64_t>(issuedAt.us()));
  p = putBigEndian(p, static_cast<std::uint64_t>(expiresAt.us()));
  p = putBigEndian(p, static_cast<std::uint32_t>(issuer.value()));
  BDP_ASSERT(p == out.data() + out.size());
  return out;
}

}  // namespace blackdp::crypto
