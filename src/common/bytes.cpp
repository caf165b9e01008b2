#include "common/bytes.hpp"

#include <array>
#include <stdexcept>

namespace blackdp::common {

void ByteWriter::writeU8(std::uint8_t v) { buffer_.push_back(v); }

namespace {

/// Appends `v` big-endian in one insert (one capacity check, not N).
template <typename T>
void appendBigEndian(Bytes& buffer, T v) {
  std::array<std::uint8_t, sizeof(T)> bytes{};
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * (sizeof(T) - 1 - i)));
  }
  buffer.insert(buffer.end(), bytes.begin(), bytes.end());
}

}  // namespace

void ByteWriter::writeU16(std::uint16_t v) { appendBigEndian(buffer_, v); }

void ByteWriter::writeU32(std::uint32_t v) { appendBigEndian(buffer_, v); }

void ByteWriter::writeU64(std::uint64_t v) { appendBigEndian(buffer_, v); }

void ByteWriter::writeI64(std::int64_t v) {
  writeU64(static_cast<std::uint64_t>(v));
}

void ByteWriter::writeBool(bool v) { writeU8(v ? 1 : 0); }

void ByteWriter::writeBlob(std::span<const std::uint8_t> blob) {
  writeU32(static_cast<std::uint32_t>(blob.size()));
  buffer_.insert(buffer_.end(), blob.begin(), blob.end());
}

void ByteWriter::writeString(std::string_view s) {
  writeU32(static_cast<std::uint32_t>(s.size()));
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void ByteReader::require(std::size_t n) const {
  if (remaining() < n) {
    throw std::out_of_range("ByteReader: truncated input");
  }
}

std::uint8_t ByteReader::readU8() {
  require(1);
  return data_[offset_++];
}

std::uint16_t ByteReader::readU16() {
  require(2);
  auto hi = static_cast<std::uint16_t>(data_[offset_]);
  auto lo = static_cast<std::uint16_t>(data_[offset_ + 1]);
  offset_ += 2;
  return static_cast<std::uint16_t>((hi << 8) | lo);
}

std::uint32_t ByteReader::readU32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v = (v << 8) | data_[offset_ + static_cast<std::size_t>(i)];
  }
  offset_ += 4;
  return v;
}

std::uint64_t ByteReader::readU64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | data_[offset_ + static_cast<std::size_t>(i)];
  }
  offset_ += 8;
  return v;
}

std::int64_t ByteReader::readI64() {
  return static_cast<std::int64_t>(readU64());
}

bool ByteReader::readBool() { return readU8() != 0; }

Bytes ByteReader::readBlob() {
  const std::uint32_t len = readU32();
  require(len);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(offset_),
            data_.begin() + static_cast<std::ptrdiff_t>(offset_ + len));
  offset_ += len;
  return out;
}

std::string ByteReader::readString() {
  const std::uint32_t len = readU32();
  require(len);
  std::string out(reinterpret_cast<const char*>(data_.data() + offset_), len);
  offset_ += len;
  return out;
}

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("fromHex: invalid hex digit");
}
}  // namespace

std::string toHex(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xf]);
  }
  return out;
}

Bytes fromHex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("fromHex: odd-length input");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>((hexNibble(hex[i]) << 4) |
                                            hexNibble(hex[i + 1])));
  }
  return out;
}

}  // namespace blackdp::common
