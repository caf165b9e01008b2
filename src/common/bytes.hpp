// Canonical byte serialisation.
//
// Secure packets are signed over a canonical encoding of their contents, so
// the encoding must be deterministic and platform independent: all integers
// are written big-endian, strings and blobs are length-prefixed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "common/ids.hpp"

namespace blackdp::common {

using Bytes = std::vector<std::uint8_t>;

/// A fixed-length canonical encoding held by value, so building one never
/// touches the heap. It passes to std::span<const std::uint8_t> parameters
/// as is; the implicit conversion to Bytes makes an owning copy for callers
/// that want one.
template <std::size_t N>
struct FixedBytes : std::array<std::uint8_t, N> {
  operator Bytes() const { return Bytes(this->begin(), this->end()); }
};

/// Appends primitives to a byte vector in canonical (big-endian) form.
class ByteWriter {
 public:
  ByteWriter() = default;

  void writeU8(std::uint8_t v);
  void writeU16(std::uint16_t v);
  void writeU32(std::uint32_t v);
  void writeU64(std::uint64_t v);
  void writeI64(std::int64_t v);
  void writeBool(bool v);
  /// Length-prefixed (u32) raw bytes.
  void writeBlob(std::span<const std::uint8_t> blob);
  /// Length-prefixed (u32) UTF-8 string.
  void writeString(std::string_view s);

  template <typename Tag, typename Rep>
  void writeId(StrongId<Tag, Rep> id) {
    if constexpr (sizeof(Rep) == 8) {
      writeU64(static_cast<std::uint64_t>(id.value()));
    } else {
      writeU32(static_cast<std::uint32_t>(id.value()));
    }
  }

  /// Pre-sizes the buffer for `bytes` more bytes of output.
  void reserve(std::size_t bytes) { buffer_.reserve(buffer_.size() + bytes); }

  [[nodiscard]] const Bytes& bytes() const { return buffer_; }
  [[nodiscard]] Bytes take() && { return std::move(buffer_); }

 private:
  Bytes buffer_;
};

/// Writes the same canonical form as ByteWriter into a caller-owned buffer,
/// for encodings whose size is fixed: they build on the stack instead of in
/// a growing vector. Writing past the buffer's end is an assertion failure.
class SpanWriter {
 public:
  explicit SpanWriter(std::span<std::uint8_t> out) : out_{out} {}

  void writeU8(std::uint8_t v) { put(v); }
  void writeU32(std::uint32_t v) { put(v); }
  void writeU64(std::uint64_t v) { put(v); }
  void writeBool(bool v) { writeU8(v ? 1 : 0); }
  /// Length-prefixed (u32) UTF-8 string.
  void writeString(std::string_view s) {
    writeU32(static_cast<std::uint32_t>(s.size()));
    BDP_ASSERT(s.size() <= out_.size() - pos_);
    for (const char c : s) out_[pos_++] = static_cast<std::uint8_t>(c);
  }

  template <typename Tag, typename Rep>
  void writeId(StrongId<Tag, Rep> id) {
    if constexpr (sizeof(Rep) == 8) {
      writeU64(static_cast<std::uint64_t>(id.value()));
    } else {
      writeU32(static_cast<std::uint32_t>(id.value()));
    }
  }

  /// True once every byte of the buffer has been written.
  [[nodiscard]] bool full() const { return pos_ == out_.size(); }

 private:
  template <typename T>
  void put(T v) {
    BDP_ASSERT(sizeof(T) <= out_.size() - pos_);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_[pos_++] =
          static_cast<std::uint8_t>(v >> (8 * (sizeof(T) - 1 - i)));
    }
  }

  std::span<std::uint8_t> out_;
  std::size_t pos_{0};
};

/// Reads primitives back out of a canonical encoding.
///
/// Throws std::out_of_range on truncated input — decoding errors are
/// programming errors in this simulator (we never decode untrusted bytes; the
/// canonical encoding only feeds hashing and round-trip tests).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_{data} {}

  [[nodiscard]] std::uint8_t readU8();
  [[nodiscard]] std::uint16_t readU16();
  [[nodiscard]] std::uint32_t readU32();
  [[nodiscard]] std::uint64_t readU64();
  [[nodiscard]] std::int64_t readI64();
  [[nodiscard]] bool readBool();
  [[nodiscard]] Bytes readBlob();
  [[nodiscard]] std::string readString();

  template <typename Id>
  [[nodiscard]] Id readId() {
    using Rep = typename Id::rep_type;
    if constexpr (sizeof(Rep) == 8) {
      return Id{static_cast<Rep>(readU64())};
    } else {
      return Id{static_cast<Rep>(readU32())};
    }
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - offset_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

 private:
  void require(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t offset_{0};
};

/// Hex encoding (lowercase) of a byte span; used by logs and tests.
[[nodiscard]] std::string toHex(std::span<const std::uint8_t> data);

/// Decodes a lowercase/uppercase hex string. Throws std::invalid_argument on
/// malformed input.
[[nodiscard]] Bytes fromHex(std::string_view hex);

}  // namespace blackdp::common
