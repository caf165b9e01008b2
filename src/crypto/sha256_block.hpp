// SHA-256 compression functions (FIPS 180-4 §6.2.2), one 64-byte block at a
// time.
//
// Two implementations compute the same function. The portable one is plain
// C++ and is the reference. On x86-64 CPUs with the SHA extensions a SHA-NI
// kernel is used instead; the choice is made once per process from CPUID
// (`sha256Block` / `sha256BlockName`). Both are exposed so tests can check
// them against each other.
#pragma once

#include <array>
#include <cstdint>

namespace blackdp::crypto::detail {

/// The eight-word chaining value H0..H7.
using Sha256State = std::array<std::uint32_t, 8>;

/// FIPS 180-4 §5.3.3 initial hash value.
inline constexpr Sha256State kSha256Initial = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// Portable compression of one block into `state`.
void sha256BlockPortable(Sha256State& state, const std::uint8_t* block);

/// True when this build has the SHA-NI kernel and this CPU can run it.
[[nodiscard]] bool sha256HardwareAvailable();

/// SHA-NI compression of one block into `state`. Call only when
/// sha256HardwareAvailable() is true.
void sha256BlockHardware(Sha256State& state, const std::uint8_t* block);

/// Compresses one block with the implementation picked for this CPU.
void sha256Block(Sha256State& state, const std::uint8_t* block);

/// "sha-ni" or "portable": which implementation sha256Block runs.
[[nodiscard]] const char* sha256BlockName();

}  // namespace blackdp::crypto::detail
