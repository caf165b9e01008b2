#include "crypto/sha256_block.hpp"

#include "common/assert.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BLACKDP_SHA256_HARDWARE 1
#include <immintrin.h>
#else
#define BLACKDP_SHA256_HARDWARE 0
#endif

namespace blackdp::crypto::detail {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

#if BLACKDP_SHA256_HARDWARE

// Intel SHA extensions keep the state as two registers, ABEF and CDGH, and
// run two rounds per sha256rnds2. A "quad" below is four rounds over one
// 4-word slice of the message schedule.
#define BLACKDP_SHA_TARGET __attribute__((target("sha,sse4.1")))

BLACKDP_SHA_TARGET inline void quadRound(__m128i& abef, __m128i& cdgh,
                                         __m128i words, std::size_t round) {
  __m128i wk = _mm_add_epi32(
      words, _mm_load_si128(
                 reinterpret_cast<const __m128i*>(&kRoundConstants[round])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  wk = _mm_shuffle_epi32(wk, 0x0e);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
}

/// W[t..t+3] from the four previous slices (t-16, t-12, t-8, t-4).
BLACKDP_SHA_TARGET inline __m128i schedule(__m128i w16, __m128i w12,
                                           __m128i w8, __m128i w4) {
  const __m128i partial = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12),
                                        _mm_alignr_epi8(w4, w8, 4));
  return _mm_sha256msg2_epu32(partial, w4);
}

/// Message words W[4i..4i+3], big-endian bytes to host order per lane.
BLACKDP_SHA_TARGET inline __m128i loadWords(const std::uint8_t* block,
                                            std::size_t i) {
  const __m128i byteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
      byteSwap);
}

BLACKDP_SHA_TARGET void blockShaNi(Sha256State& state,
                                   const std::uint8_t* block) {
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  const __m128i abefSaved = abef;
  const __m128i cdghSaved = cdgh;

  __m128i w0 = loadWords(block, 0);
  __m128i w1 = loadWords(block, 1);
  __m128i w2 = loadWords(block, 2);
  __m128i w3 = loadWords(block, 3);

  quadRound(abef, cdgh, w0, 0);
  quadRound(abef, cdgh, w1, 4);
  quadRound(abef, cdgh, w2, 8);
  quadRound(abef, cdgh, w3, 12);
  for (std::size_t round = 16; round < 64; round += 16) {
    w0 = schedule(w0, w1, w2, w3);
    quadRound(abef, cdgh, w0, round);
    w1 = schedule(w1, w2, w3, w0);
    quadRound(abef, cdgh, w1, round + 4);
    w2 = schedule(w2, w3, w0, w1);
    quadRound(abef, cdgh, w2, round + 8);
    w3 = schedule(w3, w0, w1, w2);
    quadRound(abef, cdgh, w3, round + 12);
  }

  abef = _mm_add_epi32(abef, abefSaved);
  cdgh = _mm_add_epi32(cdgh, cdghSaved);

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), hgfe);
}

#undef BLACKDP_SHA_TARGET

#endif  // BLACKDP_SHA256_HARDWARE

using BlockFunction = void (*)(Sha256State&, const std::uint8_t*);

/// Reads CPUID once; the answer cannot change while the process runs.
BlockFunction pickBlockFunction() {
#if BLACKDP_SHA256_HARDWARE
  if (sha256HardwareAvailable()) return &blockShaNi;
#endif
  return &sha256BlockPortable;
}

}  // namespace

void sha256BlockPortable(Sha256State& state, const std::uint8_t* block) {
  std::array<std::uint32_t, 64> w;
  for (std::size_t i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (std::size_t i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  auto [a, b, c, d, e, f, g, h] = state;

  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

bool sha256HardwareAvailable() {
#if BLACKDP_SHA256_HARDWARE
  // Required before __builtin_cpu_supports when this runs from a static
  // initializer; harmless afterwards.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

void sha256BlockHardware(Sha256State& state, const std::uint8_t* block) {
#if BLACKDP_SHA256_HARDWARE
  blockShaNi(state, block);
#else
  (void)state;
  (void)block;
  BDP_ASSERT_MSG(false, "no SHA-256 hardware kernel in this build");
#endif
}

void sha256Block(Sha256State& state, const std::uint8_t* block) {
  static const BlockFunction picked = pickBlockFunction();
  picked(state, block);
}

const char* sha256BlockName() {
  return sha256HardwareAvailable() ? "sha-ni" : "portable";
}

}  // namespace blackdp::crypto::detail
