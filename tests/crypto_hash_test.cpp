// SHA-256 against FIPS 180-4 / NIST CAVP vectors; HMAC-SHA-256 against
// RFC 4231 vectors; incremental-vs-one-shot property; the hardware block
// function against the portable one; golden signatures of the engine.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_block.hpp"
#include "sim/rng.hpp"

namespace blackdp::crypto {
namespace {

std::string hashHex(std::string_view s) { return toHex(Sha256::hash(s)); }

std::span<const std::uint8_t> bytesOf(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

common::Bytes randomBytes(sim::Rng& rng, std::size_t n) {
  common::Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
  return out;
}

/// SHA-256 built only from the portable block function, with its own
/// padding code: the reference for Sha256 (which may run on SHA-NI).
Digest referenceHash(std::span<const std::uint8_t> data) {
  common::Bytes padded(data.begin(), data.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  detail::Sha256State state = detail::kSha256Initial;
  for (std::size_t off = 0; off < padded.size(); off += 64) {
    detail::sha256BlockPortable(state, padded.data() + off);
  }
  Digest out;
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

// ------------------------------------------------------- published vectors

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(hashHex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(hashHex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(hashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, FourBlockMessage) {
  EXPECT_EQ(
      hashHex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
              "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(toHex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, SingleByte) {
  // NIST CAVP SHA256ShortMsg.rsp, Len = 8, Msg = d3.
  const common::Bytes msg = common::fromHex("d3");
  EXPECT_EQ(toHex(Sha256::hash(std::span<const std::uint8_t>{msg.data(),
                                                             msg.size()})),
            "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1");
}

TEST(Sha256Test, ExactlyOneBlockOfPaddingBoundary) {
  // 55 bytes: the largest message fitting one padded block.
  const std::string msg(55, 'x');
  // 56 bytes: forces a second padding block.
  const std::string msg2(56, 'x');
  EXPECT_NE(hashHex(msg), hashHex(msg2));
  EXPECT_EQ(hashHex(msg), hashHex(msg));  // deterministic
}

// ----------------------------------------------------------- incrementality

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string data = "The quick brown fox jumps over the lazy dog";
  Sha256 ctx;
  ctx.update(data.substr(0, 10));
  ctx.update(data.substr(10, 1));
  ctx.update(data.substr(11));
  EXPECT_EQ(toHex(ctx.finish()), hashHex(data));
}

TEST(Sha256Test, ContextResetsAfterFinish) {
  Sha256 ctx;
  ctx.update(std::string_view{"first"});
  (void)ctx.finish();
  ctx.update(std::string_view{"abc"});
  EXPECT_EQ(toHex(ctx.finish()), hashHex("abc"));
}

class Sha256ChunkingProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256ChunkingProperty, AnyChunkingMatchesOneShot) {
  sim::Rng rng{GetParam()};
  common::Bytes data(1021);  // deliberately not a multiple of 64
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));

  const Digest whole =
      Sha256::hash(std::span<const std::uint8_t>{data.data(), data.size()});

  Sha256 ctx;
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t chunk = std::min<std::size_t>(
        static_cast<std::size_t>(rng.uniformInt(1, 100)),
        data.size() - offset);
    ctx.update(std::span<const std::uint8_t>{data.data() + offset, chunk});
    offset += chunk;
  }
  EXPECT_EQ(toHex(ctx.finish()), toHex(whole));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Sha256ChunkingProperty,
                         ::testing::Range<std::size_t>(1, 13));

// ------------------------------------------------------------ HMAC-SHA-256

TEST(HmacTest, Rfc4231Case1) {
  const common::Bytes key(20, 0x0b);
  const Digest mac = hmacSha256(
      std::span<const std::uint8_t>{key.data(), key.size()},
      std::span<const std::uint8_t>{
          reinterpret_cast<const std::uint8_t*>("Hi There"), 8});
  EXPECT_EQ(toHex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const Digest mac =
      hmacSha256(std::string_view{"Jefe"},
                 std::string_view{"what do ya want for nothing?"});
  EXPECT_EQ(toHex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const common::Bytes key(20, 0xaa);
  const common::Bytes data(50, 0xdd);
  const Digest mac =
      hmacSha256(std::span<const std::uint8_t>{key.data(), key.size()},
                 std::span<const std::uint8_t>{data.data(), data.size()});
  EXPECT_EQ(toHex(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  // Keys longer than the block size are hashed first.
  const common::Bytes key(131, 0xaa);
  const Digest mac = hmacSha256(
      std::span<const std::uint8_t>{key.data(), key.size()},
      std::span<const std::uint8_t>{
          reinterpret_cast<const std::uint8_t*>(
              "Test Using Larger Than Block-Size Key - Hash Key First"),
          54});
  EXPECT_EQ(toHex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, DifferentKeysDifferentMacs) {
  EXPECT_NE(toHex(hmacSha256(std::string_view{"k1"}, std::string_view{"m"})),
            toHex(hmacSha256(std::string_view{"k2"}, std::string_view{"m"})));
}

TEST(HmacTest, DifferentMessagesDifferentMacs) {
  EXPECT_NE(toHex(hmacSha256(std::string_view{"k"}, std::string_view{"m1"})),
            toHex(hmacSha256(std::string_view{"k"}, std::string_view{"m2"})));
}

// ------------------------------------------------- block functions

TEST(Sha256BlockTest, HardwareMatchesPortableOnRandomStatesAndBlocks) {
  if (!detail::sha256HardwareAvailable()) {
    GTEST_SKIP() << "this CPU has no SHA extensions (or this build has no "
                    "SHA-NI kernel); only the portable block function runs";
  }
  EXPECT_STREQ(detail::sha256BlockName(), "sha-ni");
  sim::Rng rng{256};
  for (int trial = 0; trial < 2000; ++trial) {
    detail::Sha256State state;
    for (auto& word : state) {
      word = static_cast<std::uint32_t>(rng.nextU64());
    }
    const common::Bytes block = randomBytes(rng, 64);
    detail::Sha256State portable = state;
    detail::Sha256State hardware = state;
    detail::sha256BlockPortable(portable, block.data());
    detail::sha256BlockHardware(hardware, block.data());
    ASSERT_EQ(portable, hardware) << "trial " << trial;
  }
}

TEST(Sha256BlockTest, HashMatchesPortableReferenceAtEveryLength) {
  sim::Rng rng{300};
  const common::Bytes data = randomBytes(rng, 300);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const std::span<const std::uint8_t> msg{data.data(), len};
    ASSERT_EQ(toHex(Sha256::hash(msg)), toHex(referenceHash(msg)))
        << "length " << len;
  }
}

TEST(Sha256BlockTest, EverySplitPointMatchesOneShot) {
  sim::Rng rng{301};
  const common::Bytes data = randomBytes(rng, 300);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const Digest whole = Sha256::hash(std::span<const std::uint8_t>{data.data(), len});
    Sha256 ctx;
    for (std::size_t split = 0; split <= len; ++split) {
      ctx.update(std::span<const std::uint8_t>{data.data(), split});
      ctx.update(std::span<const std::uint8_t>{data.data() + split, len - split});
      ASSERT_EQ(ctx.finish(), whole) << "length " << len << " split " << split;
    }
  }
}

// -------------------------------------------- RFC 4231, all seven cases

struct Rfc4231Case {
  int id;
  common::Bytes key;
  std::string data;
  std::string mac;  ///< hex; case 5 is truncated to 128 bits
};

std::vector<Rfc4231Case> rfc4231Cases() {
  common::Bytes key4;
  for (std::uint8_t b = 1; b <= 25; ++b) key4.push_back(b);
  const common::Bytes longKey(131, 0xaa);
  return {
      {1, common::Bytes(20, 0x0b), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {2, common::Bytes{'J', 'e', 'f', 'e'}, "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {3, common::Bytes(20, 0xaa), std::string(50, '\xdd'),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {4, key4, std::string(50, '\xcd'),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {5, common::Bytes(20, 0x0c), "Test With Truncation",
       "a3b6167473100ee06e0c796c2955552b"},
      {6, longKey, "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {7, longKey,
       "This is a test using a larger than block-size key and a larger than "
       "block-size data. The key needs to be hashed before being used by the "
       "HMAC algorithm.",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
}

/// Hex of `mac`, truncated to the expected length (case 5).
std::string macHex(const Digest& mac, const std::string& expected) {
  return toHex(mac).substr(0, expected.size());
}

TEST(HmacTest, Rfc4231AllCasesOneShotAndReusedKey) {
  const std::vector<Rfc4231Case> cases = rfc4231Cases();
  // Cases 6 and 7 share one 131-byte key (the hash-the-key branch); one
  // HmacKey serves both, and is reused between and after them.
  const HmacKey longKey{cases[5].key};
  for (const Rfc4231Case& c : cases) {
    const std::span<const std::uint8_t> key{c.key.data(), c.key.size()};
    EXPECT_EQ(macHex(hmacSha256(key, bytesOf(c.data)), c.mac), c.mac)
        << "case " << c.id << " one-shot";

    const HmacKey own{key};
    const HmacKey& reused = c.key == cases[5].key ? longKey : own;
    const Digest first = reused.mac(bytesOf(c.data));
    (void)reused.mac(bytesOf("an unrelated message in between"));
    (void)reused.mac(bytesOf(std::string(200, 'z')));
    const Digest again = reused.mac(bytesOf(c.data));
    EXPECT_EQ(macHex(first, c.mac), c.mac) << "case " << c.id << " reused";
    EXPECT_EQ(again, first) << "case " << c.id << ": state carried over";
  }
}

// ------------------------------------------------- golden engine output

// Key ids and signatures of CryptoEngine{20240601}, recorded from the
// byte-at-a-time implementation before the HMAC key schedule and the SHA-NI
// block function. Signing and verifying share one MAC routine, so a wrong
// SHA-256 would still verify; only pinned bytes catch it.
TEST(CryptoEngineGoldenTest, KeyIdsAndSignaturesArePinned) {
  struct Golden {
    std::uint64_t keyId;
    std::array<const char*, 3> sigs;  ///< over kMessages, in order
  };
  const std::array<std::string, 3> kMessages = {
      "", "d_req",
      "a message that is longer than one sha-256 block of sixty four bytes, "
      "to cover the two-block path"};
  const std::array<Golden, 3> golden = {{
      {0xbb7a88da67a459d6ull,
       {"4f7364f49042d289c12a994bcbe0cf17636b8fa535b10d96fbeebbb76cb4c782",
        "ab1926123d60b25b77fb07ded271efd5694ca299ff32c550cda2472324e8ec4a",
        "20852b969b97c5712766b507d8325015b11bb31c35db1a4da7c1e0c8e05961fc"}},
      {0x2cd3d0dc5d9452b1ull,
       {"85f82e65186124ad38e4c5f3118daddc41ef62e8b9fdf277da391509d18553d0",
        "f86bb040166d7fee66508628150424ae094e0dd30e0e4b35a19a69a8b351b930",
        "edfa1d63b7a4dd0eb4ac70fb2c6d67bafa188b7897496f834d649bfd397fda9f"}},
      {0x99af1973740fc440ull,
       {"ff58feedd3ada44d66db57ab25a16680b1bf27e0a063962c42177709ccad0f71",
        "df425955ef0ee9ea210d87fc7c134a4ee8874e62be49a1b5abcd1afaf5735061",
        "94ff1359957885d3979817aad9cc1037f8923d22c4f9fd4cf14ed8cf1283f8f8"}},
  }};
  ASSERT_EQ(kMessages[2].size(), 96u);

  CryptoEngine engine{20240601};
  for (const Golden& g : golden) {
    const KeyPair keys = engine.generateKeyPair();
    EXPECT_EQ(keys.pub.keyId, g.keyId);
    for (std::size_t m = 0; m < kMessages.size(); ++m) {
      const Signature sig = engine.sign(keys.priv, bytesOf(kMessages[m]));
      EXPECT_EQ(sig.keyId, g.keyId);
      EXPECT_EQ(toHex(sig.mac), g.sigs[m]) << "message " << m;
      EXPECT_TRUE(engine.verify(keys.pub, bytesOf(kMessages[m]), sig));
    }
  }
}

TEST(DigestEqualsTest, EqualAndUnequal) {
  const Digest a = Sha256::hash(std::string_view{"x"});
  Digest b = a;
  EXPECT_TRUE(digestEquals(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(digestEquals(a, b));
  b = a;
  b[0] ^= 0x80;
  EXPECT_FALSE(digestEquals(a, b));
}

}  // namespace
}  // namespace blackdp::crypto
