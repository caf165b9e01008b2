// Secure-packet envelope creation and verification paths.
#include <gtest/gtest.h>

#include <array>
#include <limits>

#include "common/bytes.hpp"
#include "sim/rng.hpp"

#include "core/messages.hpp"
#include "core/secure.hpp"

namespace blackdp::core {
namespace {

class SecureTest : public ::testing::Test {
 protected:
  SecureTest() : ta_{simulator_, engine_} {
    taId_ = ta_.addAuthority();
    enrollment_ = ta_.enroll(taId_, common::NodeId{1}).value();
  }

  [[nodiscard]] aodv::Credentials credentials() const {
    return {enrollment_.certificate, enrollment_.privateKey};
  }

  sim::Simulator simulator_;
  crypto::CryptoEngine engine_{11};
  crypto::TaNetwork ta_;
  common::TaId taId_;
  crypto::Enrollment enrollment_;
};

TEST_F(SecureTest, RoundTripVerifies) {
  const common::Bytes body{1, 2, 3, 4};
  const auto envelope = makeEnvelope(body, credentials(), engine_);
  const EnvelopeCheck check =
      verifyEnvelope(body, envelope, enrollment_.certificate.pseudonym, ta_,
                     engine_, simulator_.now());
  EXPECT_TRUE(check.ok) << check.reason;
}

TEST_F(SecureTest, MissingEnvelopeFails) {
  const EnvelopeCheck check =
      verifyEnvelope(common::Bytes{1, 2}, std::nullopt,
                     enrollment_.certificate.pseudonym,
                     ta_, engine_, simulator_.now());
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.reason, "no-envelope");
}

TEST_F(SecureTest, PseudonymMismatchFails) {
  // The attacker's forged Hello reply: valid certificate, wrong identity.
  const common::Bytes body{1, 2, 3};
  const auto envelope = makeEnvelope(body, credentials(), engine_);
  const EnvelopeCheck check = verifyEnvelope(
      body, envelope, common::Address{4242}, ta_, engine_, simulator_.now());
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.reason, "pseudonym-mismatch");
}

TEST_F(SecureTest, TamperedBodyFails) {
  const common::Bytes body{1, 2, 3};
  const auto envelope = makeEnvelope(body, credentials(), engine_);
  const common::Bytes tampered{1, 2, 4};
  const EnvelopeCheck check =
      verifyEnvelope(tampered, envelope, enrollment_.certificate.pseudonym,
                     ta_, engine_, simulator_.now());
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.reason, "bad-signature");
}

TEST_F(SecureTest, ForgedCertificateFails) {
  const common::Bytes body{1, 2, 3};
  auto envelope = makeEnvelope(body, credentials(), engine_);
  envelope.certificate.expiresAt =
      envelope.certificate.expiresAt + sim::Duration::seconds(1000);
  const EnvelopeCheck check =
      verifyEnvelope(body, envelope, enrollment_.certificate.pseudonym, ta_,
                     engine_, simulator_.now());
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.reason, "bad-certificate");
}

TEST_F(SecureTest, ExpiredCertificateFails) {
  const common::Bytes body{1, 2, 3};
  const auto envelope = makeEnvelope(body, credentials(), engine_);
  const EnvelopeCheck check = verifyEnvelope(
      body, envelope, enrollment_.certificate.pseudonym, ta_, engine_,
      enrollment_.certificate.expiresAt + sim::Duration::seconds(1));
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.reason, "bad-certificate");
}

TEST_F(SecureTest, RevokedCertificateFails) {
  const common::Bytes body{1, 2, 3};
  const auto envelope = makeEnvelope(body, credentials(), engine_);
  crypto::RevocationStore store;
  store.add({enrollment_.certificate.pseudonym,
             enrollment_.certificate.serial,
             enrollment_.certificate.expiresAt});
  const EnvelopeCheck check =
      verifyEnvelope(body, envelope, enrollment_.certificate.pseudonym, ta_,
                     engine_, simulator_.now(), &store);
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.reason, "revoked");
}

TEST_F(SecureTest, SignatureFromAnotherKeyFails) {
  const common::Bytes body{1, 2, 3};
  const auto other = ta_.enroll(taId_, common::NodeId{2}).value();
  // Sign with node 2's key but present node 1's certificate.
  auto envelope = makeEnvelope(body, {other.certificate, other.privateKey},
                               engine_);
  envelope.certificate = enrollment_.certificate;
  const EnvelopeCheck check =
      verifyEnvelope(body, envelope, enrollment_.certificate.pseudonym, ta_,
                     engine_, simulator_.now());
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.reason, "bad-signature");
}

// ---------------------------------------------------------------- messages

TEST(CoreMessagesTest, VerdictNamesAreStable) {
  EXPECT_EQ(toString(Verdict::kNotConfirmed), "not-confirmed");
  EXPECT_EQ(toString(Verdict::kSingleBlackHole), "single-black-hole");
  EXPECT_EQ(toString(Verdict::kCooperativeBlackHole),
            "cooperative-black-hole");
  EXPECT_EQ(toString(Verdict::kUnreachable), "unreachable");
}

TEST(CoreMessagesTest, AuthHelloCanonicalBytesCoverIdentity) {
  AuthHello a;
  a.helloId = 1;
  a.origin = common::Address{10};
  a.destination = common::Address{20};
  AuthHello b = a;
  EXPECT_EQ(a.canonicalBytes(), b.canonicalBytes());
  b.responder = common::Address{66};
  EXPECT_NE(a.canonicalBytes(), b.canonicalBytes());
  AuthHello c = a;
  c.isReply = true;
  EXPECT_NE(a.canonicalBytes(), c.canonicalBytes());
}

TEST(CoreMessagesTest, DreqCanonicalBytesMatchPaperTuple) {
  // d_req = ⟨v_i, CH(v_i), v_B, CH(v_B)⟩ — all four fields signed.
  DetectionRequest a;
  a.reporter = common::Address{1};
  a.reporterCluster = common::ClusterId{2};
  a.suspect = common::Address{3};
  a.suspectCluster = common::ClusterId{4};
  for (int field = 0; field < 4; ++field) {
    DetectionRequest b = a;
    switch (field) {
      case 0: b.reporter = common::Address{9}; break;
      case 1: b.reporterCluster = common::ClusterId{9}; break;
      case 2: b.suspect = common::Address{9}; break;
      case 3: b.suspectCluster = common::ClusterId{9}; break;
    }
    EXPECT_NE(a.canonicalBytes(), b.canonicalBytes()) << "field " << field;
  }
}

// The stack-built encodings must stay byte-identical to the growing
// ByteWriter encoding they replaced: every signature in a recorded trace or
// checkpoint was made over those bytes.
TEST(CoreMessagesTest, CanonicalBytesEqualTheByteWriterEncoding) {
  sim::Rng rng{20240605};
  for (int round = 0; round < 200; ++round) {
    const auto any64 = [&] {
      return static_cast<std::uint64_t>(rng.uniformInt(
                 0, std::numeric_limits<std::int64_t>::max())) *
             (round % 2 == 0 ? 1u : 3u);
    };
    const auto any32 = [&] {
      return static_cast<std::uint32_t>(rng.uniformInt(0, 0xffff'ffffll));
    };

    DetectionRequest dreq;
    dreq.reporter = common::Address{any64()};
    dreq.reporterCluster = common::ClusterId{any32()};
    dreq.suspect = common::Address{any64()};
    dreq.suspectCluster = common::ClusterId{any32()};
    dreq.nonce = any64();
    common::ByteWriter dw;
    dw.writeString("dreq-v1");
    dw.writeId(dreq.reporter);
    dw.writeId(dreq.reporterCluster);
    dw.writeId(dreq.suspect);
    dw.writeId(dreq.suspectCluster);
    dw.writeU64(dreq.nonce);
    const auto dreqBytes = dreq.canonicalBytes();
    EXPECT_EQ(common::Bytes(dreqBytes.begin(), dreqBytes.end()), dw.bytes());

    AuthHello hello;
    hello.helloId = any64();
    hello.origin = common::Address{any64()};
    hello.destination = common::Address{any64()};
    hello.isReply = round % 3 == 0;
    hello.responder = common::Address{any64()};
    common::ByteWriter hw;
    hw.writeString("hello-v1");
    hw.writeU64(hello.helloId);
    hw.writeId(hello.origin);
    hw.writeId(hello.destination);
    hw.writeBool(hello.isReply);
    hw.writeId(hello.responder);
    const auto helloBytes = hello.canonicalBytes();
    EXPECT_EQ(common::Bytes(helloBytes.begin(), helloBytes.end()),
              hw.bytes());
  }
  // One fixed vector, so the layout itself is pinned and not just the
  // agreement of two encoders.
  DetectionRequest fixed;
  fixed.reporter = common::Address{0x0102030405060708ull};
  fixed.reporterCluster = common::ClusterId{0x0a0b0c0du};
  fixed.suspect = common::Address{0x1112131415161718ull};
  fixed.suspectCluster = common::ClusterId{0x1a1b1c1du};
  fixed.nonce = 0x2122232425262728ull;
  const std::array<std::uint8_t, DetectionRequest::kCanonicalSize> want{
      0,    0,    0,    7,    'd',  'r',  'e',  'q',  '-',  'v',  '1',
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x0a, 0x0b, 0x0c,
      0x0d, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x1a, 0x1b,
      0x1c, 0x1d, 0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x28};
  EXPECT_EQ(fixed.canonicalBytes(), want);
}

TEST(CoreMessagesTest, TypeNamesAreStable) {
  EXPECT_EQ(AuthHello{}.typeName(), "hello");
  EXPECT_EQ(DetectionRequest{}.typeName(), "dreq");
  EXPECT_EQ(ForwardedDetection{}.typeName(), "dfwd");
  EXPECT_EQ(DetectionResult{}.typeName(), "dres");
  EXPECT_EQ(DetectionResponse{}.typeName(), "dresp");
}

}  // namespace
}  // namespace blackdp::core
