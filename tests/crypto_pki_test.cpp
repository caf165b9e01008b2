// Simulated signatures, certificates, the TA network, and revocation.
#include <gtest/gtest.h>

#include <unordered_map>

#include "common/assert.hpp"
#include "crypto/keys.hpp"
#include "crypto/revocation_store.hpp"
#include "crypto/trusted_authority.hpp"

namespace blackdp::crypto {
namespace {

common::Bytes bytesOf(std::string_view s) {
  return common::Bytes{s.begin(), s.end()};
}

std::span<const std::uint8_t> spanOf(const common::Bytes& b) {
  return {b.data(), b.size()};
}

// -------------------------------------------------------------- signatures

class KeysTest : public ::testing::Test {
 protected:
  CryptoEngine engine_{1};
};

TEST_F(KeysTest, SignVerifyRoundTrip) {
  const KeyPair keys = engine_.generateKeyPair();
  const common::Bytes msg = bytesOf("route reply");
  const Signature sig = engine_.sign(keys.priv, spanOf(msg));
  EXPECT_TRUE(engine_.verify(keys.pub, spanOf(msg), sig));
}

TEST_F(KeysTest, TamperedMessageFailsVerification) {
  const KeyPair keys = engine_.generateKeyPair();
  const common::Bytes msg = bytesOf("route reply");
  const Signature sig = engine_.sign(keys.priv, spanOf(msg));
  const common::Bytes tampered = bytesOf("route reply!");
  EXPECT_FALSE(engine_.verify(keys.pub, spanOf(tampered), sig));
}

TEST_F(KeysTest, WrongKeyFailsVerification) {
  const KeyPair a = engine_.generateKeyPair();
  const KeyPair b = engine_.generateKeyPair();
  const common::Bytes msg = bytesOf("m");
  const Signature sig = engine_.sign(a.priv, spanOf(msg));
  EXPECT_FALSE(engine_.verify(b.pub, spanOf(msg), sig));
}

TEST_F(KeysTest, ForgedSignatureFails) {
  const KeyPair keys = engine_.generateKeyPair();
  const common::Bytes msg = bytesOf("m");
  Signature sig = engine_.sign(keys.priv, spanOf(msg));
  sig.mac[5] ^= 0xff;
  EXPECT_FALSE(engine_.verify(keys.pub, spanOf(msg), sig));
}

TEST_F(KeysTest, SignatureBoundToKeyId) {
  const KeyPair a = engine_.generateKeyPair();
  const KeyPair b = engine_.generateKeyPair();
  const common::Bytes msg = bytesOf("m");
  Signature sig = engine_.sign(a.priv, spanOf(msg));
  sig.keyId = b.pub.keyId;  // splice another identity onto the MAC
  EXPECT_FALSE(engine_.verify(b.pub, spanOf(msg), sig));
  EXPECT_FALSE(engine_.verify(a.pub, spanOf(msg), sig));
}

TEST_F(KeysTest, UnknownKeyCannotVerify) {
  const common::Bytes msg = bytesOf("m");
  EXPECT_FALSE(engine_.verify(PublicKey{0xDEADull}, spanOf(msg), Signature{}));
}

TEST_F(KeysTest, KeyIdsAreUnique) {
  std::unordered_map<std::uint64_t, bool> seen;
  for (int i = 0; i < 100; ++i) {
    const KeyPair keys = engine_.generateKeyPair();
    EXPECT_FALSE(seen.contains(keys.pub.keyId));
    seen[keys.pub.keyId] = true;
  }
  EXPECT_EQ(engine_.registeredKeys(), 100u);
}

TEST_F(KeysTest, SigningIsDeterministic) {
  const KeyPair keys = engine_.generateKeyPair();
  const common::Bytes msg = bytesOf("m");
  EXPECT_EQ(engine_.sign(keys.priv, spanOf(msg)),
            engine_.sign(keys.priv, spanOf(msg)));
}

TEST_F(KeysTest, UninitialisedKeyRejected) {
  const PrivateKey empty;
  EXPECT_THROW((void)engine_.sign(empty, spanOf(bytesOf("m"))),
               common::AssertionError);
}

// ------------------------------------------------------------ certificates

class TaTest : public ::testing::Test {
 protected:
  TaTest() : ta_{simulator_, engine_} { taId_ = ta_.addAuthority(); }

  sim::Simulator simulator_;
  CryptoEngine engine_{7};
  TaNetwork ta_;
  common::TaId taId_;
};

TEST_F(TaTest, EnrollIssuesValidCertificate) {
  const auto enrollment = ta_.enroll(taId_, common::NodeId{1});
  ASSERT_TRUE(enrollment.ok());
  const Certificate& cert = enrollment.value().certificate;
  EXPECT_TRUE(ta_.validateCertificate(cert, simulator_.now()));
  EXPECT_EQ(cert.issuer, taId_);
  EXPECT_NE(cert.pseudonym, common::kNullAddress);
}

TEST_F(TaTest, DistinctPseudonymsPerEnrollment) {
  const auto a = ta_.enroll(taId_, common::NodeId{1}).value();
  const auto b = ta_.enroll(taId_, common::NodeId{2}).value();
  EXPECT_NE(a.certificate.pseudonym, b.certificate.pseudonym);
  EXPECT_NE(a.certificate.serial, b.certificate.serial);
}

TEST_F(TaTest, TamperedCertificateFailsValidation) {
  auto cert = ta_.enroll(taId_, common::NodeId{1}).value().certificate;
  cert.pseudonym = common::Address{9999};
  EXPECT_FALSE(ta_.validateCertificate(cert, simulator_.now()));
}

TEST_F(TaTest, ExpiredCertificateFailsValidation) {
  const auto cert = ta_.enroll(taId_, common::NodeId{1}).value().certificate;
  EXPECT_FALSE(ta_.validateCertificate(
      cert, cert.expiresAt + sim::Duration::microseconds(1)));
  EXPECT_FALSE(ta_.validateCertificate(cert, cert.expiresAt));
}

TEST_F(TaTest, UnknownIssuerFailsValidation) {
  auto cert = ta_.enroll(taId_, common::NodeId{1}).value().certificate;
  cert.issuer = common::TaId{99};
  EXPECT_FALSE(ta_.validateCertificate(cert, simulator_.now()));
}

TEST_F(TaTest, UnknownTaRejectsEnrollment) {
  const auto result = ta_.enroll(common::TaId{42}, common::NodeId{1});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "unknown-ta");
}

TEST_F(TaTest, RenewalIssuesFreshPseudonym) {
  const auto first = ta_.enroll(taId_, common::NodeId{1}).value();
  const auto renewed = ta_.renew(taId_, common::NodeId{1});
  ASSERT_TRUE(renewed.ok());
  EXPECT_NE(renewed.value().certificate.pseudonym,
            first.certificate.pseudonym);
}

TEST_F(TaTest, MisbehaviourReportRevokesAndPausesRenewal) {
  const auto enrollment = ta_.enroll(taId_, common::NodeId{1}).value();
  const auto notice =
      ta_.reportMisbehaviour(enrollment.certificate.pseudonym);
  ASSERT_TRUE(notice.has_value());
  EXPECT_EQ(notice->pseudonym, enrollment.certificate.pseudonym);
  EXPECT_EQ(notice->serial, enrollment.certificate.serial);
  EXPECT_TRUE(ta_.isRenewalPaused(common::NodeId{1}));

  const auto renewed = ta_.renew(taId_, common::NodeId{1});
  ASSERT_FALSE(renewed.ok());
  EXPECT_EQ(renewed.error().code, "renewal-paused");
}

TEST_F(TaTest, ReportAgainstUnknownPseudonymIsRejected) {
  EXPECT_FALSE(ta_.reportMisbehaviour(common::Address{123456}).has_value());
}

TEST_F(TaTest, RenewalPauseSynchronisesAcrossAuthorities) {
  // "The trusted authority... informs other trusted authority nodes to
  // pause attacker renewal certificates."
  const common::TaId second = ta_.addAuthority();
  const auto enrollment = ta_.enroll(taId_, common::NodeId{1}).value();
  ASSERT_TRUE(ta_.reportMisbehaviour(enrollment.certificate.pseudonym));
  const auto renewedElsewhere = ta_.renew(second, common::NodeId{1});
  EXPECT_FALSE(renewedElsewhere.ok());
}

TEST_F(TaTest, SubscribersReceiveNoticesAfterPropagationDelay) {
  std::vector<RevocationNotice> received;
  ta_.subscribeRevocations(
      [&](const RevocationNotice& n) { received.push_back(n); });
  const auto enrollment = ta_.enroll(taId_, common::NodeId{1}).value();
  ASSERT_TRUE(ta_.reportMisbehaviour(enrollment.certificate.pseudonym));
  EXPECT_TRUE(received.empty());  // not yet: backbone propagation delay
  simulator_.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].serial, enrollment.certificate.serial);
}

TEST_F(TaTest, CertificatesFromDifferentAuthoritiesValidate) {
  const common::TaId second = ta_.addAuthority();
  const auto cert = ta_.enroll(second, common::NodeId{5}).value().certificate;
  EXPECT_TRUE(ta_.validateCertificate(cert, simulator_.now()));
}

TEST_F(TaTest, AuthorityLookup) {
  EXPECT_EQ(ta_.authority(taId_).id(), taId_);
  EXPECT_THROW((void)ta_.authority(common::TaId{77}), std::out_of_range);
}

TEST_F(TaTest, CurrentCertificateTracksLatest) {
  (void)ta_.enroll(taId_, common::NodeId{1}).value();
  const auto renewed = ta_.renew(taId_, common::NodeId{1}).value();
  const auto current = ta_.authority(taId_).currentCertificate(common::NodeId{1});
  ASSERT_TRUE(current.has_value());
  EXPECT_EQ(current->serial, renewed.certificate.serial);
}

// -------------------------------------------------------- revocation store

TEST(RevocationStoreTest, AddAndQuery) {
  RevocationStore store;
  const RevocationNotice notice{common::Address{5}, common::CertSerial{9},
                                sim::TimePoint::fromUs(1000)};
  store.add(notice);
  EXPECT_TRUE(store.isRevokedSerial(common::CertSerial{9}));
  EXPECT_TRUE(store.isRevokedPseudonym(common::Address{5}));
  EXPECT_FALSE(store.isRevokedSerial(common::CertSerial{10}));
  EXPECT_FALSE(store.isRevokedPseudonym(common::Address{6}));
}

TEST(RevocationStoreTest, AddIsIdempotent) {
  RevocationStore store;
  const RevocationNotice notice{common::Address{5}, common::CertSerial{9},
                                sim::TimePoint::fromUs(1000)};
  store.add(notice);
  store.add(notice);
  EXPECT_EQ(store.size(), 1u);
}

TEST(RevocationStoreTest, PurgeRemovesExpiredOnly) {
  // "Every CH needs to store the revoked certificate information and then
  // remove them once they expired."
  RevocationStore store;
  store.add({common::Address{1}, common::CertSerial{1},
             sim::TimePoint::fromUs(100)});
  store.add({common::Address{2}, common::CertSerial{2},
             sim::TimePoint::fromUs(200)});
  EXPECT_EQ(store.purgeExpired(sim::TimePoint::fromUs(150)), 1u);
  EXPECT_FALSE(store.isRevokedSerial(common::CertSerial{1}));
  EXPECT_TRUE(store.isRevokedSerial(common::CertSerial{2}));
  EXPECT_FALSE(store.isRevokedPseudonym(common::Address{1}));
}

TEST(RevocationStoreTest, PurgeAtExactExpiryRemoves) {
  RevocationStore store;
  store.add({common::Address{1}, common::CertSerial{1},
             sim::TimePoint::fromUs(100)});
  EXPECT_EQ(store.purgeExpired(sim::TimePoint::fromUs(100)), 1u);
}

TEST(RevocationStoreTest, ActiveSnapshotsAllNotices) {
  RevocationStore store;
  store.add({common::Address{1}, common::CertSerial{1},
             sim::TimePoint::fromUs(100)});
  store.add({common::Address{2}, common::CertSerial{2},
             sim::TimePoint::fromUs(200)});
  EXPECT_EQ(store.active().size(), 2u);
}

TEST(RevocationStoreTest, SamePseudonymTwoSerials) {
  // A node revoked, renewed (before the pause took effect), revoked again.
  RevocationStore store;
  store.add({common::Address{1}, common::CertSerial{1},
             sim::TimePoint::fromUs(100)});
  store.add({common::Address{1}, common::CertSerial{2},
             sim::TimePoint::fromUs(200)});
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.purgeExpired(sim::TimePoint::fromUs(150)), 1u);
  EXPECT_TRUE(store.isRevokedPseudonym(common::Address{1}));
}

// ---------------------------------------------------------- cert tbs bytes

TEST(CertificateTest, TbsBytesExcludeSignature) {
  sim::Simulator simulator;
  CryptoEngine engine{3};
  TaNetwork ta{simulator, engine};
  const common::TaId taId = ta.addAuthority();
  auto cert = ta.enroll(taId, common::NodeId{1}).value().certificate;
  const Certificate::TbsBytes before = cert.tbsBytes();
  cert.issuerSignature.mac[0] ^= 0xff;
  EXPECT_EQ(cert.tbsBytes(), before);
}

TEST(CertificateTest, TbsBytesCoverIdentityFields) {
  sim::Simulator simulator;
  CryptoEngine engine{3};
  TaNetwork ta{simulator, engine};
  const common::TaId taId = ta.addAuthority();
  auto cert = ta.enroll(taId, common::NodeId{1}).value().certificate;
  const Certificate::TbsBytes before = cert.tbsBytes();
  cert.pseudonym = common::Address{4242};
  EXPECT_NE(cert.tbsBytes(), before);
}

TEST(CertificateTest, TbsBytesMatchCanonicalWriterEncoding) {
  // tbsBytes() is built on the stack; it must be exactly what the canonical
  // ByteWriter encoding of the same fields gives (what the TA has always
  // signed), including for values with every byte set.
  Certificate cert;
  cert.pseudonym = common::Address{0x0102030405060708ull};
  cert.subjectKey = PublicKey{0xfedcba9876543210ull};
  cert.serial = common::CertSerial{0x8000000000000001ull};
  cert.issuedAt = sim::TimePoint::fromUs(-5);
  cert.expiresAt = sim::TimePoint::fromUs(0x7fffffffffffffffll);
  cert.issuer = common::TaId{0xa1b2c3d4u};

  common::ByteWriter w;
  w.writeString("cert-v1");
  w.writeId(cert.pseudonym);
  w.writeU64(cert.subjectKey.keyId);
  w.writeId(cert.serial);
  w.writeI64(cert.issuedAt.us());
  w.writeI64(cert.expiresAt.us());
  w.writeId(cert.issuer);
  const Certificate::TbsBytes tbs = cert.tbsBytes();
  EXPECT_EQ(common::Bytes(tbs.begin(), tbs.end()), w.bytes());
}

}  // namespace
}  // namespace blackdp::crypto
