// BlackDP protocol messages (paper §III-B).
//
//  - AuthHello: the secure Hello used for destination authentication after an
//    intermediate node's RREP. Rides inside an AODV DataPacket so it is
//    forwarded along the advertised route — and silently dropped by a black
//    hole that has no route.
//  - DetectionRequest (d_req = ⟨v_i, CH(v_i), v_B, CH(v_B)⟩): vehicle → CH
//    report of a suspicious route establishment.
//  - ForwardedDetection: CH → CH backbone transfer of an in-progress
//    detection (when the suspect resides in, or has fled to, another cluster).
//  - DetectionResult: detecting CH → reporter's CH backbone result relay.
//  - DetectionResponse: CH → reporter over-the-air verification verdict.
#pragma once

#include <optional>

#include "aodv/messages.hpp"
#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "net/frame.hpp"

namespace blackdp::core {

/// Verdict of a detection session.
enum class Verdict {
  kNotConfirmed,          ///< suspect never violated AODV under probing
  kSingleBlackHole,       ///< confirmed; no teammate claimed/confirmed
  kCooperativeBlackHole,  ///< confirmed, teammate confirmed too
  kUnreachable,           ///< suspect left the network before confirmation
};

[[nodiscard]] std::string_view toString(Verdict verdict);

/// Secure end-to-end Hello for destination authentication (§III-B1).
class AuthHello final : public net::Payload {
 public:
  static constexpr net::PayloadKind kKind = net::PayloadKind::kAuthHello;
  AuthHello() : Payload(kKind) {}

  std::uint64_t helloId{0};
  common::Address origin{};       ///< the verifying source
  common::Address destination{};  ///< the claimed destination
  bool isReply{false};
  common::Address responder{};    ///< who produced the reply
  std::optional<aodv::SecureEnvelope> envelope{};

  [[nodiscard]] std::string_view typeName() const override { return "hello"; }
  [[nodiscard]] std::uint32_t sizeBytes() const override {
    return envelope ? 152u : 40u;
  }

  /// Length of canonicalBytes(): "hello-v1" (u32 length + 8 bytes), helloId,
  /// origin, destination (u64 each), isReply (u8) and responder (u64).
  static constexpr std::size_t kCanonicalSize = 4 + 8 + 3 * 8 + 1 + 8;
  using CanonicalBytes = common::FixedBytes<kCanonicalSize>;
  /// The signed encoding, the bytes common::ByteWriter would produce, built
  /// on the stack.
  [[nodiscard]] CanonicalBytes canonicalBytes() const;
};

/// d_req — the detection request a legitimate node sends to its cluster head.
class DetectionRequest final : public net::Payload {
 public:
  static constexpr net::PayloadKind kKind =
      net::PayloadKind::kDetectionRequest;
  DetectionRequest() : Payload(kKind) {}

  common::Address reporter{};
  common::ClusterId reporterCluster{};
  common::Address suspect{};
  common::ClusterId suspectCluster{};
  /// Anti-replay nonce, fresh per transmission and covered by the envelope
  /// signature. 0 = legacy unstamped report (hardened detectors admit it;
  /// they cannot tell a replay from a retry without one).
  std::uint64_t nonce{0};
  /// Reporter authentication (the RSU verifies reports come from certified
  /// nodes, §III-C).
  std::optional<aodv::SecureEnvelope> envelope{};

  [[nodiscard]] std::string_view typeName() const override { return "dreq"; }
  [[nodiscard]] std::uint32_t sizeBytes() const override {
    return envelope ? 168u : 56u;
  }

  /// Length of canonicalBytes(): "dreq-v1" (u32 length + 7 bytes), reporter
  /// (u64), reporterCluster (u32), suspect (u64), suspectCluster (u32) and
  /// nonce (u64). Signed once and verified once per d_req.
  static constexpr std::size_t kCanonicalSize = 4 + 7 + 8 + 4 + 8 + 4 + 8;
  using CanonicalBytes = common::FixedBytes<kCanonicalSize>;
  /// The signed encoding, the bytes common::ByteWriter would produce, built
  /// on the stack.
  [[nodiscard]] CanonicalBytes canonicalBytes() const;
};

/// CH → CH: continue a detection in the receiving CH's cluster.
class ForwardedDetection final : public net::Payload {
 public:
  static constexpr net::PayloadKind kKind =
      net::PayloadKind::kForwardedDetection;
  ForwardedDetection() : Payload(kKind) {}

  common::DetectionSessionId session{};
  common::Address reporter{};
  common::ClusterId reporterCluster{};
  common::Address suspect{};
  /// Probe state transfer: 0 = start from RREQ₁; 1 = RREP₁ already obtained,
  /// continue with RREQ₂ using `lastSeenSeq`.
  std::uint8_t stage{0};
  aodv::SeqNum lastSeenSeq{0};
  /// Detection packets already spent by previous CHs (Fig. 5 accounting).
  std::uint32_t packetsSoFar{0};
  /// How many CH→CH forwards this session has undergone (loop bound).
  std::uint8_t forwardCount{0};
  /// When the first CH accepted the original d_req (latency accounting).
  sim::TimePoint startedAt{};

  [[nodiscard]] std::string_view typeName() const override { return "dfwd"; }
  [[nodiscard]] std::uint32_t sizeBytes() const override { return 72; }
};

/// Detecting CH → reporter's CH: final verdict for relay to the reporter.
class DetectionResult final : public net::Payload {
 public:
  static constexpr net::PayloadKind kKind =
      net::PayloadKind::kDetectionResult;
  DetectionResult() : Payload(kKind) {}

  common::DetectionSessionId session{};
  common::Address reporter{};
  common::Address suspect{};
  Verdict verdict{Verdict::kNotConfirmed};
  common::Address accomplice{common::kNullAddress};
  std::uint32_t packetsUsed{0};

  [[nodiscard]] std::string_view typeName() const override { return "dres"; }
  [[nodiscard]] std::uint32_t sizeBytes() const override { return 64; }
};

/// CH → reporter (over the air): the verification verdict.
class DetectionResponse final : public net::Payload {
 public:
  static constexpr net::PayloadKind kKind =
      net::PayloadKind::kDetectionResponse;
  DetectionResponse() : Payload(kKind) {}

  common::Address reporter{};
  common::Address suspect{};
  Verdict verdict{Verdict::kNotConfirmed};
  common::Address accomplice{common::kNullAddress};

  [[nodiscard]] std::string_view typeName() const override { return "dresp"; }
  [[nodiscard]] std::uint32_t sizeBytes() const override { return 48; }
};

}  // namespace blackdp::core
