#include "core/messages.hpp"

namespace blackdp::core {

std::string_view toString(Verdict verdict) {
  switch (verdict) {
    case Verdict::kNotConfirmed: return "not-confirmed";
    case Verdict::kSingleBlackHole: return "single-black-hole";
    case Verdict::kCooperativeBlackHole: return "cooperative-black-hole";
    case Verdict::kUnreachable: return "unreachable";
  }
  return "?";
}

AuthHello::CanonicalBytes AuthHello::canonicalBytes() const {
  CanonicalBytes out;
  common::SpanWriter w{out};
  w.writeString("hello-v1");
  w.writeU64(helloId);
  w.writeId(origin);
  w.writeId(destination);
  w.writeBool(isReply);
  w.writeId(responder);
  BDP_ASSERT(w.full());
  return out;
}

DetectionRequest::CanonicalBytes DetectionRequest::canonicalBytes() const {
  CanonicalBytes out;
  common::SpanWriter w{out};
  w.writeString("dreq-v1");
  w.writeId(reporter);
  w.writeId(reporterCluster);
  w.writeId(suspect);
  w.writeId(suspectCluster);
  w.writeU64(nonce);
  BDP_ASSERT(w.full());
  return out;
}

}  // namespace blackdp::core
