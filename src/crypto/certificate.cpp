#include "crypto/certificate.hpp"

#include "common/assert.hpp"

namespace blackdp::crypto {

Certificate::TbsBytes Certificate::tbsBytes() const {
  TbsBytes out;
  common::SpanWriter w{out};
  w.writeString("cert-v1");
  w.writeId(pseudonym);
  w.writeU64(subjectKey.keyId);
  w.writeId(serial);
  w.writeU64(static_cast<std::uint64_t>(issuedAt.us()));
  w.writeU64(static_cast<std::uint64_t>(expiresAt.us()));
  w.writeId(issuer);
  BDP_ASSERT(w.full());
  return out;
}

}  // namespace blackdp::crypto
