#include "core/reporter_ledger.hpp"

#include <algorithm>
#include <vector>

namespace blackdp::core {

bool ReporterLedger::admitAccusation(common::Address reporter,
                                     sim::TimePoint now) {
  Entry& e = entry(reporter);
  e.lastTouched = std::max(e.lastTouched, now);
  noteTouched(e);
  if (e.quarantined) return false;
  while (!e.recent.empty() && now - e.recent.front() > config_.window) {
    e.recent.pop_front();
  }
  if (e.recent.size() >= config_.windowMax) return false;
  e.recent.push_back(now);
  return true;
}

bool ReporterLedger::admitNonce(common::Address reporter, std::uint64_t nonce,
                                sim::TimePoint now) {
  if (nonce == 0) return true;
  Entry& e = entry(reporter);
  e.lastTouched = std::max(e.lastTouched, now);
  noteTouched(e);
  if (!e.nonces.insert(nonce).second) return false;
  e.nonceOrder.push_back(nonce);
  if (e.nonceOrder.size() > config_.nonceCacheMax) {
    e.nonces.erase(e.nonceOrder.front());
    e.nonceOrder.pop_front();
  }
  return true;
}

bool ReporterLedger::demerit(common::Address reporter) {
  Entry& e = entry(reporter);
  noteTouched(e);
  ++e.demerits;
  if (!e.quarantined && e.demerits >= config_.demeritThreshold) {
    e.quarantined = true;
    return true;
  }
  return false;
}

void ReporterLedger::credit(common::Address reporter) {
  Entry& e = entry(reporter);
  noteTouched(e);
  if (e.demerits > 0) --e.demerits;
}

std::size_t ReporterLedger::evictIdle(sim::TimePoint now) {
  if (config_.entryTtl == sim::Duration{}) return 0;
  if (idleBound_ == kNoEntries || now - idleBound_ <= config_.entryTtl) {
    return 0;
  }
  std::size_t evicted = 0;
  idleBound_ = kNoEntries;
  entries_.eraseIf([&](common::Address, const Entry& e) {
    if (e.quarantined) return false;
    if (now - e.lastTouched <= config_.entryTtl) {
      idleBound_ = std::min(idleBound_, e.lastTouched);
      return false;
    }
    ++evicted;
    return true;
  });
  return evicted;
}

int ReporterLedger::demeritScore(common::Address reporter) const {
  const Entry* e = entries_.find(reporter);
  return e == nullptr ? 0 : e->demerits;
}

bool ReporterLedger::isQuarantined(common::Address reporter) const {
  const Entry* e = entries_.find(reporter);
  return e != nullptr && e->quarantined;
}

std::size_t ReporterLedger::noncesCached() const {
  std::size_t total = 0;
  entries_.forEach(
      [&](common::Address, const Entry& e) { total += e.nonces.size(); });
  return total;
}

void ReporterLedger::saveState(common::ByteWriter& w) const {
  std::vector<common::Address> order;
  order.reserve(entries_.size());
  entries_.forEach(
      [&](common::Address reporter, const Entry&) { order.push_back(reporter); });
  std::sort(order.begin(), order.end());

  w.writeU32(static_cast<std::uint32_t>(order.size()));
  for (const common::Address reporter : order) {
    const Entry& e = *entries_.find(reporter);
    w.writeU64(reporter.value());
    w.writeU32(static_cast<std::uint32_t>(e.recent.size()));
    for (const sim::TimePoint t : e.recent) w.writeI64(t.us());
    // nonceOrder alone carries the cache; the set is rebuilt on restore.
    w.writeU32(static_cast<std::uint32_t>(e.nonceOrder.size()));
    for (const std::uint64_t n : e.nonceOrder) w.writeU64(n);
    w.writeI64(e.demerits);
    w.writeBool(e.quarantined);
    w.writeI64(e.lastTouched.us());
  }
}

void ReporterLedger::restoreState(common::ByteReader& r) {
  entries_.clear();
  idleBound_ = kNoEntries;
  const std::uint32_t count = r.readU32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const common::Address reporter{r.readU64()};
    Entry e;
    const std::uint32_t recentCount = r.readU32();
    for (std::uint32_t k = 0; k < recentCount; ++k) {
      e.recent.push_back(sim::TimePoint::fromUs(r.readI64()));
    }
    const std::uint32_t nonceCount = r.readU32();
    for (std::uint32_t k = 0; k < nonceCount; ++k) {
      const std::uint64_t n = r.readU64();
      e.nonceOrder.push_back(n);
      e.nonces.insert(n);
    }
    e.demerits = static_cast<int>(r.readI64());
    e.quarantined = r.readBool();
    e.lastTouched = sim::TimePoint::fromUs(r.readI64());
    if (!e.quarantined) noteTouched(e);
    entries_[reporter] = std::move(e);
  }
}

}  // namespace blackdp::core
