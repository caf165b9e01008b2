// Reporter reputation ledger (accusation-channel defense).
//
// The d_req channel is itself an attack surface: a compromised-but-certified
// vehicle can flood forged reports against honest nodes to weaponize the
// quarantine machinery (cf. Sen et al.; Baadache & Belmehdi). Each hardened
// detector keeps one ledger over the reporters it has heard from:
//
//  - rate limiting: at most `windowMax` accusations per reporter within a
//    sliding `window`;
//  - replay protection: a bounded per-reporter cache of d_req nonces — a
//    re-sent (captured) d_req is rejected even though its signature verifies;
//  - demerit score: every accusation whose suspect passes a full probe
//    campaign with zero violations costs the accuser one demerit; a
//    confirmed accusation earns one credit (floor 0). Crossing
//    `demeritThreshold` marks the reporter a liar, exactly once — the
//    detector then quarantines it through the TA like any other attacker.
//
// The ledger is pure bookkeeping (no simulator, no I/O), so its state
// machine is property-testable in isolation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <unordered_set>

#include "common/address_registry.hpp"
#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "sim/time.hpp"

namespace blackdp::core {

struct ReporterLedgerConfig {
  /// Demerits at which a reporter is declared a liar.
  int demeritThreshold{5};
  /// Accusations admitted per reporter within `window`.
  std::uint32_t windowMax{8};
  sim::Duration window{sim::Duration::seconds(10)};
  /// Per-reporter replay-cache capacity (oldest nonce evicted first).
  std::size_t nonceCacheMax{64};
  /// Streaming-service bound: entries idle longer than this are evicted by
  /// evictIdle() (quarantined entries are kept — they are the verdicts the
  /// ledger exists to remember, and their count is bounded by the attacker
  /// population). 0 (default) disables eviction: batch trials are short and
  /// their tests inspect the full ledger afterwards.
  sim::Duration entryTtl{};
};

class ReporterLedger {
 public:
  explicit ReporterLedger(ReporterLedgerConfig config = {})
      : config_{config} {}

  /// Sliding-window rate limit. Returns false (and does not record the
  /// accusation) when the reporter is over budget or already quarantined.
  [[nodiscard]] bool admitAccusation(common::Address reporter,
                                     sim::TimePoint now);

  /// Replay check. Returns false when this (reporter, nonce) pair was seen
  /// before; nonce 0 (legacy unstamped d_req) is always admitted. `now`
  /// refreshes the entry's idle clock for TTL eviction; callers without a
  /// clock (unit tests) may omit it.
  [[nodiscard]] bool admitNonce(common::Address reporter, std::uint64_t nonce,
                                sim::TimePoint now = {});

  /// Charges one demerit (exoneration of the accused). Returns true exactly
  /// when this demerit crosses the liar threshold — the caller quarantines.
  [[nodiscard]] bool demerit(common::Address reporter);

  /// Rewards a confirmed accusation: one demerit forgiven (floor 0).
  void credit(common::Address reporter);

  /// Drops non-quarantined entries idle longer than config.entryTtl. No-op
  /// (returns 0) when the TTL is 0. Returns the number of entries evicted.
  std::size_t evictIdle(sim::TimePoint now);

  [[nodiscard]] int demeritScore(common::Address reporter) const;
  [[nodiscard]] bool isQuarantined(common::Address reporter) const;
  [[nodiscard]] std::size_t trackedReporters() const { return entries_.size(); }
  /// Total nonces cached across all entries (memory-watermark input).
  [[nodiscard]] std::size_t noncesCached() const;
  [[nodiscard]] const ReporterLedgerConfig& config() const { return config_; }

  /// Checkpoint support. Entries are written sorted by reporter address so
  /// identical logical state always serializes to identical bytes, whatever
  /// the hash-map iteration order. restoreState replaces all entries.
  void saveState(common::ByteWriter& w) const;
  void restoreState(common::ByteReader& r);

 private:
  struct Entry {
    std::deque<sim::TimePoint> recent;  ///< accusation times inside `window`
    std::deque<std::uint64_t> nonceOrder;
    std::unordered_set<std::uint64_t> nonces;
    int demerits{0};
    bool quarantined{false};
    sim::TimePoint lastTouched{};  ///< idle clock for TTL eviction
  };

  Entry& entry(common::Address reporter) { return entries_[reporter]; }

  /// Lowers the idle bound to `e`'s clock after a touch or a creation.
  void noteTouched(const Entry& e) {
    idleBound_ = std::min(idleBound_, e.lastTouched);
  }

  ReporterLedgerConfig config_;
  /// Dense-slot map: the per-d_req rate/replay checks probe once and index.
  common::DenseAddressMap<Entry> entries_;
  /// Lower bound on every non-quarantined entry's lastTouched (the maximum
  /// time point when there is none). lastTouched only grows, so the bound
  /// holds until the next full walk recomputes it; while now - bound <=
  /// entryTtl nothing can be idle and evictIdle skips the walk.
  sim::TimePoint idleBound_{kNoEntries};
  static constexpr sim::TimePoint kNoEntries =
      sim::TimePoint::fromUs(std::numeric_limits<std::int64_t>::max());
};

}  // namespace blackdp::core
