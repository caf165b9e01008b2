// Property tests for the reporter-reputation state machine (the
// accusation-channel defense). The ledger is pure bookkeeping, so every
// transition is checked in isolation and against a reference model under
// random interleavings.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "common/bytes.hpp"
#include "core/reporter_ledger.hpp"
#include "sim/rng.hpp"

namespace blackdp::core {
namespace {

constexpr common::Address kReporter{0x501};
constexpr common::Address kOther{0x502};

sim::TimePoint at(std::int64_t ms) {
  return sim::TimePoint::fromUs(ms * 1000);
}

TEST(ReporterLedgerTest, RateLimitWindowSlides) {
  ReporterLedgerConfig config;
  config.windowMax = 3;
  config.window = sim::Duration::seconds(10);
  ReporterLedger ledger{config};

  EXPECT_TRUE(ledger.admitAccusation(kReporter, at(0)));
  EXPECT_TRUE(ledger.admitAccusation(kReporter, at(100)));
  EXPECT_TRUE(ledger.admitAccusation(kReporter, at(200)));
  // Over budget inside the window.
  EXPECT_FALSE(ledger.admitAccusation(kReporter, at(300)));
  // A different reporter has its own budget.
  EXPECT_TRUE(ledger.admitAccusation(kOther, at(300)));
  // Once the first accusations age out of the window, budget returns.
  EXPECT_TRUE(ledger.admitAccusation(kReporter, at(10'200)));
}

TEST(ReporterLedgerTest, RejectedAccusationsDoNotConsumeBudget) {
  ReporterLedgerConfig config;
  config.windowMax = 1;
  config.window = sim::Duration::seconds(1);
  ReporterLedger ledger{config};

  EXPECT_TRUE(ledger.admitAccusation(kReporter, at(0)));
  // Hammering while over budget must not extend the lockout.
  for (int ms = 100; ms < 1000; ms += 100) {
    EXPECT_FALSE(ledger.admitAccusation(kReporter, at(ms)));
  }
  EXPECT_TRUE(ledger.admitAccusation(kReporter, at(1'100)));
}

TEST(ReporterLedgerTest, DemeritCrossesThresholdExactlyOnce) {
  ReporterLedgerConfig config;
  config.demeritThreshold = 3;
  ReporterLedger ledger{config};

  EXPECT_FALSE(ledger.demerit(kReporter));
  EXPECT_FALSE(ledger.demerit(kReporter));
  EXPECT_FALSE(ledger.isQuarantined(kReporter));
  // The crossing demerit reports true — and only that one, ever.
  EXPECT_TRUE(ledger.demerit(kReporter));
  EXPECT_TRUE(ledger.isQuarantined(kReporter));
  EXPECT_FALSE(ledger.demerit(kReporter));
  EXPECT_FALSE(ledger.demerit(kReporter));
}

TEST(ReporterLedgerTest, QuarantineBlocksFurtherAccusations) {
  ReporterLedgerConfig config;
  config.demeritThreshold = 1;
  ReporterLedger ledger{config};

  EXPECT_TRUE(ledger.admitAccusation(kReporter, at(0)));
  EXPECT_TRUE(ledger.demerit(kReporter));
  EXPECT_FALSE(ledger.admitAccusation(kReporter, at(50'000)));
}

TEST(ReporterLedgerTest, CreditForgivesButFloorsAtZero) {
  ReporterLedgerConfig config;
  config.demeritThreshold = 2;
  ReporterLedger ledger{config};

  ledger.credit(kReporter);  // floor: no negative score
  EXPECT_EQ(ledger.demeritScore(kReporter), 0);

  EXPECT_FALSE(ledger.demerit(kReporter));
  ledger.credit(kReporter);
  EXPECT_EQ(ledger.demeritScore(kReporter), 0);
  // The forgiven demerit buys headroom before the threshold.
  EXPECT_FALSE(ledger.demerit(kReporter));
  EXPECT_TRUE(ledger.demerit(kReporter));
}

TEST(ReporterLedgerTest, NonceReplayRejectedPerReporter) {
  ReporterLedger ledger;
  EXPECT_TRUE(ledger.admitNonce(kReporter, 42));
  EXPECT_FALSE(ledger.admitNonce(kReporter, 42));
  // Nonces are scoped per reporter.
  EXPECT_TRUE(ledger.admitNonce(kOther, 42));
  // Legacy unstamped d_reqs (nonce 0) always pass.
  EXPECT_TRUE(ledger.admitNonce(kReporter, 0));
  EXPECT_TRUE(ledger.admitNonce(kReporter, 0));
}

TEST(ReporterLedgerTest, NonceCacheEvictsOldestFirst) {
  ReporterLedgerConfig config;
  config.nonceCacheMax = 4;
  ReporterLedger ledger{config};

  for (std::uint64_t n = 1; n <= 4; ++n) {
    EXPECT_TRUE(ledger.admitNonce(kReporter, n));
  }
  EXPECT_FALSE(ledger.admitNonce(kReporter, 1));
  // Nonce 5 evicts nonce 1 (oldest); a replay of 1 now slips through, which
  // is the documented bounded-memory trade-off.
  EXPECT_TRUE(ledger.admitNonce(kReporter, 5));
  EXPECT_TRUE(ledger.admitNonce(kReporter, 1));
  // Recent nonces are still rejected.
  EXPECT_FALSE(ledger.admitNonce(kReporter, 5));
}

// Model-based property sweep: random demerit/credit interleavings must
// always agree with a trivially correct reference model.
TEST(ReporterLedgerTest, RandomInterleavingsMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    sim::Rng rng{seed};
    ReporterLedgerConfig config;
    config.demeritThreshold = static_cast<int>(rng.uniformInt(1, 6));
    ReporterLedger ledger{config};

    int model = 0;
    bool modelQuarantined = false;
    int thresholdCrossings = 0;
    for (int step = 0; step < 200; ++step) {
      if (rng.bernoulli(0.6)) {
        const bool crossed = ledger.demerit(kReporter);
        ++model;
        if (crossed) ++thresholdCrossings;
        if (!modelQuarantined && model >= config.demeritThreshold) {
          modelQuarantined = true;
          EXPECT_TRUE(crossed) << "seed " << seed << " step " << step;
        } else {
          EXPECT_FALSE(crossed) << "seed " << seed << " step " << step;
        }
      } else {
        ledger.credit(kReporter);
        model = std::max(0, model - 1);
      }
      EXPECT_EQ(ledger.demeritScore(kReporter), model)
          << "seed " << seed << " step " << step;
      EXPECT_EQ(ledger.isQuarantined(kReporter), modelQuarantined)
          << "seed " << seed << " step " << step;
    }
    EXPECT_LE(thresholdCrossings, 1) << "seed " << seed;
  }
}

// Rate-limit property under random arrival times: the number of admitted
// accusations inside any window never exceeds windowMax.
TEST(ReporterLedgerTest, WindowBudgetNeverExceededUnderRandomArrivals) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng{seed * 977};
    ReporterLedgerConfig config;
    config.windowMax = static_cast<std::uint32_t>(rng.uniformInt(1, 5));
    config.window = sim::Duration::seconds(5);
    ReporterLedger ledger{config};

    std::vector<sim::TimePoint> admitted;
    std::int64_t nowMs = 0;
    for (int step = 0; step < 300; ++step) {
      nowMs += rng.uniformInt(0, 1'500);
      if (ledger.admitAccusation(kReporter, at(nowMs))) {
        admitted.push_back(at(nowMs));
      }
      // Count admissions inside the current window (inclusive semantics
      // match the ledger: entries older than `window` are evicted).
      std::size_t inWindow = 0;
      for (const sim::TimePoint t : admitted) {
        if (at(nowMs) - t <= config.window) ++inWindow;
      }
      EXPECT_LE(inWindow, config.windowMax) << "seed " << seed;
    }
  }
}

// --- snapshot / restore semantics ------------------------------------------

namespace {

ReporterLedger reserialized(const ReporterLedger& ledger) {
  common::ByteWriter w;
  ledger.saveState(w);
  const common::Bytes bytes = std::move(w).take();
  ReporterLedger restored{ledger.config()};
  common::ByteReader r{bytes};
  restored.restoreState(r);
  EXPECT_TRUE(r.exhausted());
  return restored;
}

common::Bytes snapshotBytes(const ReporterLedger& ledger) {
  common::ByteWriter w;
  ledger.saveState(w);
  return std::move(w).take();
}

}  // namespace

TEST(ReporterLedgerRestoreTest, ReplayedNoncesStayRejectedAcrossRestore) {
  ReporterLedger ledger;
  EXPECT_TRUE(ledger.admitNonce(kReporter, 42, at(10)));
  EXPECT_TRUE(ledger.admitNonce(kReporter, 43, at(20)));

  ReporterLedger restored = reserialized(ledger);
  // The replay cache survived: a replayed d_req is NOT re-admitted after a
  // checkpoint/restore cycle (the whole point of checkpointing the ledger).
  EXPECT_FALSE(restored.admitNonce(kReporter, 42, at(30)));
  EXPECT_FALSE(restored.admitNonce(kReporter, 43, at(30)));
  EXPECT_TRUE(restored.admitNonce(kReporter, 44, at(30)));
}

TEST(ReporterLedgerRestoreTest, RateLimitWindowSurvivesRestore) {
  ReporterLedgerConfig config;
  config.windowMax = 2;
  config.window = sim::Duration::seconds(10);
  ReporterLedger ledger{config};
  EXPECT_TRUE(ledger.admitAccusation(kReporter, at(0)));
  EXPECT_TRUE(ledger.admitAccusation(kReporter, at(100)));

  ReporterLedger restored = reserialized(ledger);
  // Still over budget right after restore...
  EXPECT_FALSE(restored.admitAccusation(kReporter, at(200)));
  // ...and the window keeps sliding off the restored timestamps.
  EXPECT_TRUE(restored.admitAccusation(kReporter, at(10'200)));
}

TEST(ReporterLedgerRestoreTest, QuarantineAndDemeritsSurviveRestore) {
  ReporterLedgerConfig config;
  config.demeritThreshold = 2;
  ReporterLedger ledger{config};
  EXPECT_FALSE(ledger.demerit(kReporter));
  EXPECT_FALSE(ledger.demerit(kOther));
  EXPECT_TRUE(ledger.demerit(kReporter));

  ReporterLedger restored = reserialized(ledger);
  EXPECT_TRUE(restored.isQuarantined(kReporter));
  EXPECT_EQ(restored.demeritScore(kOther), 1);
  EXPECT_FALSE(restored.admitAccusation(kReporter, at(999)));
  // No double threshold-crossing after restore.
  EXPECT_FALSE(restored.demerit(kReporter));
}

TEST(ReporterLedgerRestoreTest, SerializationIsCanonical) {
  // Same logical state reached through different insertion orders must
  // serialize to identical bytes (checkpoint byte-identity depends on it).
  ReporterLedger a;
  EXPECT_TRUE(a.admitNonce(kReporter, 1, at(5)));
  EXPECT_TRUE(a.admitNonce(kOther, 2, at(5)));
  ReporterLedger b;
  EXPECT_TRUE(b.admitNonce(kOther, 2, at(5)));
  EXPECT_TRUE(b.admitNonce(kReporter, 1, at(5)));
  EXPECT_EQ(snapshotBytes(a), snapshotBytes(b));
}

// Property sweep: interrupt a random operation sequence with a
// snapshot/restore cycle at a random point; the restored ledger must stay
// outcome-identical with the uninterrupted one for the rest of the sequence,
// and their final snapshots must be byte-identical.
TEST(ReporterLedgerRestoreTest, RandomCutPointsAreOutcomeInvisible) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    sim::Rng rng{seed * 131};
    ReporterLedgerConfig config;
    config.windowMax = static_cast<std::uint32_t>(rng.uniformInt(1, 4));
    config.window = sim::Duration::seconds(rng.uniformInt(1, 8));
    config.demeritThreshold = static_cast<int>(rng.uniformInt(2, 5));
    config.nonceCacheMax = static_cast<std::size_t>(rng.uniformInt(2, 6));
    config.entryTtl = sim::Duration::seconds(rng.uniformInt(20, 40));

    ReporterLedger uninterrupted{config};
    ReporterLedger interrupted{config};
    const std::int64_t cut = rng.uniformInt(20, 180);
    std::int64_t nowMs = 0;
    for (std::int64_t step = 0; step < 200; ++step) {
      if (step == cut) {
        interrupted = reserialized(interrupted);
      }
      nowMs += rng.uniformInt(0, 900);
      const common::Address reporter{
          static_cast<std::uint64_t>(0x600 + rng.uniformInt(0, 3))};
      const int op = static_cast<int>(rng.uniformInt(0, 3));
      switch (op) {
        case 0:
          EXPECT_EQ(uninterrupted.admitAccusation(reporter, at(nowMs)),
                    interrupted.admitAccusation(reporter, at(nowMs)))
              << "seed " << seed << " step " << step;
          break;
        case 1: {
          const std::uint64_t nonce = static_cast<std::uint64_t>(
              rng.uniformInt(1, 8));  // small pool: replays are common
          EXPECT_EQ(uninterrupted.admitNonce(reporter, nonce, at(nowMs)),
                    interrupted.admitNonce(reporter, nonce, at(nowMs)))
              << "seed " << seed << " step " << step;
          break;
        }
        case 2:
          EXPECT_EQ(uninterrupted.demerit(reporter),
                    interrupted.demerit(reporter))
              << "seed " << seed << " step " << step;
          break;
        default:
          uninterrupted.credit(reporter);
          interrupted.credit(reporter);
          break;
      }
      if (step % 40 == 39) {
        uninterrupted.evictIdle(at(nowMs));
        interrupted.evictIdle(at(nowMs));
      }
      EXPECT_EQ(uninterrupted.demeritScore(reporter),
                interrupted.demeritScore(reporter))
          << "seed " << seed << " step " << step;
    }
    EXPECT_EQ(snapshotBytes(uninterrupted), snapshotBytes(interrupted))
        << "seed " << seed;
  }
}

// Idle eviction against a naive model that rescans every entry on every
// sweep. The ledger may skip its walk when no entry can be idle; that must
// never change which entries go, across any number of restore cuts.
// Reporters are created by every kind of op (demerit/credit create entries
// that have never been touched), and time advances in bursts and long gaps
// so sweeps alternate between evicting and finding nothing idle.
TEST(ReporterLedgerRestoreTest, IdleEvictionMatchesNaiveScanAcrossCuts) {
  struct ModelEntry {
    sim::TimePoint lastTouched{};
    int demerits{0};
    bool quarantined{false};
  };
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::Rng rng{seed * 7919};
    ReporterLedgerConfig config;
    config.demeritThreshold = static_cast<int>(rng.uniformInt(2, 4));
    config.entryTtl = sim::Duration::seconds(rng.uniformInt(2, 6));
    ReporterLedger ledger{config};
    std::map<std::uint64_t, ModelEntry> model;

    const auto touch = [&](std::uint64_t reporter, sim::TimePoint now) {
      ModelEntry& e = model[reporter];
      e.lastTouched = std::max(e.lastTouched, now);
    };

    std::int64_t nowMs = rng.uniformInt(0, 10'000);
    std::uint64_t evictions = 0;
    for (std::int64_t step = 0; step < 1500; ++step) {
      if (rng.bernoulli(0.01)) ledger = reserialized(ledger);
      nowMs += rng.bernoulli(0.05) ? rng.uniformInt(2'000, 9'000)
                                   : rng.uniformInt(0, 300);
      const sim::TimePoint now = at(nowMs);
      const std::uint64_t reporter =
          0x700 + static_cast<std::uint64_t>(rng.uniformInt(0, 15));
      const common::Address address{reporter};
      switch (rng.uniformInt(0, 5)) {
        case 0:
          (void)ledger.admitAccusation(address, now);
          touch(reporter, now);
          break;
        case 1: {
          const auto nonce = static_cast<std::uint64_t>(rng.uniformInt(0, 4));
          (void)ledger.admitNonce(address, nonce, now);
          if (nonce != 0) touch(reporter, now);
          break;
        }
        case 2: {
          (void)ledger.demerit(address);
          ModelEntry& e = model[reporter];
          if (++e.demerits >= config.demeritThreshold) e.quarantined = true;
          break;
        }
        case 3: {
          ledger.credit(address);
          ModelEntry& e = model[reporter];
          e.demerits = std::max(0, e.demerits - 1);
          break;
        }
        default: {
          std::size_t expected = 0;
          for (auto it = model.begin(); it != model.end();) {
            if (!it->second.quarantined &&
                now - it->second.lastTouched > config.entryTtl) {
              it = model.erase(it);
              ++expected;
            } else {
              ++it;
            }
          }
          ASSERT_EQ(ledger.evictIdle(now), expected)
              << "seed " << seed << " step " << step;
          evictions += expected;
          break;
        }
      }
      ASSERT_EQ(ledger.trackedReporters(), model.size())
          << "seed " << seed << " step " << step;
      const auto it = model.find(reporter);
      EXPECT_EQ(ledger.isQuarantined(address),
                it != model.end() && it->second.quarantined);
      EXPECT_EQ(ledger.demeritScore(address),
                it == model.end() ? 0 : it->second.demerits);
    }
    EXPECT_GT(evictions, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace blackdp::core
