// Streaming detector-service mode: checkpoint/restore byte-identity
// (including a kill-at-random-epoch torture loop), memory-watermark
// invariants under flood, trace record/replay equivalence, and the
// checkpointed-run driver's manifest, resume and chaos machinery over both
// soak worlds (stream and megacity corridor).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "codec/checkpoint.hpp"
#include "obs/json.hpp"
#include "scenario/stream_world.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "soak/checkpointed_run.hpp"
#include "soak/megacity_soak.hpp"
#include "soak/stream_soak.hpp"

namespace blackdp {
namespace {

scenario::StreamConfig smallConfig(std::uint64_t seed = 77) {
  scenario::StreamConfig config;
  config.seed = seed;
  config.clusters = 2;
  config.dreqsPerEpoch = 4;
  return config;
}

std::uint64_t metricsVerdictHash(const std::string& metricsJson) {
  const auto object = obs::FlatJsonObject::parse(metricsJson);
  EXPECT_TRUE(object.has_value());
  const auto hash = object ? object->u64("verdict_hash") : std::nullopt;
  EXPECT_TRUE(hash.has_value());
  return hash.value_or(0);
}

// --- determinism of the injection plan --------------------------------------

TEST(StreamWorldTest, PlanEpochIsPureInSeedAndEpoch) {
  const scenario::StreamWorld a{smallConfig()};
  scenario::StreamWorld b{smallConfig()};
  EXPECT_EQ(a.planEpoch(0), b.planEpoch(0));
  EXPECT_EQ(a.planEpoch(7), b.planEpoch(7));
  // Running epochs must not perturb the plan (it is state-independent, so a
  // resumed run plans exactly what the uninterrupted run planned).
  const auto plan3 = b.planEpoch(3);
  b.runEpoch();
  b.runEpoch();
  EXPECT_EQ(b.planEpoch(3), plan3);
  // Different seeds diverge.
  const scenario::StreamWorld c{smallConfig(78)};
  EXPECT_NE(c.planEpoch(0), a.planEpoch(0));
}

TEST(StreamWorldTest, InjectionSpecJsonRoundTrips) {
  const scenario::StreamWorld world{smallConfig()};
  for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
    for (const scenario::InjectionSpec& spec : world.planEpoch(epoch)) {
      std::string line;
      scenario::appendInjectionJson(line, epoch, spec);
      const auto parsed = scenario::parseInjectionJson(line);
      ASSERT_TRUE(parsed.has_value()) << line;
      EXPECT_EQ(parsed->first, epoch);
      EXPECT_EQ(parsed->second, spec);
    }
  }
  EXPECT_FALSE(scenario::parseInjectionJson("not json").has_value());
  EXPECT_FALSE(scenario::parseInjectionJson("{\"epoch\":1}").has_value());
}

TEST(StreamWorldTest, ReplayFromSpecsMatchesLiveGeneration) {
  scenario::StreamWorld live{smallConfig()};
  scenario::StreamWorld replayed{smallConfig()};
  for (int epoch = 0; epoch < 4; ++epoch) {
    const auto specs = live.planEpoch(live.nextEpoch());
    live.runEpoch();
    replayed.runEpochFromSpecs(specs);
  }
  EXPECT_EQ(live.metrics().toJson(), replayed.metrics().toJson());
  EXPECT_EQ(live.saveCheckpoint(), replayed.saveCheckpoint());
}

// --- checkpoint / restore ---------------------------------------------------

// The tentpole pin: kill the world at a random epoch boundary, restore the
// checkpoint into a freshly built world, run to the end — every byte of the
// final checkpoint and the metrics JSON must match an uninterrupted run.
TEST(StreamCheckpointTest, KillAtRandomEpochRestoresByteIdentically) {
  constexpr std::uint64_t kEpochs = 6;
  for (std::uint64_t round = 1; round <= 3; ++round) {
    const scenario::StreamConfig config = smallConfig(900 + round);

    scenario::StreamWorld uninterrupted{config};
    for (std::uint64_t e = 0; e < kEpochs; ++e) uninterrupted.runEpoch();
    const common::Bytes finalExpected = uninterrupted.saveCheckpoint();

    sim::Rng rng{round};
    const auto killAt = static_cast<std::uint64_t>(
        rng.uniformInt(1, static_cast<std::int64_t>(kEpochs) - 1));
    scenario::StreamWorld victim{config};
    for (std::uint64_t e = 0; e < killAt; ++e) victim.runEpoch();
    const common::Bytes blob = victim.saveCheckpoint();

    scenario::StreamWorld resumed{config};
    const common::Status restored = resumed.restoreCheckpoint(blob);
    ASSERT_TRUE(restored.ok())
        << restored.error().code << ": " << restored.error().detail;
    EXPECT_EQ(resumed.nextEpoch(), killAt);
    for (std::uint64_t e = killAt; e < kEpochs; ++e) resumed.runEpoch();

    EXPECT_EQ(resumed.saveCheckpoint(), finalExpected)
        << "round " << round << " killed at epoch " << killAt;
    EXPECT_EQ(resumed.metrics().toJson(), uninterrupted.metrics().toJson())
        << "round " << round << " killed at epoch " << killAt;
  }
}

TEST(StreamCheckpointTest, RestoreRejectsConfigMismatch) {
  scenario::StreamWorld source{smallConfig(1)};
  source.runEpoch();
  const common::Bytes blob = source.saveCheckpoint();

  scenario::StreamWorld differentSeed{smallConfig(2)};
  const common::Status restored = differentSeed.restoreCheckpoint(blob);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code, "config-mismatch");
}

TEST(StreamCheckpointTest, RestoreRejectsCorruption) {
  scenario::StreamWorld source{smallConfig()};
  source.runEpoch();
  common::Bytes blob = source.saveCheckpoint();
  blob[blob.size() / 2] ^= 0x40;

  scenario::StreamWorld target{smallConfig()};
  const common::Status restored = target.restoreCheckpoint(blob);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code, "bad-crc");
}

TEST(StreamCheckpointTest, RestoreRejectsTruncation) {
  scenario::StreamWorld source{smallConfig()};
  source.runEpoch();
  common::Bytes blob = source.saveCheckpoint();
  blob.resize(blob.size() / 2);

  scenario::StreamWorld target{smallConfig()};
  const common::Status restored = target.restoreCheckpoint(blob);
  ASSERT_FALSE(restored.ok());
  // Mid-structure cuts surface as CRC or truncation errors, never UB.
  EXPECT_TRUE(restored.error().code == "bad-crc" ||
              restored.error().code == "truncated")
      << restored.error().code;
}

// --- bounded memory under flood ---------------------------------------------

TEST(StreamSoakTest, WatermarkHoldsUnderFloodAndEvictionActuallyRuns) {
  scenario::StreamConfig config = smallConfig(5);
  config.dreqsPerEpoch = 12;
  // Tight completed-record cap so the flood overflows it well within the
  // test's horizon (most of the flood is rate-limited/rejected by design).
  config.detector.completedCap = 64;
  scenario::StreamWorld world{config};
  for (int epoch = 0; epoch < 40; ++epoch) {
    world.runEpoch();
    const std::vector<std::string> violations = world.checkInvariants();
    EXPECT_TRUE(violations.empty())
        << "epoch " << epoch << ": " << violations.front();
  }
  // The bound must come from eviction doing work, not from the stream being
  // too small to ever hit the caps: enough sessions completed to overflow
  // the per-detector completed-record cap, so the cap had to evict.
  const scenario::StreamMetrics metrics = world.metrics();
  EXPECT_GT(metrics.completedTotal,
            static_cast<std::uint64_t>(config.detector.completedCap) *
                config.clusters);
  EXPECT_GT(metrics.completedEvicted, 0u);
  EXPECT_LE(metrics.completedRetained,
            static_cast<std::uint64_t>(config.detector.completedCap) *
                config.clusters);
  // Gauges stay pinned to the population, not the stream length. (The idle-
  // ledger TTL never fires here — every reporter stays active for the whole
  // soak, which is exactly why the gauge bound matters.)
  const std::uint64_t reporterCap =
      static_cast<std::uint64_t>(config.population.honestReporters +
                                 config.population.liarReporters) *
      config.clusters;
  EXPECT_LE(metrics.trackedReporters, reporterCap);
  EXPECT_LE(metrics.noncesCached,
            reporterCap * config.detector.hardening.ledger.nonceCacheMax);
}

// --- checkpointed-run driver, over both soak worlds -------------------------

// Per-test directory: ctest runs each case as its own concurrent process,
// and a shared directory makes their SetUp remove_all race.
class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string{"blackdp_soak_"} + info->test_suite_name() +
                       "_" + info->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = std::filesystem::path{::testing::TempDir()} / name;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string sub(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

}  // namespace

// Outside the anonymous namespace so that ctest names each typed case
// SoakDriverTest.<test><blackdp::StreamCase>, without a space-laden
// "(anonymous namespace)" in the name.
struct StreamCase {
  static soak::WorldFactory world(std::uint64_t seed, sim::ThreadPool&) {
    return soak::streamWorlds(smallConfig(seed));
  }
};

struct CorridorCase {
  static soak::WorldFactory world(std::uint64_t seed, sim::ThreadPool& pool) {
    scenario::CorridorConfig config;
    config.seed = seed;
    config.segments = 8;
    config.vehicles = 800;
    return soak::corridorWorlds(config, 4, pool);
  }
};

namespace {

template <typename Case>
class SoakDriverTest : public TempDirTest {
 protected:
  [[nodiscard]] soak::WorldFactory world(std::uint64_t seed) {
    return Case::world(seed, pool_);
  }

  sim::ThreadPool pool_{2};
};

using SoakWorlds = ::testing::Types<StreamCase, CorridorCase>;
TYPED_TEST_SUITE(SoakDriverTest, SoakWorlds);

TYPED_TEST(SoakDriverTest, WritesCheckpointsWithAVerifiableManifest) {
  soak::RunOptions options;
  options.epochs = 6;
  options.checkpointEvery = 2;
  options.checkpointDir = this->sub("ckpts");
  const soak::RunResult result =
      soak::runCheckpointed(options, this->world(11));
  ASSERT_TRUE(result.passed())
      << result.violations.front().invariant << ": "
      << result.violations.front().detail;
  EXPECT_EQ(result.endEpoch, 6u);

  const std::vector<soak::ManifestEntry> manifest =
      soak::readManifest(options.checkpointDir);
  ASSERT_EQ(manifest.size(), 3u);
  for (const soak::ManifestEntry& entry : manifest) {
    const auto blob =
        codec::readFile(options.checkpointDir + "/" + entry.file);
    ASSERT_TRUE(blob.ok()) << entry.file;
    EXPECT_EQ(blob.value().size(), entry.bytes);
    EXPECT_EQ(codec::crc32(blob.value()), entry.crc32);
    EXPECT_EQ(entry.seed, 11u);
    EXPECT_TRUE(codec::decodeCheckpoint(blob.value()).ok());
  }
  EXPECT_EQ(manifest.back().epoch, 6u);
  EXPECT_EQ(result.lastCheckpointPath,
            options.checkpointDir + "/" + manifest.back().file);
}

TYPED_TEST(SoakDriverTest, KillAndResumeMatchesUninterruptedRun) {
  soak::RunOptions uninterrupted;
  uninterrupted.epochs = 6;
  uninterrupted.checkpointEvery = 2;
  uninterrupted.checkpointDir = this->sub("a");
  const soak::RunResult full =
      soak::runCheckpointed(uninterrupted, this->world(12));
  ASSERT_TRUE(full.passed());

  soak::RunOptions killed = uninterrupted;
  killed.checkpointDir = this->sub("b");
  killed.stopAfter = 3;  // dies between checkpoints: epoch 3, last ckpt at 2
  const soak::RunResult first = soak::runCheckpointed(killed, this->world(12));
  ASSERT_TRUE(first.passed());
  EXPECT_EQ(first.endEpoch, 3u);

  soak::RunOptions resumed = killed;
  resumed.stopAfter = 0;
  resumed.resume = true;
  const soak::RunResult second =
      soak::runCheckpointed(resumed, this->world(12));
  ASSERT_TRUE(second.passed());
  EXPECT_EQ(second.startEpoch, 2u);  // resumed from the epoch-2 checkpoint
  EXPECT_EQ(second.endEpoch, 6u);

  EXPECT_EQ(second.surfaces, full.surfaces);
  const auto a = codec::readFile(this->sub("a") + "/ckpt-000006.bdpc");
  const auto b = codec::readFile(this->sub("b") + "/ckpt-000006.bdpc");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
}

TYPED_TEST(SoakDriverTest, ResumeWithMismatchedSeedFailsTyped) {
  soak::RunOptions options;
  options.epochs = 4;
  options.checkpointEvery = 2;
  options.checkpointDir = this->sub("ckpts");
  ASSERT_TRUE(soak::runCheckpointed(options, this->world(13)).passed());

  options.resume = true;
  const soak::RunResult result =
      soak::runCheckpointed(options, this->world(14));
  ASSERT_FALSE(result.passed());
  EXPECT_EQ(result.violations.front().invariant, "checkpoint-resume");
  EXPECT_NE(result.violations.front().detail.find("seed"), std::string::npos);
}

TYPED_TEST(SoakDriverTest, ResumeFromEmptyDirFailsTyped) {
  soak::RunOptions options;
  options.epochs = 4;
  options.resume = true;
  options.checkpointDir = this->sub("nothing-here");
  const soak::RunResult result =
      soak::runCheckpointed(options, this->world(15));
  ASSERT_FALSE(result.passed());
  EXPECT_EQ(result.violations.front().invariant, "checkpoint-resume");
}

// A kill mid-append leaves a torn, newline-less last manifest line. Resume
// must skip it, and the entries it appends afterwards must not run into it:
// every later line stays readable, and the external audit passes.
TYPED_TEST(SoakDriverTest, TornManifestLineIsSkippedOnResume) {
  soak::RunOptions options;
  options.epochs = 4;
  options.checkpointEvery = 2;
  options.checkpointDir = this->sub("ckpts");
  ASSERT_TRUE(soak::runCheckpointed(options, this->world(16)).passed());
  {
    std::ofstream out{soak::manifestPath(options.checkpointDir),
                      std::ios::app};
    out << "{\"epoch\":99,\"file\":\"ckpt-0000";
  }
  ASSERT_EQ(soak::readManifest(options.checkpointDir).size(), 2u);

  options.resume = true;
  options.epochs = 8;
  const soak::RunResult result =
      soak::runCheckpointed(options, this->world(16));
  ASSERT_TRUE(result.passed());
  EXPECT_EQ(result.startEpoch, 4u);

  const std::vector<soak::ManifestEntry> manifest =
      soak::readManifest(options.checkpointDir);
  ASSERT_EQ(manifest.size(), 4u);
  for (std::size_t i = 0; i < manifest.size(); ++i) {
    EXPECT_EQ(manifest[i].epoch, 2 * (i + 1));
  }
  const std::string audit =
      "python3 " BLACKDP_SOURCE_DIR "/scripts/validate_bench_json.py " +
      soak::manifestPath(options.checkpointDir) + " > /dev/null";
  EXPECT_EQ(std::system(audit.c_str()), 0) << audit;
}

TYPED_TEST(SoakDriverTest, ChaosKillsMatchTheUninterruptedRun) {
  soak::RunOptions options;
  options.epochs = 6;
  options.checkpointEvery = 2;
  options.checkpointDir = this->sub("chaos");
  options.chaosKills = 2;
  const soak::RunResult chaos = soak::runCheckpointed(options, this->world(18));
  ASSERT_TRUE(chaos.passed())
      << chaos.violations.front().invariant << ": "
      << chaos.violations.front().detail;
  for (const char* kill : {"/kill-0", "/kill-1"}) {
    EXPECT_FALSE(soak::readManifest(options.checkpointDir + kill).empty());
  }

  soak::RunOptions plain;
  plain.epochs = 6;
  EXPECT_EQ(soak::runCheckpointed(plain, this->world(18)).surfaces,
            chaos.surfaces);
}

// --- stream soak: d_req trace recording ------------------------------------

using StreamSoakHarnessTest = TempDirTest;

TEST_F(StreamSoakHarnessTest, RecordedTraceReplaysToTheSameVerdictTimeline) {
  const scenario::StreamConfig config = smallConfig(17);
  soak::RunOptions options;
  options.epochs = 5;
  const std::string tracePath = sub("trace.jsonl");
  const soak::RunResult result =
      soak::runCheckpointed(options, soak::streamWorlds(config, tracePath));
  ASSERT_TRUE(result.passed());
  const std::uint64_t recordedHash =
      metricsVerdictHash(result.surfaces.metricsJson);

  // Re-drive the recorded trace through a fresh world (what replay_serve
  // does) and require the identical verdict timeline hash.
  std::ifstream in{tracePath};
  ASSERT_TRUE(in.is_open());
  std::vector<std::vector<scenario::InjectionSpec>> epochs(options.epochs);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const auto parsed = scenario::parseInjectionJson(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    ASSERT_LT(parsed->first, epochs.size());
    epochs[parsed->first].push_back(parsed->second);
    ++lines;
  }
  EXPECT_EQ(lines, static_cast<std::size_t>(options.epochs) *
                       config.clusters * config.dreqsPerEpoch);

  scenario::StreamWorld replayed{config};
  for (const auto& specs : epochs) replayed.runEpochFromSpecs(specs);
  EXPECT_EQ(replayed.metrics().verdictHash, recordedHash);
}

// The resumed run re-runs the epochs between its checkpoint and the kill;
// they must not be recorded twice.
TEST_F(StreamSoakHarnessTest, KilledAndResumedTraceEqualsUninterruptedTrace) {
  const scenario::StreamConfig config = smallConfig(19);
  soak::RunOptions options;
  options.epochs = 6;
  options.checkpointEvery = 2;
  options.checkpointDir = sub("full");
  ASSERT_TRUE(
      soak::runCheckpointed(options,
                            soak::streamWorlds(config, sub("full.jsonl")))
          .passed());

  const soak::WorldFactory cutWorlds =
      soak::streamWorlds(config, sub("cut.jsonl"));
  options.checkpointDir = sub("cut");
  options.stopAfter = 3;
  ASSERT_TRUE(soak::runCheckpointed(options, cutWorlds).passed());
  options.stopAfter = 0;
  options.resume = true;
  ASSERT_TRUE(soak::runCheckpointed(options, cutWorlds).passed());

  const auto full = codec::readFile(sub("full.jsonl"));
  const auto cut = codec::readFile(sub("cut.jsonl"));
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(cut.ok());
  EXPECT_FALSE(full.value().empty());
  EXPECT_EQ(cut.value(), full.value());
}

}  // namespace
}  // namespace blackdp
