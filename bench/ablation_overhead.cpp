// Ablation B — the paper's §III-C limitation: authentication and detection
// overhead at the cluster head. Google-benchmark micro-benchmarks of every
// cryptographic operation a CH performs per report, plus the verification-
// table dedup factor under congestion (many vehicles reporting the same
// suspect at once). The d_req-sized benches time what every report costs the
// CH; BENCH_ablation_overhead.json records which SHA-256 block function ran
// ("crypto": {"sha256_block": "sha-ni" | "portable"}).
#include <benchmark/benchmark.h>

#include "core/messages.hpp"
#include "core/secure.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_block.hpp"
#include "obs/bench_json.hpp"
#include "scenario/highway_scenario.hpp"

namespace {

using namespace blackdp;

void BM_Sha256_64B(benchmark::State& state) {
  common::Bytes data(64, 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(
        std::span<const std::uint8_t>{data.data(), data.size()}));
  }
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256_1KiB(benchmark::State& state) {
  common::Bytes data(1024, 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(
        std::span<const std::uint8_t>{data.data(), data.size()}));
  }
}
BENCHMARK(BM_Sha256_1KiB);

void BM_HmacSha256(benchmark::State& state) {
  common::Bytes data(256, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmacSha256(
        std::string_view{"shared-key"},
        std::string_view{reinterpret_cast<const char*>(data.data()),
                         data.size()}));
  }
}
BENCHMARK(BM_HmacSha256);

/// One-shot HMAC over a d_req-sized message: key schedule plus two blocks.
void BM_HmacSha256_48B(benchmark::State& state) {
  const common::Bytes key(32, 0x42);
  const common::Bytes data(48, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmacSha256(
        std::span<const std::uint8_t>{key.data(), key.size()},
        std::span<const std::uint8_t>{data.data(), data.size()}));
  }
}
BENCHMARK(BM_HmacSha256_48B);

core::DetectionRequest benchDreq(common::Address reporter) {
  core::DetectionRequest dreq;
  dreq.reporter = reporter;
  dreq.reporterCluster = common::ClusterId{3};
  dreq.suspect = common::Address{0x5678};
  dreq.suspectCluster = common::ClusterId{4};
  dreq.nonce = 0x9e3779b97f4a7c15ull;
  return dreq;
}

void BM_SignDreq(benchmark::State& state) {
  crypto::CryptoEngine engine{1};
  const crypto::KeyPair keys = engine.generateKeyPair();
  const common::Bytes body = benchDreq(common::Address{0x1234}).canonicalBytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.sign(
        keys.priv, std::span<const std::uint8_t>{body.data(), body.size()}));
  }
}
BENCHMARK(BM_SignDreq);

/// What the CH does per received d_req: certificate check + signature.
void BM_VerifyDreq(benchmark::State& state) {
  sim::Simulator simulator;
  crypto::CryptoEngine engine{1};
  crypto::TaNetwork ta{simulator, engine};
  const common::TaId taId = ta.addAuthority();
  const crypto::Enrollment enrollment =
      ta.enroll(taId, common::NodeId{1}).value();
  const core::DetectionRequest dreq =
      benchDreq(enrollment.certificate.pseudonym);
  const common::Bytes body = dreq.canonicalBytes();
  const std::optional<aodv::SecureEnvelope> envelope{core::makeEnvelope(
      body, {enrollment.certificate, enrollment.privateKey}, engine)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::verifyEnvelope(
        body, envelope, dreq.reporter, ta, engine, simulator.now()));
  }
}
BENCHMARK(BM_VerifyDreq);

void BM_SignRrep(benchmark::State& state) {
  crypto::CryptoEngine engine{1};
  const crypto::KeyPair keys = engine.generateKeyPair();
  aodv::RouteReply rrep;
  rrep.destSeq = 42;
  const common::Bytes body = rrep.canonicalBytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.sign(
        keys.priv, std::span<const std::uint8_t>{body.data(), body.size()}));
  }
}
BENCHMARK(BM_SignRrep);

void BM_VerifySecureRrep(benchmark::State& state) {
  // Full CH-side verification: TA certificate check + payload signature.
  sim::Simulator simulator;
  crypto::CryptoEngine engine{1};
  crypto::TaNetwork ta{simulator, engine};
  const common::TaId taId = ta.addAuthority();
  const crypto::Enrollment enrollment =
      ta.enroll(taId, common::NodeId{1}).value();

  aodv::RouteReply rrep;
  rrep.destSeq = 42;
  rrep.replier = enrollment.certificate.pseudonym;
  const common::Bytes body = rrep.canonicalBytes();
  const aodv::SecureEnvelope envelope = core::makeEnvelope(
      body, {enrollment.certificate, enrollment.privateKey}, engine);
  const std::optional<aodv::SecureEnvelope> opt{envelope};

  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::verifyEnvelope(body, opt, rrep.replier, ta, engine,
                             simulator.now()));
  }
}
BENCHMARK(BM_VerifySecureRrep);

void BM_EnrollPseudonym(benchmark::State& state) {
  sim::Simulator simulator;
  crypto::CryptoEngine engine{1};
  crypto::TaNetwork ta{simulator, engine};
  const common::TaId taId = ta.addAuthority();
  std::uint32_t node = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ta.enroll(taId, common::NodeId{node++}));
  }
}
BENCHMARK(BM_EnrollPseudonym);

/// Verification-table dedup under congestion: `reporters` vehicles file a
/// d_req against the same suspect, nearly simultaneously. The CH runs ONE
/// probe session regardless; the counter reports how many probes were saved.
void BM_VerificationTableDedup(benchmark::State& state) {
  const auto reporters = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t probesSent = 0;
  std::uint64_t reportsFiled = 0;
  for (auto _ : state) {
    scenario::ScenarioConfig config;
    config.seed = 99 + reporters;
    config.attack = scenario::AttackType::kSingle;
    config.attackerCluster = common::ClusterId{1};
    config.evasion.firstEvasiveCluster = 99;
    scenario::HighwayScenario world(config);
    world.runFor(sim::Duration::milliseconds(500));

    const common::Address suspect = world.primaryAttacker()->address();
    std::uint32_t filed = 0;
    for (auto& vehicle : world.vehicles()) {
      if (filed >= reporters) break;
      if (vehicle->isAttacker()) continue;
      if (vehicle->membership->currentCluster() != common::ClusterId{1}) {
        continue;
      }
      world.injectDetectionRequest(*vehicle, suspect, common::ClusterId{1});
      ++filed;
    }
    world.runFor(sim::Duration::seconds(5));
    probesSent += world.rsu(common::ClusterId{1}).detector->stats().probesSent;
    reportsFiled += filed;
  }
  state.counters["reports"] =
      static_cast<double>(reportsFiled) /
      static_cast<double>(state.iterations());
  state.counters["probes"] = static_cast<double>(probesSent) /
                             static_cast<double>(state.iterations());
}
BENCHMARK(BM_VerificationTableDedup)->Arg(1)->Arg(4)->Arg(8);

/// Deterministic companion workload for the BENCH JSON: one congested-cluster
/// dedup world (8 reporters), so the timing-free dedup factor is archived
/// alongside the google-benchmark timings on stdout.
void writeDedupMetrics(const obs::BenchTimer& timer) {
  obs::MetricsRegistry registry;
  scenario::ScenarioConfig config;
  config.seed = 99 + 8;
  config.attack = scenario::AttackType::kSingle;
  config.attackerCluster = common::ClusterId{1};
  config.evasion.firstEvasiveCluster = 99;
  scenario::HighwayScenario world(config);
  world.runFor(sim::Duration::milliseconds(500));

  const common::Address suspect = world.primaryAttacker()->address();
  std::uint32_t filed = 0;
  for (auto& vehicle : world.vehicles()) {
    if (filed >= 8) break;
    if (vehicle->isAttacker()) continue;
    if (vehicle->membership->currentCluster() != common::ClusterId{1}) {
      continue;
    }
    world.injectDetectionRequest(*vehicle, suspect, common::ClusterId{1});
    ++filed;
  }
  world.runFor(sim::Duration::seconds(5));
  const core::DetectorStats stats =
      world.rsu(common::ClusterId{1}).detector->stats();
  registry.counter("overhead.dedup.reports_filed").add(filed);
  registry.counter("overhead.dedup.probes_sent").add(stats.probesSent);
  registry.counter("overhead.dedup.deduplicated").add(stats.dreqDeduplicated);
  obs::BenchRunInfo info = timer.info();
  info.addExtra("crypto", std::string{"{\"sha256_block\": \""} +
                              crypto::detail::sha256BlockName() + "\"}");
  obs::writeBenchJson("ablation_overhead", registry.snapshot(), info);
}

}  // namespace

int main(int argc, char** argv) {
  const obs::BenchTimer timer;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  writeDedupMetrics(timer);
  return 0;
}
