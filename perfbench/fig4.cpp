// fig4: the paper's Fig. 4 treatment matrix (single and cooperative black
// hole x attacker cluster 1-10) as short independent trials.
//
// One round = 20 treatments x 20 trials. Each trial is what runFig4Trial
// runs: construct a HighwayScenario, runVerification(), detectionSummary().
// Trials fan out over sim::ParallelRunner with min(4, nproc) workers; every
// round repeats the same seeds. work_per_s is trials per wall second of a
// round (fig4.trials_per_s) over a quiet round time: each trial index is
// the same work in every round, so trials are the units of
// quietPassSeconds, and their summed time is spread over the workers at
// the rounds' median busy ratio. setup_s is the median HighwayScenario
// construction time, measured inside the trials.
//
// Operation = one trial; it fails if it throws or confirms an honest node.
// Every round must reproduce round 0's outcomes exactly.
#include <map>
#include <memory>
#include <string>

#include "bench.hpp"
#include "scenario/highway_scenario.hpp"
#include "sim/parallel.hpp"

namespace perfbench {
namespace {

namespace scenario = blackdp::scenario;

constexpr std::uint32_t kClusters = 10;
constexpr std::uint32_t kTrialsPerTreatment = 20;
constexpr std::uint32_t kTrialsPerRound = 2 * kClusters * kTrialsPerTreatment;

struct Trial {
  bool threw{false};
  bool falsePositive{false};
  bool confirmedOnAttacker{false};
  bool hadSession{false};
  std::uint32_t packetsUsed{0};
  std::uint64_t frames{0};
  std::uint64_t sends{0};
  std::uint64_t events{0};
  std::uint64_t rreqs{0};
  std::uint64_t gridRebuilds{0};
  double constructS{0.0};  ///< for setup_s
  double seconds{0.0};     ///< wall time of the whole trial, on its worker
};

/// Per-trial seed from the treatment coordinates (independent worlds).
std::uint64_t trialSeed(std::uint64_t seedBase, std::uint32_t cluster,
                        scenario::AttackType attack, std::uint32_t trial) {
  std::uint64_t h = seedBase;
  h = h * 1000003ull + cluster;
  h = h * 1000003ull + static_cast<std::uint64_t>(attack);
  h = h * 1000003ull + trial;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

/// Trial `index` of a round; `id` is unique across rounds (span unit).
Trial runTrial(std::uint64_t seedBase, std::size_t index, std::uint64_t id,
               SpanRecorder& spans) {
  const auto attack = index < kTrialsPerRound / 2
                          ? scenario::AttackType::kSingle
                          : scenario::AttackType::kCooperative;
  const auto cluster = static_cast<std::uint32_t>(
      index % (kTrialsPerRound / 2) / kTrialsPerTreatment + 1);
  const auto trialIndex =
      static_cast<std::uint32_t>(index % kTrialsPerTreatment);

  Trial trial;
  const auto trialStart = Clock::now();
  const SpanRecorder::Scope trialSpan{spans, "fig4.trial", SpanRecorder::kNone,
                                      id};
  try {
    scenario::ScenarioConfig config;
    config.seed = trialSeed(seedBase, cluster, attack, trialIndex);
    config.attack = attack;
    config.attackerCluster = blackdp::common::ClusterId{cluster};

    std::unique_ptr<scenario::HighwayScenario> world;
    {
      const SpanRecorder::Scope span{spans, "scenario.construct",
                                     trialSpan.id(), id};
      world = std::make_unique<scenario::HighwayScenario>(config);
    }
    trial.constructS = secondsSince(trialStart);
    {
      const SpanRecorder::Scope span{spans, "core.verify", trialSpan.id(), id};
      (void)world->runVerification();
    }
    scenario::DetectionSummary summary;
    {
      const SpanRecorder::Scope span{spans, "core.summary", trialSpan.id(),
                                     id};
      summary = world->detectionSummary();
    }
    trial.falsePositive = summary.falsePositive;
    trial.confirmedOnAttacker = summary.confirmedOnAttacker;
    trial.hadSession = !summary.sessions.empty();
    trial.packetsUsed = summary.packetsUsed;
    const blackdp::net::MediumStats& medium = world->medium().stats();
    trial.frames = medium.framesDelivered;
    trial.sends = medium.framesSent;
    trial.gridRebuilds = medium.gridRebuilds;
    trial.events = world->simulator().executedEvents();
    for (const auto& vehicle : world->vehicles()) {
      trial.rreqs += vehicle->agent->stats().rreqOriginated +
                     vehicle->agent->stats().rreqRebroadcast;
    }
    const SpanRecorder::Scope span{spans, "scenario.destroy", trialSpan.id(),
                                   id};
    world.reset();
  } catch (const std::exception&) {
    trial.threw = true;
  }
  trial.seconds = secondsSince(trialStart);
  return trial;
}

std::uint64_t roundDigest(const std::vector<Trial>& trials) {
  Digest digest;
  for (const Trial& t : trials) {
    digest.add(std::uint64_t{t.threw} | std::uint64_t{t.falsePositive} << 1 |
               std::uint64_t{t.confirmedOnAttacker} << 2);
    digest.add(t.packetsUsed);
    digest.add(t.frames);
    digest.add(t.events);
  }
  return digest.value();
}

}  // namespace

void runFig4(const Options& options, SpanRecorder& spans, Result& result) {
  const std::uint64_t seedBase = options.seedGiven ? options.seed : 20170605;
  const blackdp::sim::ParallelRunner runner{benchThreads()};
  const bool traced = spans.enabled();

  struct Round {
    double seconds{0.0};
    bool traced{false};
    std::vector<Trial> trials;
  };
  std::vector<Round> rounds;
  double rssMb = 0.0;
  const auto start = Clock::now();
  while (rounds.size() < 2 || secondsSince(start) < options.seconds) {
    Round round;
    round.traced = traced && rounds.size() % 2 == 1;
    spans.setEnabled(round.traced);
    const std::uint64_t r = rounds.size();
    const auto roundStart = Clock::now();
    {
      const SpanRecorder::Scope span{spans, "fig4.round", SpanRecorder::kNone,
                                     r};
      round.trials = runner.map<Trial>(kTrialsPerRound, [&](std::size_t i) {
        return runTrial(seedBase, i, r * kTrialsPerRound + i, spans);
      });
    }
    round.seconds = secondsSince(roundStart);
    // Peak memory over setup and one round: later rounds repeat the same
    // work, and per-thread allocator arenas would otherwise let the peak
    // creep with the number of rounds the time allows.
    if (rounds.empty()) rssMb = peakRssMb();
    for (const Trial& trial : round.trials) {
      ++result.attempted;
      if (trial.threw || trial.falsePositive) ++result.failed;
    }
    rounds.push_back(std::move(round));
  }
  spans.setEnabled(traced);

  const std::vector<Trial>& first = rounds.front().trials;
  const std::uint64_t digest = roundDigest(first);
  for (const Round& round : rounds) {
    if (roundDigest(round.trials) != digest) {
      result.mismatch("fig4 round did not reproduce round 0");
    }
  }
  Digest out;
  out.add(digest);
  result.digest = out.hex();

  std::vector<double> rates;
  std::vector<double> constructMs;
  std::vector<std::vector<double>> trialS;  ///< [round][trial]
  std::vector<double> busy;  ///< summed trial time / (round wall x workers)
  const auto workers = static_cast<double>(runner.jobs());
  for (const Round& round : rounds) {
    rates.push_back(kTrialsPerRound / round.seconds);
    trialS.emplace_back();
    double summedS = 0.0;
    for (const Trial& trial : round.trials) {
      constructMs.push_back(trial.constructS * 1e3);
      trialS.back().push_back(trial.seconds);
      summedS += trial.seconds;
    }
    busy.push_back(summedS / (round.seconds * workers));
  }
  if (!traced) {
    // Trials take ~4 ms each, short enough to catch the quiet moments of a
    // shared host that a whole ~0.4 s round rarely falls in.
    const double roundS =
        quietPassSeconds(trialS) / (workers * median(busy));
    result.metric("work_per_s", kTrialsPerRound / roundS, "1/s");
    result.metric("setup_s", median(constructMs) / 1e3, "s");
    result.metric("peak_rss_mb", rssMb, "MB");
    return;
  }

  // ---- per-layer (traced run); counts over round 0 ----
  Trial sum;
  std::vector<double> packets;
  for (const Trial& t : first) {
    sum.frames += t.frames;
    sum.sends += t.sends;
    sum.events += t.events;
    sum.rreqs += t.rreqs;
    sum.gridRebuilds += t.gridRebuilds;
    if (t.hadSession) packets.push_back(t.packetsUsed);
  }
  // Timings from the traced rounds' spans. A trial span's unit is
  // round * kTrialsPerRound + index; a round span's unit is the round.
  std::map<std::uint64_t, double> roundSpanS;
  std::map<std::uint64_t, double> trialSpanS;  // round -> summed trial time
  std::vector<double> constructSpanMs;
  std::vector<double> verifyMs;
  for (const SpanRecorder::Span& span : spans.snapshot()) {
    const double ms = static_cast<double>(span.endNs - span.startNs) / 1e6;
    if (span.name == "fig4.round") roundSpanS[span.unit] = ms / 1e3;
    if (span.name == "fig4.trial") {
      trialSpanS[span.unit / kTrialsPerRound] += ms / 1e3;
    }
    if (span.name == "scenario.construct") constructSpanMs.push_back(ms);
    if (span.name == "core.verify") verifyMs.push_back(ms);
  }
  std::vector<double> busyRatio;
  for (const auto& [r, roundS] : roundSpanS) {
    busyRatio.push_back(trialSpanS[r] / (roundS * runner.jobs()));
  }
  std::vector<double> ratesUntraced;
  std::vector<double> ratesTraced;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    (rounds[r].traced ? ratesTraced : ratesUntraced).push_back(rates[r]);
  }
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return static_cast<double>(num) / static_cast<double>(den);
  };
  result.metric("sim.events_per_frame", ratio(sum.events, sum.frames), "ratio");
  result.metric("sim.runner_busy_ratio", median(busyRatio), "ratio");
  result.metric("net.deliveries_per_send", ratio(sum.frames, sum.sends),
                "ratio");
  result.metric("net.grid_rebuilds", static_cast<double>(sum.gridRebuilds),
                "count");
  result.metric("aodv.rreq_per_trial", ratio(sum.rreqs, kTrialsPerRound),
                "ratio");
  result.metric("scenario.construct_ms_p50", quantile(constructSpanMs, 0.5),
                "ms");
  result.metric("scenario.construct_ms_p99", quantile(constructSpanMs, 0.99),
                "ms");
  result.metric("core.verify_ms_p50", quantile(verifyMs, 0.5), "ms");
  result.metric("core.verify_ms_p99", quantile(verifyMs, 0.99), "ms");
  result.metric("core.detection_packets_p50", median(packets), "count");
  measureCrypto(spans, result);
  result.metric("trace_overhead", median(ratesUntraced) / median(ratesTraced),
                "ratio");
}

}  // namespace perfbench
