// Shared vocabulary of the benchmark program: options, the per-run result,
// timing and order statistics, and the output digest.
//
// Every workload is a closed loop of identical PASSES (a corridor run, a
// highway world's burst, a Fig. 4 round, a stream world's epoch train).
// Passes repeat until --seconds have elapsed (at least one always runs),
// and each pass re-checks its outputs. Throughput is taken per unit
// of identical work inside the passes (see steadyPassSeconds and
// quietPassSeconds); setup_s is the median over all setups of the run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  bool seedGiven{false};
  double seconds{10.0};
  bool trace{false};
  std::string outDir{".bench_build/out"};  ///< spans + temporary files
};

/// What one run reports. `metrics` keeps insertion order for printing.
struct Result {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::string digest;  ///< hex FNV-1a over the deterministic surface
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void metric(std::string name, double value, std::string unit) {
    metrics.emplace_back(std::move(name),
                         std::make_pair(value, std::move(unit)));
  }
  /// Marks the run incorrect and says why on stderr.
  void mismatch(std::string_view what);
};

/// Threads a workload may use: min(4, hardware threads).
[[nodiscard]] unsigned benchThreads();

/// Peak resident set of this process so far, in MB (VmHWM).
[[nodiscard]] double peakRssMb();

/// Order statistic by linear interpolation (p in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The throughput statistic: the 95th percentile of per-unit rates (units
/// are corridor epochs and checkpoints of identical work). On shared or
/// SMT cores a unit that overlaps other load runs up to ~1.5x slower, and
/// the share of such units drifts from minute to minute; the upper quantile
/// measures the program rather than the neighbours as long as one unit in
/// twenty runs undisturbed.
[[nodiscard]] inline double steadyRate(std::vector<double> rates) {
  return quantile(std::move(rates), 0.95);
}

/// Wall time of one pass of repeated identical work. `unitS[p][u]` is unit
/// u's wall time in pass p (epochs, checkpoints or trials, in pass order;
/// every pass has the same units). Each unit is taken at its steadyRate
/// quantile across passes and the times are summed, so a unit needs one
/// undisturbed sample among the passes, wherever it fell. Corridor uses it:
/// its ~0.4 s units are too few to pool.
[[nodiscard]] double steadyPassSeconds(
    const std::vector<std::vector<double>>& unitS);

/// The quantile of pooled speeds that quietPassSeconds (and highway, whose
/// chunks are all the same work) report. In some runs the host is quiet
/// for only a few percent of the time; the 99th percentile needs one
/// sample in a hundred from such moments.
constexpr double kQuietQuantile = 0.99;

/// Wall time of one pass of many short units when the host is quiet.
/// `unitS` is as for steadyPassSeconds. Each unit's typical time is its
/// median across passes. Every sample's speed-up over its unit's median is
/// pooled across all units and passes, and the pass time is the sum of the
/// medians divided by the pool's kQuietQuantile. Unlike a per-unit
/// quantile, this needs quiet moments in only 1% of all samples, wherever
/// they fell, rather than in every unit.
[[nodiscard]] double quietPassSeconds(
    const std::vector<std::vector<double>>& unitS);

/// FNV-1a, 64-bit: the digest every workload prints.
class Digest {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ull;
    }
  }
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_{14695981039346656037ull};
};

/// Micro-timing of CryptoEngine::sign / verify on a d_req's canonical
/// bytes, one span per batch (traced runs only). Reports crypto.sign_ns and
/// crypto.verify_ns.
void measureCrypto(SpanRecorder& spans, Result& result);

// One entry point per workload; each fills `result` completely.
void runCorridor(const Options& options, SpanRecorder& spans, Result& result);
void runHighway(const Options& options, SpanRecorder& spans, Result& result);
void runFig4(const Options& options, SpanRecorder& spans, Result& result);
void runStream(const Options& options, SpanRecorder& spans, Result& result);

}  // namespace perfbench
