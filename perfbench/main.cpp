// perfbench: the repository benchmark program.
//
//   perfbench --workload corridor|highway|fig4|stream --seed N --seconds S
//             --trace 0|1 [--out DIR]
//
// Runs one workload as a closed loop for S seconds, checks its outputs, and
// prints as the LAST line of stdout one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (work_per_s, setup_s,
// peak_rss_mb). With --trace 1 they are the per-layer ones this workload
// exercises, taken from spans around layer calls and from public stats; the
// spans go to DIR/spans-<workload>-<seed>.jsonl. Exit code 0 iff correct.
// See perfbench/README.md for the workloads and metrics.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/messages.hpp"
#include "crypto/keys.hpp"

namespace perfbench {

void Result::mismatch(std::string_view what) {
  correct = false;
  std::cerr << "perfbench: CHECK FAILED: " << what << '\n';
}

unsigned benchThreads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

double peakRssMb() {
  // VmHWM belongs to this address space; getrusage's ru_maxrss would also
  // carry the parent's high-water mark across fork + exec.
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double steadyPassSeconds(const std::vector<std::vector<double>>& unitS) {
  double total = 0.0;
  for (std::size_t u = 0; u < unitS.front().size(); ++u) {
    std::vector<double> rates;
    for (const std::vector<double>& pass : unitS) {
      rates.push_back(1.0 / pass[u]);
    }
    total += 1.0 / steadyRate(std::move(rates));
  }
  return total;
}

double quietPassSeconds(const std::vector<std::vector<double>>& unitS) {
  double typicalS = 0.0;
  std::vector<double> speedups;
  speedups.reserve(unitS.size() * unitS.front().size());
  for (std::size_t u = 0; u < unitS.front().size(); ++u) {
    std::vector<double> times;
    for (const std::vector<double>& pass : unitS) times.push_back(pass[u]);
    const double unitMedian = median(times);
    typicalS += unitMedian;
    for (const double t : times) speedups.push_back(unitMedian / t);
  }
  return typicalS / quantile(std::move(speedups), kQuietQuantile);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
  return buf;
}

void measureCrypto(SpanRecorder& spans, Result& result) {
  using namespace blackdp;
  crypto::CryptoEngine engine{7};
  const crypto::KeyPair keys = engine.generateKeyPair();
  core::DetectionRequest dreq;
  dreq.reporter = common::Address{0x1234};
  dreq.reporterCluster = common::ClusterId{3};
  dreq.suspect = common::Address{0x5678};
  dreq.suspectCluster = common::ClusterId{4};
  dreq.nonce = 0x9e3779b97f4a7c15ull;
  common::Bytes message = dreq.canonicalBytes();

  constexpr std::uint64_t kBatches = 7;
  constexpr int kOpsPerBatch = 20000;
  std::uint64_t verified = 0;
  for (std::uint64_t batch = 0; batch < kBatches; ++batch) {
    crypto::Signature sig{};
    {
      const SpanRecorder::Scope span{spans, "crypto.sign", SpanRecorder::kNone,
                                     batch};
      for (int i = 0; i < kOpsPerBatch; ++i) {
        message.back() = static_cast<std::uint8_t>(i);  // defeat hoisting
        sig = engine.sign(keys.priv, message);
      }
    }
    const SpanRecorder::Scope span{spans, "crypto.verify", SpanRecorder::kNone,
                                   batch};
    for (int i = 0; i < kOpsPerBatch; ++i) {
      verified += engine.verify(keys.pub, message, sig) ? 1u : 0u;
    }
  }
  if (verified != kBatches * kOpsPerBatch) {
    result.mismatch("crypto: a fresh signature did not verify");
  }
  result.metric("crypto.sign_ns",
                median(spans.durationsMs("crypto.sign")) * 1e6 / kOpsPerBatch,
                "ns");
  result.metric("crypto.verify_ns",
                median(spans.durationsMs("crypto.verify")) * 1e6 / kOpsPerBatch,
                "ns");
}

}  // namespace perfbench

namespace {

using perfbench::Options;

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload corridor|highway|fig4|stream "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n";
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed");
      options.seedGiven = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.outDir = value;
    } else {
      usage("unknown flag");
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  return options;
}

void printResult(const perfbench::Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, valueUnit] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", valueUnit.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           valueUnit.second + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parseArgs(argc, argv);

  using Runner = void (*)(const Options&, SpanRecorder&, Result&);
  Runner runner = nullptr;
  if (options.workload == "corridor") runner = runCorridor;
  if (options.workload == "highway") runner = runHighway;
  if (options.workload == "fig4") runner = runFig4;
  if (options.workload == "stream") runner = runStream;
  if (runner == nullptr) usage("unknown workload");

  std::error_code ec;
  std::filesystem::create_directories(options.outDir, ec);
  if (ec) usage("cannot create --out directory");

  SpanRecorder spans{options.trace};
  Result result;
  try {
    runner(options, spans, result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }
  if (result.attempted == 0) result.mismatch("no operation attempted");
  if (result.failed != 0) result.mismatch("operations failed");

  std::cout << "digest " << options.workload << ": " << result.digest << '\n';
  if (options.trace) {
    const std::string path = options.outDir + "/spans-" + options.workload +
                             "-" + std::to_string(options.seed) + ".jsonl";
    if (!spans.writeJsonl(path)) result.mismatch("cannot write " + path);
    std::cout << "spans: " << spans.size() << " -> " << path
              << "\nself time by span (s):\n";
    for (const auto& [name, self] : spans.selfSeconds()) {
      std::printf("  %-22s %10.4f\n", name.c_str(), self);
    }
  }
  printResult(result);
  return result.correct ? 0 : 1;
}
