// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent, unit): `unit` is the id of the trial,
// epoch, burst or pass the span belongs to, so every span of one unit of
// work can be grouped. Spans are taken only here, in the benchmark, around
// calls into each layer's public functions; nothing inside the library is
// instrumented. They stay in memory while the workload runs and are written
// once, as JSON lines with their self time, when it ends.
//
// Self time of a span = its duration minus the time its direct children
// cover (children are always nested in their parent on the same thread).
//
// A disabled recorder costs one branch per begin/end: begin returns kNone
// and end(kNone) does nothing, which is how the untraced run stays clean.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  using Id = std::int64_t;
  static constexpr Id kNone = -1;

  struct Span {
    std::string_view name;  ///< a string literal
    Id parent{kNone};
    std::uint64_t unit{0};
    std::int64_t startNs{0};
    std::int64_t endNs{0};
    std::uint32_t thread{0};
  };

  explicit SpanRecorder(bool enabled) : enabled_{enabled} {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Pauses or resumes recording (used to interleave traced and untraced
  /// passes inside one traced run, for the trace-overhead ratio). Call only
  /// while no span is open.
  void setEnabled(bool on) { enabled_ = on; }

  /// Opens a span; `name` must outlive the recorder (use a literal).
  [[nodiscard]] Id begin(std::string_view name, Id parent, std::uint64_t unit) {
    return enabled_ ? open(name, parent, unit) : kNone;
  }
  void end(Id id) {
    if (id != kNone) close(id);
  }

  /// RAII span.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string_view name, Id parent,
          std::uint64_t unit)
        : recorder_{recorder}, id_{recorder.begin(name, parent, unit)} {}
    ~Scope() { recorder_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] Id id() const { return id_; }

   private:
    SpanRecorder& recorder_;
    Id id_;
  };

  /// Copy of every span recorded so far, in begin order.
  [[nodiscard]] std::vector<Span> snapshot() const;
  /// Closed spans' durations in milliseconds, by name, in begin order.
  [[nodiscard]] std::vector<double> durationsMs(std::string_view name) const;
  /// Summed self time per span name, in seconds.
  [[nodiscard]] std::map<std::string, double> selfSeconds() const;
  [[nodiscard]] std::size_t size() const;

  /// Writes one JSON object per span (with self_ns); false on I/O error.
  [[nodiscard]] bool writeJsonl(const std::string& path) const;

 private:
  Id open(std::string_view name, Id parent, std::uint64_t unit);
  void close(Id id);
  [[nodiscard]] std::vector<std::int64_t> selfNs() const;  // lock held

  bool enabled_;
  const std::chrono::steady_clock::time_point origin_{
      std::chrono::steady_clock::now()};
  mutable std::mutex mutex_;  // guards spans_ and threads_
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> threads_;
};

}  // namespace perfbench
