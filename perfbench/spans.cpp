#include "spans.hpp"

#include <fstream>

namespace perfbench {

SpanRecorder::Id SpanRecorder::open(std::string_view name, Id parent,
                                    std::uint64_t unit) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count();
  const std::lock_guard lock{mutex_};
  const auto [it, inserted] = threads_.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(threads_.size()));
  spans_.push_back({name, parent, unit, now, now, it->second});
  return static_cast<Id>(spans_.size() - 1);
}

void SpanRecorder::close(Id id) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count();
  const std::lock_guard lock{mutex_};
  spans_[static_cast<std::size_t>(id)].endNs = now;
}

std::vector<std::int64_t> SpanRecorder::selfNs() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].endNs - spans_[i].startNs;
  }
  for (const Span& span : spans_) {
    if (span.parent == kNone) continue;
    self[static_cast<std::size_t>(span.parent)] -= span.endNs - span.startNs;
  }
  return self;
}

std::vector<SpanRecorder::Span> SpanRecorder::snapshot() const {
  const std::lock_guard lock{mutex_};
  return spans_;
}

std::vector<double> SpanRecorder::durationsMs(std::string_view name) const {
  const std::lock_guard lock{mutex_};
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.endNs - span.startNs) / 1e6);
    }
  }
  return out;
}

std::map<std::string, double> SpanRecorder::selfSeconds() const {
  const std::lock_guard lock{mutex_};
  const std::vector<std::int64_t> self = selfNs();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[std::string{spans_[i].name}] += static_cast<double>(self[i]) / 1e9;
  }
  return out;
}

std::size_t SpanRecorder::size() const {
  const std::lock_guard lock{mutex_};
  return spans_.size();
}

bool SpanRecorder::writeJsonl(const std::string& path) const {
  const std::lock_guard lock{mutex_};
  std::ofstream os{path};
  if (!os) return false;
  const std::vector<std::int64_t> self = selfNs();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << span.name
       << "\",\"parent\":" << span.parent << ",\"unit\":" << span.unit
       << ",\"thread\":" << span.thread << ",\"start_ns\":" << span.startNs
       << ",\"end_ns\":" << span.endNs << ",\"self_ns\":" << self[i]
       << "}\n";
  }
  return static_cast<bool>(os);
}

}  // namespace perfbench
