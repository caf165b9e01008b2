#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace blackdp::sim {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

EventHandle Simulator::schedule(Duration delay, Callback fn) {
  if (delay < Duration{}) delay = Duration{};
  return scheduleAt(now_ + delay, std::move(fn));
}

EventHandle Simulator::scheduleAt(TimePoint when, Callback fn) {
  BDP_ASSERT_MSG(static_cast<bool>(fn), "scheduled a null callback");
  if (when < now_) when = now_;
  const std::uint64_t seq = nextSeq_++;
  std::uint32_t slot = 0;
  if (!freeSlots_.empty()) {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
    slots_[slot] = std::move(fn);
    slotSeq_[slot] = seq;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
    slotSeq_.push_back(seq);
  }
  heapPush(HeapEntry{when, seq, slot});
  return EventHandle{seq, slot};
}

void Simulator::heapPush(HeapEntry entry) {
  heap_.push_back(entry);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Simulator::heapPopRoot() {
  if (heap_.size() > 1) heap_.front() = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void Simulator::freeSlot(std::uint32_t slot) {
  slots_[slot] = Callback{};
  freeSlots_.push_back(slot);
}

void Simulator::cancel(EventHandle handle) {
  if (!handle.valid() || handle.slot_ >= slotSeq_.size()) return;
  // A slot that has moved on (the event ran, or was cancelled and its slot
  // recycled) holds another seq or 0, so a stale handle matches nothing.
  if (slotSeq_[handle.slot_] == handle.seq_) slotSeq_[handle.slot_] = 0;
}

bool Simulator::cancelled(const HeapEntry& entry) const {
  return slotSeq_[entry.slot] != entry.seq;
}

std::size_t Simulator::run(TimePoint until) {
  if (auto* tr = obs::Trace::active()) {
    tr->record({now_.us(), obs::EventKind::kSimRun,
                static_cast<std::uint8_t>(obs::SimRunOp::kRunBegin), 0, 0, 0,
                0, 0, heap_.size()});
  }
  std::size_t ran = 0;
  while (!heap_.empty()) {
    if (heap_.front().when > until) break;
    if (step()) ++ran;
  }
  if (auto* tr = obs::Trace::active()) {
    tr->record({now_.us(), obs::EventKind::kSimRun,
                static_cast<std::uint8_t>(obs::SimRunOp::kRunEnd), 0, 0, 0, 0,
                0, ran});
  }
  return ran;
}

void Simulator::fastForward(TimePoint to) {
  if (to <= now_) return;
  // Peek past tombstones: jumping over a live pending event would reorder
  // causality (the event would then run "in the past").
  while (!heap_.empty() && cancelled(heap_.front())) {
    freeSlot(heap_.front().slot);
    heapPopRoot();
  }
  BDP_ASSERT_MSG(heap_.empty() || heap_.front().when >= to,
                 "fastForward would skip a pending event");
  now_ = to;
}

bool Simulator::step() {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    heapPopRoot();
    if (cancelled(top)) {
      freeSlot(top.slot);
      continue;  // tombstone
    }
    BDP_ASSERT_MSG(top.when >= now_, "event queue went backwards in time");
    now_ = top.when;
    ++executed_;
    // Move the callable out and recycle its slot before invoking: the event
    // may schedule again, and the freed slot is the one it should reuse.
    Callback fn = std::move(slots_[top.slot]);
    slotSeq_[top.slot] = 0;
    freeSlots_.push_back(top.slot);
    fn();
    return true;
  }
  return false;
}

}  // namespace blackdp::sim
