// Discrete-event simulation kernel.
//
// Single-threaded, deterministic: events at equal timestamps execute in
// scheduling order (FIFO tie-break by sequence number). All protocol code in
// this repository runs inside event callbacks; nothing blocks.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace blackdp::sim {

/// Handle for cancelling a scheduled event.
class EventHandle {
 public:
  EventHandle() = default;

  [[nodiscard]] bool valid() const { return seq_ != 0; }

 private:
  friend class Simulator;
  EventHandle(std::uint64_t seq, std::uint32_t slot) : seq_{seq}, slot_{slot} {}
  std::uint64_t seq_{0};
  std::uint32_t slot_{0};  ///< the callable's slot while the event pends
};

/// The event-driven simulator.
class Simulator {
 public:
  /// Pooled small-callable (see sim/event_fn.hpp): hot-path captures stay
  /// inline instead of hitting the heap like std::function's would.
  using Callback = EventFn;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` to run `delay` after now. Negative delays clamp to zero.
  EventHandle schedule(Duration delay, Callback fn);

  /// Schedules `fn` at an absolute time (>= now; earlier clamps to now).
  EventHandle scheduleAt(TimePoint when, Callback fn);

  /// Cancels a pending event in O(1). Cancelling an already-run or
  /// already-cancelled event is a true no-op (the common pattern for timeout
  /// timers): it leaves nothing behind.
  void cancel(EventHandle handle);

  /// Runs until the queue drains or `until` is reached (events at exactly
  /// `until` still run). Returns the number of events executed.
  std::size_t run(TimePoint until = TimePoint::fromUs(
                      std::numeric_limits<std::int64_t>::max()));

  /// Runs at most one event; returns false if the queue is empty.
  bool step();

  /// Advances the clock to `to` without running anything (earlier times are
  /// a no-op). run(until) leaves now() at the last executed event, not at
  /// `until`; checkpoint/restore needs the clock pinned to the epoch
  /// boundary so state restored into a fresh simulator ages identically.
  /// Must not skip over pending events — asserted.
  void fastForward(TimePoint to);

  /// Number of events waiting (including cancelled tombstones).
  [[nodiscard]] std::size_t pendingEvents() const { return heap_.size(); }

  /// Total events executed since construction.
  [[nodiscard]] std::size_t executedEvents() const { return executed_; }

 private:
  /// Heap node: the callable lives in `slots_` so percolation moves 24
  /// bytes instead of a 72-byte Event (and never relocates an EventFn).
  /// (when, seq) is a strict total order — pop order is identical to the
  /// old std::priority_queue<Event>, so replay traces are unchanged.
  struct HeapEntry {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  void heapPush(HeapEntry entry);
  /// Removes the root entry (callers read heap_.front() first).
  void heapPopRoot();
  void freeSlot(std::uint32_t slot);
  [[nodiscard]] bool cancelled(const HeapEntry& entry) const;

  TimePoint now_{};
  std::uint64_t nextSeq_{1};
  std::size_t executed_{0};
  /// 4-ary implicit heap over compact entries: shallower than a binary heap
  /// and each level's children share a cache line, which matters at the
  /// ~10^6 push/pop-per-simulated-second rates of the e2e benches.
  std::vector<HeapEntry> heap_;
  /// Pending callables, indexed by HeapEntry::slot; freed slots recycle so
  /// steady-state scheduling does not allocate.
  std::vector<Callback> slots_;
  /// Seq of the live event in each slot; 0 once it is cancelled, has run, or
  /// the slot is free. A heap entry whose seq no longer matches its slot's is
  /// a cancelled tombstone: it stays queued (pendingEvents counts it) until
  /// popped, and a handle whose seq no longer matches cancels nothing.
  std::vector<std::uint64_t> slotSeq_;
  std::vector<std::uint32_t> freeSlots_;
};

}  // namespace blackdp::sim
