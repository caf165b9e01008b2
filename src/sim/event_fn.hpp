// Pooled small-callable event type.
//
// The simulator's hot timers (frame deliveries, per-hop forwards, beacon
// ticks) carry captures of a few dozen bytes. std::function heap-allocates
// anything over its ~16-byte small buffer, which charged one malloc/free
// pair to every delivered frame. EventFn is a move-only type-erased
// callable with a 48-byte inline buffer sized for the largest hot capture,
// the jittered medium's per-receiver delivery lambda (this + NodeId +
// Frame). A zero-jitter medium schedules one batch event per transmission
// instead, capturing only this + a pool index. Larger or alignment-exotic
// callables fall back to the heap, so cold paths lose nothing but speed.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace blackdp::sim {

class EventFn {
 public:
  /// Sized for the jittered medium's per-receiver delivery capture; every
  /// hot-path lambda must fit.
  static constexpr std::size_t kInlineBytes = 48;

  EventFn() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function
  EventFn(std::nullptr_t) {}

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function
  EventFn(F&& fn) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = inlineOps<Fn>();
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = heapOps<Fn>();
    }
  }

  EventFn(EventFn&& other) noexcept { moveFrom(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs into `dst` and ends `src`'s lifetime (relocation).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static Fn* inlinePtr(void* storage) {
    return std::launder(reinterpret_cast<Fn*>(storage));
  }

  template <typename Fn>
  static const Ops* inlineOps() {
    static constexpr Ops ops{
        [](void* s) { (*inlinePtr<Fn>(s))(); },
        [](void* dst, void* src) {
          Fn* from = inlinePtr<Fn>(src);
          ::new (dst) Fn(std::move(*from));
          from->~Fn();
        },
        [](void* s) { inlinePtr<Fn>(s)->~Fn(); }};
    return &ops;
  }

  template <typename Fn>
  static const Ops* heapOps() {
    static constexpr Ops ops{
        [](void* s) { (**inlinePtr<Fn*>(s))(); },
        [](void* dst, void* src) {
          ::new (dst) Fn*(*inlinePtr<Fn*>(src));
        },
        [](void* s) { delete *inlinePtr<Fn*>(s); }};
    return &ops;
  }

  void moveFrom(EventFn& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes]{};
  const Ops* ops_{nullptr};
};

}  // namespace blackdp::sim
