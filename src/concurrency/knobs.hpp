// Compile-away concurrency knobs (DESIGN.md §16).
//
// The moderated hot path pays for atomics and mutexes because *any* thread
// may call in. Components that are pinned to one thread — and whole builds
// that declare the process single-threaded (-DAMF_SEQ=ON) — never need
// that machinery, so these knobs let the SAME source degrade to plain
// loads/stores and empty lock bodies, in the style of upcxx's
// `par_mutex`/`par_atomic` no-op fallbacks: code is written once against
// the knob types and the concurrency cost is selected at compile time.
//
// Two axes, deliberately separate:
//
//   * Build axis  — `amf::par_mutex` / `amf::par_atomic<T>` follow the
//     AMF_SEQ build flag. ON asserts the WHOLE process is single-threaded;
//     every user of the build-level aliases (e.g. runtime::EventLog)
//     compiles its synchronization away. The default build keeps real
//     std::mutex / std::atomic.
//   * Instantiation axis — `mutex_for<TM>` / `atomic_for<TM, T>` take an
//     explicit ThreadModel template argument. core::StaticProxy resolves
//     TM per component (a component declaring
//     `static constexpr ThreadModel kThreadModel = ThreadModel::kPinned`
//     gets the no-op types even in a normal multi-threaded build).
//
// The no-op types mirror the std interfaces closely enough that code
// written against the knobs compiles unchanged either way; they are NOT
// drop-in thread-safe — selecting them is a promise about the threads that
// exist, exactly like upcxx's hidden-AM-concurrency level.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <utility>

namespace amf::concurrency {

/// Who may touch a piece of state.
enum class ThreadModel {
  kShared,  // any thread: real mutexes and atomics
  kPinned,  // exactly one thread: locks and atomics compile away
};

#if defined(AMF_SEQ) && AMF_SEQ
/// Build-wide thread model: -DAMF_SEQ=ON declares the process
/// single-threaded, so the build-level aliases degrade to the no-op types.
inline constexpr ThreadModel kBuildModel = ThreadModel::kPinned;
#else
inline constexpr ThreadModel kBuildModel = ThreadModel::kShared;
#endif

/// BasicLockable/Lockable no-op. Same shape as std::mutex, zero state,
/// every member inlines to nothing.
struct NullMutex {
  void lock() {}
  void unlock() {}
  bool try_lock() { return true; }
};

/// Single-thread stand-in for std::atomic<T>: a plain value with the
/// std::atomic member surface (memory_order parameters accepted and
/// ignored). Copying stays deleted so the two types are interchangeable
/// in class layouts without behavioral drift.
template <typename T>
class PlainCell {
 public:
  PlainCell() noexcept = default;
  constexpr PlainCell(T desired) noexcept : val_(desired) {}
  PlainCell(const PlainCell&) = delete;
  PlainCell& operator=(const PlainCell&) = delete;

  T operator=(T desired) noexcept { return (val_ = desired); }
  operator T() const noexcept { return val_; }

  bool is_lock_free() const noexcept { return true; }

  T load(std::memory_order = std::memory_order_seq_cst) const noexcept {
    return val_;
  }
  void store(T desired, std::memory_order = std::memory_order_seq_cst) noexcept {
    val_ = desired;
  }
  T exchange(T desired, std::memory_order = std::memory_order_seq_cst) noexcept {
    T old = val_;
    val_ = desired;
    return old;
  }
  T fetch_add(T d, std::memory_order = std::memory_order_seq_cst) noexcept {
    T old = val_;
    val_ = static_cast<T>(val_ + d);
    return old;
  }
  T fetch_sub(T d, std::memory_order = std::memory_order_seq_cst) noexcept {
    T old = val_;
    val_ = static_cast<T>(val_ - d);
    return old;
  }
  bool compare_exchange_weak(
      T& expected, T desired,
      std::memory_order = std::memory_order_seq_cst,
      std::memory_order = std::memory_order_seq_cst) noexcept {
    if (val_ == expected) {
      val_ = desired;
      return true;
    }
    expected = val_;
    return false;
  }
  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order = std::memory_order_seq_cst,
      std::memory_order = std::memory_order_seq_cst) noexcept {
    return compare_exchange_weak(expected, desired);
  }

 private:
  T val_{};
};

/// Knob type selection per thread model.
template <ThreadModel TM>
struct KnobTraits {
  using Mutex = std::mutex;
  template <typename T>
  using Atomic = std::atomic<T>;
};

template <>
struct KnobTraits<ThreadModel::kPinned> {
  using Mutex = NullMutex;
  template <typename T>
  using Atomic = PlainCell<T>;
};

/// Instantiation-level knobs: pick per component/template argument.
template <ThreadModel TM>
using mutex_for = typename KnobTraits<TM>::Mutex;
template <ThreadModel TM, typename T>
using atomic_for = typename KnobTraits<TM>::template Atomic<T>;

/// Build-level knobs (the upcxx idiom): follow -DAMF_SEQ.
using par_mutex = mutex_for<kBuildModel>;
template <typename T>
using par_atomic = atomic_for<kBuildModel, T>;

// --- per-thread striping (the per-core flavour of par_atomic) -------------
//
// A tally that every call bumps and almost nobody reads should not be one
// shared cache line: on real cores each read-modify-write drags the line
// between cores and the callers serialize on it. A striped cell keeps
// kStripes cache-line-padded copies; each thread writes only the slot it
// was dealt, and the rare reader visits every slot (a scalable reader
// indicator). Counts of call EVENTS are exactly this shape: summing the
// slots gives the same number one shared counter would, because addition
// does not care which thread performed it. With the pinned model there is
// one thread, hence one plain cell and no padding.

/// Number of slots in a striped cell.
inline constexpr std::size_t kStripes = 8;
/// Padding unit of a stripe slot.
inline constexpr std::size_t kCacheLine = 64;

/// The slot this thread writes: dealt round-robin on the thread's first
/// use, so up to kStripes live threads never share a slot.
inline std::size_t this_thread_stripe() noexcept {
  static std::atomic<std::size_t> dealt{0};
  thread_local std::size_t slot = kStripes;  // kStripes = not dealt yet
  if (slot == kStripes) {
    slot = dealt.fetch_add(1, std::memory_order_relaxed) % kStripes;
  }
  return slot;
}

/// kStripes padded copies of `Cell`. `local()` is the calling thread's
/// copy; `for_each()` visits every copy (the read side). Cells shared by
/// several threads (more threads than slots) must be atomics.
template <ThreadModel TM, typename Cell>
class Striped {
 public:
  Cell& local() noexcept { return slots_[this_thread_stripe()].cell; }

  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) f(s.cell);
  }

 private:
  struct alignas(kCacheLine) Slot {
    Cell cell{};
  };
  std::array<Slot, kStripes> slots_{};
};

/// The pinned model: one plain cell, no padding, no slot lookup.
template <typename Cell>
class Striped<ThreadModel::kPinned, Cell> {
 public:
  Cell& local() noexcept { return cell_; }

  template <typename F>
  void for_each(F&& f) const {
    f(cell_);
  }

 private:
  Cell cell_{};
};

/// A striped integer counter: add/sub on the caller's slot, summed on
/// load. The sum of unsigned slots is exact modulo 2^N even when one
/// thread adds and another subtracts (a slot may then wrap on its own).
template <ThreadModel TM, typename T>
class StripedCounter {
 public:
  using Cell = atomic_for<TM, T>;

  /// The caller's slot, for protocols that must pair an increment and a
  /// decrement on the same slot (see AspectModerator's fast windows).
  Cell& local() noexcept { return cells_.local(); }

  void add(T d, std::memory_order o = std::memory_order_relaxed) noexcept {
    local().fetch_add(d, o);
  }
  void sub(T d, std::memory_order o = std::memory_order_relaxed) noexcept {
    local().fetch_sub(d, o);
  }
  T load(std::memory_order order = std::memory_order_relaxed) const noexcept {
    T sum{};
    cells_.for_each(
        [&](const Cell& c) { sum = static_cast<T>(sum + c.load(order)); });
    return sum;
  }
  template <typename F>
  void for_each(F&& f) const {
    cells_.for_each(std::forward<F>(f));
  }

 private:
  Striped<TM, Cell> cells_;
};

/// Build-level spellings, as for the atomics.
template <typename Cell>
using par_striped = Striped<kBuildModel, Cell>;
template <typename T>
using par_counter = StripedCounter<kBuildModel, T>;

}  // namespace amf::concurrency

namespace amf {
// The short spellings the rest of the tree uses.
using concurrency::par_atomic;
using concurrency::par_counter;
using concurrency::par_mutex;
using concurrency::par_striped;
using concurrency::ThreadModel;
}  // namespace amf
