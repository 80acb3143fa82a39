// Tests for the per-thread striped cells in concurrency/knobs.hpp.
//
// What must hold, in the default build AND under -DAMF_SEQ:
//   * the shared model keeps kStripes cache-line-padded slots, and a sum
//     over them is exact however many threads add and subtract — also when
//     one thread adds and another subtracts,
//   * the pinned model is one plain cell, with no padding,
//   * the build-level spellings follow the build model.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "concurrency/knobs.hpp"

namespace amf::concurrency {
namespace {

using SharedCounter = StripedCounter<ThreadModel::kShared, std::uint64_t>;
using PinnedCounter = StripedCounter<ThreadModel::kPinned, std::uint64_t>;

using SharedSlots = Striped<ThreadModel::kShared, std::atomic<std::uint64_t>>;
using PinnedSlots = Striped<ThreadModel::kPinned, PlainCell<std::uint64_t>>;

// Layout: padded slots when shared, a single plain cell when pinned.
static_assert(sizeof(SharedSlots) == kStripes * kCacheLine);
static_assert(sizeof(PinnedSlots) == sizeof(std::uint64_t));
static_assert(std::is_same_v<SharedCounter::Cell, std::atomic<std::uint64_t>>);
static_assert(std::is_same_v<PinnedCounter::Cell, PlainCell<std::uint64_t>>);
static_assert(sizeof(PinnedCounter) == sizeof(std::uint64_t));
#if defined(AMF_SEQ) && AMF_SEQ
static_assert(std::is_same_v<par_counter<std::uint64_t>, PinnedCounter>);
static_assert(
    std::is_same_v<par_striped<int>, Striped<ThreadModel::kPinned, int>>);
#else
static_assert(std::is_same_v<par_counter<std::uint64_t>, SharedCounter>);
static_assert(
    std::is_same_v<par_striped<int>, Striped<ThreadModel::kShared, int>>);
#endif

template <typename S>
int slots_of(const S& s) {
  int n = 0;
  s.for_each([&](const auto&) { ++n; });
  return n;
}

TEST(StripedTest, SharedModelVisitsEverySlot) {
  SharedSlots s;
  EXPECT_EQ(slots_of(s), static_cast<int>(kStripes));
  s.local().fetch_add(3);
  std::uint64_t sum = 0;
  s.for_each([&](const auto& c) { sum += c.load(); });
  EXPECT_EQ(sum, 3u);
}

TEST(StripedTest, PinnedModelIsOneCell) {
  PinnedSlots s;
  EXPECT_EQ(slots_of(s), 1);
  s.local().fetch_add(2);
  s.local().fetch_add(5);
  EXPECT_EQ(s.local().load(), 7u);
  PinnedCounter c;
  c.add(4);
  c.sub(1);
  EXPECT_EQ(c.load(), 3u);
}

TEST(StripedTest, ThreadSlotIsStable) {
  const std::size_t mine = this_thread_stripe();
  EXPECT_LT(mine, kStripes);
  EXPECT_EQ(this_thread_stripe(), mine);
}

// More threads than slots, so some share one: the sum is still exact.
TEST(StripedTest, ConcurrentSumIsExact) {
  SharedCounter c;
  constexpr int kThreads = 12;
  constexpr int kAdds = 20000;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kAdds; ++i) c.add(2);
        for (int i = 0; i < kAdds; ++i) c.sub(1);
      });
    }
  }
  EXPECT_EQ(c.load(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

// An increment on one thread and the matching decrement on another leave
// two slots off by one each (one wraps); the unsigned sum is still exact.
TEST(StripedTest, AddAndSubOnDifferentThreadsCancel) {
  SharedCounter c;
  std::jthread([&] { c.add(5); }).join();
  std::jthread([&] { c.sub(5); }).join();
  EXPECT_EQ(c.load(), 0u);
  c.add(1);
  EXPECT_EQ(c.load(), 1u);
}

}  // namespace
}  // namespace amf::concurrency
