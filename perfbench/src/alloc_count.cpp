// Counting global operator new, linked into the traced binary only (as
// E14's AllocMeter does for its stage benches). The counter is
// thread-local, so counting adds no shared cache line to the contended
// workloads; each client thread reads its own count at the window edges.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++t_allocs;
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace perfbench {
std::uint64_t thread_allocs() { return t_allocs; }
}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
