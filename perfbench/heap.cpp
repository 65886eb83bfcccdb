// Live-heap accounting for the peak_heap_mb metric: the benchmark binary
// replaces the global operator new/delete (the library's allocations go
// through them too), counting live bytes and their high-water mark across
// all threads. libstdc++'s array and nothrow forms forward to the forms
// replaced here.

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  const std::size_t now =
      g_live.fetch_add(malloc_usable_size(p), std::memory_order_relaxed) + malloc_usable_size(p);
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak && !g_peak.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  return p;
}

void uncounted(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return counted(std::malloc(n == 0 ? 1 : n)); }

void* operator new(std::size_t n, std::align_val_t al) {
  const std::size_t a = static_cast<std::size_t>(al);
  return counted(std::aligned_alloc(a, (n + a - 1) / a * a + (n == 0 ? a : 0)));
}

void operator delete(void* p) noexcept { uncounted(p); }
void operator delete(void* p, std::align_val_t) noexcept { uncounted(p); }
void operator delete(void* p, std::size_t) noexcept { uncounted(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { uncounted(p); }

namespace perfbench {

void reset_heap_peak() {
  g_peak.store(g_live.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

std::size_t heap_peak_bytes() { return g_peak.load(std::memory_order_relaxed); }

}  // namespace perfbench
