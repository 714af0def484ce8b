#include "common/alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace mmhar {
namespace {

// Relaxed is enough: tests only read the counter on the same thread that
// performed the allocations (or after joining), so no ordering is needed
// beyond the increments themselves being atomic.
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  // The one place raw malloc is legitimate: this IS the allocator.
  void* p = std::malloc(size);  // mmhar: allow(naked-alloc)
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = align;
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded);  // mmhar: allow(naked-alloc)
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace mmhar

// Replacement global allocation functions. Every form forwards to
// malloc/free so the plain and aligned paths stay free()-compatible.
void* operator new(std::size_t size) { return mmhar::counted_alloc(size); }
void* operator new[](std::size_t size) { return mmhar::counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return mmhar::counted_alloc_aligned(size,
                                      static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return mmhar::counted_alloc_aligned(size,
                                      static_cast<std::size_t>(align));
}

// These ARE the deallocator, so raw free is the whole point.
// mmhar: allow(naked-alloc)
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }  // mmhar: allow(naked-alloc)
void operator delete(void* p, std::size_t) noexcept { std::free(p); }  // mmhar: allow(naked-alloc)
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }  // mmhar: allow(naked-alloc)
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }  // mmhar: allow(naked-alloc)
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }  // mmhar: allow(naked-alloc)
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);  // mmhar: allow(naked-alloc)
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);  // mmhar: allow(naked-alloc)
}
