#ifndef MINIRAID_TESTS_ALLOCATION_COUNTER_H_
#define MINIRAID_TESTS_ALLOCATION_COUNTER_H_

// Replaces the global operator new of the test binary with one that counts
// the calling thread's heap allocations, for tests that pin a code path to
// zero allocations. Defines the replacement functions, so include it from
// exactly one source file of a binary.

#include <cstddef>
#include <cstdlib>
#include <new>

namespace miniraid {
/// Heap allocations made by the current thread so far.
inline thread_local size_t allocations = 0;
}  // namespace miniraid

// GCC flags free() on operator new's pointer once the two are inlined
// together, although here operator new is malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++miniraid::allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

#endif  // MINIRAID_TESTS_ALLOCATION_COUNTER_H_
