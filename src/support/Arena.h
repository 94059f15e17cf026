//===- support/Arena.h - Bump-pointer allocation ----------------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena for analysis scratch data with a common lifetime,
/// such as the schedule graph's CSR adjacency arrays. Everything allocated
/// from one arena is freed together when the arena is destroyed, so the
/// per-function hot loop pays one amortized malloc per chunk instead of one
/// per tiny array, and neighboring allocations stay cache-adjacent.
///
/// Restricted to trivially destructible types: the arena never runs
/// destructors.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_SUPPORT_ARENA_H
#define PIRA_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace pira {

/// A chunked bump allocator. Not thread-safe; use one arena per analysis.
class Arena {
public:
  explicit Arena(size_t ChunkBytes = 64 * 1024) : ChunkBytes(ChunkBytes) {}

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Allocates uninitialized storage for \p Count objects of type T.
  template <typename T> T *allocate(size_t Count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    if (Count == 0)
      return nullptr;
    return static_cast<T *>(allocateBytes(Count * sizeof(T), alignof(T)));
  }

  /// Allocates storage for \p Count objects of type T, value-initialized
  /// (zeroed for arithmetic types).
  template <typename T> T *allocateZeroed(size_t Count) {
    T *P = allocate<T>(Count);
    for (size_t I = 0; I != Count; ++I)
      new (P + I) T();
    return P;
  }

  /// Total bytes handed out (diagnostics only; excludes alignment waste).
  size_t bytesAllocated() const { return TotalAllocated; }

private:
  void *allocateBytes(size_t Bytes, size_t Align) {
    uintptr_t P = (Cur + Align - 1) & ~(uintptr_t(Align) - 1);
    if (P + Bytes > End) {
      size_t Need = Bytes + Align;
      size_t Size = Need > ChunkBytes ? Need : ChunkBytes;
      // Chunks start uninitialized: a zero-filled 64 KiB chunk would cost
      // a small block's graph more than the graph itself, and
      // allocateZeroed clears exactly what its callers need.
      Chunks.push_back(std::make_unique_for_overwrite<char[]>(Size));
      Cur = reinterpret_cast<uintptr_t>(Chunks.back().get());
      End = Cur + Size;
      P = (Cur + Align - 1) & ~(uintptr_t(Align) - 1);
    }
    Cur = P + Bytes;
    TotalAllocated += Bytes;
    return reinterpret_cast<void *>(P);
  }

  size_t ChunkBytes;
  uintptr_t Cur = 0;
  uintptr_t End = 0;
  size_t TotalAllocated = 0;
  std::vector<std::unique_ptr<char[]>> Chunks;
};

} // namespace pira

#endif // PIRA_SUPPORT_ARENA_H
