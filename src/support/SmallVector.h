//===- support/SmallVector.h - Inline-storage vector ------------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A vector with inline storage for the first InlineCapacity elements,
/// spilling to the heap only beyond that. Instruction operand lists are
/// almost always tiny (zero to three registers, one or two branch targets),
/// so storing them inline turns an Instruction into one flat object and
/// removes a malloc/free plus a pointer chase from every IR touch on the
/// hot compile path. BitVector keeps its words in one the same way, so a
/// row of a block-sized bit matrix costs no allocation of its own.
///
/// Restricted to trivially copyable element types; that keeps relocation a
/// memcpy and the container itself cheap to move.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_SUPPORT_SMALLVECTOR_H
#define PIRA_SUPPORT_SMALLVECTOR_H

#include <cassert>
#include <cstring>
#include <initializer_list>
#include <type_traits>
#include <utility>
#include <vector>

namespace pira {

/// A dynamically sized sequence of trivially copyable elements with inline
/// storage for the first \p InlineCapacity of them.
template <typename T, unsigned InlineCapacity> class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector is restricted to trivially copyable types");
  static_assert(InlineCapacity > 0, "inline capacity must be nonzero");

public:
  using value_type = T;
  using iterator = T *;
  using const_iterator = const T *;

  SmallVector() = default;

  SmallVector(std::initializer_list<T> Init) { assign(Init.begin(), Init.size()); }

  /// Converting constructor from std::vector, so call sites that build
  /// operand lists as plain vectors keep working unchanged.
  SmallVector(const std::vector<T> &V) { assign(V.data(), V.size()); }

  SmallVector(const SmallVector &RHS) { assign(RHS.data(), RHS.Size); }

  SmallVector(SmallVector &&RHS) noexcept { stealFrom(RHS); }

  SmallVector &operator=(const SmallVector &RHS) {
    if (this != &RHS)
      assign(RHS.data(), RHS.Size);
    return *this;
  }

  SmallVector &operator=(SmallVector &&RHS) noexcept {
    if (this != &RHS) {
      freeHeap();
      stealFrom(RHS);
    }
    return *this;
  }

  ~SmallVector() { freeHeap(); }

  unsigned size() const { return Size; }
  bool empty() const { return Size == 0; }

  T *data() { return Capacity == InlineCapacity ? Inline : Heap; }
  const T *data() const {
    return Capacity == InlineCapacity ? Inline : Heap;
  }

  iterator begin() { return data(); }
  iterator end() { return data() + Size; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + Size; }

  T &operator[](unsigned Idx) {
    assert(Idx < Size && "index out of range");
    return data()[Idx];
  }
  const T &operator[](unsigned Idx) const {
    assert(Idx < Size && "index out of range");
    return data()[Idx];
  }

  T &back() {
    assert(Size != 0 && "back of empty vector");
    return data()[Size - 1];
  }
  const T &back() const {
    assert(Size != 0 && "back of empty vector");
    return data()[Size - 1];
  }

  void push_back(const T &V) {
    if (Size == Capacity)
      grow(Capacity * 2);
    data()[Size++] = V;
  }

  void pop_back() {
    assert(Size != 0 && "pop of empty vector");
    --Size;
  }

  void clear() { Size = 0; }

  /// Resizes to \p NewSize elements; elements past the old size are set
  /// to \p Value, and shrinking keeps the capacity.
  void resize(unsigned NewSize, T Value = T()) {
    if (NewSize > Capacity)
      grow(NewSize);
    T *D = data();
    for (unsigned I = Size; I < NewSize; ++I)
      D[I] = Value;
    Size = NewSize;
  }

  bool operator==(const SmallVector &RHS) const {
    if (Size != RHS.Size)
      return false;
    const T *A = data(), *B = RHS.data();
    for (unsigned I = 0; I != Size; ++I)
      if (!(A[I] == B[I]))
        return false;
    return true;
  }
  bool operator!=(const SmallVector &RHS) const { return !(*this == RHS); }

private:
  void assign(const T *Src, size_t N) {
    Size = 0;
    if (N > Capacity)
      grow(static_cast<unsigned>(N));
    if (N != 0)
      std::memcpy(data(), Src, N * sizeof(T));
    Size = static_cast<unsigned>(N);
  }

  void grow(unsigned NewCapacity) {
    if (NewCapacity < Capacity * 2)
      NewCapacity = Capacity * 2;
    T *NewHeap = new T[NewCapacity];
    if (Size != 0)
      std::memcpy(NewHeap, data(), Size * sizeof(T));
    freeHeap();
    Heap = NewHeap;
    Capacity = NewCapacity;
  }

  /// Takes RHS's contents; RHS is left empty. Inline contents are copied
  /// (trivially), heap contents are adopted by pointer.
  void stealFrom(SmallVector &RHS) {
    Size = RHS.Size;
    Capacity = RHS.Capacity;
    if (RHS.Capacity == InlineCapacity) {
      if (Size != 0)
        std::memcpy(Inline, RHS.Inline, Size * sizeof(T));
    } else {
      Heap = RHS.Heap;
      RHS.Heap = nullptr;
      RHS.Capacity = InlineCapacity;
    }
    RHS.Size = 0;
  }

  void freeHeap() {
    if (Capacity != InlineCapacity) {
      delete[] Heap;
      Heap = nullptr;
      Capacity = InlineCapacity;
    }
  }

  unsigned Size = 0;
  unsigned Capacity = InlineCapacity;
  union {
    T Inline[InlineCapacity];
    T *Heap;
  };
};

} // namespace pira

#endif // PIRA_SUPPORT_SMALLVECTOR_H
