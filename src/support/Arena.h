//===- support/Arena.h - Bump-pointer arena allocator -----------*- C++ -*-===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple monotonic arena. AST nodes for expressions are allocated here and
/// live for the lifetime of the arena; they are never individually freed.
/// Destructors of allocated objects are NOT run, so only trivially
/// destructible payloads (or payloads whose destructor is safe to skip)
/// should be placed in the arena. petal AST nodes store children as raw
/// pointers into the same arena and interned data by value, which satisfies
/// this constraint for all practical purposes (std::string members leak their
/// heap buffer only when the arena itself is destroyed mid-program; arenas in
/// petal live as long as the query engine, so we accept this and free the
/// strings explicitly via registered destructors below).
///
//===----------------------------------------------------------------------===//

#ifndef PETAL_SUPPORT_ARENA_H
#define PETAL_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace petal {

/// A monotonic bump allocator with destructor registration.
///
/// Objects created via create<T>() have their destructors run when the arena
/// is destroyed (in reverse order of creation), so arena-allocated nodes may
/// safely own std::string or std::vector members.
class Arena {
public:
  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  ~Arena() {
    // Run registered destructors in reverse creation order.
    for (auto It = Dtors.rbegin(), E = Dtors.rend(); It != E; ++It)
      It->Destroy(It->Object);
  }

  /// Allocates and constructs a T with the given arguments. The object is
  /// destroyed when the arena is destroyed.
  template <typename T, typename... Args> T *create(Args &&...A) {
    void *Mem = allocate(sizeof(T), alignof(T));
    T *Obj = new (Mem) T(std::forward<Args>(A)...);
    if constexpr (!std::is_trivially_destructible_v<T>)
      Dtors.push_back({Obj, [](void *P) { static_cast<T *>(P)->~T(); }});
    return Obj;
  }

  /// Raw aligned allocation from the arena.
  void *allocate(size_t Size, size_t Align) {
    size_t Cur = reinterpret_cast<uintptr_t>(Ptr);
    size_t Aligned = (Cur + Align - 1) & ~(Align - 1);
    size_t Needed = (Aligned - Cur) + Size;
    if (!Ptr || Needed > Remaining) {
      newSlab(Size + Align);
      Cur = reinterpret_cast<uintptr_t>(Ptr);
      Aligned = (Cur + Align - 1) & ~(Align - 1);
      Needed = (Aligned - Cur) + Size;
    }
    Ptr += Needed;
    Remaining -= Needed;
    return reinterpret_cast<void *>(Aligned);
  }

  /// Total bytes reserved across all slabs (for statistics).
  size_t bytesReserved() const {
    size_t Total = 0;
    for (const auto &S : Slabs)
      Total += S.Size;
    return Total;
  }

  /// Number of objects with registered destructors.
  size_t numManagedObjects() const { return Dtors.size(); }

private:
  struct Slab {
    std::unique_ptr<char[]> Mem;
    size_t Size;
  };
  struct DtorEntry {
    void *Object;
    void (*Destroy)(void *);
  };

  void newSlab(size_t AtLeast) {
    size_t Size = SlabSize;
    if (Size < AtLeast)
      Size = AtLeast;
    // Not zero-filled: every byte handed out is constructed (create) or
    // written by its container (ArenaAllocator) before it is read.
    Slabs.push_back({std::make_unique_for_overwrite<char[]>(Size), Size});
    Ptr = Slabs.back().Mem.get();
    Remaining = Size;
    // Exponential-ish growth, capped, to keep slab count low.
    if (SlabSize < 1u << 20)
      SlabSize *= 2;
  }

  static constexpr size_t InitialSlabSize = 4096;
  size_t SlabSize = InitialSlabSize;
  char *Ptr = nullptr;
  size_t Remaining = 0;
  std::vector<Slab> Slabs;
  std::vector<DtorEntry> Dtors;
};

/// A std-compatible allocator that bump-allocates from an Arena, so
/// short-lived containers (the engine's per-query candidate buckets and
/// expansion pools) stop hitting the global allocator on the hot path.
/// deallocate() is a no-op — memory is reclaimed wholesale when the arena
/// dies — so only use it for containers whose lifetime is bounded by the
/// arena's. Default-constructed (arena-less) instances fall back to the
/// global allocator, which keeps container types usable in contexts that
/// have no arena (tests, the static empty bucket).
template <typename T> class ArenaAllocator {
public:
  using value_type = T;

  ArenaAllocator() = default;
  explicit ArenaAllocator(Arena *A) : A(A) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U> &O) : A(O.arena()) {}

  T *allocate(size_t N) {
    if (A)
      return static_cast<T *>(A->allocate(N * sizeof(T), alignof(T)));
    return static_cast<T *>(::operator new(N * sizeof(T)));
  }
  void deallocate(T *P, size_t) {
    if (!A)
      ::operator delete(P);
    // Arena memory is reclaimed when the arena is destroyed.
  }

  Arena *arena() const { return A; }

  template <typename U> bool operator==(const ArenaAllocator<U> &O) const {
    return A == O.arena();
  }
  template <typename U> bool operator!=(const ArenaAllocator<U> &O) const {
    return A != O.arena();
  }

private:
  Arena *A = nullptr;
};

} // namespace petal

#endif // PETAL_SUPPORT_ARENA_H
