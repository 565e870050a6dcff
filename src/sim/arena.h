#ifndef DMR_SIM_ARENA_H_
#define DMR_SIM_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "prof/prof.h"

namespace dmr::sim {

/// \brief A chunked size-class arena for simulation objects.
///
/// The DES hot path allocates and frees the same few shapes millions of
/// times per run: spilled event callbacks, task-attempt records, completion
/// counters. Routing them through the global allocator costs a lock-free
/// malloc/free pair per event plus cache-scattered placement; the arena
/// replaces that with size-class free lists carved out of 64 KB chunks, so
/// a free is a pointer push and a hot allocation is a pointer pop from
/// memory that stays dense.
///
/// An Arena is single-threaded by contract, like the Simulation that owns
/// it (see simulation.h). Freed blocks are recycled
/// into their size class, never returned to the OS before the arena dies —
/// the steady-state working set of a simulation is bounded by its peak, so
/// holding the high-water mark is the point, not a leak.
///
/// Blocks are 16-byte aligned. Requests larger than the biggest size class
/// (or with stricter alignment needs) fall through to operator new; the
/// caller passes the same byte count to Deallocate so the arena can tell
/// the two paths apart without a per-block header.
class Arena {
 public:
  Arena() = default;
  ~Arena() = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  void* Allocate(std::size_t bytes) {
    int cls = ClassIndex(bytes);
    if (cls < 0) {
      prof::AccountAlloc(prof::AllocSite::kArenaLarge, 1, bytes);
      return ::operator new(bytes);
    }
    if (free_[cls] != nullptr) {
      FreeNode* node = free_[cls];
      free_[cls] = node->next;
      ++allocations_;
      return node;
    }
    return Carve(cls);
  }

  void Deallocate(void* p, std::size_t bytes) {
    if (p == nullptr) return;
    int cls = ClassIndex(bytes);
    if (cls < 0) {
      ::operator delete(p);
      return;
    }
    FreeNode* node = static_cast<FreeNode*>(p);
    node->next = free_[cls];
    free_[cls] = node;
  }

  /// Total bytes reserved from the OS in chunks (the arena's footprint).
  uint64_t bytes_reserved() const { return bytes_reserved_; }

  /// Lifetime count of arena-served allocations (large fall-throughs not
  /// included) — the malloc traffic the arena absorbed.
  uint64_t allocations() const { return allocations_; }

 private:
  /// Size classes are 16 << i for i in [0, kNumClasses): 16 B .. 8 KB.
  static constexpr int kNumClasses = 10;
  static constexpr std::size_t kMinBlock = 16;
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  struct FreeNode {
    FreeNode* next;
  };

  static int ClassIndex(std::size_t bytes) {
    std::size_t block = kMinBlock;
    for (int cls = 0; cls < kNumClasses; ++cls, block <<= 1) {
      if (bytes <= block) return cls;
    }
    return -1;
  }

  void* Carve(int cls);

  std::vector<std::unique_ptr<unsigned char[]>> chunks_;
  unsigned char* bump_ = nullptr;
  std::size_t bump_left_ = 0;
  FreeNode* free_[kNumClasses] = {};
  uint64_t bytes_reserved_ = 0;
  uint64_t allocations_ = 0;
};

/// \brief Minimal std-compatible allocator over an Arena.
///
/// Lets standard machinery (std::allocate_shared, containers with bounded
/// lifetime) draw from a simulation's arena: the shared_ptr control block
/// and payload land in one arena block instead of a global malloc. The
/// arena must outlive everything allocated through it.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= 16, "arena blocks are 16-byte aligned");
    return static_cast<T*>(arena_->Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    arena_->Deallocate(p, n * sizeof(T));
  }

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena();
  }

 private:
  Arena* arena_;
};

}  // namespace dmr::sim

#endif  // DMR_SIM_ARENA_H_
