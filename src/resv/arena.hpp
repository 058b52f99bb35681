// Pool allocator for the calendar hot path (DESIGN.md §11).
//
// Treap nodes churn constantly in steady state: every reservation
// add/release materializes and erases breakpoints, every scheduling pass
// copies the O(log R) nodes its adds touch into its copy-on-write view of
// the calendar, and long-running engines compact old segments away.
// Hitting the global allocator for each 64-byte node costs more than the
// tree operation itself once the index is fast, so nodes come from an
// Arena:
//
//   * slots are carved from fixed-size chunks (one allocation per
//     kChunkSlots nodes) and recycled through a per-arena intrusive free
//     list, so steady-state mutation never leaves the arena;
//   * retired chunks park in a bounded thread-local cache instead of being
//     freed, so arena construction/destruction (one per scratch view a
//     RESSCHED/RESSCHEDDL pass writes, one per deep copy) stops touching
//     the heap once a thread is warm;
//   * every fall-through to `::operator new` is tallied in a process-wide
//     counter (`arena_heap_allocs()`), which the perf-CI allocation gate
//     and the steady-state regression tests watch: an accidental heap
//     allocation on the hot path moves a deterministic counter even when
//     wall-clock noise would hide it.
//
// The arena owns raw storage only; objects are constructed in place by
// create() and destroyed by destroy(). The chunk list is intrusive (each
// chunk starts with a next pointer), so the arena itself never allocates
// bookkeeping memory. The thread-local cache stores raw memory, so a chunk
// may be allocated on one thread and cached on another (calendars migrate
// between shard workers) without synchronization beyond the allocator's
// own.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace resched::resv {

namespace arena_detail {

inline std::atomic<std::uint64_t>& heap_alloc_counter() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

/// Bounded thread-local cache of retired chunks of `kBytes` each. Keeping a
/// handful per thread is enough to make calendar view and copy/destroy
/// cycles allocation-free; anything beyond the cap goes back to the heap.
template <std::size_t kBytes>
class ChunkCache {
 public:
  static constexpr std::size_t kMaxCached = 64;

  static void* take() {
    auto& c = cache();
    if (c.empty()) return nullptr;
    void* chunk = c.back();
    c.pop_back();
    return chunk;
  }

  static void put(void* chunk) {
    auto& c = cache();
    if (c.size() >= kMaxCached) {
      ::operator delete(chunk);
      return;
    }
    c.push_back(chunk);
  }

 private:
  struct Holder {
    std::vector<void*> chunks;
    ~Holder() {
      for (void* chunk : chunks) ::operator delete(chunk);
    }
  };
  static std::vector<void*>& cache() {
    thread_local Holder holder;
    return holder.chunks;
  }
};

}  // namespace arena_detail

/// Chunk allocations that actually reached `::operator new` since process
/// start, across every arena. Monotone; sample before/after a steady-state
/// region to prove it allocated nothing.
inline std::uint64_t arena_heap_allocs() {
  return arena_detail::heap_alloc_counter().load(std::memory_order_relaxed);
}

template <typename T>
class Arena {
 public:
  static constexpr std::size_t kChunkSlots = 256;

  struct Stats {
    std::uint64_t created = 0;      ///< objects constructed via create()
    std::uint64_t reused = 0;       ///< of those, served from the free list
    std::uint64_t chunks = 0;       ///< chunks currently owned
    std::uint64_t heap_chunks = 0;  ///< chunks that came from ::operator new
  };

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  Arena(Arena&& other) noexcept
      : head_(std::exchange(other.head_, nullptr)),
        free_(std::exchange(other.free_, nullptr)),
        bump_(std::exchange(other.bump_, 0)),
        stats_(std::exchange(other.stats_, Stats{})) {}

  Arena& operator=(Arena&& other) noexcept {
    if (this == &other) return *this;
    release_chunks();
    head_ = std::exchange(other.head_, nullptr);
    free_ = std::exchange(other.free_, nullptr);
    bump_ = std::exchange(other.bump_, 0);
    stats_ = std::exchange(other.stats_, Stats{});
    return *this;
  }

  ~Arena() { release_chunks(); }

  /// Constructs a T in a recycled or freshly carved slot. All outstanding
  /// objects must be destroy()ed (or the whole arena dropped) before the
  /// arena dies; the arena does not run destructors on teardown.
  template <typename... Args>
  T* create(Args&&... args) {
    ++stats_.created;
    void* slot;
    if (free_ != nullptr) {
      ++stats_.reused;
      slot = free_;
      free_ = free_->next;
    } else {
      if (head_ == nullptr || bump_ == kChunkSlots) grow();
      slot = head_->slots + bump_;
      ++bump_;
    }
    return ::new (slot) T(std::forward<Args>(args)...);
  }

  /// Destroys the object and returns its slot to the free list.
  void destroy(T* p) {
    p->~T();
    auto* slot = reinterpret_cast<FreeSlot*>(static_cast<void*>(p));
    slot->next = free_;
    free_ = slot;
  }

  const Stats& stats() const { return stats_; }

 private:
  union Slot {
    alignas(T) unsigned char storage[sizeof(T)];
  };
  struct FreeSlot {
    FreeSlot* next;
  };
  struct Chunk {
    Chunk* next;
    Slot slots[kChunkSlots];
  };
  static_assert(sizeof(T) >= sizeof(FreeSlot*),
                "slots must be able to hold a free-list link");

  using Cache = arena_detail::ChunkCache<sizeof(Chunk)>;

  void grow() {
    void* raw = Cache::take();
    if (raw == nullptr) {
      raw = ::operator new(sizeof(Chunk));
      ++stats_.heap_chunks;
      arena_detail::heap_alloc_counter().fetch_add(1,
                                                   std::memory_order_relaxed);
    }
    auto* chunk = static_cast<Chunk*>(raw);
    chunk->next = head_;
    head_ = chunk;
    ++stats_.chunks;
    bump_ = 0;
  }

  void release_chunks() {
    for (Chunk* chunk = head_; chunk != nullptr;) {
      Chunk* next = chunk->next;
      Cache::put(chunk);
      chunk = next;
    }
    head_ = nullptr;
    free_ = nullptr;
    bump_ = 0;
  }

  Chunk* head_ = nullptr;    ///< intrusive list, newest first
  FreeSlot* free_ = nullptr;
  std::size_t bump_ = 0;     ///< next unused slot in *head_
  Stats stats_;
};

}  // namespace resched::resv
