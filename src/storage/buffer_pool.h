#ifndef PRIX_STORAGE_BUFFER_POOL_H_
#define PRIX_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace prix {

/// Counters the benchmarks report. `physical_reads` is the paper's
/// "Disk IO (pages)" metric. `lock_waits` counts shard-latch acquisitions
/// that found the latch already held (a direct contention signal: it stays
/// 0 single-threaded and grows with cross-thread collisions on one shard).
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t physical_reads = 0;
  uint64_t physical_writes = 0;
  uint64_t evictions = 0;
  uint64_t lock_waits = 0;
};

/// Source of page ids for BufferPool::NewPage. The default is the
/// DiskManager's append-only counter; a Database installs itself so freed
/// pages from its persistent free list are recycled before the file grows.
/// Implementations must be thread-safe (NewPage may be called concurrently).
class PageAllocator {
 public:
  virtual ~PageAllocator() = default;
  virtual Result<PageId> AllocatePage() = 0;
};

/// Fixed-capacity page cache with LRU replacement and pin counting, mirroring
/// the paper's 2000-page buffer pool (Sec. 6.1). Clearing the pool before a
/// query emulates the paper's direct-I/O cold-cache measurement.
///
/// Thread safety: the pool is sharded by PageId. Each shard owns a disjoint
/// subset of the frames plus its own latch, hash table, LRU list, and stat
/// counters, so fetches of pages in different shards proceed fully in
/// parallel. FetchPage / NewPage / UnpinPage / FlushAll may be called from
/// any thread. Clear() takes every shard latch (in ascending shard order —
/// the pool-wide latch ordering) and must not race with in-flight fetches
/// that hold pins. Large pools use up to 16 shards; small pools (fewer than
/// 32 frames) collapse to one shard and behave exactly like a global-LRU
/// pool, which also preserves the eviction order single-threaded callers and
/// tests rely on.
class BufferPool {
 public:
  BufferPool(DiskManager* disk, size_t pool_pages);
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  /// Fetches page `id`, reading from disk on a miss. The page is pinned;
  /// callers must UnpinPage (or use PageGuard).
  Result<Page*> FetchPage(PageId id);

  /// Allocates a fresh page (via the installed PageAllocator, falling back
  /// to the disk's append-only counter) and pins an empty frame for it. When
  /// the allocator recycles an id the pool may still be caching that page's
  /// stale frame; it is reused in place — zeroed, pinned, dirty — so no
  /// duplicate frame can exist for one id.
  Result<Page*> NewPage();

  /// Evicts page `id` WITHOUT writing it back, discarding any dirty data —
  /// the abort path for pages a failed transaction allocated but never
  /// published. No-op when the page is not cached; Internal when pinned.
  Status DropPage(PageId id);

  /// Installs (or, with nullptr, removes) the page-id source for NewPage.
  /// Must not race with NewPage calls.
  void set_allocator(PageAllocator* allocator) { allocator_ = allocator; }

  /// Drops a pin. `dirty` marks the frame for write-back on eviction/flush.
  void UnpinPage(PageId id, bool dirty);

  /// Writes back all dirty frames.
  Status FlushAll();

  /// Flushes then evicts every frame — the cold-cache reset used before each
  /// benchmarked query. Requires no pinned pages.
  Status Clear();

  /// Drops every frame WITHOUT writing anything back — the crash-simulation
  /// teardown (Database::Abandon). Dirty data is lost by design and any
  /// outstanding pin becomes dangling; callers must hold none.
  void DiscardAll();

  /// Snapshot of the counters, merged across shards — taken WITHOUT the
  /// shard latches. Semantics:
  ///
  ///  - Each individual counter is a single relaxed 64-bit atomic load, so
  ///    no counter value is ever torn, and because the per-shard counters
  ///    only ever increase, every counter in the snapshot is monotonically
  ///    non-decreasing across successive stats() calls.
  ///  - The snapshot is NOT atomic across counters or shards: while fetches
  ///    are in flight, one shard may be read before and another after a
  ///    concurrent increment, so cross-counter invariants (e.g.
  ///    hits + misses == total fetches) can be transiently off by the
  ///    number of in-flight operations.
  ///  - After all workers have joined (any happens-before edge such as
  ///    a thread join), the snapshot is exact and
  ///    sum-consistent. tests/buffer_pool_test.cc pins down both halves of
  ///    this contract.
  ///
  /// For exact per-query attribution do not diff this (pool-wide) snapshot;
  /// open a MetricsContext (common/metrics.h) around the operation instead.
  BufferPoolStats stats() const;
  void ResetStats();

  size_t capacity() const { return capacity_; }
  size_t pages_cached() const;
  size_t num_shards() const { return shards_.size(); }
  DiskManager* disk() const { return disk_; }

 private:
  using LruList = std::list<size_t>;  // frame indexes, front = most recent

  /// Relaxed per-shard counters; merged by stats().
  struct ShardStats {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> physical_reads{0};
    std::atomic<uint64_t> physical_writes{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> lock_waits{0};
  };

  /// One latch-protected slice of the pool. Frames never migrate between
  /// shards; a page always lives in the shard its id hashes to.
  struct Shard {
    std::mutex mu;
    std::vector<std::unique_ptr<Page>> frames;
    std::vector<size_t> free_frames;
    std::unordered_map<PageId, size_t> table;  // page id -> frame index
    LruList lru;
    std::vector<LruList::iterator> lru_pos;  // per-frame position (or end)
    ShardStats stats;
  };

  Shard& ShardFor(PageId id) {
    return *shards_[static_cast<size_t>(id) & shard_mask_];
  }

  /// Acquires the shard latch, counting a lock_wait when it was contended.
  /// Inline: this sits on the page-fetch hot path, and the uncontended case
  /// must stay one try_lock (see tools/check_metrics_overhead.sh).
  std::unique_lock<std::mutex> LockShard(Shard& shard) {
    std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      shard.stats.lock_waits.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
    }
    return lock;
  }

  /// Finds a frame to (re)use: a free frame or the LRU unpinned victim.
  /// Caller holds the shard latch.
  Result<size_t> GetVictimFrame(Shard& shard);
  void Touch(Shard& shard, size_t frame);
  Status EvictFrame(Shard& shard, size_t frame);
  Status FlushShard(Shard& shard);

  DiskManager* disk_;
  PageAllocator* allocator_ = nullptr;
  size_t capacity_ = 0;
  size_t shard_mask_ = 0;  // shard count is a power of two
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// RAII pin holder. Unpins on destruction.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, Page* page) : pool_(pool), page_(page) {}
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    Release();
    pool_ = other.pool_;
    page_ = other.page_;
    dirty_ = other.dirty_;
    other.pool_ = nullptr;
    other.page_ = nullptr;
    other.dirty_ = false;
    return *this;
  }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  Page* get() const { return page_; }
  Page* operator->() const { return page_; }
  explicit operator bool() const { return page_ != nullptr; }

  void MarkDirty() { dirty_ = true; }

  void Release() {
    if (pool_ != nullptr && page_ != nullptr) {
      pool_->UnpinPage(page_->page_id(), dirty_);
    }
    pool_ = nullptr;
    page_ = nullptr;
    dirty_ = false;
  }

 private:
  BufferPool* pool_ = nullptr;
  Page* page_ = nullptr;
  bool dirty_ = false;
};

}  // namespace prix

#endif  // PRIX_STORAGE_BUFFER_POOL_H_
