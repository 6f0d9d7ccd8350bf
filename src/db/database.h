#ifndef PRIX_DB_DATABASE_H_
#define PRIX_DB_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/oplog.h"

namespace prix {

class Document;
class Snapshot;

/// The storage environment every engine runs in (the paper's Sec. 6.1 setup:
/// one paged file behind a shared buffer pool). A Database owns the
/// DiskManager and the sharded BufferPool and exposes a persistent catalog
/// of named indexes, so PRIX, ViST, and TwigStack indexes built over one
/// collection live in one file and reopen across process restarts without
/// callers tracking loose page ids.
///
/// Catalog layout and commit protocol (see DESIGN.md §5d/§5e): pages 0 and
/// 1 of the file are two header slots. Each commit serializes the whole
/// catalog into the slot NOT holding the current generation, stamped with
/// generation + checksum, in fsync-ordered steps: flush pool -> fdatasync
/// -> write header slot -> fdatasync. Index pages are therefore durable
/// before the catalog that references them, and the commit point itself is
/// durable when PutIndex/DropIndex/Close return OK. A torn or corrupt
/// header slot fails its checksum at open and the other slot's (previous)
/// generation is recovered instead; a commit is atomic at page granularity
/// and a crash loses at most the commit in flight.
///
/// Thread safety: catalog mutations (PutIndex/DropIndex/Commit) serialize
/// under an internal mutex and must not race with Close. Reads of the pool
/// and disk follow those classes' own contracts.
///
/// Online ingest (DESIGN.md §5i): InsertDocument / UpdateDocument /
/// DeleteDocument mutate a PRIX index in place under the page-level
/// copy-on-write protocol — writers never overwrite a page a committed
/// generation can reach, so queries running against a Snapshot pinned to an
/// older generation keep seeing exactly that generation's pages. Superseded
/// pages enter a persistent free-page list stamped with the generation that
/// retired them and are recycled by NewPage only once no open Snapshot pins
/// an older generation.
class Database : public PageAllocator {
 public:
  struct Options {
    /// Buffer-pool capacity; the default mirrors the paper's 2000-page pool.
    size_t pool_pages = 2000;

    /// Test-only: installed on the DiskManager before the first page touches
    /// disk, so fault schedules and crash points cover Create/Open's own
    /// I/O. Must outlive the Database.
    FaultInjector* fault_injector = nullptr;

    /// Test-only: a SEPARATE injector for the oplog sidecar file (each
    /// FaultInjector instance tracks one fd), so the replication crash
    /// matrix can crash at every oplog write/sync point independently of
    /// the main file's schedule. Must outlive the Database.
    FaultInjector* oplog_fault_injector = nullptr;
  };

  /// What a catalog entry points at. kBlob is an uninterpreted page chain
  /// (e.g. the CLI's tag dictionary); the engine kinds are validated by the
  /// respective Open functions.
  enum class IndexKind : uint32_t {
    kBlob = 0,
    kPrixRegular = 1,
    kPrixExtended = 2,
    kVist = 3,
    kTwigStreams = 4,
    kXbForest = 5,
  };

  /// One named catalog entry: kind tag, root/first page of the index's own
  /// catalog blob, and a small engine-specific options blob (must fit the
  /// in-header catalog; keep it to a few dozen bytes).
  struct IndexEntry {
    std::string name;
    IndexKind kind = IndexKind::kBlob;
    PageId root = kInvalidPage;
    std::vector<char> options;
  };

  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates a new database file at `path` (truncating any existing file)
  /// with an empty committed catalog.
  static Result<std::unique_ptr<Database>> Create(const std::string& path,
                                                  const Options& options);
  static Result<std::unique_ptr<Database>> Create(const std::string& path) {
    return Create(path, Options());
  }

  /// Opens an existing database file, recovering the newest valid catalog
  /// generation (falling back across a torn header write).
  static Result<std::unique_ptr<Database>> Open(const std::string& path,
                                                const Options& options);
  static Result<std::unique_ptr<Database>> Open(const std::string& path) {
    return Open(path, Options());
  }

  /// Flushes the pool, commits the catalog, and closes the file. Called by
  /// the destructor if not called explicitly (errors then only logged).
  Status Close();

  /// Drops the handle without flushing or committing anything — the
  /// crash-simulation teardown (and a last resort after an unrecoverable
  /// I/O failure). The file keeps whatever the last durable commit left;
  /// un-committed work is lost by design. No pins may be outstanding.
  void Abandon();

  BufferPool* pool() { return pool_.get(); }
  DiskManager* disk() { return &disk_; }
  const std::string& path() const { return path_; }

  /// Upserts `entry` and commits the catalog crash-safely.
  Status PutIndex(const IndexEntry& entry);

  /// Looks up a named entry; NotFound if absent.
  Result<IndexEntry> GetIndex(const std::string& name) const;

  bool HasIndex(const std::string& name) const;

  /// All entries, sorted by name.
  std::vector<IndexEntry> ListIndexes() const;

  /// Removes a named entry and commits. NotFound if absent. The index's
  /// pages are not reclaimed (allocation is append-only).
  Status DropIndex(const std::string& name);

  /// Generation of the committed catalog; grows by one per commit. After a
  /// torn write the recovered generation is the previous one.
  uint64_t catalog_generation() const;

  /// Returns the read snapshot of the current committed generation. The
  /// snapshot holds a copy of that generation's catalog; while any snapshot
  /// of generation g is alive, no page superseded at a generation > g is
  /// recycled, so every page reachable from the snapshot's catalog keeps its
  /// committed content. All callers between two commits share ONE snapshot
  /// (and with it its memo of opened indexes): the Database keeps a
  /// reference until the next commit, Close or Abandon drops it, so a
  /// superseded generation stays pinned only while a reader still holds it.
  /// The Database must outlive all snapshots it issued.
  std::shared_ptr<const Snapshot> OpenSnapshot();

  /// Atomically upserts `entries` into the catalog and retires `freed`
  /// (pages superseded by this commit) into the persistent free-page list,
  /// then commits. All-or-nothing: on failure the catalog and free list are
  /// rolled back to their pre-call state. This is the publish step of a
  /// copy-on-write write transaction (the ingest path); `freed` pages become
  /// recyclable once the new generation is durable and no snapshot pins an
  /// older one.
  Status CommitBatch(const std::vector<IndexEntry>& entries,
                     const std::vector<PageId>& freed);

  /// PageAllocator: recycles the oldest reclaimable free-list page, falling
  /// back to extending the file. Installed on the pool at Create/Open.
  Result<PageId> AllocatePage() override;

  /// Pages currently in the free list (reclaimable or still pinned down).
  size_t free_page_count() const;

  // ---- online ingest (implemented in src/prix/database_ingest.cc, which
  // lives in the engine library so this storage-layer library does not
  // depend on parsing or index code; calling these from a binary that does
  // not link the engine library fails at link time) ----

  /// Parses, Prüfer-labels, and inserts `doc` into the named PRIX index,
  /// committing a new catalog generation. Returns the assigned DocId.
  /// Writers serialize; readers on snapshots are unaffected until commit.
  Result<uint32_t> InsertDocument(const std::string& index_name,
                                  const Document& doc);

  /// Replaces document `doc` with `new_doc`: the old DocId is tombstoned
  /// and the new content inserted under a fresh DocId (returned). DocIds
  /// are never reused.
  Result<uint32_t> UpdateDocument(const std::string& index_name, uint32_t doc,
                                  const Document& new_doc);

  /// Tombstones document `doc` in the named PRIX index and deletes its keys
  /// from the refinement B+-trees. The DocStore record remains (append-only)
  /// but is skipped by every query; `prix verify` reports it as dead.
  Status DeleteDocument(const std::string& index_name, uint32_t doc);

  /// Cold-cache reset used before each benchmarked query (the paper's
  /// direct-I/O emulation): drops every cached frame and zeroes the pool
  /// counters. Requires no pinned pages.
  Status ColdStart();

  // ---- replication hooks (DESIGN.md §5l) ----

  /// The durable operation log. CommitLocked appends one record per commit
  /// (fsynced before the header flips); the replication sender reads
  /// committed records back by generation.
  OpLog* oplog() { return &oplog_; }

  /// Follower-side: records the leader position (leader generation +
  /// manifest) this node has applied through. Sticky — persisted in the
  /// header by every subsequent commit, so calling this immediately before
  /// applying a record makes cursor and applied state land in ONE commit.
  void StageReplCursor(uint64_t source_gen, uint32_t source_manifest);

  /// {source_gen, source_manifest} recovered from the committed header
  /// (both zero on a database that never followed anyone).
  std::pair<uint64_t, uint32_t> repl_cursor() const;

  /// Sentinel for "no snapshot ship in progress".
  static constexpr uint64_t kNoReplLowWater = ~0ull;

  /// While a snapshot of generation g is being shipped to a follower, pages
  /// freed at generations > g must not be recycled (the shipped file still
  /// references them). Threaded into AllocatePage's reuse barrier exactly
  /// like a pinned snapshot generation. kNoReplLowWater lifts the bound.
  void SetReplLowWater(uint64_t gen);
  uint64_t repl_low_water() const {
    return repl_low_water_.load(std::memory_order_acquire);
  }

  /// A consistent point-in-time view of the database FILE for snapshot
  /// shipping: the committed generation, the page count at that moment, and
  /// raw images of both header slots captured under the catalog lock. Pages
  /// >= 2 can then be read lock-free — copy-on-write never overwrites a
  /// committed page, and the low-water bound (set before this returns)
  /// keeps freed pages from being recycled mid-ship. Pages unreachable from
  /// the captured catalog may contain in-flight writer garbage; the
  /// receiver's Open never walks them.
  struct FileSnapshot {
    uint64_t gen = 0;
    uint32_t num_pages = 0;
    uint32_t manifest = 0;  ///< oplog manifest at `gen`
    std::vector<char> header_pages;  ///< pages 0 and 1, 2*kPageSize bytes
  };
  Result<FileSnapshot> BeginFileSnapshot();

  /// Lifts the low-water bound set by BeginFileSnapshot.
  void EndFileSnapshot();

 private:
  friend class Snapshot;

  /// One retired page: recyclable once the committed generation reaches
  /// `gen` AND no snapshot pins a generation below `gen`.
  struct FreedPage {
    PageId id;
    uint64_t gen;
  };

  Database() = default;

  /// Stages the oplog record the NEXT commit will carry (one-shot; a commit
  /// with nothing staged appends kNoop). Called by the ingest path
  /// (database_ingest.cc) just before PublishAll and internally by
  /// PutIndex/DropIndex. Takes mu_; must not be called while holding it.
  void StageOpRecord(OpKind kind, std::vector<char> payload);

  /// Drops a staged record that will never commit (ingest abort). Takes mu_.
  void ClearStagedOp();

  /// Serializes the catalog map into `out` (header fields excluded).
  void SerializePayload(std::vector<char>* out) const;

  /// Flushes the pool, then writes generation+1 into the alternate header
  /// slot. Caller holds mu_ (and must NOT hold free_mu_: the free-list blob
  /// write allocates pages through AllocatePage).
  Status CommitLocked();

  /// Persists the free list as a fresh blob chain and returns its head (or
  /// kInvalidPage when the list is empty and no previous blob exists).
  /// Reuse from the list is suspended for the duration so the blob cannot
  /// consume the pages it is recording. Caller holds mu_, not free_mu_.
  Result<PageId> PersistFreeListLocked(uint64_t commit_gen);

  /// What one header slot's page image turned out to hold. The distinction
  /// drives Open's error message: kTorn falls back to the other slot,
  /// kOldVersion means "rebuild", two kBadMagic slots mean "not ours".
  enum class SlotState { kValid, kTorn, kBadMagic, kOldVersion };

  /// Parses one header slot's page image. On kValid fills generation,
  /// entries, the free-list blob head (kInvalidPage when the list was never
  /// persisted), and the replication cursor; on kOldVersion fills only
  /// *version.
  static SlotState ParseHeader(const char* page, uint64_t* generation,
                               uint32_t* version,
                               std::map<std::string, IndexEntry>* entries,
                               PageId* free_head, uint64_t* repl_gen,
                               uint32_t* repl_manifest);

  std::string path_;
  DiskManager disk_;
  std::unique_ptr<BufferPool> pool_;

  mutable std::mutex mu_;
  std::map<std::string, IndexEntry> catalog_;
  uint64_t generation_ = 0;

  OpLog oplog_;
  /// Record staged for the next commit; consumed (and cleared) under mu_ by
  /// CommitLocked. Writers serialize on ingest_mu_ (or call sites under
  /// mu_), so at most one op is ever pending.
  bool pending_op_set_ = false;
  OpKind pending_op_kind_ = OpKind::kNoop;
  std::vector<char> pending_op_payload_;
  /// Replication cursor, persisted in the header after the free-list head.
  uint64_t repl_source_gen_ = 0;
  uint32_t repl_source_manifest_ = 0;

  std::atomic<uint64_t> repl_low_water_{kNoReplLowWater};

  /// Mirror of generation_ readable without mu_ — AllocatePage runs inside
  /// CommitLocked's own blob writes while mu_ is held, so it must not take
  /// mu_. Updated only after a commit is durable.
  std::atomic<uint64_t> committed_gen_{0};

  /// Guards the free list and snapshot pins. Lock order: mu_ before
  /// free_mu_; AllocatePage takes only free_mu_.
  mutable std::mutex free_mu_;
  std::deque<FreedPage> free_pages_;  // FIFO, non-decreasing gen
  std::vector<PageId> free_blob_pages_;  ///< pages of the persisted list blob
  bool suspend_reuse_ = false;  ///< true while the free-list blob is written
  std::multiset<uint64_t> pinned_gens_;  ///< generations open snapshots hold

  /// The current generation's shared snapshot, created by the first
  /// OpenSnapshot after a commit. Guarded by mu_; CommitLocked, Close and
  /// Abandon reset it. It pins only the current generation, whose commit
  /// already made every page it freed reusable, so it never blocks reuse.
  std::shared_ptr<const Snapshot> current_snapshot_;

  /// Opaque per-writer ingest cache owned by database_ingest.cc (trie
  /// mirror + open trees), rebuilt when its stamped generation goes stale.
  std::mutex ingest_mu_;
  std::shared_ptr<void> ingest_state_;
};

/// An immutable view of one committed catalog generation. Readers resolve
/// index roots through the snapshot instead of the live catalog, so a
/// concurrent writer's commits never change what an in-flight query sees.
/// Obtained from Database::OpenSnapshot(); releasing the last shared_ptr
/// unpins the generation and lets its superseded pages be recycled.
///
/// A snapshot also memoizes read-only objects opened out of its generation
/// (the PRIX indexes SnapshotView serves), so every reader of one
/// generation shares one open instead of decoding the index catalog again.
class Snapshot {
 public:
  uint64_t generation() const { return generation_; }

  Result<Database::IndexEntry> GetIndex(const std::string& name) const {
    auto it = catalog_.find(name);
    if (it == catalog_.end()) {
      return Status::NotFound("no index named '" + name +
                              "' in snapshot generation " +
                              std::to_string(generation_));
    }
    return it->second;
  }

  std::vector<Database::IndexEntry> ListIndexes() const {
    std::vector<Database::IndexEntry> out;
    out.reserve(catalog_.size());
    for (const auto& [name, entry] : catalog_) out.push_back(entry);
    return out;
  }

  /// Returns the object memoized under `name`, calling `open` only when
  /// there is none yet. Type-erased because the engines that open objects
  /// live above this library. Concurrent first callers for one name wait
  /// for a single open; a failed open memoizes nothing, so the next caller
  /// retries. The object lives as long as the snapshot and must be safe
  /// for concurrent readers.
  using OpenFn = std::function<Result<std::shared_ptr<const void>>()>;
  Result<std::shared_ptr<const void>> Memoize(const std::string& name,
                                              const OpenFn& open) const;

 private:
  friend class Database;
  Snapshot() = default;

  struct MemoSlot {
    std::mutex mu;  ///< held across the first open of this name
    std::shared_ptr<const void> value;
  };

  uint64_t generation_ = 0;
  std::map<std::string, Database::IndexEntry> catalog_;
  mutable std::mutex memo_mu_;  ///< guards the map, not the slots
  mutable std::map<std::string, MemoSlot> memo_;
};

}  // namespace prix

#endif  // PRIX_DB_DATABASE_H_
