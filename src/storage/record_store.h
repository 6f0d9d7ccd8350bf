#ifndef PRIX_STORAGE_RECORD_STORE_H_
#define PRIX_STORAGE_RECORD_STORE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/cow.h"

namespace prix {

/// Append-only store of variable-length byte records laid out contiguously
/// across buffer-pool pages (records may span page boundaries). The catalog
/// of (offset, length) per record id is kept in memory; all data accesses go
/// through the buffer pool and are therefore I/O-accounted.
class RecordStore {
 public:
  explicit RecordStore(BufferPool* pool) : pool_(pool) {}
  RecordStore(RecordStore&&) = default;
  RecordStore& operator=(RecordStore&&) = default;

  /// Appends a record; returns its id (dense, starting at 0).
  Result<uint32_t> Append(const char* data, size_t len);

  /// Reads record `id` into `out` (resized to the record length).
  Status Load(uint32_t id, std::vector<char>* out) const;

  /// Attaches (or with nullptr detaches) copy-on-write bookkeeping for a
  /// write transaction. With a context installed, Append never edits a
  /// committed page in place: the partially-filled tail page is copied to a
  /// fresh page first (its id in the page list changes), and every page the
  /// store allocates is marked fresh. Pages the catalog no longer references
  /// are reported as freed.
  void SetCow(CowContext* cow) { cow_ = cow; }

  size_t num_records() const { return catalog_.size(); }
  uint64_t total_bytes() const { return next_offset_; }
  uint64_t num_pages() const { return pages_.size(); }

  /// Serializes the in-memory catalog (page list + extents, varint-coded)
  /// so the store can be reopened after a restart.
  void SerializeTo(std::vector<char>* out) const;

  /// Rebuilds a store over existing pages from SerializeTo output. `p` is
  /// advanced past the consumed bytes. Every varint read is bounds-checked
  /// against `end`, pages must lie within the file, and extents within the
  /// store's logical size.
  static Result<RecordStore> Deserialize(BufferPool* pool, const char** p,
                                         const char* end);

 private:
  struct Extent {
    uint64_t offset;
    uint32_t length;
  };

  Status AppendBytes(const char* data, size_t len);
  Status ReadBytes(uint64_t offset, char* out, size_t len) const;

  BufferPool* pool_;
  std::vector<PageId> pages_;
  std::vector<Extent> catalog_;
  uint64_t next_offset_ = 0;
  CowContext* cow_ = nullptr;  ///< not owned; null outside write transactions
};

/// Little-endian-on-disk helpers for record serialization.
void PutU32(std::vector<char>* buf, uint32_t v);
uint32_t GetU32(const char* p);
void PutU64(std::vector<char>* buf, uint64_t v);
uint64_t GetU64(const char* p);

/// Writes `data` into a chain of freshly allocated pages (each page holds a
/// next-page pointer, a length, and payload) and returns the first page id.
/// Used to persist index catalogs. `out_pages`, when non-null, receives the
/// ids of every page in the chain so a commit can retire the superseded
/// blob's pages into the free list.
Result<PageId> WriteBlob(BufferPool* pool, const std::vector<char>& data,
                         std::vector<PageId>* out_pages = nullptr);

/// Reads back a blob written by WriteBlob.
Status ReadBlob(BufferPool* pool, PageId first, std::vector<char>* out);

/// Collects the page ids of a blob chain without decoding its payload —
/// used to retire a superseded catalog blob into the free list.
Status ReadBlobPages(BufferPool* pool, PageId first,
                     std::vector<PageId>* out_pages);

}  // namespace prix

#endif  // PRIX_STORAGE_RECORD_STORE_H_
