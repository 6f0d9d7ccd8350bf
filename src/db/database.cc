#include "db/database.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/build_info.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "db/op_codec.h"
#include "storage/page_format.h"
#include "storage/record_store.h"

namespace prix {

namespace {

constexpr uint32_t kDbMagic = 0x50524442;  // "PRDB"
/// Format 2 added the per-page CRC trailer (storage/page.h); format 3 made
/// the free-list head and the replication cursor fixed payload fields;
/// format 4 made every B+-tree leaf delta-coded with restart points
/// (btree/btree.h) and every record catalog varint-coded. Older files are rejected up front by version, with a rebuild hint. The
/// number itself lives in common/build_info.h so the --version stamp cannot
/// drift.
constexpr uint32_t kDbVersion = kDbFormatVersion;
constexpr PageId kHeaderSlots[2] = {0, 1};
/// magic + version + generation + payload_len + checksum.
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4 + 4;
constexpr size_t kPayloadCapacity = kPageUsable - kHeaderBytes;

/// FNV-1a over the payload and the generation, so a slot whose payload and
/// generation were torn independently cannot validate.
uint32_t CatalogChecksum(const char* payload, size_t len, uint64_t gen) {
  uint32_t h = 2166136261u;
  auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 16777619u;
  };
  for (size_t i = 0; i < len; ++i) mix(static_cast<uint8_t>(payload[i]));
  for (int i = 0; i < 8; ++i) mix(static_cast<uint8_t>(gen >> (8 * i)));
  return h;
}

}  // namespace

Database::~Database() {
  Status st = Close();
  if (!st.ok()) {
    std::fprintf(stderr, "Database::Close during destruction: %s\n",
                 st.ToString().c_str());
  }
}

Result<std::unique_ptr<Database>> Database::Create(const std::string& path,
                                                   const Options& options) {
  auto db = std::unique_ptr<Database>(new Database());
  db->path_ = path;
  if (options.fault_injector != nullptr) {
    db->disk_.set_fault_injector(options.fault_injector);
  }
  PRIX_RETURN_NOT_OK(db->disk_.Open(path));
  // From here on, failures abandon the half-built handle so the destructor
  // does not retry a commit against a file (or simulated device) that just
  // refused one.
  for (PageId slot : kHeaderSlots) {
    // Reserve the two catalog header slots as the first two pages.
    auto got = db->disk_.AllocatePage();
    if (!got.ok()) {
      db->Abandon();
      return got.status();
    }
    PRIX_CHECK(*got == slot);
  }
  if (options.oplog_fault_injector != nullptr) {
    db->oplog_.set_fault_injector(options.oplog_fault_injector);
  }
  {
    Status oplog_st =
        db->oplog_.Open(OpLog::PathFor(path), /*committed_gen=*/0,
                        /*truncate=*/true);
    if (!oplog_st.ok()) {
      db->Abandon();
      return oplog_st;
    }
  }
  db->pool_ = std::make_unique<BufferPool>(&db->disk_, options.pool_pages);
  db->pool_->set_allocator(db.get());
  Status commit_st;
  {
    std::lock_guard<std::mutex> lock(db->mu_);
    commit_st = db->CommitLocked();
  }
  if (!commit_st.ok()) {
    db->Abandon();
    return commit_st;
  }
  return db;
}

Result<std::unique_ptr<Database>> Database::Open(const std::string& path,
                                                 const Options& options) {
  auto db = std::unique_ptr<Database>(new Database());
  db->path_ = path;
  if (options.fault_injector != nullptr) {
    db->disk_.set_fault_injector(options.fault_injector);
  }
  // A crash can tear a file extension mid-page; committed catalog state is
  // always page-aligned (commit syncs before publishing), so a ragged tail
  // is provably uncommitted and safe to drop.
  DiskManager::OpenOptions open_options;
  open_options.recover_trailing_partial_page = true;
  PRIX_RETURN_NOT_OK(db->disk_.OpenExisting(path, open_options));
  // Any failure past this point must Abandon the half-built handle: the
  // destructor would otherwise COMMIT an empty catalog onto the very file
  // this Open just refused to trust.
  if (db->disk_.num_pages() < 2) {
    Status st = Status::Corruption(path + " has no catalog header pages");
    db->Abandon();
    return st;
  }
  // Read both header slots and adopt the newest one that validates; a torn
  // commit leaves exactly one valid slot (the previous generation).
  bool any_valid = false;
  int bad_magic_slots = 0;
  uint32_t old_version = 0;
  PageId free_head = kInvalidPage;
  char page[kPageSize];
  for (PageId slot : kHeaderSlots) {
    Status read_st = db->disk_.ReadPage(slot, page);
    if (!read_st.ok()) {
      db->Abandon();
      return read_st;
    }
    uint64_t gen = 0;
    uint32_t version = 0;
    std::map<std::string, IndexEntry> entries;
    PageId slot_free_head = kInvalidPage;
    uint64_t slot_repl_gen = 0;
    uint32_t slot_repl_manifest = 0;
    switch (ParseHeader(page, &gen, &version, &entries, &slot_free_head,
                        &slot_repl_gen, &slot_repl_manifest)) {
      case SlotState::kValid:
        if (!any_valid || gen > db->generation_) {
          db->generation_ = gen;
          db->catalog_ = std::move(entries);
          free_head = slot_free_head;
          db->repl_source_gen_ = slot_repl_gen;
          db->repl_source_manifest_ = slot_repl_manifest;
        }
        any_valid = true;
        break;
      case SlotState::kBadMagic:
        ++bad_magic_slots;
        break;
      case SlotState::kOldVersion:
        old_version = version;
        break;
      case SlotState::kTorn:
        break;
    }
  }
  if (!any_valid) {
    // Pick the most specific story the two slots tell. A version mismatch
    // is an operator problem (rebuild), not corruption; a file where no
    // slot even carries the magic was never a PRIX database.
    Status st;
    if (old_version != 0) {
      st = Status::InvalidArgument(
          path + ": format version " + std::to_string(old_version) +
          " unsupported, rebuild index (this build reads format " +
          std::to_string(kDbVersion) + ")");
    } else if (bad_magic_slots == 2) {
      st = Status::Corruption(
          path + " is not a PRIX database (no superblock with magic "
                 "\"PRDB\" in either header slot)");
    } else {
      st = Status::Corruption(path + ": no valid catalog header slot");
    }
    db->Abandon();
    return st;
  }
  db->pool_ = std::make_unique<BufferPool>(&db->disk_, options.pool_pages);
  db->committed_gen_.store(db->generation_, std::memory_order_release);
  if (free_head != kInvalidPage) {
    // Reload the persistent free-page list the last commit recorded. The
    // blob's own pages are remembered so the next rewrite can retire them.
    std::vector<char> blob;
    Status st = ReadBlob(db->pool_.get(), free_head, &blob);
    if (st.ok()) st = ReadBlobPages(db->pool_.get(), free_head,
                                    &db->free_blob_pages_);
    if (st.ok()) {
      const char* p = blob.data();
      const char* end = p + blob.size();
      if (end - p < 8) st = Status::Corruption("truncated free-page list");
      uint64_t count = st.ok() ? GetU64(p) : 0;
      p += 8;
      if (st.ok() && count > static_cast<uint64_t>(end - p) / 12) {
        st = Status::Corruption("free-page list count " +
                                std::to_string(count) +
                                " exceeds its blob size");
      }
      uint32_t file_pages = db->disk_.num_pages();
      for (uint64_t i = 0; st.ok() && i < count; ++i) {
        PageId id = GetU32(p);
        p += 4;
        uint64_t gen = GetU64(p);
        p += 8;
        if (id < 2 || id >= file_pages) {
          st = Status::Corruption("free-page list references page " +
                                  std::to_string(id) + " outside the file");
          break;
        }
        db->free_pages_.push_back(FreedPage{id, gen});
      }
    }
    if (!st.ok()) {
      db->Abandon();
      return st;
    }
  }
  if (options.oplog_fault_injector != nullptr) {
    db->oplog_.set_fault_injector(options.oplog_fault_injector);
  }
  {
    // Recover the oplog against the recovered catalog generation: a torn
    // tail or a record ahead of the committed header is trimmed; a log that
    // cannot reach the committed generation is rebased.
    Status oplog_st = db->oplog_.Open(OpLog::PathFor(path), db->generation_,
                                      /*truncate=*/false);
    if (!oplog_st.ok()) {
      db->Abandon();
      return oplog_st;
    }
  }
  db->pool_->set_allocator(db.get());
  return db;
}

Status Database::Close() {
  {
    // The shared snapshot goes first: its memoized indexes point into the
    // pool reset below.
    std::lock_guard<std::mutex> lock(mu_);
    current_snapshot_.reset();
    if (!disk_.is_open()) return Status::OK();
    PRIX_RETURN_NOT_OK(CommitLocked());
  }
  pool_.reset();
  Status disk_st = disk_.Close();
  Status oplog_st = oplog_.Close();
  return disk_st.ok() ? oplog_st : disk_st;
}

Database::SlotState Database::ParseHeader(
    const char* page, uint64_t* generation, uint32_t* version,
    std::map<std::string, IndexEntry>* entries, PageId* free_head,
    uint64_t* repl_gen, uint32_t* repl_manifest) {
  const char* p = page;
  if (GetU32(p) != kDbMagic) return SlotState::kBadMagic;
  p += 4;
  // Version is judged before the checksum: an older slot has a valid magic
  // but fails this format's validation elsewhere, and "old format" is a far
  // more useful answer than "torn slot".
  *version = GetU32(p);
  if (*version != kDbVersion) return SlotState::kOldVersion;
  p += 4;
  uint64_t gen = GetU64(p);
  p += 8;
  uint32_t payload_len = GetU32(p);
  p += 4;
  uint32_t checksum = GetU32(p);
  p += 4;
  if (payload_len > kPayloadCapacity) return SlotState::kTorn;
  if (CatalogChecksum(p, payload_len, gen) != checksum) {
    return SlotState::kTorn;
  }

  const char* end = p + payload_len;
  auto have = [&](size_t n) { return static_cast<size_t>(end - p) >= n; };
  if (!have(4)) return SlotState::kTorn;
  uint32_t count = GetU32(p);
  p += 4;
  std::map<std::string, IndexEntry> out;
  for (uint32_t i = 0; i < count; ++i) {
    if (!have(4)) return SlotState::kTorn;
    uint32_t name_len = GetU32(p);
    p += 4;
    if (!have(name_len)) return SlotState::kTorn;
    IndexEntry entry;
    entry.name.assign(p, name_len);
    p += name_len;
    if (!have(12)) return SlotState::kTorn;
    entry.kind = static_cast<IndexKind>(GetU32(p));
    p += 4;
    entry.root = GetU32(p);
    p += 4;
    uint32_t opt_len = GetU32(p);
    p += 4;
    if (!have(opt_len)) return SlotState::kTorn;
    entry.options.assign(p, p + opt_len);
    p += opt_len;
    out.emplace(entry.name, std::move(entry));
  }
  // Fixed fields after the entries: the free-page-list blob head, then the
  // replication cursor (the leader generation + manifest a follower has
  // applied through).
  if (!have(4 + 8 + 4)) return SlotState::kTorn;
  *free_head = GetU32(p);
  p += 4;
  *repl_gen = GetU64(p);
  p += 8;
  *repl_manifest = GetU32(p);
  p += 4;
  *generation = gen;
  *entries = std::move(out);
  return SlotState::kValid;
}

void Database::SerializePayload(std::vector<char>* out) const {
  PutU32(out, static_cast<uint32_t>(catalog_.size()));
  for (const auto& [name, entry] : catalog_) {
    PutU32(out, static_cast<uint32_t>(name.size()));
    out->insert(out->end(), name.begin(), name.end());
    PutU32(out, static_cast<uint32_t>(entry.kind));
    PutU32(out, entry.root);
    PutU32(out, static_cast<uint32_t>(entry.options.size()));
    out->insert(out->end(), entry.options.begin(), entry.options.end());
  }
}

Result<PageId> Database::PersistFreeListLocked(uint64_t commit_gen) {
  std::vector<char> blob;
  std::vector<PageId> old_blob_pages;
  size_t pushed = 0;
  {
    std::lock_guard<std::mutex> lock(free_mu_);
    if (free_pages_.empty() && free_blob_pages_.empty()) return kInvalidPage;
    // Freeze the list: a page popped for reuse after this serialization
    // would still be listed as free in the durable blob, and on recovery
    // it would be handed out again while a committed structure references
    // it. Reuse resumes once CommitLocked finishes (either way).
    suspend_reuse_ = true;
    // The blob being superseded becomes free itself at this commit, and the
    // new blob must record that.
    old_blob_pages.swap(free_blob_pages_);
    for (PageId id : old_blob_pages) {
      free_pages_.push_back(FreedPage{id, commit_gen});
      ++pushed;
    }
    PutU64(&blob, free_pages_.size());
    for (const FreedPage& f : free_pages_) {
      PutU32(&blob, f.id);
      PutU64(&blob, f.gen);
    }
  }
  // Written outside free_mu_: WriteBlob allocates through AllocatePage,
  // which takes free_mu_ (and, with reuse suspended, extends the file).
  auto head = WriteBlob(pool_.get(), blob, &free_blob_pages_);
  if (!head.ok()) {
    std::lock_guard<std::mutex> lock(free_mu_);
    for (size_t i = 0; i < pushed; ++i) free_pages_.pop_back();
    free_blob_pages_.swap(old_blob_pages);
    return head.status();
  }
  return *head;
}

Status Database::CommitLocked() {
  // Whatever the outcome, the catalog may have changed under the shared
  // snapshot; the next OpenSnapshot takes a fresh one.
  current_snapshot_.reset();
  uint64_t gen_next = generation_ + 1;
  auto resume_reuse = [this]() {
    std::lock_guard<std::mutex> lock(free_mu_);
    suspend_reuse_ = false;
  };
  std::vector<char> payload;
  SerializePayload(&payload);
  auto head = PersistFreeListLocked(gen_next);
  if (!head.ok()) {
    resume_reuse();
    return head.status();
  }
  PutU32(&payload, *head);
  // The replication cursor commits with the catalog, so "which leader
  // generation this follower reflects" is atomic with the applied state.
  PutU64(&payload, repl_source_gen_);
  PutU32(&payload, repl_source_manifest_);
  if (payload.size() > kPayloadCapacity) {
    resume_reuse();
    return Status::ResourceExhausted(
        "catalog payload exceeds one header page (" +
        std::to_string(payload.size()) + " bytes)");
  }
  // Durability order (DESIGN.md §5e): (1) flush every dirty index page,
  // (2) fdatasync so those pages are on the platter, (3) write the header
  // slot that names them, (4) fdatasync again so the commit point itself is
  // durable. Without the first sync a crash could persist the new catalog
  // while losing index pages it references; without the second the commit
  // may silently roll back. The crash-simulation matrix
  // (tests/crash_recovery_test.cc) fails if either sync is removed.
  Status st;
  if (pool_ != nullptr) st = pool_->FlushAll();
  if (st.ok()) st = disk_.Sync();
  if (!st.ok()) {
    resume_reuse();
    return st;
  }
  // Oplog barrier (DESIGN.md §5l): the record for this generation is durable
  // BEFORE the header flips, so after any crash the log covers every
  // committed generation. The converse hazard — a durable record whose
  // header never flipped — is trimmed by OpLog::Open at recovery and by the
  // rollback below on a live commit failure.
  {
    OpKind op_kind = pending_op_set_ ? pending_op_kind_ : OpKind::kNoop;
    std::vector<char> op_payload = std::move(pending_op_payload_);
    pending_op_set_ = false;
    pending_op_kind_ = OpKind::kNoop;
    pending_op_payload_.clear();
    st = oplog_.Append(gen_next, op_kind, op_payload);
    if (!st.ok()) {
      resume_reuse();
      return st;
    }
  }
  uint64_t gen = gen_next;
  char page[kPageSize] = {};
  std::vector<char> header;
  header.reserve(kHeaderBytes);
  PutU32(&header, kDbMagic);
  PutU32(&header, kDbVersion);
  PutU64(&header, gen);
  PutU32(&header, static_cast<uint32_t>(payload.size()));
  PutU32(&header, CatalogChecksum(payload.data(), payload.size(), gen));
  PRIX_CHECK(header.size() == kHeaderBytes);
  std::memcpy(page, header.data(), header.size());
  std::memcpy(page + kHeaderBytes, payload.data(), payload.size());
  // Header slots bypass the buffer pool, so this write stamps its own
  // trailer; the catalog FNV checksum guards torn slots, the trailer CRC
  // makes the page pass a whole-file scrub.
  SetPageType(page, PageType::kCatalogHeader);
  StampPageTrailer(page);
  // Alternate slots by generation parity: the slot holding the current
  // generation is never overwritten, so a torn write of the new slot still
  // leaves the old catalog recoverable.
  PageId slot = kHeaderSlots[gen % 2];
  st = disk_.WritePage(slot, page);
  if (st.ok()) st = disk_.Sync();
  if (!st.ok()) {
    // The commit never published: drop its oplog record so the live handle
    // cannot stream history ahead of the catalog. (After a real crash here
    // OpLog::Open performs the same trim.)
    (void)oplog_.TruncateTo(generation_);
    resume_reuse();
    return st;
  }
  generation_ = gen;
  committed_gen_.store(gen, std::memory_order_release);
  resume_reuse();
  return Status::OK();
}

Result<PageId> Database::AllocatePage() {
  {
    std::lock_guard<std::mutex> lock(free_mu_);
    if (!suspend_reuse_ && !free_pages_.empty()) {
      // A page retired at generation g is safe to recycle once (a) the
      // commit that retired it is durable and (b) no snapshot pins a
      // generation older than g (such a snapshot could still reach the
      // page through its pre-g catalog).
      uint64_t barrier = committed_gen_.load(std::memory_order_acquire);
      if (!pinned_gens_.empty()) {
        barrier = std::min(barrier, *pinned_gens_.begin());
      }
      // A snapshot ship in progress pins its generation exactly like an
      // open Snapshot: the file being streamed still references every page
      // its generation could reach.
      uint64_t low_water = repl_low_water_.load(std::memory_order_acquire);
      if (low_water != kNoReplLowWater) {
        barrier = std::min(barrier, low_water);
      }
      if (free_pages_.front().gen <= barrier) {
        PageId id = free_pages_.front().id;
        free_pages_.pop_front();
        MetricsRegistry& reg = MetricsRegistry::Global();
        if (reg.enabled()) reg.counter("prix.db.pages_reused").Add(1);
        return id;
      }
    }
  }
  return disk_.AllocatePage();
}

size_t Database::free_page_count() const {
  std::lock_guard<std::mutex> lock(free_mu_);
  return free_pages_.size();
}

std::shared_ptr<const Snapshot> Database::OpenSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  if (current_snapshot_ != nullptr) return current_snapshot_;
  auto* snap = new Snapshot();
  snap->generation_ = generation_;
  snap->catalog_ = catalog_;
  uint64_t gen = generation_;
  {
    std::lock_guard<std::mutex> flock(free_mu_);
    pinned_gens_.insert(gen);
  }
  // The deleter unpins the generation; it takes only free_mu_ (after mu_
  // in lock order), so the last reference may drop on any thread, even
  // inside CommitLocked.
  current_snapshot_ =
      std::shared_ptr<const Snapshot>(snap, [this, gen](Snapshot* s) {
        {
          std::lock_guard<std::mutex> flock(free_mu_);
          pinned_gens_.erase(pinned_gens_.find(gen));
        }
        delete s;
      });
  return current_snapshot_;
}

Result<std::shared_ptr<const void>> Snapshot::Memoize(
    const std::string& name, const OpenFn& open) const {
  MemoSlot* slot;
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    slot = &memo_.try_emplace(name).first->second;  // map nodes are stable
  }
  std::lock_guard<std::mutex> lock(slot->mu);
  if (slot->value == nullptr) {
    PRIX_ASSIGN_OR_RETURN(slot->value, open());
  }
  return slot->value;
}

Status Database::CommitBatch(const std::vector<IndexEntry>& entries,
                             const std::vector<PageId>& freed) {
  for (const IndexEntry& e : entries) {
    if (e.name.empty()) {
      return Status::InvalidArgument("catalog entry needs a name");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, IndexEntry> old_catalog = catalog_;
  uint64_t commit_gen = generation_ + 1;
  {
    std::lock_guard<std::mutex> flock(free_mu_);
    for (PageId id : freed) free_pages_.push_back(FreedPage{id, commit_gen});
  }
  for (const IndexEntry& e : entries) catalog_[e.name] = e;
  Status st = CommitLocked();
  if (!st.ok()) {
    // The transaction did not publish: its superseded pages are still live
    // in the (restored) old catalog and must leave the free list. Matching
    // by id from the back is exact — these are the newest entries for
    // their ids (CommitLocked's own blob retirement rolls itself back).
    catalog_ = std::move(old_catalog);
    std::lock_guard<std::mutex> flock(free_mu_);
    for (PageId id : freed) {
      for (auto it = free_pages_.rbegin(); it != free_pages_.rend(); ++it) {
        if (it->id == id && it->gen == commit_gen) {
          free_pages_.erase(std::next(it).base());
          break;
        }
      }
    }
    return st;
  }
  MetricsRegistry& reg = MetricsRegistry::Global();
  if (reg.enabled() && !freed.empty()) {
    reg.counter("prix.db.pages_freed").Add(freed.size());
  }
  return Status::OK();
}

void Database::Abandon() {
  std::lock_guard<std::mutex> lock(mu_);
  current_snapshot_.reset();
  if (pool_ != nullptr) {
    pool_->DiscardAll();  // nothing may be written after a simulated crash
    pool_.reset();
  }
  (void)disk_.Close();
  oplog_.Abandon();
  catalog_.clear();
}

void Database::StageOpRecord(OpKind kind, std::vector<char> payload) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_op_set_ = true;
  pending_op_kind_ = kind;
  pending_op_payload_ = std::move(payload);
}

void Database::ClearStagedOp() {
  std::lock_guard<std::mutex> lock(mu_);
  pending_op_set_ = false;
  pending_op_kind_ = OpKind::kNoop;
  pending_op_payload_.clear();
}

void Database::StageReplCursor(uint64_t source_gen, uint32_t source_manifest) {
  std::lock_guard<std::mutex> lock(mu_);
  repl_source_gen_ = source_gen;
  repl_source_manifest_ = source_manifest;
}

std::pair<uint64_t, uint32_t> Database::repl_cursor() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {repl_source_gen_, repl_source_manifest_};
}

void Database::SetReplLowWater(uint64_t gen) {
  repl_low_water_.store(gen, std::memory_order_release);
}

Result<Database::FileSnapshot> Database::BeginFileSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  FileSnapshot snap;
  snap.gen = generation_;
  snap.num_pages = disk_.num_pages();
  auto manifest = oplog_.ManifestAt(snap.gen);
  if (!manifest.ok()) return manifest.status();
  snap.manifest = *manifest;
  // Bound page reuse BEFORE reading anything: from here to EndFileSnapshot
  // no page a generation-`gen` catalog can reach is recycled, so the caller
  // may read pages >= 2 lock-free (committed pages are never overwritten
  // under copy-on-write; everything committed at `gen` is already on disk
  // because CommitLocked syncs data before flipping the header). Callers
  // serialize ships — there is one low-water bound, not a stack.
  SetReplLowWater(snap.gen);
  snap.header_pages.resize(2 * static_cast<size_t>(kPageSize));
  Status st = disk_.ReadPage(0, snap.header_pages.data());
  if (st.ok()) st = disk_.ReadPage(1, snap.header_pages.data() + kPageSize);
  if (!st.ok()) {
    EndFileSnapshot();
    return st;
  }
  return snap;
}

void Database::EndFileSnapshot() { SetReplLowWater(kNoReplLowWater); }

Status Database::PutIndex(const IndexEntry& entry) {
  if (entry.name.empty()) {
    return Status::InvalidArgument("catalog entry needs a name");
  }
  std::lock_guard<std::mutex> lock(mu_);
  catalog_[entry.name] = entry;
  // Stage this publish's oplog record. A blob entry travels by value (the
  // follower rewrites the bytes into its own page chain); an engine publish
  // is a barrier — its page roots mean nothing in another file, so a
  // follower that reaches it must resync from a full snapshot.
  std::vector<char> blob;
  if (entry.kind == IndexKind::kBlob && entry.root != kInvalidPage &&
      pool_ != nullptr && ReadBlob(pool_.get(), entry.root, &blob).ok() &&
      blob.size() + entry.options.size() + entry.name.size() + 64 <=
          OpLog::kMaxPayload) {
    pending_op_kind_ = OpKind::kPutBlob;
    pending_op_payload_ = EncodePutBlobOp(entry.name, entry.options, blob);
  } else {
    pending_op_kind_ = OpKind::kBarrier;
    pending_op_payload_ = EncodeNameOp(entry.name);
  }
  pending_op_set_ = true;
  return CommitLocked();
}

Result<Database::IndexEntry> Database::GetIndex(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    return Status::NotFound("no index named '" + name + "' in " + path_);
  }
  return it->second;
}

bool Database::HasIndex(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_.find(name) != catalog_.end();
}

std::vector<Database::IndexEntry> Database::ListIndexes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<IndexEntry> out;
  out.reserve(catalog_.size());
  for (const auto& [name, entry] : catalog_) out.push_back(entry);
  return out;
}

Status Database::DropIndex(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (catalog_.erase(name) == 0) {
    return Status::NotFound("no index named '" + name + "' in " + path_);
  }
  pending_op_set_ = true;
  pending_op_kind_ = OpKind::kDrop;
  pending_op_payload_ = EncodeNameOp(name);
  return CommitLocked();
}

uint64_t Database::catalog_generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

Status Database::ColdStart() {
  PRIX_RETURN_NOT_OK(pool_->Clear());
  pool_->ResetStats();
  return Status::OK();
}

}  // namespace prix
