#include "verify/verifier.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <set>
#include <unordered_set>

#include "btree/btree.h"
#include "common/macros.h"
#include "db/database.h"
#include "prix/prix_index.h"
#include "storage/page_format.h"
#include "storage/record_store.h"
#include "twigstack/position_stream.h"
#include "twigstack/twig_stack.h"
#include "vist/vist_index.h"

namespace prix {

namespace {

void AddIssue(VerifyReport* report, PageId page, const std::string& index,
              const std::string& context, const Status& st) {
  report->issues.push_back(
      VerifyIssue{page, index, context, std::string(st.message())});
}

/// Reads exactly `len` bytes at `offset`, resuming short reads.
Status PreadFully(int fd, char* buf, size_t len, uint64_t offset) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::pread(fd, buf + done, len - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pread: ") + std::strerror(errno));
    }
    if (n == 0) return Status::IoError("pread: unexpected end of file");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Walks one B+-tree of an opened index, reporting every structural fault
/// with the index name and the node path from the root.
template <typename Tree>
void ScrubTree(Tree* tree, const std::string& index, const std::string& label,
               VerifyReport* report) {
  BtreeScrubStats stats;
  Status st = tree->WalkReachable(
      [](const auto&, const auto&) { return Status::OK(); },
      [&](PageId page, const Status& issue, const std::string& path) {
        AddIssue(report, page, index, label + " " + path, issue);
      },
      &stats);
  // The no-op emit never fails, but keep the contract honest.
  if (!st.ok()) AddIssue(report, kInvalidPage, index, label, st);
}

/// Walks both B+-trees of a virtual trie (PRIX's or ViST's).
void ScrubTrie(VirtualTrie* trie, const std::string& index,
               VerifyReport* report) {
  ScrubTree(&trie->nodes(), index, "symbol-tree", report);
  ScrubTree(&trie->docs(), index, "docid-tree", report);
}

void VerifyPrixEntry(Database* db, const Database::IndexEntry& entry,
                     VerifyReport* report) {
  auto index = PrixIndex::Open(db, entry.name);
  if (!index.ok()) {
    AddIssue(report, entry.root, entry.name, "index catalog", index.status());
    return;
  }
  ScrubTrie(&(*index)->trie(), entry.name, report);
  for (DocId d = 0; d < (*index)->num_docs(); ++d) {
    Result<StoredDoc> doc = (*index)->docs().Load(d);
    if (!doc.ok()) {
      AddIssue(report, kInvalidPage, entry.name,
               "doc record " + std::to_string(d), doc.status());
    }
  }
  // Document accounting: tombstoned DocIds whose DocStore records are still
  // occupying space (reclaimed only by a rebuild/compaction). Reported as
  // stats, not issues — dead weight is expected after online deletes. A
  // tombstone for a DocId the store does not hold IS an issue, but
  // PrixIndex::Open already rejects that as corruption above.
  IndexDocStats ds;
  ds.index = entry.name;
  ds.live_docs = (*index)->num_live_docs();
  ds.dead_docs = (*index)->tombstones().size();
  report->doc_stats.push_back(std::move(ds));
}

void VerifyVistEntry(Database* db, const Database::IndexEntry& entry,
                     VerifyReport* report) {
  auto index = VistIndex::Open(db, entry.name);
  if (!index.ok()) {
    AddIssue(report, entry.root, entry.name, "index catalog", index.status());
    return;
  }
  ScrubTrie(&(*index)->trie(), entry.name, report);
  // Live/dead accounting: a ViST delete removes the Docid entry and leaves
  // the sequence record behind, so live = Docid entries, dead = the rest.
  // Only live documents need a loadable sequence record.
  std::vector<bool> live((*index)->num_docs(), false);
  auto it = (*index)->trie().docs().SeekToFirst();
  if (!it.ok()) {
    AddIssue(report, kInvalidPage, entry.name, "docid-tree scan", it.status());
  } else {
    while (it->Valid()) {
      if (it->value() < live.size()) live[it->value()] = true;
      Status st = it->Next();
      if (!st.ok()) {
        AddIssue(report, kInvalidPage, entry.name, "docid-tree scan", st);
        break;
      }
    }
  }
  IndexDocStats ds;
  ds.index = entry.name;
  for (DocId d = 0; d < (*index)->num_docs(); ++d) {
    if (!live[d]) {
      ++ds.dead_docs;
      continue;
    }
    ++ds.live_docs;
    Result<Document> doc = (*index)->LoadDocument(d);
    if (!doc.ok()) {
      AddIssue(report, kInvalidPage, entry.name,
               "sequence record " + std::to_string(d), doc.status());
    }
  }
  report->doc_stats.push_back(std::move(ds));
}

void VerifyStreamsEntry(Database* db, const Database::IndexEntry& entry,
                        VerifyReport* report) {
  auto store = StreamStore::Open(db, entry.name);
  if (!store.ok()) {
    AddIssue(report, entry.root, entry.name, "stream catalog", store.status());
    return;
  }
  // Fetching each page that holds entries runs it through the pool's CRC
  // verification; a page shared by several streams is fetched once.
  std::unordered_set<PageId> fetched_pages;
  for (const auto& [label, info] : (*store)->streams()) {
    for (uint32_t i = 0; i < info.count;) {
      const StreamStore::PageRun run = StreamStore::Locate(info, i);
      i += run.count;
      const PageId page = info.pages[run.page];
      if (!fetched_pages.insert(page).second) continue;
      Result<Page*> fetched = db->pool()->FetchPage(page);
      if (!fetched.ok()) {
        AddIssue(report, page, entry.name,
                 "stream for label " + std::to_string(label),
                 fetched.status());
        continue;
      }
      db->pool()->UnpinPage(page, /*dirty=*/false);
    }
  }
  IndexDocStats ds;
  ds.index = entry.name;
  ds.dead_docs = (*store)->tombstones().size();
  ds.live_docs = (*store)->num_docs() - ds.dead_docs;
  report->doc_stats.push_back(std::move(ds));
}

void VerifyForestEntry(Database* db, const Database::IndexEntry& entry,
                       VerifyReport* report) {
  // The forest catalog references a stream store but does not name it; pair
  // with the database's (sole, in every producer of kXbForest) stream store
  // when one opens, else fall back to checking the catalog blob chain (the
  // store's own fault is reported against the store). A forest with no
  // stream store at all cannot be written past.
  std::unique_ptr<StreamStore> store;
  bool any_store = false;
  for (const auto& other : db->ListIndexes()) {
    if (other.kind != Database::IndexKind::kTwigStreams) continue;
    any_store = true;
    auto opened = StreamStore::Open(db, other.name);
    if (opened.ok()) {
      store = std::move(*opened);
      break;
    }
  }
  if (store != nullptr) {
    auto forest = XbForest::Open(db, entry.name, store.get());
    if (!forest.ok()) {
      AddIssue(report, entry.root, entry.name, "forest catalog",
               forest.status());
    }
    return;
  }
  if (!any_store) {
    AddIssue(report, entry.root, entry.name, "forest pairing",
             Status::Corruption("no stream store in the catalog to pair "
                                "with; rebuild it with prix verify "
                                "--salvage"));
    return;
  }
  std::vector<char> blob;
  Status st = ReadBlob(db->pool(), entry.root, &blob);
  if (!st.ok()) {
    AddIssue(report, entry.root, entry.name, "forest catalog blob", st);
  }
}

void VerifyBlobEntry(Database* db, const Database::IndexEntry& entry,
                     VerifyReport* report) {
  std::vector<char> blob;
  Status st = ReadBlob(db->pool(), entry.root, &blob);
  if (!st.ok()) AddIssue(report, entry.root, entry.name, "blob chain", st);
}

/// The collection a salvage rebuilds every index from. `docs[d]` is DocId
/// d; it is an empty placeholder for each DocId in `placeholders`, which
/// holds the dead DocIds and the `lost` ones.
struct Collection {
  std::vector<Document> docs;
  std::vector<DocId> placeholders;
  std::vector<DocId> lost;
};

/// Reconstructs the collection from the document stores of `stores` (every
/// PRIX index that opened, in catalog order). A DocId any of them
/// tombstones is dead; otherwise it comes from the first store that
/// reconstructs it, so a record one store cannot read or decode falls back
/// to the next.
Collection ReconstructCollection(
    const std::vector<std::unique_ptr<PrixIndex>>& stores) {
  size_t num_docs = 0;
  for (const auto& s : stores) num_docs = std::max(num_docs, s->num_docs());
  Collection c;
  c.docs.reserve(num_docs);
  for (DocId d = 0; d < num_docs; ++d) {
    const bool dead = std::any_of(
        stores.begin(), stores.end(),
        [d](const auto& s) { return s->IsDeleted(d); });
    for (size_t i = 0; !dead && i < stores.size(); ++i) {
      Result<Document> doc = stores[i]->ReconstructDocument(d);
      if (doc.ok()) {
        c.docs.push_back(std::move(*doc));
        break;
      }
    }
    if (c.docs.size() > d) continue;
    c.docs.push_back(Document(d));
    c.placeholders.push_back(d);
    if (!dead) c.lost.push_back(d);
  }
  return c;
}

/// Bulk-builds `entry`'s kind over `c` and saves it into `dst` under the
/// entry's name. `streams` holds the first rebuilt stream store, which a
/// forest summarizes. Returns false when the build fails and the entry is
/// dropped; a failed Save is fatal.
Result<bool> RebuildEntry(const Database::IndexEntry& entry,
                          const Collection& c, Database* dst,
                          std::unique_ptr<StreamStore>* streams) {
  switch (entry.kind) {
    case Database::IndexKind::kPrixRegular:
    case Database::IndexKind::kPrixExtended: {
      PrixIndexOptions options;
      options.extended = entry.kind == Database::IndexKind::kPrixExtended;
      auto index = PrixIndex::Build(c.docs, dst->pool(), options);
      if (!index.ok()) return false;
      for (DocId d : c.placeholders) (*index)->Tombstone(d);
      PRIX_RETURN_NOT_OK((*index)->Save(dst, entry.name));
      return true;
    }
    case Database::IndexKind::kVist: {
      auto index = VistIndex::Build(c.docs, dst->pool());
      if (!index.ok()) return false;
      PRIX_RETURN_NOT_OK((*index)->Save(dst, entry.name));
      return true;
    }
    case Database::IndexKind::kTwigStreams: {
      auto store = StreamStore::Build(c.docs, dst->pool());
      if (!store.ok()) return false;
      for (DocId d : c.placeholders) (*store)->Tombstone(d);
      PRIX_RETURN_NOT_OK((*store)->Save(dst, entry.name));
      if (*streams == nullptr) *streams = std::move(*store);
      return true;
    }
    case Database::IndexKind::kXbForest: {
      if (*streams == nullptr) return false;
      auto forest = XbForest::Build(streams->get());
      if (!forest.ok()) return false;
      PRIX_RETURN_NOT_OK((*forest)->Save(dst, entry.name));
      return true;
    }
    case Database::IndexKind::kBlob:
      break;
  }
  return false;
}

}  // namespace

Status ScrubPages(const std::string& path, VerifyReport* report) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("open(" + path + "): " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status err =
        Status::IoError("fstat(" + path + "): " + std::strerror(errno));
    ::close(fd);
    return err;
  }
  uint64_t size = static_cast<uint64_t>(st.st_size);
  uint64_t full_pages = size / kPageSize;
  if (size == 0) {
    AddIssue(report, kInvalidPage, "", "file",
             Status::Corruption(path +
                                " is empty (0 pages): expected a superblock "
                                "page with magic \"PRDB\""));
  } else if (size % kPageSize != 0) {
    AddIssue(report, kInvalidPage, "", "file",
             Status::Corruption(
                 path + ": ragged tail of " +
                 std::to_string(size % kPageSize) +
                 " bytes past the last full page (torn extension?)"));
  }
  std::vector<char> buf(kPageSize);
  for (uint64_t id = 0; id < full_pages; ++id) {
    Status read_st =
        PreadFully(fd, buf.data(), kPageSize, id * uint64_t{kPageSize});
    if (!read_st.ok()) {
      ++report->pages_bad;
      AddIssue(report, static_cast<PageId>(id), "", "page scan", read_st);
      continue;
    }
    ++report->pages_scanned;
    Status crc_st = VerifyPageTrailer(static_cast<PageId>(id), buf.data());
    if (!crc_st.ok()) {
      ++report->pages_bad;
      AddIssue(report, static_cast<PageId>(id), "",
               std::string("page type ") + PageTypeName(GetPageType(buf.data())),
               crc_st);
    }
  }
  ::close(fd);
  return Status::OK();
}

Status VerifyDatabase(const std::string& path, VerifyReport* report) {
  auto db = Database::Open(path, Database::Options{.pool_pages = 512});
  if (!db.ok()) {
    AddIssue(report, kInvalidPage, "", "database open", db.status());
    return Status::OK();
  }
  report->free_pages = (*db)->free_page_count();
  // PRIX entries go first: every ViST and stream store must hold as many
  // documents (tombstones included) as some PRIX index, since online ingest
  // carries each derived index along DocId for DocId.
  auto is_prix = [](const Database::IndexEntry& entry) {
    return entry.kind == Database::IndexKind::kPrixRegular ||
           entry.kind == Database::IndexKind::kPrixExtended;
  };
  std::vector<Database::IndexEntry> entries = (*db)->ListIndexes();
  std::stable_partition(entries.begin(), entries.end(), is_prix);
  std::set<uint64_t> prix_doc_counts;
  for (const auto& entry : entries) {
    ++report->indexes_checked;
    size_t before = report->issues.size();
    size_t stats_before = report->doc_stats.size();
    switch (entry.kind) {
      case Database::IndexKind::kPrixRegular:
      case Database::IndexKind::kPrixExtended:
        VerifyPrixEntry(db->get(), entry, report);
        break;
      case Database::IndexKind::kVist:
        VerifyVistEntry(db->get(), entry, report);
        break;
      case Database::IndexKind::kTwigStreams:
        VerifyStreamsEntry(db->get(), entry, report);
        break;
      case Database::IndexKind::kXbForest:
        VerifyForestEntry(db->get(), entry, report);
        break;
      case Database::IndexKind::kBlob:
        VerifyBlobEntry(db->get(), entry, report);
        break;
    }
    if (report->doc_stats.size() > stats_before) {
      const IndexDocStats& ds = report->doc_stats.back();
      const uint64_t docs = ds.live_docs + ds.dead_docs;
      if (is_prix(entry)) {
        prix_doc_counts.insert(docs);
      } else if (!prix_doc_counts.empty() &&
                 prix_doc_counts.count(docs) == 0) {
        AddIssue(report, kInvalidPage, entry.name, "document count",
                 Status::Corruption(
                     "holds " + std::to_string(docs) +
                     " document(s), matching no PRIX index; online ingest "
                     "refuses to write past it, rebuild it with prix "
                     "verify --salvage"));
      }
    }
    if (report->issues.size() > before) ++report->indexes_bad;
  }
  // Nothing was (intentionally) modified; drop the handle without
  // committing a new catalog generation.
  (*db)->Abandon();
  return Status::OK();
}

Status SalvageDatabase(const std::string& src, const std::string& dst,
                       SalvageReport* report) {
  if (src == dst) {
    return Status::InvalidArgument(
        "salvage destination must differ from the source");
  }
  auto sdb = Database::Open(src, Database::Options{.pool_pages = 512});
  if (!sdb.ok()) {
    return sdb.status().Annotate("salvage: cannot open source");
  }
  auto ddb = Database::Create(dst);
  if (!ddb.ok()) {
    (*sdb)->Abandon();
    return ddb.status().Annotate("salvage: cannot create destination");
  }
  std::vector<Database::IndexEntry> entries = (*sdb)->ListIndexes();
  std::vector<std::unique_ptr<PrixIndex>> stores;
  for (const auto& entry : entries) {
    if (entry.kind != Database::IndexKind::kPrixRegular &&
        entry.kind != Database::IndexKind::kPrixExtended) {
      continue;
    }
    auto index = PrixIndex::Open(sdb->get(), entry.name);
    if (index.ok()) stores.push_back(std::move(*index));
  }
  const Collection c = ReconstructCollection(stores);
  report->lost = c.lost;
  report->documents = c.docs.size() - c.placeholders.size();
  // Streams before forests: a forest summarizes a rebuilt stream store.
  std::stable_partition(entries.begin(), entries.end(), [](const auto& e) {
    return e.kind != Database::IndexKind::kXbForest;
  });
  Status fatal;
  std::unique_ptr<StreamStore> streams;
  for (const auto& entry : entries) {
    if (entry.kind == Database::IndexKind::kBlob) {
      std::vector<char> blob;
      if (!ReadBlob((*sdb)->pool(), entry.root, &blob).ok()) {
        report->dropped.push_back(entry.name);
        continue;
      }
      auto first = WriteBlob((*ddb)->pool(), blob);
      if (!first.ok()) {
        fatal = first.status();
        break;
      }
      Database::IndexEntry copy = entry;
      copy.root = *first;
      fatal = (*ddb)->PutIndex(copy);
      if (!fatal.ok()) break;
      continue;
    }
    // With no PRIX store there is no collection to rebuild from.
    Result<bool> rebuilt = stores.empty()
                               ? Result<bool>(false)
                               : RebuildEntry(entry, c, ddb->get(), &streams);
    if (!rebuilt.ok()) {
      fatal = rebuilt.status();
      break;
    }
    (*rebuilt ? report->rebuilt : report->dropped).push_back(entry.name);
  }
  (*sdb)->Abandon();
  Status close_st = (*ddb)->Close();
  if (!fatal.ok()) return fatal.Annotate("salvage: writing destination");
  return close_st;
}

}  // namespace prix
