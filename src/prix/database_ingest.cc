// Online ingest: Database::InsertDocument / UpdateDocument / DeleteDocument
// (DESIGN.md §5i/§5k). The methods are declared on Database (db/database.h)
// but implemented here, in the engine library, because the write path runs
// the full PRIX transform — Prüfer sequences, trie labeling, B+-tree
// maintenance — which the storage-layer library must not depend on. A binary
// that calls them without linking the engine library fails at link time.
//
// Write protocol. Writers serialize on Database::ingest_mu_. Each call runs
// as one copy-on-write transaction: a fresh CowContext is attached to the
// PRIX index and every co-resident derived engine, so every page mutation
// copies committed pages instead of editing them in place, and the set of
// superseded pages is collected. Publication serializes every touched
// engine's catalog into new blob chains and hands (new entries, superseded
// pages) to Database::CommitBatch, which makes the new generation durable in
// fsync order — one commit covers all engines, so a reader pinned to any
// committed generation sees PRIX, ViST, and TwigStack answers that agree. On
// any failure the fresh pages are dropped from the pool un-flushed and the
// in-memory ingest cache is discarded; the committed generation is
// untouched.
//
// Derived engines (DESIGN.md §5k). Co-resident ViST indexes, TwigStack
// stream stores, and XB-forests found in the catalog ride along in the same
// commit:
//   - ViST's structure-encoded sequences insert exactly like LPS paths:
//     both engines persist one VirtualTrie (trie/virtual_trie.h), whose ops
//     drive the shared DynamicTrie labeling and relabel batches; only the
//     child keys differ. Deletes remove the Docid entry (candidates come
//     solely from Docid scans).
//   - Stream stores append the new document's entries to the tail of each
//     touched tag stream (DocIds are monotone, so (doc, left) order holds)
//     and tombstone deletes; cursors hide dead entries.
//   - XB-forests re-bucket only the touched tag streams: each touched
//     label's tree is rebuilt over the stream's current pages with live-only
//     max-end summaries.
// A derived engine that cannot ride the commit — one that fails to load or
// to pair with a stream store, or whose document count is out of step with
// the PRIX index — fails the write with Corruption naming it, and nothing
// commits. `prix verify` reports such a database CORRUPT, and
// `prix verify --salvage` rebuilds every index from the documents.
//
// Labeling. Bulk builds of both PRIX and ViST are exact-labeled
// (trie/range_labeler.h) and leave no slack. Every insert goes through
// DynamicTrie (trie/dynamic_trie.h): the first one grows the root scope
// and relabels once, spreading every range, and later ones claim the slack
// that relabel left (Sec. 5.2.1), relabeling the nearest roomy ancestor's
// subtree when a range runs out.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "db/database.h"
#include "db/op_codec.h"
#include "prix/prix_index.h"
#include "prufer/prufer.h"
#include "storage/cow.h"
#include "storage/record_store.h"
#include "trie/dynamic_trie.h"
#include "twigstack/twig_stack.h"
#include "vist/vist_index.h"
#include "vist/vist_sequence.h"
#include "xml/document.h"

namespace prix {
namespace {

/// Everything the writer caches about one open PRIX index: the live handle,
/// the trie mirror, and the page chain of the current catalog blob (retired
/// into the free list on the next publish).
struct OpenIndex {
  std::unique_ptr<PrixIndex> index;
  std::vector<PageId> catalog_pages;
  DynamicTrie trie;
};

/// One co-resident ViST index carried along by every commit.
struct VistEngine {
  Database::IndexEntry entry;  ///< committed entry (root of current blob)
  std::unique_ptr<VistIndex> index;
  std::vector<PageId> catalog_pages;
  DynamicTrie trie;
  bool dirty = false;  ///< mutated since the last publish
};

/// One co-resident TwigStack stream store.
struct StreamEngine {
  Database::IndexEntry entry;
  std::unique_ptr<StreamStore> store;
  std::vector<PageId> catalog_pages;
  /// Labels whose streams changed in the open transaction (drives the
  /// paired forest's bounded re-bucket).
  std::vector<LabelId> touched;
  bool dirty = false;
};

/// One co-resident XB-forest, paired with the stream store it summarizes.
struct ForestEngine {
  Database::IndexEntry entry;
  std::unique_ptr<XbForest> forest;
  std::vector<PageId> catalog_pages;
  StreamEngine* paired = nullptr;
  bool dirty = false;
};

/// The opaque object behind Database::ingest_state_. Stamped with the
/// catalog generation it was built from; any commit the writer did not make
/// itself (or a failed transaction) makes it stale and it is rebuilt.
/// Forests point into `streams`, so they are declared after (destroyed
/// first).
struct IngestState {
  uint64_t generation = 0;
  std::map<std::string, std::unique_ptr<OpenIndex>> indexes;
  bool derived_loaded = false;
  std::vector<std::unique_ptr<VistEngine>> vists;
  std::vector<std::unique_ptr<StreamEngine>> streams;
  std::vector<std::unique_ptr<ForestEngine>> forests;
};

/// The error for a derived index that cannot ride a write.
Status DerivedCorruption(const std::string& name, const std::string& why) {
  return Status::Corruption("derived index '" + name + "' " + why +
                            "; rebuild it with prix verify --salvage");
}

/// Loads every co-resident derived index so each write carries it along.
/// One that cannot be loaded fails the write: committing without it would
/// leave it describing an older collection.
Status LoadDerived(Database* db, IngestState* state) {
  if (state->derived_loaded) return Status::OK();
  auto unloadable = [](const Database::IndexEntry& entry, const Status& st) {
    return DerivedCorruption(entry.name, "cannot be loaded into the writer: " +
                                             std::string(st.message()));
  };
  std::vector<Database::IndexEntry> forest_entries;
  for (const Database::IndexEntry& entry : db->ListIndexes()) {
    if (entry.kind == Database::IndexKind::kVist) {
      auto opened = VistIndex::OpenFromEntry(db->pool(), entry);
      if (!opened.ok()) return unloadable(entry, opened.status());
      auto ve = std::make_unique<VistEngine>();
      ve->entry = entry;
      ve->index = std::move(*opened);
      Status st = ReadBlobPages(db->pool(), entry.root, &ve->catalog_pages);
      if (st.ok()) {
        st = ve->index->trie().LoadMirror(&ve->trie, ve->index->num_docs());
      }
      if (!st.ok()) return unloadable(entry, st);
      state->vists.push_back(std::move(ve));
    } else if (entry.kind == Database::IndexKind::kTwigStreams) {
      auto opened = StreamStore::OpenFromEntry(db->pool(), entry);
      if (!opened.ok()) return unloadable(entry, opened.status());
      auto se = std::make_unique<StreamEngine>();
      se->entry = entry;
      se->store = std::move(*opened);
      Status st = ReadBlobPages(db->pool(), entry.root, &se->catalog_pages);
      if (!st.ok()) return unloadable(entry, st);
      state->streams.push_back(std::move(se));
    } else if (entry.kind == Database::IndexKind::kXbForest) {
      forest_entries.push_back(entry);  // needs the stores loaded first
    }
  }
  for (const Database::IndexEntry& entry : forest_entries) {
    auto fe = std::make_unique<ForestEngine>();
    fe->entry = entry;
    for (auto& se : state->streams) {
      auto opened = XbForest::OpenFromEntry(db->pool(), entry,
                                            se->store.get());
      if (opened.ok()) {
        fe->forest = std::move(*opened);
        fe->paired = se.get();
        break;
      }
    }
    if (fe->forest == nullptr) {
      return DerivedCorruption(entry.name,
                               "pairs with no stream store in the catalog");
    }
    Status st = ReadBlobPages(db->pool(), entry.root, &fe->catalog_pages);
    if (!st.ok()) return unloadable(entry, st);
    state->forests.push_back(std::move(fe));
  }
  state->derived_loaded = true;
  return Status::OK();
}

/// Every derived index rides each write DocId for DocId, so it must hold as
/// many documents as the PRIX index being written — or one more, when that
/// index is the lockstep twin of one the current document already went into
/// (the CLI inserts each document into an RP and an EP index back to back).
Status CheckAligned(const IngestState& state, const std::string& name,
                    const PrixIndex& index) {
  const uint64_t want = index.num_docs();
  auto check = [&](const Database::IndexEntry& entry, uint64_t have) {
    if (have == want || have == want + 1) return Status::OK();
    return DerivedCorruption(
        entry.name, "holds " + std::to_string(have) +
                        " document(s), out of step with PRIX index '" + name +
                        "' (" + std::to_string(want) + ")");
  };
  for (const auto& ve : state.vists) {
    PRIX_RETURN_NOT_OK(check(ve->entry, ve->index->num_docs()));
  }
  for (const auto& se : state.streams) {
    PRIX_RETURN_NOT_OK(check(se->entry, se->store->num_docs()));
  }
  return Status::OK();
}

/// Returns the cached writer state for `name`, (re)building it when the
/// cache is missing, stale (someone else committed), or was discarded by a
/// failed transaction. Caller holds ingest_mu_.
Result<OpenIndex*> AcquireIngest(Database* db, std::shared_ptr<void>* slot,
                                 const std::string& name) {
  auto state = std::static_pointer_cast<IngestState>(*slot);
  if (state == nullptr || state->generation != db->catalog_generation()) {
    state = std::make_shared<IngestState>();
    state->generation = db->catalog_generation();
    *slot = state;
  }
  if (Status st = LoadDerived(db, state.get()); !st.ok()) {
    slot->reset();  // a partial load must not be mistaken for a full one
    return st;
  }
  auto it = state->indexes.find(name);
  if (it == state->indexes.end()) {
    auto oi = std::make_unique<OpenIndex>();
    PRIX_ASSIGN_OR_RETURN(oi->index, PrixIndex::Open(db, name));
    PRIX_ASSIGN_OR_RETURN(Database::IndexEntry entry, db->GetIndex(name));
    PRIX_RETURN_NOT_OK(
        ReadBlobPages(db->pool(), entry.root, &oi->catalog_pages));
    PRIX_RETURN_NOT_OK(
        oi->index->trie().LoadMirror(&oi->trie, oi->index->num_docs()));
    it = state->indexes.emplace(name, std::move(oi)).first;
  }
  PRIX_RETURN_NOT_OK(CheckAligned(*state, name, *it->second->index));
  return it->second.get();
}

/// Stages one document into the open transaction: transform (matching what
/// PrixIndex::Build does per document), thread the LPS through the trie,
/// add the Docid entry, append the doc-store record.
Result<DocId> StageInsert(OpenIndex* oi, const Document& original) {
  if (original.num_nodes() == 0) {
    return Status::InvalidArgument("cannot insert an empty document");
  }
  PrixIndex* index = oi->index.get();
  const DocId d = static_cast<DocId>(index->num_docs());

  PruferSequences seq;
  std::vector<LeafEntry> leaves;
  if (index->extended()) {
    const Document ext = ExtendWithDummyLeaves(original, kDummyLabel);
    seq = BuildPruferSequences(ext);
    index->maxgap_mut().AddDocument(ext);
  } else {
    seq = BuildPruferSequences(original);
    index->maxgap_mut().AddDocument(original);
    leaves = CollectLeaves(original);
    for (NodeId v = 0; v < original.num_nodes(); ++v) {
      if (original.is_leaf(v)) index->AddChildlessLabel(original.label(v));
    }
  }

  std::vector<uint64_t> ckeys;
  ckeys.reserve(seq.lps.size());
  for (LabelId label : seq.lps) ckeys.push_back(TrieChildKey(label, 0));
  PRIX_RETURN_NOT_OK(index->trie().InsertSequence(&oi->trie, ckeys, d));
  PRIX_RETURN_NOT_OK(index->docs_mut().Append(d, seq, leaves));
  return d;
}

/// Stages a delete: remove the document's Docid entry (queries can no
/// longer surface it through subsequence matching) and tombstone the DocId
/// (the paths that take every live document as a candidate skip it; also
/// what `prix verify` reports as dead). Trie-Symbol entries are shared between documents and
/// are never removed; MaxGap and the childless-label set stay sound
/// over-approximations.
Status StageDelete(OpenIndex* oi, DocId doc) {
  PrixIndex* index = oi->index.get();
  if (doc >= index->num_docs() || index->IsDeleted(doc)) {
    return Status::NotFound("document " + std::to_string(doc) +
                            " is not live");
  }
  if (!oi->trie.HasDoc(doc)) {
    return Status::Corruption("live document " + std::to_string(doc) +
                              " has no Docid-index entry");
  }
  PRIX_RETURN_NOT_OK(oi->trie.DeleteDocEntry(doc, index->trie()));
  index->Tombstone(doc);
  return Status::OK();
}

/// Stages `doc` into one ViST engine under DocId `d`. A second lockstep
/// call for the same document sees num_docs == d+1 and no-ops.
Status StageVistInsert(VistEngine* ve, const Document& doc, DocId d) {
  if (ve->index->num_docs() == static_cast<size_t>(d) + 1) {
    return Status::OK();
  }
  VistIndex* index = ve->index.get();
  PRIX_ASSIGN_OR_RETURN(const std::vector<VistItem> seq,
                        index->AppendSequence(doc, d));
  std::vector<uint64_t> ckeys;
  ckeys.reserve(seq.size());
  for (const VistItem& item : seq) {
    ckeys.push_back(TrieChildKey(item.symbol, item.prefix));
    // A no-op for every key already in the trie, so only the path's new
    // nodes extend the lists, as they did when listed per inserted node.
    index->AddSymbolPrefix(item.symbol, item.prefix);
  }
  PRIX_RETURN_NOT_OK(index->trie().InsertSequence(&ve->trie, ckeys, d));
  ve->dirty = true;
  return Status::OK();
}

/// Stages a ViST delete: removing the Docid entry is a complete delete —
/// candidates come solely from Docid scans, so the dead sequence record and
/// orphaned trie nodes are unreachable, not wrong. Already-deleted docs
/// no-op (the second lockstep call).
Status StageVistDelete(VistEngine* ve, DocId doc) {
  if (!ve->trie.HasDoc(doc)) return Status::OK();
  PRIX_RETURN_NOT_OK(ve->trie.DeleteDocEntry(doc, ve->index->trie()));
  ve->dirty = true;
  return Status::OK();
}

Status StageStreamInsert(StreamEngine* se, const Document& doc, DocId d,
                         CowContext* cow) {
  if (se->store->num_docs() == d + 1) return Status::OK();  // lockstep twin
  PRIX_RETURN_NOT_OK(se->store->AppendDocument(doc, d, cow, &se->touched));
  se->dirty = true;
  return Status::OK();
}

/// Stages a stream delete. The touched labels (for the paired forest's
/// re-bucket) come from reconstructing the document out of the PRIX store —
/// best-effort: if reconstruction fails, the old summaries stay, which is
/// safe (a too-large max-end only costs extra drill-downs; the leaf cursor
/// hides the dead entries either way).
Status StageStreamDelete(StreamEngine* se, const OpenIndex* oi, DocId doc) {
  if (se->store->IsDeleted(doc)) return Status::OK();
  Result<Document> re = oi->index->ReconstructDocument(doc);
  if (re.ok()) {
    for (NodeId v = 0; v < re->num_nodes(); ++v) {
      se->touched.push_back(re->label(v));
    }
  }
  se->store->Tombstone(doc);
  se->dirty = true;
  return Status::OK();
}

Status StageDerivedInsert(IngestState* state, const Document& doc, DocId d,
                          CowContext* cow) {
  for (auto& ve : state->vists) {
    PRIX_RETURN_NOT_OK(StageVistInsert(ve.get(), doc, d));
  }
  for (auto& se : state->streams) {
    PRIX_RETURN_NOT_OK(StageStreamInsert(se.get(), doc, d, cow));
  }
  return Status::OK();
}

/// Must run while `doc` is still live in the PRIX index (reconstruction
/// feeds the forest re-bucket), i.e. before StageDelete.
Status StageDerivedDelete(IngestState* state, const OpenIndex* oi,
                          DocId doc) {
  for (auto& ve : state->vists) {
    PRIX_RETURN_NOT_OK(StageVistDelete(ve.get(), doc));
  }
  for (auto& se : state->streams) {
    PRIX_RETURN_NOT_OK(StageStreamDelete(se.get(), oi, doc));
  }
  return Status::OK();
}

/// One engine's deferred publication bookkeeping: applied only after
/// CommitBatch succeeds, so a failed commit leaves the cached state
/// describing the still-committed generation (it is discarded anyway).
struct PendingPublish {
  std::vector<PageId>* pages_slot;
  Database::IndexEntry* entry_slot;  ///< null for the PRIX index itself
  Database::IndexEntry entry;
  std::vector<PageId> new_pages;
};

/// Serializes one engine catalog into a fresh blob chain and stages its
/// entry + retired pages for the batch commit.
Status StageEnginePublish(Database* db, CowContext* cow,
                          const std::vector<char>& blob,
                          Database::IndexEntry entry,
                          std::vector<PageId>* pages_slot,
                          Database::IndexEntry* entry_slot,
                          std::vector<Database::IndexEntry>* entries,
                          std::vector<PageId>* freed,
                          std::vector<PendingPublish>* pending) {
  std::vector<PageId> new_pages;
  PRIX_ASSIGN_OR_RETURN(const PageId head,
                        WriteBlob(db->pool(), blob, &new_pages));
  for (const PageId p : new_pages) cow->MarkFresh(p);
  entry.root = head;
  entries->push_back(entry);
  freed->insert(freed->end(), pages_slot->begin(), pages_slot->end());
  pending->push_back(
      PendingPublish{pages_slot, entry_slot, entry, std::move(new_pages)});
  return Status::OK();
}

/// Publishes the staged transaction: re-bucket the touched XB-trees,
/// serialize every dirty engine's catalog into a new blob chain, and commit
/// those entries plus the superseded pages as one new generation. A clean
/// engine's entry stays as it is in the catalog.
Status PublishAll(Database* db, const std::string& name, OpenIndex* oi,
                  IngestState* state, CowContext* cow) {
  for (auto& fe : state->forests) {
    if (fe->paired->touched.empty()) continue;
    std::vector<LabelId> labels = fe->paired->touched;
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
    for (const LabelId label : labels) {
      PRIX_RETURN_NOT_OK(
          fe->forest->RebuildTree(label, fe->paired->store.get(), cow));
    }
    fe->dirty = true;
  }

  std::vector<Database::IndexEntry> entries;
  std::vector<PageId> freed;
  std::vector<PendingPublish> pending;

  {
    std::vector<char> blob;
    oi->index->SerializeCatalog(&blob);
    Database::IndexEntry entry;
    entry.name = name;
    entry.kind = oi->index->extended() ? Database::IndexKind::kPrixExtended
                                       : Database::IndexKind::kPrixRegular;
    PRIX_RETURN_NOT_OK(StageEnginePublish(db, cow, blob, entry,
                                          &oi->catalog_pages, nullptr,
                                          &entries, &freed, &pending));
  }
  for (auto& ve : state->vists) {
    if (!ve->dirty) continue;
    std::vector<char> blob;
    ve->index->SerializeCatalog(&blob);
    PRIX_RETURN_NOT_OK(StageEnginePublish(db, cow, blob, ve->entry,
                                          &ve->catalog_pages, &ve->entry,
                                          &entries, &freed, &pending));
  }
  for (auto& se : state->streams) {
    if (!se->dirty) continue;
    std::vector<char> blob;
    se->store->SerializeCatalog(&blob);
    PRIX_RETURN_NOT_OK(StageEnginePublish(db, cow, blob, se->entry,
                                          &se->catalog_pages, &se->entry,
                                          &entries, &freed, &pending));
  }
  for (auto& fe : state->forests) {
    if (!fe->dirty) continue;
    std::vector<char> blob;
    fe->forest->SerializeCatalog(&blob);
    PRIX_RETURN_NOT_OK(StageEnginePublish(db, cow, blob, fe->entry,
                                          &fe->catalog_pages, &fe->entry,
                                          &entries, &freed, &pending));
  }

  freed.insert(freed.end(), cow->freed.begin(), cow->freed.end());
  PRIX_RETURN_NOT_OK(db->CommitBatch(entries, freed));
  for (PendingPublish& pp : pending) {
    *pp.pages_slot = std::move(pp.new_pages);
    if (pp.entry_slot != nullptr) *pp.entry_slot = pp.entry;
  }
  for (auto& ve : state->vists) ve->dirty = false;
  for (auto& se : state->streams) {
    se->dirty = false;
    se->touched.clear();
  }
  for (auto& fe : state->forests) fe->dirty = false;
  return Status::OK();
}

/// Attaches/detaches the COW context on every engine participating in the
/// transaction (stream stores take it per call instead).
void SetCowAll(OpenIndex* oi, IngestState* state, CowContext* cow) {
  oi->index->SetCow(cow);
  for (auto& ve : state->vists) ve->index->SetCow(cow);
}

/// Abort path: evict every page this transaction allocated WITHOUT writing
/// it back (committed pages were never touched in place, so the committed
/// generation is intact by construction) and discard the writer cache — its
/// in-memory trees and mirrors now describe the aborted state. Pages popped
/// from the free list by the aborted transaction leak (they are unreachable
/// and unlisted); a crash has the same effect, and `prix verify` treats
/// leaked pages as benign.
void AbortIngest(Database* db, std::shared_ptr<void>* slot, CowContext* cow) {
  for (const PageId p : cow->fresh) {
    const Status st = db->pool()->DropPage(p);
    (void)st;  // best-effort: an undropped stale frame is only wasted cache
  }
  slot->reset();
}

void BumpIngestCounter(const char* name) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  if (reg.enabled()) reg.counter(name).Add(1);
}

}  // namespace

Result<uint32_t> Database::InsertDocument(const std::string& index_name,
                                          const Document& doc) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (doc.num_nodes() == 0) {
    return Status::InvalidArgument("cannot insert an empty document");
  }
  PRIX_RETURN_NOT_OK(CheckDocumentDepth(doc));
  PRIX_ASSIGN_OR_RETURN(OpenIndex * oi,
                        AcquireIngest(this, &ingest_state_, index_name));
  auto state = std::static_pointer_cast<IngestState>(ingest_state_).get();
  CowContext cow;
  SetCowAll(oi, state, &cow);
  auto run = [&]() -> Result<uint32_t> {
    PRIX_ASSIGN_OR_RETURN(const DocId d, StageInsert(oi, doc));
    PRIX_RETURN_NOT_OK(StageDerivedInsert(state, doc, d, &cow));
    // Stage the oplog record the publish commit will carry (DESIGN.md §5l):
    // the assigned DocId rides along so a follower replay that disagrees on
    // ids is caught as divergence, not silently re-numbered.
    StageOpRecord(OpKind::kInsert, EncodeInsertOp(index_name, d, doc));
    PRIX_RETURN_NOT_OK(PublishAll(this, index_name, oi, state, &cow));
    return d;
  };
  Result<uint32_t> result = run();
  SetCowAll(oi, state, nullptr);
  if (!result.ok()) {
    ClearStagedOp();
    AbortIngest(this, &ingest_state_, &cow);
    return result;
  }
  state->generation = catalog_generation();
  BumpIngestCounter("prix.ingest.docs_inserted");
  return result;
}

Result<uint32_t> Database::UpdateDocument(const std::string& index_name,
                                          uint32_t doc,
                                          const Document& new_doc) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (new_doc.num_nodes() == 0) {
    return Status::InvalidArgument("cannot update to an empty document");
  }
  PRIX_RETURN_NOT_OK(CheckDocumentDepth(new_doc));
  PRIX_ASSIGN_OR_RETURN(OpenIndex * oi,
                        AcquireIngest(this, &ingest_state_, index_name));
  auto state = std::static_pointer_cast<IngestState>(ingest_state_).get();
  if (doc >= oi->index->num_docs() || oi->index->IsDeleted(doc)) {
    return Status::NotFound("document " + std::to_string(doc) +
                            " is not live");
  }
  CowContext cow;
  SetCowAll(oi, state, &cow);
  auto run = [&]() -> Result<uint32_t> {
    PRIX_RETURN_NOT_OK(StageDerivedDelete(state, oi, doc));
    PRIX_RETURN_NOT_OK(StageDelete(oi, doc));
    PRIX_ASSIGN_OR_RETURN(const DocId d, StageInsert(oi, new_doc));
    PRIX_RETURN_NOT_OK(StageDerivedInsert(state, new_doc, d, &cow));
    StageOpRecord(OpKind::kUpdate,
                  EncodeUpdateOp(index_name, doc, d, new_doc));
    PRIX_RETURN_NOT_OK(PublishAll(this, index_name, oi, state, &cow));
    return d;
  };
  Result<uint32_t> result = run();
  SetCowAll(oi, state, nullptr);
  if (!result.ok()) {
    ClearStagedOp();
    AbortIngest(this, &ingest_state_, &cow);
    return result;
  }
  state->generation = catalog_generation();
  BumpIngestCounter("prix.ingest.docs_updated");
  return result;
}

Status Database::DeleteDocument(const std::string& index_name, uint32_t doc) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  PRIX_ASSIGN_OR_RETURN(OpenIndex * oi,
                        AcquireIngest(this, &ingest_state_, index_name));
  auto state = std::static_pointer_cast<IngestState>(ingest_state_).get();
  if (doc >= oi->index->num_docs() || oi->index->IsDeleted(doc)) {
    return Status::NotFound("document " + std::to_string(doc) +
                            " is not live");
  }
  CowContext cow;
  SetCowAll(oi, state, &cow);
  auto run = [&]() -> Status {
    PRIX_RETURN_NOT_OK(StageDerivedDelete(state, oi, doc));
    PRIX_RETURN_NOT_OK(StageDelete(oi, doc));
    StageOpRecord(OpKind::kDelete, EncodeDeleteOp(index_name, doc));
    return PublishAll(this, index_name, oi, state, &cow);
  };
  const Status result = run();
  SetCowAll(oi, state, nullptr);
  if (!result.ok()) {
    ClearStagedOp();
    AbortIngest(this, &ingest_state_, &cow);
    return result;
  }
  state->generation = catalog_generation();
  BumpIngestCounter("prix.ingest.docs_deleted");
  return Status::OK();
}

}  // namespace prix
