#include "prix/prix_index.h"

#include <algorithm>
#include <functional>

#include "common/macros.h"

namespace prix {

Result<std::unique_ptr<PrixIndex>> PrixIndex::Build(
    const std::vector<Document>& documents, BufferPool* pool,
    PrixIndexOptions options, PrixIndexBuildStats* stats) {
  auto index = std::unique_ptr<PrixIndex>(new PrixIndex());
  index->options_ = options;
  index->docs_ = std::make_unique<DocStore>(pool);

  PrixIndexBuildStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  // Phase 1: transform every document, populate the doc store and MaxGap
  // table, and insert every LPS into the (in-memory, build-time) trie.
  SequenceTrie trie;
  std::vector<uint64_t> keys;
  for (DocId d = 0; d < documents.size(); ++d) {
    const Document& original = documents[d];
    PRIX_CHECK(original.doc_id() == d);
    PruferSequences seq;
    std::vector<LeafEntry> leaves;
    if (options.extended) {
      Document ext = ExtendWithDummyLeaves(original, kDummyLabel);
      seq = BuildPruferSequences(ext);
      index->maxgap_.AddDocument(ext);
      // EP stores need no leaf list: every original label is in the LPS.
    } else {
      seq = BuildPruferSequences(original);
      index->maxgap_.AddDocument(original);
      leaves = CollectLeaves(original);
      for (NodeId v = 0; v < original.num_nodes(); ++v) {
        if (original.is_leaf(v)) {
          index->childless_labels_.push_back(original.label(v));
        }
      }
    }
    stats->total_sequence_length += seq.lps.size();
    PRIX_RETURN_NOT_OK(index->docs_->Append(d, seq, leaves));
    keys.clear();
    for (LabelId label : seq.lps) keys.push_back(TrieChildKey(label, 0));
    trie.Insert(keys, d);
  }
  std::vector<LabelId>& childless = index->childless_labels_;
  std::sort(childless.begin(), childless.end());
  childless.erase(std::unique(childless.begin(), childless.end()),
                  childless.end());
  stats->trie_nodes = trie.num_nodes();
  for (uint32_t v = 0; v < trie.num_nodes(); ++v) {
    const auto& node = trie.node(v);
    if (node.children.empty()) {
      stats->max_path_sharing =
          std::max(stats->max_path_sharing, node.seqs_through);
    }
  }

  // Phase 2: label the trie exactly and bulk-load its two B+-trees.
  PRIX_ASSIGN_OR_RETURN(index->trie_, VirtualTrie::BulkLoad(trie, pool));
  stats->symbol_entries = index->trie_.nodes().num_entries();
  stats->docid_entries = index->trie_.docs().num_entries();
  stats->pages_after_build = pool->disk()->num_pages();
  PRIX_RETURN_NOT_OK(pool->FlushAll());
  return index;
}

namespace {
constexpr uint32_t kCatalogMagic = 0x50524958;  // "PRIX"
/// Version 3 drops version 2's two labeling-option fields (every build is
/// exact-labeled); version 2 and the fixed-width version 1 are not read.
constexpr uint32_t kCatalogVersion = 3;
}  // namespace

void PrixIndex::SerializeCatalog(std::vector<char>* blob) const {
  PutU32(blob, kCatalogMagic);
  PutU32(blob, kCatalogVersion);
  PutU32(blob, options_.extended ? 1 : 0);
  trie_.SerializeTo(blob);
  docs_->SerializeTo(blob);
  maxgap_.SerializeTo(blob);
  PutU32(blob, static_cast<uint32_t>(childless_labels_.size()));
  for (LabelId l : childless_labels_) PutU32(blob, l);
  // Tombstone set: a count (0 when nothing was deleted), then the DocIds.
  PutU32(blob, static_cast<uint32_t>(tombstones_.size()));
  for (DocId d : tombstones_) PutU32(blob, d);
}

Status PrixIndex::Save(Database* db, const std::string& name) const {
  BufferPool* pool = db->pool();
  std::vector<char> blob;
  SerializeCatalog(&blob);
  auto first_result = WriteBlob(pool, blob);
  if (!first_result.ok()) {
    return first_result.status().Annotate("saving PRIX index '" + name + "'");
  }
  PageId first = *first_result;
  Database::IndexEntry entry;
  entry.name = name;
  entry.kind = options_.extended ? Database::IndexKind::kPrixExtended
                                 : Database::IndexKind::kPrixRegular;
  entry.root = first;
  // PutIndex flushes the pool before the catalog commit, so the blob and
  // every tree page it references are durable before they become reachable.
  return db->PutIndex(entry);
}

Result<std::unique_ptr<PrixIndex>> PrixIndex::Open(Database* db,
                                                   const std::string& name) {
  PRIX_ASSIGN_OR_RETURN(Database::IndexEntry entry, db->GetIndex(name));
  return OpenFromEntry(db->pool(), entry);
}

Result<std::unique_ptr<PrixIndex>> PrixIndex::OpenFromEntry(
    BufferPool* pool, const Database::IndexEntry& entry) {
  if (entry.kind != Database::IndexKind::kPrixRegular &&
      entry.kind != Database::IndexKind::kPrixExtended) {
    return Status::InvalidArgument("catalog entry '" + entry.name +
                                   "' is not a PRIX index");
  }
  std::vector<char> blob;
  Status blob_st = ReadBlob(pool, entry.root, &blob);
  if (!blob_st.ok()) {
    return blob_st.Annotate("opening PRIX index '" + entry.name + "'");
  }
  const char* p = blob.data();
  const char* end = blob.data() + blob.size();
  auto need = [&](size_t bytes) -> Status {
    if (p + bytes > end) return Status::Corruption("truncated index catalog");
    return Status::OK();
  };
  PRIX_RETURN_NOT_OK(need(12));
  if (GetU32(p) != kCatalogMagic) {
    return Status::Corruption("not a PRIX index catalog");
  }
  p += 4;
  uint32_t version = GetU32(p);
  if (version != kCatalogVersion) {
    return Status::Corruption("unsupported index catalog version " +
                              std::to_string(version));
  }
  p += 4;
  auto index = std::unique_ptr<PrixIndex>(new PrixIndex());
  index->options_.extended = GetU32(p) != 0;
  p += 4;
  PRIX_ASSIGN_OR_RETURN(index->trie_, VirtualTrie::Deserialize(pool, &p, end));
  PRIX_ASSIGN_OR_RETURN(DocStore docs,
                        DocStore::Deserialize(pool, &p, end));
  index->docs_ = std::make_unique<DocStore>(std::move(docs));
  PRIX_ASSIGN_OR_RETURN(index->maxgap_, MaxGapTable::Deserialize(&p, end));
  PRIX_RETURN_NOT_OK(need(4));
  uint32_t childless = GetU32(p);
  p += 4;
  PRIX_RETURN_NOT_OK(need(4ull * childless));
  std::vector<LabelId>& labels = index->childless_labels_;
  labels.resize(childless);
  for (uint32_t i = 0; i < childless; ++i, p += 4) labels[i] = GetU32(p);
  // Lookups binary-search the list, so it must be strictly increasing.
  if (std::adjacent_find(labels.begin(), labels.end(),
                         std::greater_equal<LabelId>()) != labels.end()) {
    return Status::Corruption("childless labels not strictly increasing");
  }
  PRIX_RETURN_NOT_OK(need(4));
  uint32_t dead = GetU32(p);
  p += 4;
  PRIX_RETURN_NOT_OK(need(4ull * dead));
  index->tombstones_.reserve(dead);
  for (uint32_t i = 0; i < dead; ++i, p += 4) {
    DocId d = GetU32(p);
    if (d >= index->docs_->num_docs()) {
      return Status::Corruption("tombstone for DocId " + std::to_string(d) +
                                " beyond the store's " +
                                std::to_string(index->docs_->num_docs()) +
                                " records");
    }
    index->tombstones_.insert(d);
  }
  return index;
}

Result<Document> PrixIndex::ReconstructDocument(DocId doc) const {
  if (doc >= docs_->num_docs()) {
    return Status::NotFound("DocId " + std::to_string(doc) +
                            " beyond the store's " +
                            std::to_string(docs_->num_docs()) + " records");
  }
  if (IsDeleted(doc)) {
    return Status::NotFound("DocId " + std::to_string(doc) + " is deleted");
  }
  PRIX_ASSIGN_OR_RETURN(StoredDoc stored, docs_->Load(doc));
  if (stored.seq.num_nodes == 0) {
    return Status::Corruption("DocId " + std::to_string(doc) +
                              " is an empty placeholder record");
  }
  if (!options_.extended) {
    PRIX_ASSIGN_OR_RETURN(Document out,
                          ReconstructTree(stored.seq, stored.leaves));
    out.set_doc_id(doc);
    return out;
  }
  // EP stores keep no leaf list — the extended tree's leaves are exactly the
  // dummies, whose postorder numbers are the positions the original tree
  // does not claim. Synthesize them, rebuild the extended tree, then strip
  // every dummy in a child-order-preserving DFS copy.
  std::vector<uint32_t> ext_to_orig = ExtendedToOriginalPostorder(stored.seq);
  std::vector<LeafEntry> dummies;
  for (uint32_t v = 1; v <= stored.seq.num_nodes; ++v) {
    if (ext_to_orig[v] == 0) dummies.push_back(LeafEntry{kDummyLabel, v});
  }
  PRIX_ASSIGN_OR_RETURN(Document ext, ReconstructTree(stored.seq, dummies));
  Document out(doc);
  if (ext.empty() || ext.label(ext.root()) == kDummyLabel) {
    return Status::Corruption("extended tree reconstructs to a dummy root");
  }
  struct Frame {
    NodeId ext_node;
    NodeId out_parent;
  };
  std::vector<Frame> stack{{ext.root(), kInvalidNode}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    NodeId copied = f.out_parent == kInvalidNode
                        ? out.AddRoot(ext.label(f.ext_node))
                        : out.AddChild(f.out_parent, ext.label(f.ext_node));
    const std::vector<NodeId>& kids = ext.children(f.ext_node);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      if (ext.label(*it) != kDummyLabel) stack.push_back(Frame{*it, copied});
    }
  }
  return out;
}

}  // namespace prix
