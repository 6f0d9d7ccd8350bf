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
    trie.Insert(seq.lps, d);
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

  // Phase 2: range-label the trie. Inserts relabel through DynamicTrie.
  std::vector<RangeLabel> labels = LabelTrieExact(trie);
  index->root_range_ = labels[trie.root()];

  // Phase 3: materialize the Trie-Symbol and Docid B+-trees, each
  // bulk-loaded from its entries in key order.
  std::vector<SymbolTree::Entry> symbols;
  symbols.reserve(trie.num_nodes());
  std::vector<DocTree::Entry> ends;
  ends.reserve(documents.size());
  uint32_t doc_seq = 0;
  for (uint32_t v = 0; v < trie.num_nodes(); ++v) {
    const auto& node = trie.node(v);
    if (v != trie.root()) {
      symbols.push_back({SymbolKey{static_cast<LabelId>(node.key), 0,
                                   labels[v].left},
                         TrieNodeValue{labels[v].right, node.depth, 0}});
    }
    for (DocId d : node.end_docs) {
      ends.push_back({DocKey{labels[v].left, doc_seq++, 0}, d});
    }
  }
  auto by_key = [](const auto& a, const auto& b) { return a.key < b.key; };
  std::sort(symbols.begin(), symbols.end(), by_key);
  std::sort(ends.begin(), ends.end(), by_key);
  stats->symbol_entries = symbols.size();
  stats->docid_entries = ends.size();
  PRIX_ASSIGN_OR_RETURN(SymbolTree sym, SymbolTree::BulkLoad(pool, symbols));
  index->symbol_index_ = std::make_unique<SymbolTree>(std::move(sym));
  PRIX_ASSIGN_OR_RETURN(DocTree doct, DocTree::BulkLoad(pool, ends));
  index->docid_index_ = std::make_unique<DocTree>(std::move(doct));
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
  PutU64(blob, root_range_.left);
  PutU64(blob, root_range_.right);
  PutU32(blob, symbol_index_->meta_page_id());
  PutU32(blob, docid_index_->meta_page_id());
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
  PRIX_RETURN_NOT_OK(need(36));
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
  index->root_range_.left = GetU64(p);
  p += 8;
  index->root_range_.right = GetU64(p);
  p += 8;
  PageId symbol_meta = GetU32(p);
  p += 4;
  PageId docid_meta = GetU32(p);
  p += 4;
  PRIX_ASSIGN_OR_RETURN(SymbolTree sym,
                        SymbolTree::Open(pool, symbol_meta));
  index->symbol_index_ = std::make_unique<SymbolTree>(std::move(sym));
  PRIX_ASSIGN_OR_RETURN(DocTree doct,
                        DocTree::Open(pool, docid_meta));
  index->docid_index_ = std::make_unique<DocTree>(std::move(doct));
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

Status PrixIndex::Salvage(Database* dst, const std::string& name,
                          SalvageStats* stats) const {
  SalvageStats local;
  if (stats == nullptr) stats = &local;
  auto out = std::unique_ptr<PrixIndex>(new PrixIndex());
  out->options_ = options_;
  out->root_range_ = root_range_;
  out->maxgap_ = maxgap_;
  out->childless_labels_ = childless_labels_;
  out->tombstones_ = tombstones_;
  out->docs_ = std::make_unique<DocStore>(dst->pool());
  PRIX_ASSIGN_OR_RETURN(SymbolTree sym,
                        symbol_index_->SalvageInto(dst->pool(), stats));
  out->symbol_index_ = std::make_unique<SymbolTree>(std::move(sym));
  PRIX_ASSIGN_OR_RETURN(DocTree doct,
                        docid_index_->SalvageInto(dst->pool(), stats));
  out->docid_index_ = std::make_unique<DocTree>(std::move(doct));

  for (DocId d = 0; d < docs_->num_docs(); ++d) {
    Result<StoredDoc> doc = docs_->Load(d);
    if (doc.ok()) {
      PRIX_RETURN_NOT_OK(out->docs_->Append(d, doc->seq, doc->leaves));
      ++stats->records_recovered;
    } else {
      // An empty placeholder keeps later DocIds aligned with the surviving
      // Docid-index entries; queries refine the lost document to no match.
      PRIX_RETURN_NOT_OK(out->docs_->Append(d, PruferSequences{}, {}));
      ++stats->records_lost;
    }
  }
  return out->Save(dst, name);
}

}  // namespace prix
