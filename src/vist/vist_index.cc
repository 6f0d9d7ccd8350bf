#include "vist/vist_index.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"

namespace prix {

Result<std::unique_ptr<VistIndex>> VistIndex::Build(
    const std::vector<Document>& documents, BufferPool* pool,
    VistIndexBuildStats* stats) {
  auto index = std::unique_ptr<VistIndex>(new VistIndex());
  index->seq_store_ = std::make_unique<RecordStore>(pool);

  VistIndexBuildStats local;
  if (stats == nullptr) stats = &local;

  SequenceTrie trie;
  std::vector<uint64_t> keys;
  for (DocId d = 0; d < documents.size(); ++d) {
    PRIX_CHECK(documents[d].doc_id() == d);
    std::vector<VistItem> seq =
        BuildVistSequence(documents[d], &index->prefixes_);
    keys.clear();
    // Persist the raw sequence for post-verification.
    std::vector<char> buf;
    PutU32(&buf, static_cast<uint32_t>(seq.size()));
    for (const VistItem& item : seq) {
      keys.push_back(item.ChildKey());
      PutU32(&buf, item.symbol);
      PutU32(&buf, item.prefix);
    }
    trie.Insert(keys, d);
    PRIX_ASSIGN_OR_RETURN(uint32_t id,
                          index->seq_store_->Append(buf.data(), buf.size()));
    PRIX_DCHECK(id == d);
    (void)id;
  }
  stats->trie_nodes = trie.num_nodes();
  stats->distinct_prefixes = index->prefixes_.size();
  stats->prefix_labels = index->prefixes_.total_labels();

  std::vector<RangeLabel> labels = LabelTrieExact(trie);
  index->root_range_ = labels[trie.root()];
  // Both B+-trees are bulk-loaded from their entries in key order.
  std::vector<DAncestorTree::Entry> nodes;
  nodes.reserve(trie.num_nodes());
  std::vector<DocTree::Entry> ends;
  ends.reserve(documents.size());
  uint32_t doc_seq = 0;
  std::unordered_map<LabelId, std::unordered_set<PrefixId>> key_sets;
  for (uint32_t v = 0; v < trie.num_nodes(); ++v) {
    const auto& node = trie.node(v);
    if (v != trie.root()) {
      const VistItem item = VistItem::FromChildKey(node.key);
      nodes.push_back(
          {VistKey{item.symbol, 0, labels[v].left},
           VistNodeValue{labels[v].right, node.depth, item.prefix}});
      key_sets[item.symbol].insert(item.prefix);
    }
    for (DocId d : node.end_docs) {
      ends.push_back({VistDocKey{labels[v].left, doc_seq++, 0}, d});
    }
  }
  for (auto& [symbol, prefixes] : key_sets) {
    index->symbol_prefixes_[symbol] =
        std::vector<PrefixId>(prefixes.begin(), prefixes.end());
  }
  auto by_key = [](const auto& a, const auto& b) { return a.key < b.key; };
  std::sort(nodes.begin(), nodes.end(), by_key);
  std::sort(ends.begin(), ends.end(), by_key);
  stats->dancestor_entries = nodes.size();
  PRIX_ASSIGN_OR_RETURN(DAncestorTree dtree,
                        DAncestorTree::BulkLoad(pool, nodes));
  index->dancestor_ = std::make_unique<DAncestorTree>(std::move(dtree));
  PRIX_ASSIGN_OR_RETURN(DocTree doct, DocTree::BulkLoad(pool, ends));
  index->docid_ = std::make_unique<DocTree>(std::move(doct));
  stats->pages_after_build = pool->disk()->num_pages();
  PRIX_RETURN_NOT_OK(pool->FlushAll());
  return index;
}

namespace {
constexpr uint32_t kVistCatalogMagic = 0x56495354;  // "VIST"
constexpr uint32_t kVistCatalogVersion = 1;
}  // namespace

void VistIndex::SerializeCatalog(std::vector<char>* blob) const {
  PutU32(blob, kVistCatalogMagic);
  PutU32(blob, kVistCatalogVersion);
  PutU64(blob, root_range_.left);
  PutU64(blob, root_range_.right);
  PutU32(blob, dancestor_->meta_page_id());
  PutU32(blob, docid_->meta_page_id());
  seq_store_->SerializeTo(blob);
  prefixes_.SerializeTo(blob);
  PutU32(blob, static_cast<uint32_t>(symbol_prefixes_.size()));
  for (const auto& [symbol, prefixes] : symbol_prefixes_) {
    PutU32(blob, symbol);
    PutU32(blob, static_cast<uint32_t>(prefixes.size()));
    for (PrefixId p : prefixes) PutU32(blob, p);
  }
}

Status VistIndex::Save(Database* db, const std::string& name) const {
  std::vector<char> blob;
  SerializeCatalog(&blob);
  auto first_result = WriteBlob(db->pool(), blob);
  if (!first_result.ok()) {
    return first_result.status().Annotate("saving ViST index '" + name + "'");
  }
  PageId first = *first_result;
  Database::IndexEntry entry;
  entry.name = name;
  entry.kind = Database::IndexKind::kVist;
  entry.root = first;
  return db->PutIndex(entry);
}

Result<std::unique_ptr<VistIndex>> VistIndex::Open(Database* db,
                                                   const std::string& name) {
  PRIX_ASSIGN_OR_RETURN(Database::IndexEntry entry, db->GetIndex(name));
  return OpenFromEntry(db->pool(), entry);
}

Result<std::unique_ptr<VistIndex>> VistIndex::OpenFromEntry(
    BufferPool* pool, const Database::IndexEntry& entry) {
  if (entry.kind != Database::IndexKind::kVist) {
    return Status::InvalidArgument("catalog entry '" + entry.name +
                                   "' is not a ViST index");
  }
  std::vector<char> blob;
  Status blob_st = ReadBlob(pool, entry.root, &blob);
  if (!blob_st.ok()) {
    return blob_st.Annotate("opening ViST index '" + entry.name + "'");
  }
  const char* p = blob.data();
  const char* end = blob.data() + blob.size();
  auto need = [&](size_t bytes) -> Status {
    if (p + bytes > end) return Status::Corruption("truncated ViST catalog");
    return Status::OK();
  };
  PRIX_RETURN_NOT_OK(need(32));
  if (GetU32(p) != kVistCatalogMagic) {
    return Status::Corruption("not a ViST index catalog");
  }
  p += 4;
  if (GetU32(p) != kVistCatalogVersion) {
    return Status::Corruption("unsupported ViST catalog version");
  }
  p += 4;
  auto index = std::unique_ptr<VistIndex>(new VistIndex());
  index->root_range_.left = GetU64(p);
  p += 8;
  index->root_range_.right = GetU64(p);
  p += 8;
  PageId dancestor_meta = GetU32(p);
  p += 4;
  PageId docid_meta = GetU32(p);
  p += 4;
  PRIX_ASSIGN_OR_RETURN(DAncestorTree dtree,
                        DAncestorTree::Open(pool, dancestor_meta));
  index->dancestor_ = std::make_unique<DAncestorTree>(std::move(dtree));
  PRIX_ASSIGN_OR_RETURN(DocTree doct, DocTree::Open(pool, docid_meta));
  index->docid_ = std::make_unique<DocTree>(std::move(doct));
  PRIX_ASSIGN_OR_RETURN(RecordStore seqs,
                        RecordStore::Deserialize(pool, &p, end));
  index->seq_store_ = std::make_unique<RecordStore>(std::move(seqs));
  PRIX_ASSIGN_OR_RETURN(index->prefixes_,
                        PrefixDictionary::Deserialize(&p, end));
  PRIX_RETURN_NOT_OK(need(4));
  uint32_t symbols = GetU32(p);
  p += 4;
  for (uint32_t i = 0; i < symbols; ++i) {
    PRIX_RETURN_NOT_OK(need(8));
    LabelId symbol = GetU32(p);
    p += 4;
    uint32_t count = GetU32(p);
    p += 4;
    PRIX_RETURN_NOT_OK(need(4ull * count));
    std::vector<PrefixId>& prefixes = index->symbol_prefixes_[symbol];
    prefixes.reserve(count);
    for (uint32_t j = 0; j < count; ++j, p += 4) {
      prefixes.push_back(GetU32(p));
    }
  }
  return index;
}

Status VistIndex::Salvage(Database* dst, const std::string& name,
                          SalvageStats* stats) const {
  SalvageStats local;
  if (stats == nullptr) stats = &local;
  auto out = std::unique_ptr<VistIndex>(new VistIndex());
  out->root_range_ = root_range_;
  out->prefixes_ = prefixes_;
  out->symbol_prefixes_ = symbol_prefixes_;
  out->seq_store_ = std::make_unique<RecordStore>(dst->pool());
  PRIX_ASSIGN_OR_RETURN(DAncestorTree dtree,
                        dancestor_->SalvageInto(dst->pool(), stats));
  out->dancestor_ = std::make_unique<DAncestorTree>(std::move(dtree));
  PRIX_ASSIGN_OR_RETURN(DocTree doct, docid_->SalvageInto(dst->pool(), stats));
  out->docid_ = std::make_unique<DocTree>(std::move(doct));

  std::vector<char> buf;
  for (uint32_t id = 0; id < seq_store_->num_records(); ++id) {
    Status st = seq_store_->Load(id, &buf);
    if (st.ok()) {
      PRIX_ASSIGN_OR_RETURN(uint32_t new_id,
                            out->seq_store_->Append(buf.data(), buf.size()));
      (void)new_id;
      ++stats->records_recovered;
    } else {
      // Zero-length placeholder: LoadDocument on it reports Corruption
      // rather than shifting every later DocId.
      PRIX_ASSIGN_OR_RETURN(uint32_t new_id,
                            out->seq_store_->Append(nullptr, 0));
      (void)new_id;
      ++stats->records_lost;
    }
  }
  return out->Save(dst, name);
}

Result<Document> VistIndex::LoadDocument(DocId doc) const {
  std::vector<char> buf;
  PRIX_RETURN_NOT_OK(seq_store_->Load(doc, &buf));
  if (buf.size() < 4) return Status::Corruption("truncated ViST record");
  const char* p = buf.data();
  uint32_t n = GetU32(p);
  p += 4;
  if (buf.size() < 4 + 8ull * n) {
    return Status::Corruption("truncated ViST record");
  }
  Document out(doc);
  // Preorder reconstruction: a node's depth is its prefix path length.
  std::vector<NodeId> stack_by_depth;
  for (uint32_t i = 0; i < n; ++i) {
    LabelId symbol = GetU32(p);
    p += 4;
    PrefixId prefix = GetU32(p);
    p += 4;
    if (prefix >= prefixes_.size()) {
      return Status::Corruption("ViST record references prefix " +
                                std::to_string(prefix) +
                                " beyond the dictionary (" +
                                std::to_string(prefixes_.size()) + ")");
    }
    size_t depth = prefixes_.Path(prefix).size();
    NodeId node;
    if (depth == 0) {
      if (!out.empty()) {
        return Status::Corruption("ViST record has two root items");
      }
      node = out.AddRoot(symbol);
    } else {
      if (depth > stack_by_depth.size()) {
        return Status::Corruption("bad prefix depth in ViST record");
      }
      node = out.AddChild(stack_by_depth[depth - 1], symbol);
    }
    stack_by_depth.resize(depth);
    stack_by_depth.push_back(node);
  }
  return out;
}

const std::vector<PrefixId>& VistIndex::SymbolPrefixes(LabelId symbol) const {
  static const std::vector<PrefixId> kEmpty;
  auto it = symbol_prefixes_.find(symbol);
  return it == symbol_prefixes_.end() ? kEmpty : it->second;
}

}  // namespace prix
