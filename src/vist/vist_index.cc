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
  // The distinct (symbol, prefix) keys. Their hash-set order reaches the
  // catalog, so they are inserted as they first occur.
  std::unordered_map<LabelId, std::unordered_set<PrefixId>> key_sets;
  for (DocId d = 0; d < documents.size(); ++d) {
    PRIX_CHECK(documents[d].doc_id() == d);
    PRIX_ASSIGN_OR_RETURN(const std::vector<VistItem> seq,
                          index->AppendSequence(documents[d], d));
    keys.clear();
    for (const VistItem& item : seq) {
      keys.push_back(TrieChildKey(item.symbol, item.prefix));
      key_sets[item.symbol].insert(item.prefix);
    }
    trie.Insert(keys, d);
  }
  stats->trie_nodes = trie.num_nodes();
  stats->distinct_prefixes = index->prefixes_.size();
  stats->prefix_labels = index->prefixes_.total_labels();

  PRIX_ASSIGN_OR_RETURN(index->trie_, VirtualTrie::BulkLoad(trie, pool));
  stats->dancestor_entries = index->trie_.nodes().num_entries();
  for (auto& [symbol, prefixes] : key_sets) {
    index->symbol_prefixes_[symbol] =
        std::vector<PrefixId>(prefixes.begin(), prefixes.end());
  }
  stats->pages_after_build = pool->disk()->num_pages();
  PRIX_RETURN_NOT_OK(pool->FlushAll());
  return index;
}

Result<std::vector<VistItem>> VistIndex::AppendSequence(const Document& doc,
                                                        DocId d) {
  std::vector<VistItem> seq = BuildVistSequence(doc, &prefixes_);
  // The raw sequence, kept for post-verification.
  std::vector<char> buf;
  PutU32(&buf, static_cast<uint32_t>(seq.size()));
  for (const VistItem& item : seq) {
    PutU32(&buf, item.symbol);
    PutU32(&buf, item.prefix);
  }
  PRIX_ASSIGN_OR_RETURN(const uint32_t id,
                        seq_store_->Append(buf.data(), buf.size()));
  if (id != d) {
    return Status::Internal("ViST sequence record landed out of order");
  }
  return seq;
}

namespace {
constexpr uint32_t kVistCatalogMagic = 0x56495354;  // "VIST"
constexpr uint32_t kVistCatalogVersion = 1;
}  // namespace

void VistIndex::SerializeCatalog(std::vector<char>* blob) const {
  PutU32(blob, kVistCatalogMagic);
  PutU32(blob, kVistCatalogVersion);
  trie_.SerializeTo(blob);
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
  PRIX_RETURN_NOT_OK(need(8));
  if (GetU32(p) != kVistCatalogMagic) {
    return Status::Corruption("not a ViST index catalog");
  }
  p += 4;
  if (GetU32(p) != kVistCatalogVersion) {
    return Status::Corruption("unsupported ViST catalog version");
  }
  p += 4;
  auto index = std::unique_ptr<VistIndex>(new VistIndex());
  PRIX_ASSIGN_OR_RETURN(index->trie_, VirtualTrie::Deserialize(pool, &p, end));
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
