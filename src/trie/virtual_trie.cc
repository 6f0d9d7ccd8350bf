#include "trie/virtual_trie.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/macros.h"
#include "storage/record_store.h"

namespace prix {

Result<VirtualTrie> VirtualTrie::BulkLoad(const SequenceTrie& trie,
                                          BufferPool* pool) {
  const std::vector<RangeLabel> labels = LabelTrieExact(trie);
  std::vector<NodeTree::Entry> nodes;
  nodes.reserve(trie.num_nodes());
  std::vector<DocTree::Entry> ends;
  uint32_t doc_seq = 0;
  for (uint32_t v = 0; v < trie.num_nodes(); ++v) {
    const SequenceTrie::Node& node = trie.node(v);
    if (v != trie.root()) {
      nodes.push_back({NodeKey(node.key, labels[v].left),
                       TrieNodeValue{labels[v].right, node.depth,
                                     Aux(node.key)}});
    }
    for (DocId d : node.end_docs) {
      ends.push_back({DocKey{labels[v].left, doc_seq++, 0}, d});
    }
  }
  auto by_key = [](const auto& a, const auto& b) { return a.key < b.key; };
  std::sort(nodes.begin(), nodes.end(), by_key);
  std::sort(ends.begin(), ends.end(), by_key);
  VirtualTrie out;
  out.root_range_ = labels[trie.root()];
  PRIX_ASSIGN_OR_RETURN(out.nodes_, NodeTree::BulkLoad(pool, nodes));
  PRIX_ASSIGN_OR_RETURN(out.docs_, DocTree::BulkLoad(pool, ends));
  return out;
}

void VirtualTrie::SerializeTo(std::vector<char>* blob) const {
  PutU64(blob, root_range_.left);
  PutU64(blob, root_range_.right);
  PutU32(blob, nodes_.meta_page_id());
  PutU32(blob, docs_.meta_page_id());
}

Result<VirtualTrie> VirtualTrie::Deserialize(BufferPool* pool, const char** p,
                                             const char* end) {
  if (end - *p < 24) {
    return Status::Corruption("truncated virtual trie catalog");
  }
  const char* q = *p;
  VirtualTrie out;
  out.root_range_ = RangeLabel{GetU64(q), GetU64(q + 8)};
  PRIX_ASSIGN_OR_RETURN(out.nodes_, NodeTree::Open(pool, GetU32(q + 16)));
  PRIX_ASSIGN_OR_RETURN(out.docs_, DocTree::Open(pool, GetU32(q + 20)));
  *p = q + 24;
  return out;
}

Status VirtualTrie::LoadMirror(DynamicTrie* mirror, size_t num_docs) const {
  std::vector<DynTrieEntry> ents;
  PRIX_ASSIGN_OR_RETURN(auto it, nodes_.SeekToFirst());
  while (it.Valid()) {
    ents.push_back(DynTrieEntry{TrieChildKey(it.key().label, it.value().aux),
                                it.key().left, it.value().right,
                                it.value().level});
    PRIX_RETURN_NOT_OK(it.Next());
  }
  PRIX_RETURN_NOT_OK(
      mirror->Init(std::move(ents), root_range_.left, root_range_.right));

  PRIX_ASSIGN_OR_RETURN(auto dit, docs_.SeekToFirst());
  while (dit.Valid()) {
    const DocId doc = dit.value();
    if (doc >= num_docs) {
      return Status::Corruption("Docid entry for DocId " +
                                std::to_string(doc) + " beyond the store");
    }
    PRIX_RETURN_NOT_OK(mirror->AddDocKey(doc, dit.key().left, dit.key().seq));
    PRIX_RETURN_NOT_OK(dit.Next());
  }
  return Status::OK();
}

}  // namespace prix
