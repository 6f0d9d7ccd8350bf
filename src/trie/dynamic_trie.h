#ifndef PRIX_TRIE_DYNAMIC_TRIE_H_
#define PRIX_TRIE_DYNAMIC_TRIE_H_

// Shared dynamic trie-labeling machinery for online ingest (DESIGN.md §5k).
//
// Both PRIX's virtual trie over Labeled Prüfer sequences and ViST's virtual
// trie over structure-encoded sequences are persisted the same way: one
// B+-tree entry per trie node carrying a (left, right] range label, plus a
// Docid entry at every sequence end node. Inserting a sequence therefore
// reduces, for either engine, to the same three moves — walk the shared
// prefix through an in-memory mirror of the trie, claim sub-ranges for the
// new suffix from the slack an earlier relabel left (Sec. 5.2.1), and fall
// back to a batched relabel of the nearest ancestor whose scope can host its
// whole subtree when the slack runs out.
//
// This class owns the in-memory half: the mirror, the range arithmetic, the
// relabel batch, and the Docid-key bookkeeping. Persistence is injected
// through an Ops policy supplied per call — VirtualTrie
// (trie/virtual_trie.h) for both engines:
//
//   struct Ops {
//     Status InsertNode(uint64_t ckey, uint64_t left, uint64_t right,
//                       uint32_t level);
//     Status DeleteNode(uint64_t ckey, uint64_t left);
//     Status InsertDoc(uint64_t left, uint32_t seq, DocId doc);
//     Status DeleteDoc(uint64_t left, uint32_t seq);
//     void SetRootRange(uint64_t left, uint64_t right);
//   };
//
// `ckey` is the child key that distinguishes one trie child from its
// siblings, the same key the bulk build's SequenceTrie uses:
// TrieChildKey(label, aux), with aux = 0 for PRIX and the interned prefix
// for ViST. The mirror never interprets ckeys beyond equality.
//
// This is the only labeler that runs on insert. Bulk builds are labeled
// exactly (trie/range_labeler.h), without slack, so the first insert that
// adds a node to a freshly built index grows the root scope and relabels
// the whole trie once.
#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "xml/document.h"

namespace prix {

/// One persisted trie-node entry, as enumerated from the node B+-tree when
/// (re)building the mirror.
struct DynTrieEntry {
  uint64_t ckey = 0;
  uint64_t left = 0;
  uint64_t right = 0;
  uint32_t level = 0;
};

/// The (left, seq) of a Docid-index key; the persisted DocKey
/// (trie/virtual_trie.h) adds its padding.
struct DynDocKey {
  uint64_t left = 0;
  uint32_t seq = 0;
};

class DynamicTrie {
 public:
  static constexpr uint32_t kNoNode = 0xffffffffu;

  /// Positions reserved per node when a relabel batch re-spreads a subtree,
  /// and the growth granularity of the root scope. 16 means a relabeled
  /// subtree can absorb ~15 more nodes per existing node before the next
  /// relabel touches it.
  static constexpr uint64_t kRelabelSpread = 16;

  /// Ceiling for the root scope: 2^62 leaves headroom below 2^63 for
  /// interval arithmetic.
  static constexpr uint64_t kMaxRootScope = uint64_t{1} << 62;

  /// Writer-side image of one virtual-trie node. The trie is never stored
  /// as a tree on disk — only as range-labeled B+-tree entries — so the
  /// writer reconstructs it once per cache build and keeps it current
  /// across its own inserts.
  struct Node {
    uint64_t ckey = 0;
    uint64_t left = 0;
    uint64_t right = 0;
    uint32_t level = 0;  ///< 0 for the virtual root
    uint32_t parent = kNoNode;
    /// First unclaimed position in (left, right]: all children's ranges and
    /// the node's own position lie strictly below it.
    uint64_t next_free = 0;
    std::unordered_map<uint64_t, uint32_t> children;
  };

  /// Rebuilds the mirror from the persisted node entries: sort by LeftPos —
  /// range labels assign LeftPos in preorder, so that IS a preorder walk —
  /// and recover each node's parent as the nearest enclosing range on a
  /// stack, validating containment, distinct LeftPos and level consistency
  /// as it goes.
  Status Init(std::vector<DynTrieEntry> ents, uint64_t root_left,
              uint64_t root_right) {
    std::sort(ents.begin(), ents.end(),
              [](const DynTrieEntry& a, const DynTrieEntry& b) {
                return a.left < b.left;
              });
    nodes_.clear();
    doc_keys_.clear();
    next_seq_ = 0;
    relabels_ = 0;
    relabeled_nodes_ = 0;
    Node root;
    root.left = root_left;
    root.right = root_right;
    root.next_free = root_left + 1;
    nodes_.push_back(std::move(root));

    std::vector<uint32_t> stk{0};
    for (const DynTrieEntry& e : ents) {
      if (e.left <= root_left || e.left > root_right || e.right < e.left ||
          e.right > root_right) {
        return Status::Corruption("trie node range escapes the root scope");
      }
      if (nodes_.size() > 1 && nodes_.back().left == e.left) {
        return Status::Corruption("two trie nodes share one LeftPos");
      }
      while (stk.size() > 1 &&
             !(nodes_[stk.back()].left < e.left &&
               e.left <= nodes_[stk.back()].right)) {
        stk.pop_back();
      }
      const uint32_t parent = stk.back();
      if (e.right > nodes_[parent].right) {
        return Status::Corruption(
            "trie node range escapes its parent's scope");
      }
      if (e.level != nodes_[parent].level + 1) {
        return Status::Corruption(
            "trie node level does not match its range nesting depth");
      }
      Node node;
      node.ckey = e.ckey;
      node.left = e.left;
      node.right = e.right;
      node.level = e.level;
      node.parent = parent;
      node.next_free = e.left + 1;
      const uint32_t idx = static_cast<uint32_t>(nodes_.size());
      if (!nodes_[parent].children.emplace(e.ckey, idx).second) {
        return Status::Corruption("two sibling trie nodes share one key");
      }
      nodes_.push_back(std::move(node));
      if (nodes_[parent].next_free < e.right + 1) {
        nodes_[parent].next_free = e.right + 1;
      }
      stk.push_back(idx);
    }
    return Status::OK();
  }

  /// Registers one live document's Docid key (from the engine's Docid-index
  /// scan) and advances the sequence-number watermark past it.
  Status AddDocKey(DocId doc, uint64_t left, uint32_t seq) {
    if (!doc_keys_.emplace(doc, DynDocKey{left, seq}).second) {
      return Status::Corruption("two Docid-index entries map to DocId " +
                                std::to_string(doc));
    }
    if (seq >= next_seq_) next_seq_ = seq + 1;
    return Status::OK();
  }

  bool HasDoc(DocId doc) const {
    return doc_keys_.find(doc) != doc_keys_.end();
  }
  size_t num_doc_keys() const { return doc_keys_.size(); }
  uint64_t root_left() const { return nodes_[0].left; }
  uint64_t root_right() const { return nodes_[0].right; }
  /// Relabel batches run since Init, and the nodes they moved.
  uint64_t relabels() const { return relabels_; }
  uint64_t relabeled_nodes() const { return relabeled_nodes_; }

  /// Threads `ckeys` through the mirror, materializing the missing suffix
  /// as new persisted node entries, and returns the LeftPos of the end
  /// node. A new child's share of its parent's free scope is generous (3/4
  /// of what is left, floored at 4x the pending chain) so sibling
  /// insertions stay cheap; an exhausted scope triggers one relabel batch
  /// and a retry.
  template <typename Ops>
  Result<uint64_t> InsertPath(const std::vector<uint64_t>& ckeys, Ops& ops) {
    std::vector<Node>& m = nodes_;
    for (int attempt = 0; attempt < 8; ++attempt) {
      uint32_t cur = 0;
      size_t i = 0;
      while (i < ckeys.size()) {
        const auto it = m[cur].children.find(ckeys[i]);
        if (it == m[cur].children.end()) break;
        cur = it->second;
        ++i;
      }
      if (i == ckeys.size()) return m[cur].left;  // whole path shared

      uint64_t need = ckeys.size() - i;
      uint64_t remaining = m[cur].next_free > m[cur].right
                               ? 0
                               : m[cur].right - m[cur].next_free + 1;
      if (remaining < need) {
        PRIX_RETURN_NOT_OK(Relabel(cur, need, ops));
        continue;  // ranges moved under us; redo the walk
      }
      for (; i < ckeys.size(); ++i) {
        need = ckeys.size() - i;
        remaining = m[cur].right - m[cur].next_free + 1;
        if (remaining < need) {
          return Status::Internal("label scope underflow mid-chain");
        }
        const uint64_t share =
            std::min(remaining, std::max(need * 4, remaining - remaining / 4));
        const uint64_t left = m[cur].next_free;
        const uint64_t right = left + share - 1;
        m[cur].next_free = right + 1;
        const uint32_t level = m[cur].level + 1;
        PRIX_RETURN_NOT_OK(ops.InsertNode(ckeys[i], left, right, level));
        Node node;
        node.ckey = ckeys[i];
        node.left = left;
        node.right = right;
        node.level = level;
        node.parent = cur;
        node.next_free = left + 1;
        const uint32_t idx = static_cast<uint32_t>(m.size());
        m.push_back(std::move(node));
        m[cur].children.emplace(ckeys[i], idx);
        cur = idx;
      }
      return m[cur].left;
    }
    return Status::Internal("relabeling failed to open a large enough scope");
  }

  /// Persists the Docid entry of a sequence ending at `end_left` and
  /// records it for later deletes/relabels.
  template <typename Ops>
  Result<DynDocKey> InsertDocEntry(uint64_t end_left, DocId doc, Ops& ops) {
    const DynDocKey key{end_left, next_seq_++};
    PRIX_RETURN_NOT_OK(ops.InsertDoc(key.left, key.seq, doc));
    doc_keys_.emplace(doc, key);
    return key;
  }

  /// Removes `doc`'s Docid entry. NotFound when the trie holds no key for
  /// it (never inserted, or already deleted).
  template <typename Ops>
  Status DeleteDocEntry(DocId doc, Ops& ops) {
    const auto it = doc_keys_.find(doc);
    if (it == doc_keys_.end()) {
      return Status::NotFound("document " + std::to_string(doc) +
                              " has no Docid-index entry");
    }
    PRIX_RETURN_NOT_OK(ops.DeleteDoc(it->second.left, it->second.seq));
    doc_keys_.erase(it);
    return Status::OK();
  }

 private:
  /// Relabel batch (the Sec. 5.2.1 fallback): node `at` cannot host `need`
  /// more descendants. Walks up to the nearest ancestor A whose scope can
  /// hold its whole subtree — counting the pending chain — at
  /// kRelabelSpread positions per node (growing the root scope if even the
  /// root is too tight), then re-spreads every descendant of A: delete all
  /// their old node and Docid keys, assign fresh ranges preorder with the
  /// spread, reinsert. A's own range never changes, so nothing outside its
  /// subtree moves.
  template <typename Ops>
  Status Relabel(uint32_t at, uint64_t need, Ops& ops) {
    std::vector<Node>& m = nodes_;

    // Subtree sizes (nodes incl. self). Mirror slots are preorder (parent <
    // child), so one reverse sweep folds children into parents; then the
    // pending chain of `need` nodes is credited to every ancestor of `at`.
    std::vector<uint64_t> sz(m.size(), 1);
    for (uint32_t v = static_cast<uint32_t>(m.size()); v-- > 1;) {
      sz[m[v].parent] += sz[v];
    }
    for (uint32_t x = at;; x = m[x].parent) {
      sz[x] += need;
      if (x == 0) break;
    }

    uint32_t A = at;
    while (true) {
      const uint64_t descendants = sz[A] - 1;
      const uint64_t span = m[A].right - m[A].left;
      if (span / kRelabelSpread >= descendants) break;
      if (A == 0) {
        // Even the root scope is too small: grow it. The root is virtual
        // (no persisted node key), so only the engine's root range changes.
        const uint64_t want = std::max(descendants * kRelabelSpread, 2 * span);
        if (want < span || m[0].left + want > kMaxRootScope) {
          return Status::Internal("root label scope exhausted");
        }
        m[0].right = m[0].left + want;
        ops.SetRootRange(m[0].left, m[0].right);
        break;
      }
      A = m[A].parent;
    }

    const uint64_t descendants = sz[A] - 1;
    const uint64_t span = m[A].right - m[A].left;
    const uint64_t spread = span / descendants;  // >= kRelabelSpread

    // Preorder over A's proper descendants, children visited in old-left
    // order, captured BEFORE any range changes.
    std::vector<uint32_t> desc;
    {
      std::vector<uint32_t> stk;
      auto push_children = [&](uint32_t n) {
        std::vector<std::pair<uint64_t, uint32_t>> kids;
        kids.reserve(m[n].children.size());
        for (const auto& [ckey, c] : m[n].children) {
          kids.emplace_back(m[c].left, c);
        }
        std::sort(kids.begin(), kids.end());
        for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
          stk.push_back(it->second);
        }
      };
      push_children(A);
      while (!stk.empty()) {
        const uint32_t n = stk.back();
        stk.pop_back();
        desc.push_back(n);
        push_children(n);
      }
    }
    if (desc.empty()) return Status::OK();  // pure root growth

    // Phase 1: delete every moved node's old key and every Docid entry
    // keyed under A's scope (exactly the moved nodes' entries; A's own, at
    // A.left, is outside the open interval). Deletes strictly precede
    // reinserts so a new key can never collide with a not-yet-moved old
    // one.
    std::vector<uint64_t> old_lefts(desc.size());
    for (size_t i = 0; i < desc.size(); ++i) {
      old_lefts[i] = m[desc[i]].left;
      PRIX_RETURN_NOT_OK(ops.DeleteNode(m[desc[i]].ckey, old_lefts[i]));
    }
    struct MovedDoc {
      DocId doc;
      DynDocKey old_key;
    };
    std::vector<MovedDoc> moved;
    for (const auto& [doc, key] : doc_keys_) {
      if (key.left > m[A].left && key.left <= m[A].right) {
        moved.push_back(MovedDoc{doc, key});
      }
    }
    for (const MovedDoc& md : moved) {
      PRIX_RETURN_NOT_OK(ops.DeleteDoc(md.old_key.left, md.old_key.seq));
    }

    // Phase 2: assign fresh ranges in one preorder pass. Each node claims
    // sz*spread positions from its parent's running cursor; processing
    // order guarantees the parent's cursor exists before any child reads
    // it.
    std::unordered_map<uint64_t, uint64_t> new_left_by_old;
    new_left_by_old.reserve(desc.size());
    std::unordered_map<uint32_t, uint64_t> cursor;
    cursor.reserve(desc.size() + 1);
    cursor[A] = m[A].left + 1;
    for (size_t i = 0; i < desc.size(); ++i) {
      const uint32_t n = desc[i];
      uint64_t& parent_cursor = cursor[m[n].parent];
      const uint64_t base = parent_cursor;
      parent_cursor = base + sz[n] * spread;
      m[n].left = base;
      m[n].right = base + sz[n] * spread - 1;
      cursor[n] = base + 1;
      new_left_by_old.emplace(old_lefts[i], base);
    }
    m[A].next_free = cursor[A];
    for (const uint32_t n : desc) m[n].next_free = cursor[n];

    // Phase 3: reinsert under the new ranges.
    for (const uint32_t n : desc) {
      PRIX_RETURN_NOT_OK(
          ops.InsertNode(m[n].ckey, m[n].left, m[n].right, m[n].level));
    }
    for (const MovedDoc& md : moved) {
      const auto it = new_left_by_old.find(md.old_key.left);
      if (it == new_left_by_old.end()) {
        return Status::Internal("Docid entry keyed at no relabeled trie node");
      }
      const DynDocKey nk{it->second, md.old_key.seq};
      PRIX_RETURN_NOT_OK(ops.InsertDoc(nk.left, nk.seq, md.doc));
      doc_keys_[md.doc] = nk;
    }

    ++relabels_;
    relabeled_nodes_ += desc.size();
    MetricsRegistry& reg = MetricsRegistry::Global();
    if (reg.enabled()) {
      reg.counter("prix.ingest.relabels").Add(1);
      reg.counter("prix.ingest.relabeled_nodes").Add(desc.size());
    }
    return Status::OK();
  }

  std::vector<Node> nodes_;
  std::unordered_map<DocId, DynDocKey> doc_keys_;  ///< live documents only
  uint32_t next_seq_ = 0;  ///< next Docid-entry sequence number
  uint64_t relabels_ = 0;
  uint64_t relabeled_nodes_ = 0;
};

}  // namespace prix

#endif  // PRIX_TRIE_DYNAMIC_TRIE_H_
