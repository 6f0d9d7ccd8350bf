#include "prix/refinement.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/macros.h"
#include "prufer/prufer.h"

namespace prix {

RefinableDoc RefinableDoc::Make(StoredDoc stored, bool extended) {
  RefinableDoc doc;
  doc.stored = std::move(stored);
  const PruferSequences& seq = doc.stored.seq;
  const uint32_t n = seq.num_nodes;
  doc.label_of.assign(n + 1, kInvalidLabel);
  if (n > 0) doc.label_of[n] = seq.root_label;
  // Internal labels from the LPS: node nps[k] is the parent of node k+1 and
  // carries label lps[k] (Example 6's LPS/NPS search, done once).
  for (uint32_t k = 0; k + 1 < n; ++k) {
    doc.label_of[seq.nps[k]] = seq.lps[k];
  }
  for (const LeafEntry& leaf : doc.stored.leaves) {
    doc.label_of[leaf.postorder] = leaf.label;
  }
  if (extended) {
    doc.orig_post = ExtendedToOriginalPostorder(seq);
  }
  return doc;
}

namespace {

/// N_D value at matched position p (1-based): the postorder number of the
/// parent of the node deleted there.
inline uint32_t DataN(const RefinableDoc& doc, uint32_t p) {
  return doc.stored.seq.nps[p - 1];
}

}  // namespace

bool CheckConnectedness(const RefinableDoc& doc,
                        const std::vector<uint32_t>& positions,
                        bool generalized) {
  const size_t k = positions.size();
  // N = postorder number sequence of the matched subsequence.
  uint32_t max_n = 0;
  for (uint32_t p : positions) max_n = std::max(max_n, DataN(doc, p));
  for (size_t i = 0; i < k; ++i) {
    uint32_t ni = DataN(doc, positions[i]);
    if (ni == max_n) continue;
    bool later = false;
    for (size_t j = i + 1; j < k && !later; ++j) {
      later = DataN(doc, positions[j]) == ni;
    }
    if (later) continue;
    // Last occurrence of ni: in the deletion order the node deleted next is
    // ni itself (Lemma 1), so the next MATCHED deletion must be ni — which
    // also forces N_{i+1} = N_T[ni], the published Theorem 2 condition.
    // Matching only the published condition on N values would accept
    // occurrences where a different node with an identically-labeled parent
    // stands in for ni (no embedding exists); Example 6's leaf matching
    // relies on the matched positions being the images, so we anchor here.
    // Generalized queries (Sec. 4.5): the next matched deletion is the top
    // of the connecting path — an ancestor-or-self of ni whose parent is
    // N_{i+1}.
    if (i + 1 >= k) return false;
    uint32_t next_deleted = positions[i + 1];
    if (!generalized) {
      if (next_deleted != ni) return false;
      continue;
    }
    uint32_t chain = ni;
    while (chain < next_deleted) {
      chain = doc.stored.seq.nps[chain - 1];  // parent of node `chain`
    }
    if (chain != next_deleted) return false;
  }
  return true;
}

bool CheckGapConsistency(const RefinableDoc& doc, const QuerySequence& q,
                         const std::vector<uint32_t>& positions) {
  for (size_t i = 0; i + 1 < positions.size(); ++i) {
    int64_t data_gap = static_cast<int64_t>(DataN(doc, positions[i])) -
                       static_cast<int64_t>(DataN(doc, positions[i + 1]));
    int64_t query_gap =
        static_cast<int64_t>(q.nps[i]) - static_cast<int64_t>(q.nps[i + 1]);
    if ((data_gap == 0) != (query_gap == 0)) return false;
    if (data_gap * query_gap < 0) return false;
    if (std::llabs(query_gap) > std::llabs(data_gap)) return false;
  }
  return true;
}

bool CheckFrequencyConsistency(const RefinableDoc& doc,
                               const QuerySequence& q,
                               const std::vector<uint32_t>& positions) {
  const size_t k = positions.size();
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      bool q_eq = q.nps[i] == q.nps[j];
      bool d_eq = DataN(doc, positions[i]) == DataN(doc, positions[j]);
      if (q_eq != d_eq) return false;
    }
  }
  return true;
}

namespace {

bool CheckLeaves(const RefinableDoc& doc, const QuerySequence& q,
                 const std::vector<uint32_t>& positions, bool generalized) {
  // RP stores only; the node deleted at matched position p is node p itself
  // (Lemma 1), so a query leaf at sequence position k maps to data node
  // positions[k-1]. Under a non-child edge the matched deletion is the top
  // of the connecting path, not the leaf image, so the check applies only
  // to leaves attached by an exact child edge (generalized queries get a
  // final direct verification anyway).
  for (const QuerySequence::QueryLeaf& leaf : q.rp_leaves) {
    if (leaf.is_star) continue;
    if (generalized && !leaf.exact_child_edge) continue;
    uint32_t data_node = positions[leaf.position - 1];
    if (doc.label_of[data_node] != leaf.label) return false;
  }
  return true;
}

}  // namespace

Result<bool> RefineCandidate(const RefinableDoc& doc, const QuerySequence& q,
                             const std::vector<uint32_t>& positions,
                             bool generalized, RefineStats* stats) {
  ++stats->candidates;
  PRIX_DCHECK(positions.size() == q.lps.size());
  if (!positions.empty() && positions.back() > doc.stored.seq.lps.size()) {
    return Status::Corruption(
        "doc record of " + std::to_string(doc.num_nodes()) +
        " node(s) has no LPS position " + std::to_string(positions.back()));
  }
  if (!CheckConnectedness(doc, positions, generalized)) {
    ++stats->failed_connectedness;
    return false;
  }
  if (!CheckGapConsistency(doc, q, positions)) {
    ++stats->failed_gap;
    return false;
  }
  if (!CheckFrequencyConsistency(doc, q, positions)) {
    ++stats->failed_frequency;
    return false;
  }
  if (!q.extended && !CheckLeaves(doc, q, positions, generalized)) {
    ++stats->failed_leaves;
    return false;
  }
  ++stats->passed;
  return true;
}

std::vector<uint32_t> ExtractImage(const RefinableDoc& doc,
                                   const QuerySequence& q,
                                   const std::vector<uint32_t>& positions,
                                   size_t num_effective_nodes) {
  std::vector<uint32_t> image(num_effective_nodes, 0);
  auto translate = [&](uint32_t v) {
    return doc.orig_post.empty() ? v : doc.orig_post[v];
  };
  for (uint32_t e = 0; e < num_effective_nodes; ++e) {
    uint32_t k = q.position_of_eff[e];
    if (k == q.num_nodes) {
      // Query root: parent of the last matched deletion.
      image[e] = translate(DataN(doc, positions.back()));
    } else {
      image[e] = translate(positions[k - 1]);
    }
  }
  return image;
}

void BuildOriginalArrays(const RefinableDoc& doc, bool extended,
                         std::vector<uint32_t>* parent,
                         std::vector<LabelId>* label, uint32_t* n) {
  const PruferSequences& seq = doc.stored.seq;
  if (!extended) {
    *n = seq.num_nodes;
    parent->assign(*n + 1, 0);
    label->assign(*n + 1, kInvalidLabel);
    for (uint32_t v = 1; v < *n; ++v) (*parent)[v] = seq.nps[v - 1];
    for (uint32_t v = 1; v <= *n; ++v) (*label)[v] = doc.label_of[v];
    return;
  }
  // Strip dummies: original node count = non-dummy count.
  PRIX_CHECK(!doc.orig_post.empty());
  uint32_t orig_n = 0;
  for (uint32_t v = 1; v <= seq.num_nodes; ++v) {
    orig_n = std::max(orig_n, doc.orig_post[v]);
  }
  *n = orig_n;
  parent->assign(orig_n + 1, 0);
  label->assign(orig_n + 1, kInvalidLabel);
  for (uint32_t v = 1; v <= seq.num_nodes; ++v) {
    uint32_t ov = doc.orig_post[v];
    if (ov == 0) continue;  // dummy
    (*label)[ov] = doc.label_of[v];
    if (v < seq.num_nodes) {
      // Parent of a non-dummy node is always non-dummy.
      (*parent)[ov] = doc.orig_post[seq.nps[v - 1]];
    }
  }
}

}  // namespace prix
