#ifndef PRIX_PRIX_REFINEMENT_H_
#define PRIX_PRIX_REFINEMENT_H_

#include <cstdint>
#include <vector>

#include "naive/naive_matcher.h"
#include "prix/doc_store.h"
#include "query/twig_prufer.h"

namespace prix {

/// Counters for the refinement phases (Algorithm 2), private to one query.
struct RefineStats {
  uint64_t candidates = 0;
  uint64_t failed_connectedness = 0;
  uint64_t failed_gap = 0;
  uint64_t failed_frequency = 0;
  uint64_t failed_leaves = 0;
  uint64_t passed = 0;
};

/// A document loaded for refinement, with derived arrays cached: the node
/// label table (leaf list + LPS/NPS as in Example 6) and, for extended
/// stores, the extended-to-original postorder translation.
struct RefinableDoc {
  StoredDoc stored;
  /// label_of[k] = label of the node with postorder number k (1-based).
  std::vector<LabelId> label_of;
  /// Extended stores only: orig_post[k] maps extended postorder -> original
  /// postorder (0 for dummy nodes). Empty for regular stores.
  std::vector<uint32_t> orig_post;

  /// Builds the derived arrays. `extended` selects EP handling.
  static RefinableDoc Make(StoredDoc stored, bool extended);

  uint32_t num_nodes() const { return stored.seq.num_nodes; }
  /// Parent postorder number of node v (v < num_nodes).
  uint32_t Parent(uint32_t v) const { return stored.seq.nps[v - 1]; }
};

/// Individual refinement checks, exposed for unit tests and the ablation
/// benches. `positions` are 1-based matched LPS positions.
bool CheckConnectedness(const RefinableDoc& doc,
                        const std::vector<uint32_t>& positions,
                        bool generalized);
bool CheckGapConsistency(const RefinableDoc& doc, const QuerySequence& q,
                         const std::vector<uint32_t>& positions);
bool CheckFrequencyConsistency(const RefinableDoc& doc,
                               const QuerySequence& q,
                               const std::vector<uint32_t>& positions);

/// Runs Algorithm 2 on one candidate subsequence occurrence: refinement by
/// connectedness (Theorem 2, with the Sec. 4.5 parent-chain generalization
/// when `generalized`), by structure (gap + frequency consistency,
/// Definitions 3 and 4), and by leaf nodes (RP stores only; skipped per
/// Sec. 5.6 for extended stores). Returns true if the candidate survives.
bool RefineCandidate(const RefinableDoc& doc, const QuerySequence& q,
                     const std::vector<uint32_t>& positions, bool generalized,
                     RefineStats* stats);

/// Recovers the embedding of the EFFECTIVE twig implied by a refined
/// occurrence (Sec. 4.4 / Example 6): effective node e deleted at sequence
/// position k maps to the data node deleted at matched position k, i.e.
/// positions[k-1]; the query root maps to the parent of the last matched
/// deletion. For extended stores, numbers are translated back to original
/// postorder. Valid only for candidates that passed RefineCandidate with
/// generalized == false (exact queries, Theorem 3).
std::vector<uint32_t> ExtractImage(const RefinableDoc& doc,
                                   const QuerySequence& q,
                                   const std::vector<uint32_t>& positions,
                                   size_t num_effective_nodes);

/// Original-tree parent and label arrays (postorder-indexed) for final
/// verification of generalized queries. For extended stores the dummy nodes
/// are removed.
void BuildOriginalArrays(const RefinableDoc& doc, bool extended,
                         std::vector<uint32_t>* parent,
                         std::vector<LabelId>* label, uint32_t* n);

}  // namespace prix

#endif  // PRIX_PRIX_REFINEMENT_H_
