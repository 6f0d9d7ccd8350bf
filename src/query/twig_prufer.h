#ifndef PRIX_QUERY_TWIG_PRUFER_H_
#define PRIX_QUERY_TWIG_PRUFER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "query/twig_pattern.h"

namespace prix {

/// MaxGap-based pruning rule between adjacent positions k and k+1 of a query
/// sequence (Theorem 4 plus the same-parent corollary). `label` is the label
/// whose MaxGap bounds the data-position gap:
///  - kSameParent: prune if gap >  MaxGap(label)
///  - kChildEdge : prune if gap >  MaxGap(label) + 1
///  - kAncestor  : prune if gap >= MaxGap(label)
struct GapPruneRule {
  enum Kind : uint8_t { kNone, kSameParent, kChildEdge, kAncestor };
  Kind kind = kNone;
  LabelId label = kInvalidLabel;
};

/// The Prüfer transform of a query twig, in regular (RP) or extended (EP)
/// form, together with the bookkeeping the matcher and refinement phases
/// need to recover embeddings over effective-twig nodes.
struct QuerySequence {
  std::vector<LabelId> lps;   ///< length num_nodes - 1
  std::vector<uint32_t> nps;  ///< parallel postorder numbers
  /// is_value[k]: lps[k] is a twig value, i.e. the node deleted at
  /// position k is an EP dummy whose parent is a value node. Only extended
  /// sequences have such positions (value leaves never get a dummy on the
  /// regular index). The matcher anchors its descent on them.
  std::vector<bool> is_value;
  uint32_t num_nodes = 0;     ///< node count of the (extended) sequence tree
  bool extended = false;

  /// eff_node_at[k] = effective-twig node deleted k-th (postorder number k),
  /// for k in [1, num_nodes]; kNoEffNode for EP dummy positions.
  std::vector<uint32_t> eff_node_at;
  static constexpr uint32_t kNoEffNode = 0xffffffffu;

  /// position_of_eff[e] = postorder number of effective node e in the
  /// sequence tree.
  std::vector<uint32_t> position_of_eff;

  /// prune[k] (k >= 1) relates sequence positions k-1 and k (0-based into
  /// lps); prune[0] is always kNone.
  std::vector<GapPruneRule> prune;

  /// RP only: query leaves, checked in the refinement-by-leaf-nodes phase.
  struct QueryLeaf {
    uint32_t position;  ///< the leaf's postorder number (= lps position + 1)
    LabelId label;
    bool is_value;
    bool is_star;          ///< trailing '*': label unchecked
    bool exact_child_edge;  ///< leaf attaches to its parent by a plain '/'
    uint32_t eff_node;
  };
  std::vector<QueryLeaf> rp_leaves;
};

/// Builds the RP (extended=false) or EP (extended=true) query sequence for
/// `twig` (Sec. 3.3, 5.6). Fails for EP when the twig has a trailing '*'
/// (its label would need to appear in the sequence but is unconstrained);
/// the query processor falls back to the RP index in that case.
///
/// `rp_extend_leaves` (RP only, optional, indexed by effective node id):
/// query leaves flagged true get a dummy child so their LABEL enters the
/// query sequence — the Sec. 4.4 "special treatment of leaf nodes" that
/// eliminates the leaf-matching refinement for them. Sound only for element
/// leaves whose label never occurs childless in the collection (the query
/// processor consults the index's childless-label set).
Result<QuerySequence> BuildQuerySequence(
    const EffectiveTwig& twig, bool extended,
    const std::vector<bool>* rp_extend_leaves = nullptr);

/// Enumerates the distinct branch arrangements of `twig` for unordered twig
/// matching (Sec. 5.7): every permutation of every node's child list, with
/// structurally identical arrangements deduplicated. Node ids are stable
/// across arrangements, so embeddings reported against different
/// arrangements can be unioned directly. Fails with ResourceExhausted if
/// more than `limit` raw permutations would be generated.
Result<std::vector<EffectiveTwig>> EnumerateArrangements(
    const EffectiveTwig& twig, size_t limit);

}  // namespace prix

#endif  // PRIX_QUERY_TWIG_PRUFER_H_
