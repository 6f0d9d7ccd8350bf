#include "query/twig_prufer.h"

#include <algorithm>
#include <set>
#include <string>

#include "common/macros.h"

namespace prix {

namespace {

/// Scratch tree over which the query sequence is computed: the effective
/// twig, optionally extended with one dummy child per leaf (EP form).
struct SeqTree {
  struct Node {
    uint32_t eff_node;  // kNoEffNode for dummies
    uint32_t parent;    // index into SeqTree::nodes
    std::vector<uint32_t> children;
  };
  std::vector<Node> nodes;

  static SeqTree FromTwig(const EffectiveTwig& twig, bool extended,
                          const std::vector<bool>* rp_extend_leaves) {
    SeqTree t;
    t.nodes.resize(twig.num_nodes());
    for (uint32_t e = 0; e < twig.num_nodes(); ++e) {
      t.nodes[e].eff_node = e;
      t.nodes[e].parent = twig.node(e).parent;
      t.nodes[e].children = twig.node(e).children;
    }
    for (uint32_t e = 0; e < twig.num_nodes(); ++e) {
      if (!t.nodes[e].children.empty()) continue;
      bool extend = extended || (rp_extend_leaves != nullptr &&
                                 (*rp_extend_leaves)[e]);
      if (extend) {
        uint32_t dummy = static_cast<uint32_t>(t.nodes.size());
        t.nodes.push_back(Node{QuerySequence::kNoEffNode, e, {}});
        t.nodes[e].children.push_back(dummy);
      }
    }
    return t;
  }

  std::vector<uint32_t> Postorder() const {
    std::vector<uint32_t> number(nodes.size(), 0);
    uint32_t counter = 0;
    std::vector<std::pair<uint32_t, size_t>> stack = {{0, 0}};
    while (!stack.empty()) {
      auto& [v, idx] = stack.back();
      if (idx < nodes[v].children.size()) {
        stack.emplace_back(nodes[v].children[idx++], 0);
      } else {
        number[v] = ++counter;
        stack.pop_back();
      }
    }
    return number;
  }
};

/// True if `anc` is a proper ancestor of `node` in the sequence tree
/// (parent array indexed by postorder number; parents have larger numbers).
bool IsProperAncestor(const std::vector<uint32_t>& parent_of, uint32_t anc,
                      uint32_t node, uint32_t root) {
  uint32_t v = node;
  while (v != root) {
    v = parent_of[v];
    if (v == anc) return true;
  }
  return false;
}

}  // namespace

Result<QuerySequence> BuildQuerySequence(
    const EffectiveTwig& twig, bool extended,
    const std::vector<bool>* rp_extend_leaves) {
  if (extended) {
    for (uint32_t e = 0; e < twig.num_nodes(); ++e) {
      if (twig.is_star(e)) {
        return Status::InvalidArgument(
            "extended sequences cannot express a trailing '*'");
      }
    }
  }
  if (rp_extend_leaves != nullptr) {
    PRIX_CHECK(!extended);
    PRIX_CHECK(rp_extend_leaves->size() == twig.num_nodes());
  }
  SeqTree tree = SeqTree::FromTwig(twig, extended, rp_extend_leaves);
  std::vector<uint32_t> number = tree.Postorder();
  const uint32_t m = static_cast<uint32_t>(tree.nodes.size());

  QuerySequence seq;
  seq.extended = extended;
  seq.num_nodes = m;
  seq.eff_node_at.assign(m + 1, QuerySequence::kNoEffNode);
  seq.position_of_eff.assign(twig.num_nodes(), 0);
  for (uint32_t v = 0; v < m; ++v) {
    seq.eff_node_at[number[v]] = tree.nodes[v].eff_node;
    if (tree.nodes[v].eff_node != QuerySequence::kNoEffNode) {
      seq.position_of_eff[tree.nodes[v].eff_node] = number[v];
    }
  }

  // parent_of[k] = postorder number of the parent of the node numbered k.
  std::vector<uint32_t> parent_of(m + 1, 0);
  std::vector<uint32_t> node_of(m + 1, 0);
  for (uint32_t v = 0; v < m; ++v) node_of[number[v]] = v;
  seq.lps.resize(m - 1);
  seq.nps.resize(m - 1);
  seq.is_value.assign(m - 1, false);
  for (uint32_t k = 1; k < m; ++k) {
    uint32_t v = node_of[k];
    uint32_t p = tree.nodes[v].parent;
    uint32_t pk = number[p];
    parent_of[k] = pk;
    uint32_t eff_parent = tree.nodes[p].eff_node;
    PRIX_CHECK(eff_parent != QuerySequence::kNoEffNode);
    seq.lps[k - 1] = twig.node(eff_parent).label;
    seq.nps[k - 1] = pk;
    seq.is_value[k - 1] =
        tree.nodes[v].eff_node == QuerySequence::kNoEffNode &&
        twig.node(eff_parent).is_value;
  }

  // RP leaves: effective leaves WITHOUT a dummy (their labels are absent
  // from the sequence), matched in the final refinement phase.
  if (!extended) {
    for (uint32_t e = 0; e < twig.num_nodes(); ++e) {
      if (!twig.node(e).children.empty()) continue;
      if (rp_extend_leaves != nullptr && (*rp_extend_leaves)[e]) continue;
      seq.rp_leaves.push_back(QuerySequence::QueryLeaf{
          seq.position_of_eff[e], twig.node(e).label,
          twig.node(e).is_value, twig.is_star(e),
          twig.node(e).edge == EdgeSpec{1, true}, e});
    }
  }

  // Prune rules between adjacent sequence positions (Theorem 4). The
  // child-edge case additionally requires the query edge to be an exact
  // child edge; the same-parent and ancestor cases hold for any edge type
  // (the matched data positions are always deletions of children of the
  // matched image, see DESIGN.md Sec. 5).
  seq.prune.assign(seq.lps.size(), GapPruneRule{});
  for (uint32_t k = 1; k + 1 <= seq.lps.size(); ++k) {
    // relates lps[k-1] (deleted node k) and lps[k] (deleted node k+1)
    uint32_t p1 = parent_of[k];
    uint32_t p2 = parent_of[k + 1];
    GapPruneRule rule;
    uint32_t p1_eff = tree.nodes[node_of[p1]].eff_node;
    LabelId p1_label = twig.node(p1_eff).label;
    if (p1 == p2) {
      rule = GapPruneRule{GapPruneRule::kSameParent, p1_label};
    } else if (p2 == parent_of[p1] && k + 1 == p1) {
      // Deletion k+1 is p1 itself; the bound needs an exact child edge
      // between p1's effective node and its effective parent.
      bool exact_child = twig.node(p1_eff).edge == EdgeSpec{1, true};
      if (exact_child) {
        rule = GapPruneRule{GapPruneRule::kChildEdge, p1_label};
      }
    } else if (IsProperAncestor(parent_of, p1, p2, m)) {
      rule = GapPruneRule{GapPruneRule::kAncestor, p1_label};
    }
    seq.prune[k] = rule;
  }
  return seq;
}

namespace {

/// Canonical serialization of an arranged twig, for deduplication.
void Serialize(const EffectiveTwig& twig, uint32_t node, std::string& out) {
  const EffectiveTwig::Node& n = twig.node(node);
  out += '(';
  out += std::to_string(n.label);
  out += n.is_value ? 'v' : 'e';
  out += std::to_string(n.edge.min_edges);
  out += n.edge.exact ? '!' : '~';
  for (uint32_t c : n.children) Serialize(twig, c, out);
  out += ')';
}

}  // namespace

Result<std::vector<EffectiveTwig>> EnumerateArrangements(
    const EffectiveTwig& twig, size_t limit) {
  // Count raw permutations: product of factorials of child counts.
  size_t total = 1;
  for (uint32_t e = 0; e < twig.num_nodes(); ++e) {
    size_t k = twig.node(e).children.size();
    for (size_t i = 2; i <= k; ++i) {
      total *= i;
      if (total > limit) {
        return Status::ResourceExhausted(
            "too many branch arrangements for unordered matching (" +
            std::to_string(limit) + " allowed)");
      }
    }
  }

  // Nodes with >= 2 children, each with the list of its permutations.
  std::vector<uint32_t> branch_nodes;
  std::vector<std::vector<std::vector<uint32_t>>> perms;
  for (uint32_t e = 0; e < twig.num_nodes(); ++e) {
    const auto& kids = twig.node(e).children;
    if (kids.size() >= 2) {
      branch_nodes.push_back(e);
      std::vector<uint32_t> p = kids;
      std::sort(p.begin(), p.end());
      std::vector<std::vector<uint32_t>> all;
      do {
        all.push_back(p);
      } while (std::next_permutation(p.begin(), p.end()));
      perms.push_back(std::move(all));
    }
  }

  std::vector<EffectiveTwig> out;
  std::set<std::string> seen;
  std::vector<size_t> choice(branch_nodes.size(), 0);
  while (true) {
    EffectiveTwig arranged = twig;
    for (size_t i = 0; i < branch_nodes.size(); ++i) {
      arranged.PermuteChildren(branch_nodes[i], perms[i][choice[i]]);
    }
    std::string key;
    Serialize(arranged, arranged.root(), key);
    if (seen.insert(key).second) out.push_back(std::move(arranged));
    // Odometer increment.
    size_t i = 0;
    for (; i < choice.size(); ++i) {
      if (++choice[i] < perms[i].size()) break;
      choice[i] = 0;
    }
    if (i == choice.size()) break;
  }
  if (branch_nodes.empty()) {
    PRIX_DCHECK(out.size() == 1);
  }
  return out;
}

}  // namespace prix
