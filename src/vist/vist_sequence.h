#ifndef PRIX_VIST_VIST_SEQUENCE_H_
#define PRIX_VIST_VIST_SEQUENCE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/result.h"
#include "query/twig_pattern.h"
#include "xml/document.h"

namespace prix {

/// Identifier of an interned root-to-node path.
using PrefixId = uint32_t;

/// Interns root-to-node label paths (the "prefix" part of ViST's
/// structure-encoded pairs). The total interned size is what gives ViST its
/// super-linear worst case (a unary tree interns n distinct prefixes of
/// lengths 0..n-1, Sec. 2 of the PRIX paper).
class PrefixDictionary {
 public:
  PrefixId Intern(const std::vector<LabelId>& path);
  /// Returns the id of `path` or kInvalidPrefix if never interned.
  PrefixId Find(const std::vector<LabelId>& path) const;
  static constexpr PrefixId kInvalidPrefix = 0xffffffffu;
  const std::vector<LabelId>& Path(PrefixId id) const { return paths_[id]; }
  size_t size() const { return paths_.size(); }
  /// Total number of labels across all interned paths.
  uint64_t total_labels() const { return total_labels_; }

  /// Serializes all interned paths in id order (for index persistence).
  void SerializeTo(std::vector<char>* out) const;

  /// Rebuilds a dictionary (ids preserved) from SerializeTo output. `p` is
  /// advanced past the consumed bytes.
  static Result<PrefixDictionary> Deserialize(const char** p,
                                              const char* end);

 private:
  std::map<std::vector<LabelId>, PrefixId> index_;
  std::vector<std::vector<LabelId>> paths_;
  uint64_t total_labels_ = 0;
};

/// One element of a structure-encoded sequence: (symbol, prefix) where
/// prefix is the interned path from the document root to the node's parent.
struct VistItem {
  LabelId symbol;
  PrefixId prefix;

  bool operator==(const VistItem&) const = default;
};

/// Transforms `doc` into its structure-encoded sequence: the preorder list
/// of (symbol, prefix) pairs (ViST, as described in Sec. 2 / Fig. 1).
std::vector<VistItem> BuildVistSequence(const Document& doc,
                                        PrefixDictionary* prefixes);

/// A prefix-path pattern element: a concrete label or a '//' gap.
struct PatternItem {
  bool gap = false;
  LabelId label = kInvalidLabel;
};

/// One query node in ViST form: its symbol test plus the pattern its
/// ancestors' path must satisfy. A '*' symbol matches any label.
struct VistQueryItem {
  LabelId symbol = kInvalidLabel;
  bool star = false;
  std::vector<PatternItem> pattern;
  uint32_t twig_node = 0;  ///< originating TwigPattern node
};

/// Builds the query's structure-encoded sequence (preorder). Wildcards stay
/// in the prefix patterns; this is the "(S, //) key" behaviour the PRIX
/// paper measures on TREEBANK (Sec. 6.4.1).
std::vector<VistQueryItem> BuildVistQuery(const TwigPattern& twig);

/// True if `pattern` matches some PREFIX of `path` ('//' gaps absorb zero
/// or more labels; '*' steps appear as non-gap items with label
/// kInvalidLabel). Prefix (not whole-path) matching is the D-Ancestorship
/// relation: a query node with root-path p matches any data node below the
/// path p — which is precisely how ViST admits the Fig. 1(b) false alarms.
bool PatternMatchesPath(const std::vector<PatternItem>& pattern,
                        const std::vector<LabelId>& path);

}  // namespace prix

#endif  // PRIX_VIST_VIST_SEQUENCE_H_
