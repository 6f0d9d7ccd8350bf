#include "vist/vist_query.h"

#include <algorithm>
#include <set>

#include "common/deadline.h"
#include "common/macros.h"
#include "query/twig_prufer.h"

namespace prix {

Result<VistQueryResult> VistQueryProcessor::Execute(
    const TwigPattern& pattern, MatchSemantics semantics) {
  if (pattern.empty()) return Status::InvalidArgument("empty twig pattern");
  VistQueryResult result;

  items_ = BuildVistQuery(pattern);
  // Resolve each item's prefix pattern against that symbol's unique
  // (symbol, prefix) D-Ancestorship keys, mirroring ViST: an item whose
  // prefix carries '//' matches many keys ("every key with S as its
  /// symbol", Sec. 6.4.1), a concrete prefix matches the keys it is a path
  // prefix of.
  prefix_ok_.assign(items_.size(),
                    std::vector<char>(index_->prefixes().size(), 0));
  for (size_t i = 0; i < items_.size(); ++i) {
    if (items_[i].star) {
      // '*' symbol: pattern filtering happens during the scan itself.
      for (PrefixId id = 0; id < index_->prefixes().size(); ++id) {
        prefix_ok_[i][id] = PatternMatchesPath(items_[i].pattern,
                                               index_->prefixes().Path(id));
        result.stats.matched_prefixes += prefix_ok_[i][id];
      }
      continue;
    }
    for (PrefixId id : index_->SymbolPrefixes(items_[i].symbol)) {
      if (PatternMatchesPath(items_[i].pattern,
                             index_->prefixes().Path(id))) {
        prefix_ok_[i][id] = 1;
        ++result.stats.matched_prefixes;
      }
    }
  }

  cursors_.assign(items_.size(),
                  VistIndex::DAncestorTree::Iterator(index_->dancestor()));
  doc_cursor_ = VistIndex::DocTree::Iterator(index_->docid_index());
  std::vector<DocId> candidates;
  RangeLabel root = index_->root_range();
  PRIX_RETURN_NOT_OK(
      Descend(0, root.left, root.right, &candidates, &result.stats));
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  result.stats.candidate_docs = candidates.size();

  // Post-verification: rebuild each candidate document and enumerate its
  // actual embeddings. ViST's structure encoding admits false alarms
  // (Fig. 1(b)); without this step reported matches would be wrong.
  EffectiveTwig base = EffectiveTwig::Build(pattern);
  std::vector<EffectiveTwig> arrangements;
  if (semantics == MatchSemantics::kOrdered) {
    arrangements.push_back(base);
  } else {
    PRIX_ASSIGN_OR_RETURN(arrangements, EnumerateArrangements(base, 40320));
  }
  std::set<TwigMatch> match_set;
  for (DocId doc : candidates) {
    PRIX_RETURN_NOT_OK(CheckDeadline());
    PRIX_ASSIGN_OR_RETURN(Document tree, index_->LoadDocument(doc));
    ++result.stats.docs_verified;
    size_t before = match_set.size();
    for (const EffectiveTwig& arrangement : arrangements) {
      for (auto& m : NaiveMatch(tree, arrangement,
                                semantics == MatchSemantics::kStandard
                                    ? MatchSemantics::kStandard
                                    : MatchSemantics::kOrdered)) {
        match_set.insert(std::move(m));
      }
    }
    if (match_set.size() == before) ++result.stats.false_alarms;
  }
  result.matches.assign(match_set.begin(), match_set.end());
  for (const TwigMatch& m : result.matches) result.docs.push_back(m.doc);
  std::sort(result.docs.begin(), result.docs.end());
  result.docs.erase(std::unique(result.docs.begin(), result.docs.end()),
                    result.docs.end());
  return result;
}

Status VistQueryProcessor::Descend(size_t i, uint64_t ql, uint64_t qr,
                                   std::vector<DocId>* candidates,
                                   VistQueryStats* stats) {
  const VistQueryItem& item = items_[i];
  // Deadline checkpoint once per range descent (the '*' and TREEBANK-style
  // '//' scans touch every key of a symbol; without this a timed-out query
  // would grind through the whole index).
  PRIX_RETURN_NOT_OK(CheckDeadline());

  auto process_node = [&](const VistKey& key,
                          const VistNodeValue& value) -> Status {
    if (i + 1 == items_.size()) {
      ++stats->occurrences;
      auto& dit = doc_cursor_;
      PRIX_RETURN_NOT_OK(dit.Reseek(VistDocKey{key.left, 0, 0}));
      while (dit.Valid() && dit.key().left <= value.right) {
        candidates->push_back(dit.value());
        PRIX_RETURN_NOT_OK(dit.Next());
      }
      return Status::OK();
    }
    return Descend(i + 1, key.left, value.right, candidates, stats);
  };

  ++stats->range_queries;
  if (item.star) {
    // '*' symbol: every key within scope qualifies if its prefix matches.
    PRIX_ASSIGN_OR_RETURN(auto it, index_->dancestor().SeekToFirst());
    while (it.Valid()) {
      const VistKey key = it.key();
      const VistNodeValue value = it.value();
      PRIX_RETURN_NOT_OK(it.Next());
      ++stats->keys_scanned;
      if (key.left <= ql || key.left > qr) continue;
      if (!prefix_ok_[i][value.prefix]) continue;
      PRIX_RETURN_NOT_OK(process_node(key, value));
    }
    return Status::OK();
  }

  // Scan all trie nodes of the symbol within the scope; each is checked
  // against the item's admissible (symbol, prefix) keys.
  auto& it = cursors_[i];
  PRIX_RETURN_NOT_OK(it.Reseek(VistKey{item.symbol, 0, ql + 1}));
  while (it.Valid()) {
    const VistKey key = it.key();
    if (key.symbol != item.symbol || key.left > qr) break;
    ++stats->keys_scanned;
    const VistNodeValue value = it.value();
    PRIX_RETURN_NOT_OK(it.Next());
    if (!prefix_ok_[i][value.prefix]) continue;
    PRIX_RETURN_NOT_OK(process_node(key, value));
  }
  return Status::OK();
}

}  // namespace prix
