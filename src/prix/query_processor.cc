#include "prix/query_processor.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "common/macros.h"
#include "common/metrics.h"
#include "query/xpath_parser.h"

namespace prix {

namespace {

/// Upper bound on cached refinable documents per query.
constexpr size_t kDocCacheCap = 8192;

void SortUnique(std::vector<DocId>* docs) {
  std::sort(docs->begin(), docs->end());
  docs->erase(std::unique(docs->begin(), docs->end()), docs->end());
}

/// Appends every live DocId of `index`: the candidates of a twig whose
/// sequence filters nothing.
void LiveDocs(const PrixIndex& index, std::vector<DocId>* docs) {
  for (DocId d = 0; d < index.num_docs(); ++d) {
    if (!index.IsDeleted(d)) docs->push_back(d);
  }
}

/// Folds one finished query into the process-wide registry (no-op unless a
/// bench/test/CLI enabled it). The references are resolved once and reused.
void RecordQueryInRegistry(const QueryStats& s) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  if (!reg.enabled()) return;
  static MetricHistogram& match_us = reg.histogram("prix.query.match_us");
  static MetricHistogram& refine_us = reg.histogram("prix.query.refine_us");
  static MetricHistogram& verify_us = reg.histogram("prix.query.verify_us");
  static MetricHistogram& total_us = reg.histogram("prix.query.total_us");
  static MetricHistogram& pages = reg.histogram("prix.query.pages_read");
  static MetricHistogram& nodes = reg.histogram("prix.query.btree_nodes");
  static MetricHistogram& range_queries =
      reg.histogram("prix.query.range_queries");
  static MetricHistogram& anchor_pruned =
      reg.histogram("prix.query.anchor_pruned");
  static MetricCounter& queries = reg.counter("prix.query.count");
  static MetricCounter& hits = reg.counter("prix.pool.hits");
  static MetricCounter& misses = reg.counter("prix.pool.misses");
  match_us.Record(s.match_us);
  refine_us.Record(s.refine_us);
  verify_us.Record(s.verify_us);
  total_us.Record(s.total_us);
  pages.Record(s.pages_read);
  nodes.Record(s.btree_nodes);
  range_queries.Record(s.matcher.range_queries);
  anchor_pruned.Record(s.matcher.pruned_by_anchor);
  queries.Add(1);
  hits.Add(s.pool_hits);
  misses.Add(s.pool_misses);
}

}  // namespace

Result<QueryResult> QueryProcessor::ExecuteXPath(
    std::string_view xpath, TagDictionary* dict,
    const QueryOptions& options) const {
  TwigPattern pattern;
  {
    TraceSpan span("parse");
    PRIX_ASSIGN_OR_RETURN(pattern, ParseXPath(xpath, dict));
  }
  Result<QueryResult> result = Execute(pattern, options);
  if (!result.ok()) {
    // An I/O fault deep in a B+-tree descent should name the query it
    // failed, not just the page.
    return result.status().Annotate("executing '" + std::string(xpath) + "'");
  }
  return result;
}

const PrixIndex* QueryProcessor::ChooseIndex(
    const EffectiveTwig& twig, const QueryOptions& options) const {
  switch (options.index) {
    case QueryOptions::IndexChoice::kRegular:
      return rp_;
    case QueryOptions::IndexChoice::kExtended:
      return ep_;
    case QueryOptions::IndexChoice::kAuto:
      break;
  }
  if (ep_ == nullptr || rp_ == nullptr) return ep_ == nullptr ? rp_ : ep_;
  // The paper's optimizer rule (Sec. 5.6): queries with values use the
  // EPIndex (value labels only appear in extended sequences, and their high
  // selectivity prunes paths early under the bottom-up transformation);
  // value-free queries use the RPIndex, whose shorter, value-free sequences
  // share trie paths heavily. On the RPIndex, element leaf labels still
  // enter the query sequence via the Sec. 4.4 leaf treatment (see
  // RunArrangement). A trailing '*' cannot be expressed in an EP sequence
  // and also forces the regular index.
  bool trailing_star = false;
  for (uint32_t e = 0; e < twig.num_nodes(); ++e) {
    trailing_star |= twig.is_star(e);
  }
  if (twig.HasValue() && !trailing_star) return ep_;
  return rp_;
}

Result<QueryResult> QueryProcessor::Execute(const TwigPattern& pattern,
                                            const QueryOptions& options) const {
  if (options.semantics == MatchSemantics::kStandard) {
    return Status::InvalidArgument(
        "PRIX answers ordered or unordered-injective semantics");
  }
  if (pattern.empty()) return Status::InvalidArgument("empty twig pattern");

  // Per-query I/O accounting: every buffer-pool and disk charge made by
  // this thread while the context is open lands in `mctx.counters`, so the
  // numbers below are exact for this query regardless of what other
  // threads fault concurrently.
  MetricsContext mctx;
  // Publish the request deadline (if any) to this thread's checkpoints —
  // the matcher's range descents, the loops below, and the buffer pool's
  // miss path all call CheckDeadline() against it.
  ScopedDeadline deadline_scope(options.deadline);
  const uint64_t t_start = MetricsContext::NowMicros();

  QueryResult result;
  ExecContext ctx;

  EffectiveTwig base = EffectiveTwig::Build(pattern);
  const PrixIndex* index = ChooseIndex(base, options);
  if (index == nullptr) {
    return Status::InvalidArgument("no index available for this query");
  }
  result.stats.used_extended_index = index->extended();

  bool generalized = base.NeedsGeneralizedMatching();

  std::vector<EffectiveTwig> arrangements;
  if (options.semantics == MatchSemantics::kOrdered) {
    arrangements.push_back(base);
  } else {
    PRIX_ASSIGN_OR_RETURN(arrangements,
                          EnumerateArrangements(base, kArrangementLimit));
  }
  result.stats.arrangements = arrangements.size();

  // A one-node twig has no sequence to match: every live document is a
  // candidate, and the verify loop finds its nodes.
  const bool one_node = base.num_nodes() == 1;
  std::set<TwigMatch> match_set;
  for (const EffectiveTwig& arrangement : arrangements) {
    std::vector<TwigMatch> matches;
    std::vector<DocId> candidates;
    if (one_node) {
      LiveDocs(*index, &candidates);
    } else {
      PRIX_RETURN_NOT_OK(RunArrangement(index, arrangement, options,
                                        generalized, &ctx, &matches,
                                        &candidates, &result.stats));
    }
    for (auto& m : matches) match_set.insert(std::move(m));
    if (generalized || one_node) {
      TraceSpan span("verify");
      const uint64_t t0 = MetricsContext::NowMicros();
      SortUnique(&candidates);
      // Final phase for generalized and one-node queries: direct
      // embedding check on the reconstructed tree (parent array is the
      // NPS, Lemma 1).
      for (DocId doc : candidates) {
        PRIX_RETURN_NOT_OK(CheckDeadline());
        PRIX_ASSIGN_OR_RETURN(const RefinableDoc* rdoc,
                              LoadDoc(index, doc, &ctx, &result.stats));
        std::vector<uint32_t> parent;
        std::vector<LabelId> label;
        uint32_t n = 0;
        BuildOriginalArrays(*rdoc, index->extended(), &parent, &label, &n);
        ParentArrayMatcher matcher(parent, label, n);
        ++result.stats.docs_verified;
        for (auto& image :
             matcher.Match(arrangement, MatchSemantics::kOrdered)) {
          match_set.insert(TwigMatch{doc, std::move(image)});
        }
      }
      result.stats.verify_us += MetricsContext::NowMicros() - t0;
    }
  }
  result.matches.assign(match_set.begin(), match_set.end());

  result.docs.reserve(result.matches.size());
  for (const TwigMatch& m : result.matches) result.docs.push_back(m.doc);
  SortUnique(&result.docs);
  result.stats.pages_read = mctx.counters.physical_reads;
  result.stats.pages_written = mctx.counters.physical_writes;
  result.stats.pool_hits = mctx.counters.pool_hits;
  result.stats.pool_misses = mctx.counters.pool_misses;
  result.stats.btree_nodes = mctx.counters.btree_nodes;
  result.stats.total_us = MetricsContext::NowMicros() - t_start;
  RecordQueryInRegistry(result.stats);
  return result;
}

namespace {

/// A twig has branch-coincidence risk when two branches can embed into the
/// same child subtree of their parent's image in a way no monotone
/// subsequence witnesses. Closed-interval descent (SubsequenceMatcher's
/// generalized mode) covers coinciding SINGLE-node branches by repeating a
/// position; what remains unfixable is a non-first sibling branch with two
/// or more effective nodes when either its edge or an earlier sibling's
/// edge is not a plain '/': the deeper nodes of the later branch then map
/// to deletions BEFORE the earlier branch's matched top, breaking
/// monotonicity (see DESIGN.md). Exact twigs are never at risk.
bool HasBranchCoincidenceRisk(const EffectiveTwig& twig,
                              const std::vector<bool>& leaf_has_dummy) {
  // Subtree sizes in the SEQUENCE tree: a leaf that carries a dummy (all of
  // them on extended indexes; the Sec. 4.4-treated ones on regular indexes)
  // counts as two nodes and regains the risk (children have larger ids than
  // parents).
  const uint32_t n = static_cast<uint32_t>(twig.num_nodes());
  std::vector<uint32_t> size(n, 1);
  for (uint32_t e = n; e-- > 0;) {
    if (twig.node(e).children.empty() && leaf_has_dummy[e]) size[e] = 2;
    for (uint32_t c : twig.node(e).children) size[e] += size[c];
  }
  for (uint32_t e = 0; e < n; ++e) {
    const auto& kids = twig.node(e).children;
    for (size_t j = 1; j < kids.size(); ++j) {
      if (size[kids[j]] < 2) continue;
      bool later_nonsimple = twig.node(kids[j]).edge != EdgeSpec{1, true};
      bool earlier_nonsimple = false;
      for (size_t i = 0; i < j; ++i) {
        earlier_nonsimple |= twig.node(kids[i]).edge != EdgeSpec{1, true};
      }
      if (later_nonsimple || earlier_nonsimple) return true;
    }
  }
  return false;
}

/// Root-to-leaf path used as the sound filter for risky twigs: prefer the
/// branch holding a value (highest selectivity, Sec. 5.6), then the deepest
/// branch. For extended indexes a trailing-'*' tail is cut off.
std::vector<uint32_t> ChooseSpine(const EffectiveTwig& twig, bool extended) {
  const uint32_t n = static_cast<uint32_t>(twig.num_nodes());
  std::vector<bool> has_value(n, false);
  std::vector<uint32_t> depth(n, 1);
  // Children have larger ids than parents (construction order), so a
  // reverse pass aggregates subtrees.
  for (uint32_t e = n; e-- > 0;) {
    if (twig.node(e).is_value) has_value[e] = true;
    for (uint32_t c : twig.node(e).children) {
      has_value[e] = has_value[e] || has_value[c];
      depth[e] = std::max(depth[e], depth[c] + 1);
    }
  }
  std::vector<uint32_t> path = {twig.root()};
  uint32_t cur = twig.root();
  while (!twig.node(cur).children.empty()) {
    uint32_t best = twig.node(cur).children[0];
    for (uint32_t c : twig.node(cur).children) {
      auto rank = [&](uint32_t x) {
        return std::make_tuple(has_value[x], depth[x]);
      };
      if (rank(c) > rank(best)) best = c;
    }
    path.push_back(best);
    cur = best;
  }
  if (extended) {
    while (path.size() > 1 && twig.is_star(path.back())) path.pop_back();
  }
  return path;
}

}  // namespace

Status QueryProcessor::RunArrangement(
    const PrixIndex* index, const EffectiveTwig& twig,
    const QueryOptions& options, bool generalized, ExecContext* ctx,
    std::vector<TwigMatch>* matches, std::vector<DocId>* candidates,
    QueryStats* stats) const {
  // Sec. 4.4 leaf treatment on regular indexes: give a query element leaf a
  // dummy (so its label is checked during subsequence matching) whenever
  // its label never occurs childless in the collection. Value and '*'
  // leaves stay in the leaf-refinement phase.
  auto extend_mask = [&](const EffectiveTwig& t) {
    std::vector<bool> mask(t.num_nodes(), index->extended());
    if (!index->extended()) {
      for (uint32_t e = 0; e < t.num_nodes(); ++e) {
        mask[e] = t.node(e).children.empty() && !t.is_star(e) &&
                  !t.node(e).is_value &&
                  !index->LabelOccursChildless(t.node(e).label);
      }
    }
    return mask;
  };

  const EffectiveTwig* filter_twig = &twig;
  EffectiveTwig spine;
  std::vector<bool> mask = extend_mask(twig);
  if (generalized &&
      options.wildcard_filter == QueryOptions::WildcardFilter::kSound &&
      HasBranchCoincidenceRisk(twig, mask)) {
    std::vector<uint32_t> path = ChooseSpine(twig, index->extended());
    if (path.size() < 2) {
      // Degenerate spine (e.g. lone '*' tail on an extended index): every
      // live document is a candidate; verification does the filtering.
      LiveDocs(*index, candidates);
      return Status::OK();
    }
    spine = twig.ExtractPath(path);
    filter_twig = &spine;
    mask = extend_mask(spine);
  }
  std::vector<bool>* rp_mask = index->extended() ? nullptr : &mask;
  PRIX_ASSIGN_OR_RETURN(
      QuerySequence qseq,
      BuildQuerySequence(*filter_twig, index->extended(), rp_mask));
  SubsequenceMatcher matcher(index, options.use_maxgap, generalized);
  // Phase attribution: FindAll wall time is subsequence matching; the time
  // spent inside the emit callback (doc loads + refinement) is refinement
  // and is subtracted back out of the match phase.
  uint64_t emit_us = 0;
  auto emit = [&](const std::vector<DocId>& docs,
                  const std::vector<uint32_t>& positions) -> Status {
    const uint64_t t0 = MetricsContext::NowMicros();
    Status st = [&]() -> Status {
      for (DocId doc : docs) {
        PRIX_ASSIGN_OR_RETURN(const RefinableDoc* rdoc,
                              LoadDoc(index, doc, ctx, stats));
        PRIX_ASSIGN_OR_RETURN(bool refined,
                              RefineCandidate(*rdoc, qseq, positions,
                                              generalized, &stats->refine));
        if (!refined) continue;
        if (generalized) {
          candidates->push_back(doc);
        } else {
          matches->push_back(TwigMatch{
              doc, ExtractImage(*rdoc, qseq, positions, twig.num_nodes())});
        }
      }
      return Status::OK();
    }();
    emit_us += MetricsContext::NowMicros() - t0;
    return st;
  };
  TraceSpan span("match+refine");
  const uint64_t t_find = MetricsContext::NowMicros();
  Status st = matcher.FindAll(qseq, emit, &stats->matcher);
  const uint64_t find_us = MetricsContext::NowMicros() - t_find;
  stats->refine_us += emit_us;
  stats->match_us += find_us > emit_us ? find_us - emit_us : 0;
  return st;
}

Result<const RefinableDoc*> QueryProcessor::LoadDoc(const PrixIndex* index,
                                                    DocId doc,
                                                    ExecContext* ctx,
                                                    QueryStats* stats) {
  auto& cache = ctx->doc_cache;
  auto it = cache.find(doc);
  if (it != cache.end()) return &it->second;
  if (cache.size() >= kDocCacheCap) cache.clear();
  PRIX_ASSIGN_OR_RETURN(StoredDoc stored, index->docs().Load(doc));
  ++stats->docs_loaded;
  auto [pos, inserted] = cache.emplace(
      doc, RefinableDoc::Make(std::move(stored), index->extended()));
  return &pos->second;
}

}  // namespace prix
