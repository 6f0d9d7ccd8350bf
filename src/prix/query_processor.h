#ifndef PRIX_PRIX_QUERY_PROCESSOR_H_
#define PRIX_PRIX_QUERY_PROCESSOR_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/deadline.h"
#include "db/database.h"
#include "naive/naive_matcher.h"
#include "prix/prix_index.h"
#include "prix/refinement.h"
#include "prix/subsequence_matcher.h"
#include "query/twig_pattern.h"
#include "query/twig_prufer.h"
#include "twigstack/twig_stack.h"
#include "vist/vist_query.h"

namespace prix {

/// Per-query execution knobs.
struct QueryOptions {
  /// kOrdered (Sec. 4) or kUnorderedInjective (Sec. 5.7, arrangement
  /// enumeration). kStandard is not a PRIX semantics and is rejected.
  MatchSemantics semantics = MatchSemantics::kOrdered;

  enum class IndexChoice { kAuto, kRegular, kExtended };
  /// kAuto picks the EPIndex for queries with values when one exists
  /// (Sec. 5.6), the RPIndex otherwise.
  IndexChoice index = IndexChoice::kAuto;

  /// Apply the MaxGap upper-bounding metric during subsequence matching
  /// (Sec. 5.4). Off only for the ablation bench.
  bool use_maxgap = true;

  /// Filtering strategy for wildcard twigs at branch-coincidence risk (see
  /// DESIGN.md): kSound falls back to a root-to-leaf spine filter and never
  /// misses a document; kFullTwig filters with the whole twig sequence (the
  /// paper's strategy) — cheaper, but a document whose only embeddings nest
  /// two multi-node '//' branches inside one child subtree is missed.
  enum class WildcardFilter { kSound, kFullTwig };
  WildcardFilter wildcard_filter = WildcardFilter::kSound;

  /// Optional per-request deadline + cancel token (common/deadline.h). When
  /// set, Execute installs it on the executing thread for its whole run, so
  /// every engine checkpoint — range descents, per-document verification,
  /// buffer-pool misses — can stop the query with DeadlineExceeded or
  /// Cancelled. Must outlive the call; nullptr (the default) costs nothing.
  const Deadline* deadline = nullptr;
};

/// Execution counters of one query, aggregated across arrangements. Every
/// engine fills the I/O counters and `total_us` (prix/engine.h); the work
/// counters are per engine: PRIX's in `matcher`, `refine` and the phase
/// times, ViST's in `vist`, TwigStack's and TwigStackXB's in `twigstack`.
struct QueryStats {
  MatcherStats matcher;
  RefineStats refine;
  VistQueryStats vist;
  TwigStackStats twigstack;
  uint64_t docs_loaded = 0;
  uint64_t docs_verified = 0;
  uint64_t arrangements = 0;
  /// I/O attribution, read out of the thread-local MetricsContext that
  /// Execute opens (common/metrics.h): the storage layer charges the
  /// context on every pool hit/miss and physical transfer, so these are
  /// EXACT for this query — its own I/O and nothing else — no matter how
  /// many other queries fault pages concurrently. `pages_read` is the
  /// paper's "Disk IO" column.
  uint64_t pages_read = 0;     ///< physical page reads for this query
  uint64_t pages_written = 0;  ///< physical page writes for this query
  uint64_t pool_hits = 0;      ///< buffer-pool hits for this query
  uint64_t pool_misses = 0;    ///< buffer-pool misses for this query
  uint64_t btree_nodes = 0;    ///< B+-tree nodes visited for this query
  /// Phase latencies (wall microseconds), mirroring the phases the paper
  /// times (Sec. 6): subsequence matching, refinement, and — for
  /// generalized queries — document verification. `total_us` spans the
  /// whole Execute; the phases need not sum to it (setup, arrangement
  /// enumeration, and result assembly are outside all three).
  uint64_t match_us = 0;
  uint64_t refine_us = 0;
  uint64_t verify_us = 0;
  uint64_t total_us = 0;
  bool used_extended_index = false;
};

/// Query answer: all twig matches (images over effective-twig nodes, as
/// ORIGINAL postorder numbers) and the distinct matching documents.
struct QueryResult {
  std::vector<TwigMatch> matches;  // sorted, deduplicated
  std::vector<DocId> docs;         // sorted, distinct
  QueryStats stats;
};

/// PRIX query execution (Fig. 3, right side): twig -> Prüfer sequence ->
/// filtering by subsequence matching -> refinement phases -> matches.
/// Queries needing generalized matching ('//', '*', exact anchors) use the
/// sequence machinery as the I/O-bound filter and a direct embedding check
/// on each surviving document as the final phase (see DESIGN.md Sec. 5).
///
/// Thread safety: a QueryProcessor holds only pointers to read-only indexes
/// plus the Database they live in; all per-query scratch (the loaded-document
/// cache) lives on the Execute stack. Concurrent Execute calls on one shared
/// instance are safe over fully built indexes, and ExecuteXPath is too:
/// TagDictionary::Intern is internally synchronized.
class QueryProcessor {
 public:
  /// `ep` may be null; both indexes must be built over the same collection
  /// and backed by `db`'s buffer pool. Execute opens a thread-local
  /// MetricsContext around each query, so the I/O counters in QueryStats
  /// are exact per query even under concurrent execution.
  QueryProcessor(Database& db, const PrixIndex* rp, const PrixIndex* ep)
      : db_(&db), rp_(rp), ep_(ep) {}

  Result<QueryResult> Execute(const TwigPattern& pattern,
                              const QueryOptions& options = {}) const;

  /// Parses `xpath` against `dict` and executes it.
  Result<QueryResult> ExecuteXPath(std::string_view xpath,
                                   TagDictionary* dict,
                                   const QueryOptions& options = {}) const;

 private:
  /// Per-Execute scratch: the cache of documents loaded for refinement.
  /// Stack-owned by Execute, so the processor itself stays stateless.
  struct ExecContext {
    std::unordered_map<DocId, RefinableDoc> doc_cache;
  };

  const PrixIndex* ChooseIndex(const EffectiveTwig& twig,
                               const QueryOptions& options) const;

  /// Runs one arrangement through filter + refine. Exact queries append
  /// matches directly; generalized queries record candidate documents into
  /// `candidates` for later verification.
  Status RunArrangement(const PrixIndex* index, const EffectiveTwig& twig,
                        const QueryOptions& options, bool generalized,
                        ExecContext* ctx, std::vector<TwigMatch>* matches,
                        std::vector<DocId>* candidates,
                        QueryStats* stats) const;

  static Result<const RefinableDoc*> LoadDoc(const PrixIndex* index,
                                             DocId doc, ExecContext* ctx,
                                             QueryStats* stats);

  Database* db_;
  const PrixIndex* rp_;
  const PrixIndex* ep_;
};

}  // namespace prix

#endif  // PRIX_PRIX_QUERY_PROCESSOR_H_
