#ifndef PRIX_PRIX_QUERY_DRIVER_H_
#define PRIX_PRIX_QUERY_DRIVER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "prix/engine.h"
#include "prix/query_processor.h"

namespace prix {

/// Result of a batch run: per-query results in submission order plus the
/// batch-wide stats aggregate (QueryStats::MergeFrom over all queries).
/// `generation` is the catalog generation the batch ran against — the
/// pinned snapshot's for ExecuteXPathBatchSnapshot, 0 for ExecuteBatch's
/// live indexes (which predate generations and never mix with writers).
struct BatchResult {
  std::vector<QueryResult> results;
  QueryStats total;
  uint64_t generation = 0;
};

/// Multi-threaded query driver: N workers execute a batch of parsed twig
/// queries against shared read-only PrixIndexes over the thread-safe buffer
/// pool. Each worker task runs one query through its own stack-local
/// execution state (QueryProcessor is stateless), so the only cross-thread
/// coordination is the buffer pool's shard latches and the work queue.
///
/// The driver owns its thread pool; one driver can serve many batches.
/// The constructor-supplied indexes must be fully built before the first
/// batch and never mutated while one runs — the single-writer rule of
/// DESIGN.md. To query concurrently WITH a writer, or with an engine other
/// than PRIX, use ExecuteXPathBatchSnapshot, which ignores the constructor
/// indexes and answers from a pinned catalog generation instead. Its XPath
/// queries parse inside the workers (Intern is thread-safe), so submission
/// is O(1) in query count.
class QueryDriver {
 public:
  QueryDriver(Database& db, const PrixIndex* rp, const PrixIndex* ep,
              size_t num_threads)
      : db_(&db), processor_(db, rp, ep), pool_(num_threads) {}

  /// Executes `patterns[i]` into `results[i]`. All queries run to
  /// completion; the first error in submission order wins, if any.
  Result<BatchResult> ExecuteBatch(const std::vector<TwigPattern>& patterns,
                                   const QueryOptions& options = {});

  /// Snapshot-isolated batch (DESIGN.md §5i): pins the current committed
  /// generation and answers the whole batch with `kind`'s engine through
  /// one Engines handle (prix/engine.h), which opens each engine once per
  /// generation; `names` are the PRIX indexes to answer from. Each worker
  /// parses its query, interning into `dict` concurrently. A concurrent
  /// writer's commits never change any answer mid-batch; the generation
  /// answered from is returned in the result.
  Result<BatchResult> ExecuteXPathBatchSnapshot(
      EngineKind kind, const PrixIndexNames& names,
      const std::vector<std::string>& xpaths, TagDictionary* dict,
      const QueryOptions& options = {});

  size_t num_threads() const { return pool_.num_threads(); }

 private:
  using RunFn = std::function<Result<QueryResult>(size_t)>;

  /// The one fan-out body: query i's result is `run(i)`, on a worker. All
  /// queries run to completion; the first error in submission order wins.
  Result<BatchResult> RunBatch(size_t n, const RunFn& run);

  Database* db_;
  QueryProcessor processor_;
  ThreadPool pool_;
};

}  // namespace prix

#endif  // PRIX_PRIX_QUERY_DRIVER_H_
