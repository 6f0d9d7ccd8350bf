#include "prix/query_driver.h"

#include <utility>

#include "common/macros.h"
#include "query/xpath_parser.h"

namespace prix {

Result<BatchResult> QueryDriver::RunBatch(size_t n, const RunFn& run) {
  BatchResult batch;
  batch.results.resize(n);
  std::vector<std::future<Status>> futures;
  futures.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Workers write disjoint slots; the future join publishes them.
    futures.push_back(pool_.Submit([&run, &batch, i] {
      PRIX_ASSIGN_OR_RETURN(batch.results[i], run(i));
      return Status::OK();
    }));
  }
  Status first_error;
  for (size_t i = 0; i < futures.size(); ++i) {
    Status st = futures[i].get();
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  PRIX_RETURN_NOT_OK(first_error);
  for (const QueryResult& r : batch.results) batch.total.MergeFrom(r.stats);
  return batch;
}

Result<BatchResult> QueryDriver::ExecuteBatch(
    const std::vector<TwigPattern>& patterns, const QueryOptions& options) {
  return RunBatch(patterns.size(), [&](size_t i) {
    return processor_.Execute(patterns[i], options);
  });
}

Result<BatchResult> QueryDriver::ExecuteXPathBatchSnapshot(
    EngineKind kind, const PrixIndexNames& names,
    const std::vector<std::string>& xpaths, TagDictionary* dict,
    const QueryOptions& options) {
  // One snapshot pins every engine to the same generation; the handle (and
  // with it the pin) lives until every worker has joined.
  const Engines engines(db_, db_->OpenSnapshot(), names);
  PRIX_ASSIGN_OR_RETURN(
      BatchResult batch,
      RunBatch(xpaths.size(), [&](size_t i) -> Result<QueryResult> {
        // Intern is thread-safe, so workers parse their own queries.
        PRIX_ASSIGN_OR_RETURN(TwigPattern pattern,
                              ParseXPath(xpaths[i], dict));
        return engines.Execute(kind, pattern, options);
      }));
  batch.generation = engines.generation();
  return batch;
}

}  // namespace prix
