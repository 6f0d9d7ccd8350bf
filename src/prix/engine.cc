#include "prix/engine.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <string>
#include <utility>

#include "common/deadline.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "query/xpath_parser.h"
#include "twigstack/position_stream.h"
#include "twigstack/twig_stack.h"
#include "vist/vist_index.h"
#include "vist/vist_query.h"

namespace prix {

const char* EngineKindName(EngineKind kind) {
  static constexpr const char* kNames[] = {"prix", "vist", "twigstack",
                                           "twigstackxb"};
  return kNames[static_cast<int>(kind)];
}

namespace {

/// Folds one ViST, TwigStack or TwigStackXB query into the process-wide
/// registry under `<engine>.query.*` (no-op unless enabled). PRIX records
/// its own `prix.query.*` in QueryProcessor::Execute, which callers also
/// reach without an Engines handle.
void RecordQueryInRegistry(EngineKind kind, const QueryStats& s) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  if (!reg.enabled()) return;
  struct Meters {
    MetricHistogram* total_us;
    MetricHistogram* pages_read;
    MetricHistogram* btree_nodes;
    MetricCounter* count;
  };
  static const auto meters = [&reg] {
    std::array<Meters, std::size(kAllEngineKinds)> m;
    for (EngineKind k : kAllEngineKinds) {
      const std::string prefix = std::string(EngineKindName(k)) + ".query.";
      m[static_cast<int>(k)] = Meters{&reg.histogram(prefix + "total_us"),
                                      &reg.histogram(prefix + "pages_read"),
                                      &reg.histogram(prefix + "btree_nodes"),
                                      &reg.counter(prefix + "count")};
    }
    return m;
  }();
  const Meters& m = meters[static_cast<int>(kind)];
  m.total_us->Record(s.total_us);
  m.pages_read->Record(s.pages_read);
  m.btree_nodes->Record(s.btree_nodes);
  m.count->Add(1);
}

}  // namespace

Result<const QueryProcessor*> Engines::Prix() const {
  std::call_once(prix_once_, [this] {
    auto rp = SnapshotView::OpenAt(db_, snapshot_, names_.rp);
    if (!rp.ok()) {
      prix_status_ = rp.status();
      return;
    }
    rp_.emplace(std::move(*rp));
    if (!names_.ep.empty()) {
      auto ep = SnapshotView::OpenAt(db_, snapshot_, names_.ep);
      if (!ep.ok()) {
        prix_status_ = ep.status();
        return;
      }
      ep_.emplace(std::move(*ep));
    }
    prix_.emplace(*db_, rp_->index(), ep_ ? ep_->index() : nullptr);
  });
  PRIX_RETURN_NOT_OK(prix_status_);
  return &*prix_;
}

Result<QueryResult> Engines::Execute(EngineKind kind,
                                     const TwigPattern& pattern,
                                     const QueryOptions& options) const {
  if (kind == EngineKind::kPrix) {
    // QueryProcessor::Execute opens the query's MetricsContext and deadline.
    PRIX_ASSIGN_OR_RETURN(const QueryProcessor* prix, Prix());
    return prix->Execute(pattern, options);
  }
  BufferPool* pool = db_->pool();
  std::shared_ptr<const VistIndex> vist;
  std::shared_ptr<const StreamStore> streams;
  std::shared_ptr<const XbForest> forest;
  if (kind == EngineKind::kVist) {
    auto open = [pool](const Database::IndexEntry& entry) {
      return VistIndex::OpenFromEntry(pool, entry);
    };
    PRIX_ASSIGN_OR_RETURN(
        vist, OpenMemoized<VistIndex>(*snapshot_, "v", open));
  } else {
    auto open = [pool](const Database::IndexEntry& entry) {
      return StreamStore::OpenFromEntry(pool, entry);
    };
    PRIX_ASSIGN_OR_RETURN(
        streams, OpenMemoized<StreamStore>(*snapshot_, "ts", open));
  }
  if (kind == EngineKind::kTwigStackXB) {
    const StreamStore* store = streams.get();
    auto open = [pool, store](const Database::IndexEntry& entry) {
      return XbForest::OpenFromEntry(pool, entry, store);
    };
    PRIX_ASSIGN_OR_RETURN(
        forest, OpenMemoized<XbForest>(*snapshot_, "xb", open));
  }

  // The same per-query scope QueryProcessor::Execute opens for PRIX.
  MetricsContext mctx;
  ScopedDeadline deadline_scope(options.deadline);
  const uint64_t t_start = MetricsContext::NowMicros();
  QueryResult result;
  if (vist != nullptr) {
    PRIX_ASSIGN_OR_RETURN(
        VistQueryResult r,
        VistQueryProcessor(vist.get()).Execute(pattern, options.semantics));
    result.matches = std::move(r.matches);
    result.docs = std::move(r.docs);
    result.stats.vist = r.stats;
  } else {
    PRIX_ASSIGN_OR_RETURN(
        TwigStackResult r,
        TwigStackEngine(streams.get(), forest.get()).Execute(pattern));
    result.matches = std::move(r.matches);
    result.docs = std::move(r.docs);
    result.stats.twigstack = r.stats;
  }
  std::sort(result.docs.begin(), result.docs.end());
  result.docs.erase(std::unique(result.docs.begin(), result.docs.end()),
                    result.docs.end());
  result.stats.pages_read = mctx.counters.physical_reads;
  result.stats.pages_written = mctx.counters.physical_writes;
  result.stats.pool_hits = mctx.counters.pool_hits;
  result.stats.pool_misses = mctx.counters.pool_misses;
  result.stats.btree_nodes = mctx.counters.btree_nodes;
  result.stats.total_us = MetricsContext::NowMicros() - t_start;
  RecordQueryInRegistry(kind, result.stats);
  return result;
}

Result<BatchResult> ExecuteXPathBatch(Database* db, EngineKind kind,
                                      const PrixIndexNames& names,
                                      const std::vector<std::string>& xpaths,
                                      TagDictionary* dict,
                                      const QueryOptions& options) {
  const Engines engines(db, db->OpenSnapshot(), names);
  BatchResult batch;
  batch.generation = engines.generation();
  batch.results.reserve(xpaths.size());
  for (const std::string& xpath : xpaths) {
    PRIX_ASSIGN_OR_RETURN(TwigPattern pattern, ParseXPath(xpath, dict));
    PRIX_ASSIGN_OR_RETURN(QueryResult result,
                          engines.Execute(kind, pattern, options));
    batch.results.push_back(std::move(result));
  }
  return batch;
}

}  // namespace prix
