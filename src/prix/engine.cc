#include "prix/engine.h"

#include <algorithm>
#include <utility>

#include "common/deadline.h"
#include "common/macros.h"
#include "common/metrics.h"
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
  return result;
}

}  // namespace prix
