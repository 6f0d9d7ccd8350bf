#include "prix/snapshot_view.h"

#include <utility>

#include "common/metrics.h"

namespace prix {

void CountIndexOpen() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  if (reg.enabled()) reg.counter("prix.db.index_opens").Add(1);
}

Result<SnapshotView> SnapshotView::OpenAt(
    Database* db, std::shared_ptr<const Snapshot> snapshot,
    const std::string& index_name) {
  auto open = [db](const Database::IndexEntry& entry) {
    return PrixIndex::OpenFromEntry(db->pool(), entry);
  };
  PRIX_ASSIGN_OR_RETURN(std::shared_ptr<const PrixIndex> index,
                        OpenMemoized<PrixIndex>(*snapshot, index_name, open));
  return SnapshotView(std::move(snapshot), std::move(index));
}

}  // namespace prix
