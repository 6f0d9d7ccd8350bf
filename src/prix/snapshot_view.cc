#include "prix/snapshot_view.h"

#include <utility>

#include "common/macros.h"
#include "common/metrics.h"

namespace prix {

Result<SnapshotView> SnapshotView::OpenAt(
    Database* db, std::shared_ptr<const Snapshot> snapshot,
    const std::string& index_name) {
  auto open = [&]() -> Result<std::shared_ptr<const void>> {
    PRIX_ASSIGN_OR_RETURN(Database::IndexEntry entry,
                          snapshot->GetIndex(index_name));
    PRIX_ASSIGN_OR_RETURN(std::unique_ptr<PrixIndex> index,
                          PrixIndex::OpenFromEntry(db->pool(), entry));
    MetricsRegistry& reg = MetricsRegistry::Global();
    if (reg.enabled()) reg.counter("prix.db.index_opens").Add(1);
    return std::shared_ptr<const void>(std::move(index));
  };
  PRIX_ASSIGN_OR_RETURN(std::shared_ptr<const void> memo,
                        snapshot->Memoize(index_name, open));
  return SnapshotView(std::move(snapshot),
                      std::static_pointer_cast<const PrixIndex>(memo));
}

}  // namespace prix
