#ifndef PRIX_PRIX_SNAPSHOT_VIEW_H_
#define PRIX_PRIX_SNAPSHOT_VIEW_H_

#include <memory>
#include <string>
#include <typeinfo>

#include "common/macros.h"
#include "common/result.h"
#include "db/database.h"
#include "prix/prix_index.h"

namespace prix {

/// Counts one real index open in the registry (prix.db.index_opens).
void CountIndexOpen();

/// The index memoized in `snapshot` under its catalog name `name`. Only
/// the first caller at a generation opens it, with `open(entry)` on the
/// snapshot's catalog entry; every later caller shares that read-only
/// object, which lives as long as the snapshot. SnapshotView (PRIX) and
/// Engines (ViST, the stream store, the XB-forest) open through it. The
/// slot is keyed on `T` as well as the name, so asking for a name as the
/// wrong type runs that type's open, which refuses the entry's kind.
template <typename T, typename OpenFromEntry>
Result<std::shared_ptr<const T>> OpenMemoized(const Snapshot& snapshot,
                                              const std::string& name,
                                              const OpenFromEntry& open) {
  auto open_erased = [&]() -> Result<std::shared_ptr<const void>> {
    PRIX_ASSIGN_OR_RETURN(Database::IndexEntry entry, snapshot.GetIndex(name));
    PRIX_ASSIGN_OR_RETURN(std::unique_ptr<T> opened, open(entry));
    CountIndexOpen();
    return std::shared_ptr<const void>(std::move(opened));
  };
  PRIX_ASSIGN_OR_RETURN(std::shared_ptr<const void> memo,
                        snapshot.Memoize(name + '/' + typeid(T).name(),
                                         open_erased));
  return std::static_pointer_cast<const T>(memo);
}

/// A PRIX index opened against one pinned catalog generation (DESIGN.md
/// §5i). Readers that must stay consistent while writers commit open a
/// SnapshotView instead of PrixIndex::Open: the view resolves the index
/// root through a Database::Snapshot and keeps that snapshot alive, so
/// every page the query touches — tree nodes, doc records, the catalog
/// blob — is protected from recycling until the view is destroyed. The
/// result set of any query run through the view is exactly the pinned
/// generation's answer, never a mix of generations.
///
/// The index itself is memoized in the snapshot: the first view of a name
/// at a generation decodes the index catalog (milliseconds on a large
/// collection), every later view of that generation shares the same
/// read-only PrixIndex. Views and the index they share are safe to use
/// from any number of reader threads at once.
class SnapshotView {
 public:
  /// Opens the named index out of a pinned snapshot (several views share
  /// one snapshot when a batch queries multiple indexes), decoding it only
  /// if no earlier view of this snapshot did. The Database must outlive
  /// the view.
  static Result<SnapshotView> OpenAt(Database* db,
                                     std::shared_ptr<const Snapshot> snapshot,
                                     const std::string& index_name);

  SnapshotView(SnapshotView&&) = default;
  SnapshotView& operator=(SnapshotView&&) = default;

  const PrixIndex* index() const { return index_.get(); }
  const Snapshot& snapshot() const { return *snapshot_; }
  uint64_t generation() const { return snapshot_->generation(); }

 private:
  SnapshotView(std::shared_ptr<const Snapshot> snapshot,
               std::shared_ptr<const PrixIndex> index)
      : snapshot_(std::move(snapshot)), index_(std::move(index)) {}

  std::shared_ptr<const Snapshot> snapshot_;  ///< pin released on destruction
  std::shared_ptr<const PrixIndex> index_;    ///< owned by snapshot_'s memo
};

}  // namespace prix

#endif  // PRIX_PRIX_SNAPSHOT_VIEW_H_
