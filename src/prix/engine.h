#ifndef PRIX_PRIX_ENGINE_H_
#define PRIX_PRIX_ENGINE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/database.h"
#include "prix/query_processor.h"
#include "prix/snapshot_view.h"
#include "query/twig_pattern.h"

namespace prix {

/// The engines one database carries: PRIX and the paper's comparison
/// systems (Sec. 6), ViST and TwigStack with and without XB-trees.
enum class EngineKind { kPrix, kVist, kTwigStack, kTwigStackXB };

inline constexpr EngineKind kAllEngineKinds[] = {
    EngineKind::kPrix, EngineKind::kVist, EngineKind::kTwigStack,
    EngineKind::kTwigStackXB};

/// "prix", "vist", "twigstack", "twigstackxb": the `prix query --engine`
/// names.
const char* EngineKindName(EngineKind kind);

/// Catalog names of the two PRIX indexes. With `ep` empty, PRIX answers
/// from `rp` alone. The other engines answer from the fixed names
/// `prix index` saves them under: "v" (ViST), "ts" (TwigStack's streams)
/// and "xb" (the XB-forest over them).
struct PrixIndexNames {
  std::string rp = "rp";
  std::string ep = "ep";
};

/// Every engine of one pinned catalog generation behind one call
/// (DESIGN.md §5i). An engine is opened the first time any reader of the
/// generation asks for it, and only then: its index is memoized in the
/// snapshot (OpenMemoized), so every handle and thread at that generation
/// shares one open, and a PRIX-only reader never decodes the ViST, stream
/// or XB catalogs. TwigStackXB opens the XB-forest over TwigStack's
/// stream store. A handle is cheap to make and safe to share between
/// threads; make one per batch, not per query, since it resolves PRIX's
/// views once for all of its queries.
class Engines {
 public:
  Engines(Database* db, std::shared_ptr<const Snapshot> snapshot,
          PrixIndexNames names = {})
      : db_(db), snapshot_(std::move(snapshot)), names_(std::move(names)) {}

  /// Answers `pattern` with `kind`'s engine. Every engine returns sorted,
  /// distinct `docs`, its own `matches`, and QueryStats whose I/O counters
  /// and `total_us` are exact for this query: each runs inside its own
  /// MetricsContext, with `options.deadline` installed. The rest of
  /// `options` steers PRIX; ViST takes only `semantics`, and TwigStack(XB)
  /// answers the standard twig-join semantics. An engine's first open at
  /// the generation happens before its context, so it is not charged.
  Result<QueryResult> Execute(EngineKind kind, const TwigPattern& pattern,
                              const QueryOptions& options = {}) const;

  uint64_t generation() const { return snapshot_->generation(); }

 private:
  /// Resolves `rp`/`ep` through the snapshot's memo on the handle's first
  /// PRIX query; later queries reuse the processor without taking the
  /// memo's locks.
  Result<const QueryProcessor*> Prix() const;

  Database* db_;
  std::shared_ptr<const Snapshot> snapshot_;
  PrixIndexNames names_;

  mutable std::once_flag prix_once_;
  mutable Status prix_status_;
  mutable std::optional<SnapshotView> rp_, ep_;
  mutable std::optional<QueryProcessor> prix_;
};

/// Answers of one batch, in submission order, and the catalog generation
/// every one of them was answered from.
struct BatchResult {
  std::vector<QueryResult> results;
  uint64_t generation = 0;
};

/// Snapshot-isolated batch (DESIGN.md §5i), on the calling thread: pins the
/// current committed generation, then parses each XPath (interning into
/// `dict`, which is thread-safe) and answers it with `kind`'s engine
/// through one Engines handle, in order. Stops at the first error and
/// returns it. A concurrent writer's commits never change any answer
/// mid-batch. Callers that want parallelism run batches, or queries over
/// one shared handle, on their own threads.
Result<BatchResult> ExecuteXPathBatch(Database* db, EngineKind kind,
                                      const PrixIndexNames& names,
                                      const std::vector<std::string>& xpaths,
                                      TagDictionary* dict,
                                      const QueryOptions& options = {});

}  // namespace prix

#endif  // PRIX_PRIX_ENGINE_H_
