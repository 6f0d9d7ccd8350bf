#ifndef PRIX_TWIGSTACK_TWIG_STACK_H_
#define PRIX_TWIGSTACK_TWIG_STACK_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "naive/naive_matcher.h"
#include "query/twig_pattern.h"
#include "twigstack/merge.h"
#include "twigstack/position_stream.h"
#include "twigstack/xb_tree.h"

namespace prix {

/// Prebuilt XB-trees for every tag stream of a dataset (built once at
/// indexing time, like the streams themselves).
class XbForest {
 public:
  /// Builds one tree per stream the store holds, in ascending label order,
  /// and flushes the pool once at the end.
  static Result<std::unique_ptr<XbForest>> Build(const StreamStore* store);

  /// The same build; kept for callers that still pass their dictionary
  /// (perfbench/hold.cc). Every stream's label is in the dictionary.
  static Result<std::unique_ptr<XbForest>> Build(const StreamStore* store,
                                                 const TagDictionary& dict) {
    (void)dict;
    return Build(store);
  }

  /// Registers the forest's level directory in `db`'s catalog under `name`
  /// (kind kXbForest). The internal pages were written at Build time.
  Status Save(Database* db, const std::string& name) const;

  /// Reopens a saved forest over `store` (which must be the stream store
  /// the forest was built from, reopened from the same database).
  static Result<std::unique_ptr<XbForest>> Open(Database* db,
                                                const std::string& name,
                                                const StreamStore* store);

  /// Reopens a forest from a catalog entry directly — the snapshot read
  /// path and the ingest acquire path. The kind check happens here; Open
  /// delegates.
  static Result<std::unique_ptr<XbForest>> OpenFromEntry(
      BufferPool* pool, const Database::IndexEntry& entry,
      const StreamStore* store);

  /// Replaces `label`'s tree with one freshly built over the stream's
  /// current pages and tombstones — the ingest path's bounded rebuild: an
  /// insert or delete re-buckets only the touched tag streams. Old internal
  /// pages go to `cow->freed`; new ones are registered fresh.
  Status RebuildTree(LabelId label, const StreamStore* store, CowContext* cow);

  /// Serializes the level directory into `blob` — what Save writes, exposed
  /// so a write transaction can publish through Database::CommitBatch.
  void SerializeCatalog(std::vector<char>* blob) const;

  /// Null when the label has no stream.
  const XbTree* Find(LabelId label) const {
    auto it = trees_.find(label);
    return it == trees_.end() ? nullptr : it->second.get();
  }
  uint64_t internal_pages() const { return internal_pages_; }

 private:
  std::unordered_map<LabelId, std::unique_ptr<XbTree>> trees_;
  uint64_t internal_pages_ = 0;
};

struct TwigStackStats {
  uint64_t elements_processed = 0;  ///< elements consumed from streams
  uint64_t advances = 0;            ///< cursor advance operations
  uint64_t drilldowns = 0;          ///< XB drilldowns (TwigStackXB only)
  uint64_t path_solutions = 0;
  uint64_t join_rows = 0;           ///< merge post-processing work
};

struct TwigStackResult {
  std::vector<TwigMatch> matches;  ///< standard twig-join semantics
  std::vector<DocId> docs;
  TwigStackStats stats;
};

/// Holistic twig join of Bruno et al. [5]: chained stacks over sorted
/// positional streams, with optional XB-trees for sub-stream skipping
/// (TwigStackXB). Produces complete twig matches after the merge
/// post-processing step. Query twigs may use '/' and '//' axes and folded
/// '*' chains; trailing '*' nodes are not supported.
class TwigStackEngine {
 public:
  /// `forest` enables TwigStackXB; pass null for plain TwigStack.
  TwigStackEngine(const StreamStore* store, const XbForest* forest)
      : store_(store), forest_(forest) {}

  Result<TwigStackResult> Execute(const TwigPattern& pattern);

 private:
  struct StackEntry {
    ElementPos elem;
    int parent_top;  // index of the parent stack's top at push time
  };

  class Run;  // per-execution state

  const StreamStore* store_;
  const XbForest* forest_;
};

}  // namespace prix

#endif  // PRIX_TWIGSTACK_TWIG_STACK_H_
