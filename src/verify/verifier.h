#ifndef PRIX_VERIFY_VERIFIER_H_
#define PRIX_VERIFY_VERIFIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/page.h"
#include "xml/document.h"

namespace prix {

/// One fault found by the scrub: the page it was detected on (kInvalidPage
/// when the fault is not page-specific), the catalog entry it belongs to
/// ("" for file-level faults), a structural context such as a B+-tree node
/// path, and the detecting Status' message.
struct VerifyIssue {
  PageId page = kInvalidPage;
  std::string index;
  std::string context;
  std::string message;
};

/// Per-index document accounting: how many documents are live versus
/// tombstoned-but-unreclaimed (deleted documents keep their append-only
/// records until a compaction rewrites the index; they are dead weight, not
/// corruption). Reported for PRIX entries, for ViST entries (live = Docid
/// entries remaining), and for stream stores (dead = tombstone count).
struct IndexDocStats {
  std::string index;
  uint64_t live_docs = 0;
  uint64_t dead_docs = 0;
};

/// Accumulated result of ScrubPages and/or VerifyDatabase. A database is
/// clean when both passes leave `issues` empty.
struct VerifyReport {
  uint64_t pages_scanned = 0;
  uint64_t pages_bad = 0;        ///< pages failing the trailer CRC
  uint64_t indexes_checked = 0;  ///< catalog entries walked
  uint64_t indexes_bad = 0;      ///< entries with at least one issue
  uint64_t free_pages = 0;       ///< persistent free-list entries at open
  std::vector<VerifyIssue> issues;
  std::vector<IndexDocStats> doc_stats;  ///< per document-bearing entry

  bool clean() const { return issues.empty(); }
};

/// Phase 1 of `prix verify`: a raw full-file scan checking every page's
/// trailer CRC, independent of the catalog (it works even when the
/// superblock itself is garbage). Opens `path` read-only and never mutates
/// it; a ragged (non-page-aligned) tail is reported as an issue and the
/// full pages before it are still scanned. Returns non-OK only when the
/// file cannot be read at all.
Status ScrubPages(const std::string& path, VerifyReport* report);

/// Phase 2 of `prix verify`: opens the database and structurally walks
/// every catalog entry — B+-trees via WalkReachable (reporting the node
/// path of each fault), document/sequence records, stream pages, and blob
/// chains. A ViST or stream store whose document count matches no PRIX
/// index is an issue, as is an XB-forest with no stream store: online ingest
/// refuses to write past either. The database is opened for the walk and
/// abandoned without committing anything. Open failures (bad superblock,
/// old format) become issues, not errors; non-OK means the walk
/// infrastructure itself failed.
Status VerifyDatabase(const std::string& path, VerifyReport* report);

/// Result of one SalvageDatabase run.
struct SalvageReport {
  std::vector<std::string> rebuilt;  ///< index entries rebuilt into `dst`
  std::vector<std::string> dropped;  ///< entries not carried into `dst`
  std::vector<DocId> lost;           ///< live DocIds no PRIX store yields
  uint64_t documents = 0;            ///< documents recovered
};

/// Salvage by rebuilding: reconstructs the surviving collection once from
/// the document stores of every PRIX index of `src` that opens, then
/// bulk-builds every index entry of `src`'s catalog over it into a fresh
/// database file at `dst` (which must not be `src`), under the entry's own
/// name and kind, and copies readable blob entries (e.g. the tag
/// dictionary). DocId d comes from the first PRIX index, in catalog order,
/// that reconstructs it; one that some PRIX index tombstones, or that no
/// store yields (`report->lost`), becomes an empty placeholder, tombstoned
/// in every rebuilt PRIX index and stream store. So the output answers like
/// the oracle over the recovered documents. When no PRIX index opens, every
/// index entry is dropped, as is an XB-forest with no stream store to
/// summarize. Fails when `src`'s catalog cannot be opened at all or `dst`
/// cannot be written.
Status SalvageDatabase(const std::string& src, const std::string& dst,
                       SalvageReport* report);

}  // namespace prix

#endif  // PRIX_VERIFY_VERIFIER_H_
