#ifndef PRIX_TWIGSTACK_XB_TREE_H_
#define PRIX_TWIGSTACK_XB_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "twigstack/position_stream.h"

namespace prix {

/// Uniform cursor over one tag's input list, as consumed by the stack-based
/// twig algorithms. NextL/NextR expose the (possibly summarized) next
/// position; EnsureElement materializes an actual element (for XB cursors,
/// drills to the leaf level).
class TagCursor {
 public:
  virtual ~TagCursor() = default;
  virtual bool Eof() const = 0;
  virtual uint64_t NextL() const = 0;
  virtual uint64_t NextR() const = 0;
  /// Moves past the current entry (XB cursors may ascend to a coarser
  /// level, which is what makes skipping possible).
  virtual Status Advance() = 0;
  /// Drills to an actual element; no-op for plain stream cursors.
  virtual Status EnsureElement() = 0;
  /// Valid after EnsureElement() and before the next Advance().
  virtual const ElementPos& Current() const = 0;
};

/// TwigStack's cursor: a plain sorted scan.
class SimpleTagCursor final : public TagCursor {
 public:
  SimpleTagCursor(const StreamStore* store,
                  const StreamStore::StreamInfo* info)
      : cursor_(store, info) {}
  Status Init() { return cursor_.Init(); }

  bool Eof() const override { return cursor_.Eof(); }
  uint64_t NextL() const override { return cursor_.NextL(); }
  uint64_t NextR() const override { return cursor_.NextR(); }
  Status Advance() override { return cursor_.Advance(); }
  Status EnsureElement() override { return Status::OK(); }
  const ElementPos& Current() const override { return cursor_.Current(); }

 private:
  SimpleStreamCursor cursor_;
};

/// XB-tree over one tag stream (Bruno et al. Sec. 4.3): a balanced tree
/// whose leaf level is the stream's pages and whose internal entries carry
/// (begin, max-end) summaries, supporting advance/drilldown so TwigStackXB
/// can skip stream regions without reading them.
class XbTree {
 public:
  struct Level {
    std::vector<PageId> pages;
    uint32_t entry_count = 0;
  };

  /// Entries per internal page.
  static constexpr size_t kFanout = kPageUsable / (2 * sizeof(uint64_t));

  /// Builds the internal levels above `info`'s pages. `info` may be null.
  /// Summaries cover only LIVE entries (tombstoned documents are excluded
  /// from max-end), so skipping is exact for the current tombstone set.
  /// Within an ingest transaction the new pages are registered with `cow`.
  /// Nothing is flushed here: XbForest::Build flushes once per forest, an
  /// ingest commit flushes its own pages.
  static Result<std::unique_ptr<XbTree>> Build(
      const StreamStore* store, const StreamStore::StreamInfo* info,
      CowContext* cow = nullptr);

  /// Re-creates a tree over already-persisted internal pages (XbForest
  /// persistence); no pages are read or allocated.
  static std::unique_ptr<XbTree> FromLevels(
      const StreamStore* store, const StreamStore::StreamInfo* info,
      std::vector<Level> levels);

  const StreamStore* store() const { return store_; }
  const StreamStore::StreamInfo* stream() const { return stream_; }
  /// Internal levels, index 0 = directly above the stream pages.
  const std::vector<Level>& levels() const { return levels_; }
  uint64_t internal_pages() const { return internal_pages_; }
  bool empty() const {
    return stream_ == nullptr || stream_->count == 0;
  }

 private:
  XbTree(const StreamStore* store, const StreamStore::StreamInfo* info)
      : store_(store), stream_(info) {}

  const StreamStore* store_;
  const StreamStore::StreamInfo* stream_;
  std::vector<Level> levels_;
  uint64_t internal_pages_ = 0;
};

/// Hierarchical cursor over an XbTree. `level` == 0 means the stream (leaf)
/// level; level k > 0 is levels()[k-1]. The cursor starts at the root and
/// both advances and drills monotonically left-to-right.
class XbCursor final : public TagCursor {
 public:
  explicit XbCursor(const XbTree* tree);
  Status Init();

  bool Eof() const override { return eof_; }
  uint64_t NextL() const override;
  uint64_t NextR() const override;
  Status Advance() override;
  Status EnsureElement() override;
  const ElementPos& Current() const override { return element_; }

  /// Descends one level (first entry of the current child). No-op at the
  /// leaf level.
  Status DrillDown();
  bool AtLeafLevel() const { return level_ == 0; }
  uint64_t drilldowns() const { return drilldowns_; }

 private:
  /// Number of entries in node `node` of `level`.
  uint32_t NodeEntryCount(int level, uint32_t node) const;
  Status LoadEntry();
  /// Advance without the dead-entry settle (the raw Bruno et al. move).
  Status AdvanceRaw();
  /// Steps past tombstoned leaf entries so NextL/NextR always describe a
  /// live element (or a summary, or eof).
  Status SettleLive();

  const XbTree* tree_;
  int level_ = 0;        // 0 = stream level
  uint32_t node_ = 0;    // node (page) index within the level
  uint32_t entry_ = 0;   // entry within the node
  bool eof_ = false;
  // Decoded current entry.
  uint64_t begin_ = 0;
  uint64_t max_end_ = 0;
  ElementPos element_{};
  // One-page buffer per access.
  std::vector<char> buffer_;
  int buffered_level_ = -2;
  uint32_t buffered_node_ = 0xffffffffu;
  uint64_t drilldowns_ = 0;
};

}  // namespace prix

#endif  // PRIX_TWIGSTACK_XB_TREE_H_
