#include "twigstack/xb_tree.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"
#include "storage/page_format.h"

namespace prix {

namespace {

struct RawEntry {
  uint64_t begin;
  uint64_t max_end;
};

}  // namespace

Result<std::unique_ptr<XbTree>> XbTree::Build(
    const StreamStore* store, const StreamStore::StreamInfo* info,
    CowContext* cow) {
  auto tree = std::unique_ptr<XbTree>(new XbTree(store, info));
  if (info == nullptr || info->count == 0) return tree;

  // Summaries of the current level, starting with the stream pages: one
  // fetch per page, over the run of this stream's entries on it. The
  // max-end of a page is taken over its live entries only: a page whose
  // entries are all tombstoned summarizes to max_end 0, which no query
  // range reaches, so the whole page is skipped without a drill-down.
  std::vector<RawEntry> summaries;
  summaries.reserve(info->pages.size());
  for (uint32_t i = 0; i < info->count;) {
    const StreamStore::PageRun run = StreamStore::Locate(*info, i);
    const PageId id = info->pages[run.page];
    PRIX_ASSIGN_OR_RETURN(Page * page, store->pool()->FetchPage(id));
    const char* at = page->data() + run.slot * sizeof(ElementPos);
    RawEntry summary{0, 0};
    for (uint32_t j = 0; j < run.count; ++j, at += sizeof(ElementPos)) {
      ElementPos e;
      std::memcpy(&e, at, sizeof(ElementPos));
      if (j == 0) summary.begin = e.BeginKey();
      if (store->IsDeleted(e.doc)) continue;
      summary.max_end = std::max(summary.max_end, e.EndKey());
    }
    store->pool()->UnpinPage(id, /*dirty=*/false);
    summaries.push_back(summary);
    i += run.count;
  }

  // Stack levels until one page holds everything.
  while (summaries.size() > 1) {
    Level level;
    level.entry_count = static_cast<uint32_t>(summaries.size());
    std::vector<RawEntry> next;
    for (size_t i = 0; i < summaries.size(); i += kFanout) {
      size_t chunk = std::min(kFanout, summaries.size() - i);
      PRIX_ASSIGN_OR_RETURN(Page * page, store->pool()->NewPage());
      std::memcpy(page->data(), summaries.data() + i,
                  chunk * sizeof(RawEntry));
      SetPageType(page->data(), PageType::kXbNode);
      level.pages.push_back(page->page_id());
      if (cow != nullptr) cow->MarkFresh(page->page_id());
      store->pool()->UnpinPage(page->page_id(), /*dirty=*/true);
      uint64_t max_end = 0;
      for (size_t j = i; j < i + chunk; ++j) {
        max_end = std::max(max_end, summaries[j].max_end);
      }
      next.push_back(RawEntry{summaries[i].begin, max_end});
    }
    tree->internal_pages_ += level.pages.size();
    tree->levels_.push_back(std::move(level));
    summaries = std::move(next);
  }
  return tree;
}

std::unique_ptr<XbTree> XbTree::FromLevels(
    const StreamStore* store, const StreamStore::StreamInfo* info,
    std::vector<Level> levels) {
  auto tree = std::unique_ptr<XbTree>(new XbTree(store, info));
  for (const Level& level : levels) {
    tree->internal_pages_ += level.pages.size();
  }
  tree->levels_ = std::move(levels);
  return tree;
}

XbCursor::XbCursor(const XbTree* tree) : tree_(tree) {}

Status XbCursor::Init() {
  if (tree_->empty()) {
    eof_ = true;
    return Status::OK();
  }
  // Start at the root: the highest internal level, or the stream itself
  // when it fits logical roots of one node.
  level_ = static_cast<int>(tree_->levels().size());
  node_ = 0;
  entry_ = 0;
  PRIX_RETURN_NOT_OK(LoadEntry());
  return SettleLive();
}

uint32_t XbCursor::NodeEntryCount(int level, uint32_t node) const {
  if (level == 0) return StreamStore::RunOnPage(*tree_->stream(), node).count;
  const auto per_node = static_cast<uint32_t>(XbTree::kFanout);
  uint32_t total = tree_->levels()[level - 1].entry_count;
  uint32_t first = node * per_node;
  PRIX_DCHECK(first < total);
  return std::min(per_node, total - first);
}

uint64_t XbCursor::NextL() const {
  if (eof_) return kInfiniteKey;
  return level_ == 0 ? element_.BeginKey() : begin_;
}

uint64_t XbCursor::NextR() const {
  if (eof_) return kInfiniteKey;
  return level_ == 0 ? element_.EndKey() : max_end_;
}

Status XbCursor::AdvanceRaw() {
  if (eof_) return Status::OK();
  while (true) {
    if (entry_ + 1 < NodeEntryCount(level_, node_)) {
      ++entry_;
      return LoadEntry();
    }
    // Last entry of this node: ascend (Bruno et al.: "advance moves up").
    if (level_ == static_cast<int>(tree_->levels().size())) {
      eof_ = true;
      return Status::OK();
    }
    const auto per_parent = static_cast<uint32_t>(XbTree::kFanout);
    entry_ = node_ % per_parent;
    node_ = node_ / per_parent;
    ++level_;
    // Continue the loop to advance within the parent.
  }
}

Status XbCursor::SettleLive() {
  // A leaf-level cursor must never expose a tombstoned entry through
  // NextL/NextR (the engine's min/max selection would process dead
  // positions and could mis-order its stack maintenance), so every
  // positioning that can land on the leaf level steps past dead entries —
  // possibly ascending back to a summary level, whose bounds are
  // conservative over live entries by construction.
  while (!eof_ && level_ == 0 && tree_->store() != nullptr &&
         tree_->store()->IsDeleted(element_.doc)) {
    PRIX_RETURN_NOT_OK(AdvanceRaw());
  }
  return Status::OK();
}

Status XbCursor::Advance() {
  PRIX_RETURN_NOT_OK(AdvanceRaw());
  return SettleLive();
}

Status XbCursor::DrillDown() {
  if (eof_ || level_ == 0) return Status::OK();
  ++drilldowns_;
  // Child node index at level_-1: this node's first child is node_*fanout,
  // plus entry_ — children are contiguous by construction.
  uint32_t child = node_ * static_cast<uint32_t>(XbTree::kFanout) + entry_;
  --level_;
  node_ = child;
  entry_ = 0;
  PRIX_RETURN_NOT_OK(LoadEntry());
  return SettleLive();
}

Status XbCursor::EnsureElement() {
  // SettleLive keeps leaf positions live, so drilling to the leaf level is
  // all that remains (a settle may ascend; the loop re-drills).
  while (!eof_ && level_ > 0) {
    PRIX_RETURN_NOT_OK(DrillDown());
  }
  return Status::OK();
}

Status XbCursor::LoadEntry() {
  PageId page_id = level_ == 0
                       ? tree_->stream()->pages[node_]
                       : tree_->levels()[level_ - 1].pages[node_];
  if (buffered_level_ != level_ || buffered_node_ != node_) {
    PRIX_ASSIGN_OR_RETURN(Page * page, tree_->store()->pool()->FetchPage(page_id));
    buffer_.assign(page->data(), page->data() + kPageUsable);
    tree_->store()->pool()->UnpinPage(page_id, /*dirty=*/false);
    buffered_level_ = level_;
    buffered_node_ = node_;
  }
  if (level_ == 0) {
    const uint32_t slot =
        StreamStore::RunOnPage(*tree_->stream(), node_).slot + entry_;
    std::memcpy(&element_, buffer_.data() + slot * sizeof(ElementPos),
                sizeof(ElementPos));
  } else {
    RawEntry raw;
    std::memcpy(&raw, buffer_.data() + entry_ * sizeof(RawEntry),
                sizeof(RawEntry));
    begin_ = raw.begin;
    max_end_ = raw.max_end;
  }
  return Status::OK();
}

}  // namespace prix
