#include "twigstack/position_stream.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/macros.h"
#include "storage/page_format.h"
#include "storage/record_store.h"

namespace prix {

std::vector<ElementPos> ComputeRegions(const Document& doc) {
  std::vector<ElementPos> out(doc.num_nodes());
  if (doc.empty()) return out;
  std::vector<uint32_t> post = doc.ComputePostorder();
  uint32_t counter = 0;
  // Iterative DFS assigning left on entry, right on exit.
  struct Frame {
    NodeId node;
    size_t child = 0;
  };
  std::vector<Frame> stack = {{doc.root(), 0}};
  std::vector<uint32_t> depth(doc.num_nodes(), 1);
  out[doc.root()].left = ++counter;
  while (!stack.empty()) {
    Frame& f = stack.back();
    const auto& kids = doc.children(f.node);
    if (f.child < kids.size()) {
      NodeId c = kids[f.child++];
      depth[c] = depth[f.node] + 1;
      out[c].left = ++counter;
      stack.push_back(Frame{c, 0});
    } else {
      out[f.node].right = ++counter;
      stack.pop_back();
    }
  }
  for (NodeId v = 0; v < doc.num_nodes(); ++v) {
    out[v].doc = doc.doc_id();
    out[v].level = depth[v];
    out[v].post = post[v];
  }
  return out;
}

Result<std::unique_ptr<StreamStore>> StreamStore::Build(
    const std::vector<Document>& documents, BufferPool* pool) {
  auto store = std::unique_ptr<StreamStore>(new StreamStore(pool));
  // Gather entries per label, in label order.
  std::map<LabelId, std::vector<ElementPos>> by_label;
  for (const Document& doc : documents) {
    std::vector<ElementPos> regions = ComputeRegions(doc);
    for (NodeId v = 0; v < doc.num_nodes(); ++v) {
      by_label[doc.label(v)].push_back(regions[v]);
    }
  }
  // Pack the streams back to back in label order: `page` is the page being
  // filled (null when the last one filled up) and `slot` its next free slot.
  Page* page = nullptr;
  uint32_t slot = 0;
  for (auto& [label, entries] : by_label) {
    // Documents arrive in DocId order but nodes in arena order, which need
    // not be preorder; sort each stream by (doc, left).
    std::sort(entries.begin(), entries.end(),
              [](const ElementPos& a, const ElementPos& b) {
                return a.BeginKey() < b.BeginKey();
              });
    StreamInfo info;
    info.count = static_cast<uint32_t>(entries.size());
    info.first_slot = page == nullptr ? 0 : slot;
    size_t i = 0;
    while (i < entries.size()) {
      if (page == nullptr) {
        PRIX_ASSIGN_OR_RETURN(page, pool->NewPage());
        SetPageType(page->data(), PageType::kStream);
        slot = 0;
      }
      if (info.pages.empty() || info.pages.back() != page->page_id()) {
        info.pages.push_back(page->page_id());
      }
      size_t chunk = std::min(kEntriesPerPage - slot, entries.size() - i);
      std::memcpy(page->data() + slot * sizeof(ElementPos),
                  entries.data() + i, chunk * sizeof(ElementPos));
      slot += static_cast<uint32_t>(chunk);
      i += chunk;
      if (slot == kEntriesPerPage) {
        pool->UnpinPage(page->page_id(), /*dirty=*/true);
        page = nullptr;
      }
    }
    store->total_entries_ += info.count;
    store->CountPages(info);
    store->streams_.emplace(label, std::move(info));
  }
  if (page != nullptr) pool->UnpinPage(page->page_id(), /*dirty=*/true);
  store->num_docs_ = static_cast<uint32_t>(documents.size());
  PRIX_RETURN_NOT_OK(pool->FlushAll());
  return store;
}

void StreamStore::CountPages(const StreamInfo& info) {
  for (PageId page : info.pages) ++page_streams_[page];
}

namespace {
constexpr uint32_t kStreamCatalogMagic = 0x54574753;  // "TWGS"
/// Version 3: the document count and tombstone set, then per stream its
/// label, entry count, first_slot (streams are packed) and page list.
/// Versions 1 and 2 only ever existed in format-2 database files, which
/// Database::Open refuses.
constexpr uint32_t kStreamCatalogVersion = 3;
}  // namespace

void StreamStore::SerializeCatalog(std::vector<char>* blob) const {
  PutU32(blob, kStreamCatalogMagic);
  PutU32(blob, kStreamCatalogVersion);
  PutU32(blob, num_docs_);
  PutU32(blob, static_cast<uint32_t>(tombstones_.size()));
  for (DocId d : tombstones_) PutU32(blob, d);
  PutU32(blob, static_cast<uint32_t>(streams_.size()));
  for (const auto& [label, info] : streams_) {
    PutU32(blob, label);
    PutU32(blob, info.count);
    PutU32(blob, info.first_slot);
    PutU32(blob, static_cast<uint32_t>(info.pages.size()));
    for (PageId page : info.pages) PutU32(blob, page);
  }
}

Status StreamStore::Save(Database* db, const std::string& name) const {
  std::vector<char> blob;
  SerializeCatalog(&blob);
  PRIX_ASSIGN_OR_RETURN(PageId first, WriteBlob(db->pool(), blob));
  Database::IndexEntry entry;
  entry.name = name;
  entry.kind = Database::IndexKind::kTwigStreams;
  entry.root = first;
  return db->PutIndex(entry);
}

Result<std::unique_ptr<StreamStore>> StreamStore::Open(
    Database* db, const std::string& name) {
  PRIX_ASSIGN_OR_RETURN(Database::IndexEntry entry, db->GetIndex(name));
  return OpenFromEntry(db->pool(), entry);
}

Result<std::unique_ptr<StreamStore>> StreamStore::OpenFromEntry(
    BufferPool* pool, const Database::IndexEntry& entry) {
  if (entry.kind != Database::IndexKind::kTwigStreams) {
    return Status::InvalidArgument("catalog entry '" + entry.name +
                                   "' is not a stream store");
  }
  std::vector<char> blob;
  PRIX_RETURN_NOT_OK(ReadBlob(pool, entry.root, &blob));
  const char* p = blob.data();
  const char* end = blob.data() + blob.size();
  auto need = [&](size_t bytes) -> Status {
    if (p + bytes > end) {
      return Status::Corruption("truncated stream-store catalog");
    }
    return Status::OK();
  };
  PRIX_RETURN_NOT_OK(need(12));
  if (GetU32(p) != kStreamCatalogMagic) {
    return Status::Corruption("not a stream-store catalog");
  }
  p += 4;
  if (GetU32(p) != kStreamCatalogVersion) {
    return Status::Corruption("unsupported stream-store catalog version");
  }
  p += 4;
  auto store = std::unique_ptr<StreamStore>(new StreamStore(pool));
  PRIX_RETURN_NOT_OK(need(8));
  store->num_docs_ = GetU32(p);
  p += 4;
  uint32_t dead = GetU32(p);
  p += 4;
  PRIX_RETURN_NOT_OK(need(4ull * dead));
  for (uint32_t i = 0; i < dead; ++i, p += 4) {
    DocId d = GetU32(p);
    if (d >= store->num_docs_) {
      return Status::Corruption(
          "stream-store tombstone for DocId " + std::to_string(d) +
          " beyond the store's " + std::to_string(store->num_docs_) +
          " documents");
    }
    store->tombstones_.insert(d);
  }
  PRIX_RETURN_NOT_OK(need(4));
  uint32_t num_streams = GetU32(p);
  p += 4;
  for (uint32_t i = 0; i < num_streams; ++i) {
    PRIX_RETURN_NOT_OK(need(16));
    LabelId label = GetU32(p);
    p += 4;
    StreamInfo info;
    info.count = GetU32(p);
    p += 4;
    info.first_slot = GetU32(p);
    p += 4;
    if (info.first_slot >= kEntriesPerPage) {
      return Status::Corruption("stream-store catalog: first slot " +
                                std::to_string(info.first_slot) +
                                " beyond a page");
    }
    uint32_t num_pages = GetU32(p);
    p += 4;
    // The entries must fit the page list, or ReadEntry would index past it;
    // every page must exist in the file.
    uint64_t needed_pages =
        (uint64_t{info.first_slot} + info.count + kEntriesPerPage - 1) /
        kEntriesPerPage;
    if (needed_pages > num_pages) {
      return Status::Corruption("stream-store catalog: stream with " +
                                std::to_string(info.count) +
                                " entries lists only " +
                                std::to_string(num_pages) + " pages");
    }
    PRIX_RETURN_NOT_OK(need(4ull * num_pages));
    uint32_t file_pages = pool->disk()->num_pages();
    info.pages.reserve(num_pages);
    for (uint32_t j = 0; j < num_pages; ++j, p += 4) {
      info.pages.push_back(GetU32(p));
      if (info.pages.back() >= file_pages) {
        return Status::Corruption(
            "stream-store catalog references page " +
            std::to_string(info.pages.back()) + " beyond the file (" +
            std::to_string(file_pages) + " pages)");
      }
    }
    store->total_entries_ += info.count;
    store->CountPages(info);
    store->streams_.emplace(label, std::move(info));
  }
  return store;
}

Status StreamStore::AppendEntries(StreamInfo* info,
                                  const std::vector<ElementPos>& entries,
                                  CowContext* cow) {
  size_t i = 0;
  while (i < entries.size()) {
    // Where the next entry goes: its page index is past the list (and its
    // slot 0) when the tail page is full or there are no pages yet.
    const PageRun next = Locate(*info, info->count);
    if (next.page == info->pages.size()) {
      PRIX_ASSIGN_OR_RETURN(Page * page, pool_->NewPage());
      SetPageType(page->data(), PageType::kStream);
      cow->MarkFresh(page->page_id());
      info->pages.push_back(page->page_id());
      page_streams_[page->page_id()] = 1;
      pool_->UnpinPage(page->page_id(), /*dirty=*/true);
    } else if (!cow->IsFresh(info->pages.back())) {
      // The partial tail page belongs to a committed generation, and
      // possibly to other streams too: copy on write before extending it.
      // The old page is superseded once its last stream has moved off.
      PRIX_ASSIGN_OR_RETURN(Page * copy, pool_->NewPage());
      PageId old_id = info->pages.back();
      {
        PRIX_ASSIGN_OR_RETURN(Page * old_page, pool_->FetchPage(old_id));
        std::memcpy(copy->data(), old_page->data(), kPageUsable);
        pool_->UnpinPage(old_id, /*dirty=*/false);
      }
      SetPageType(copy->data(), PageType::kStream);
      cow->MarkFresh(copy->page_id());
      if (--page_streams_[old_id] == 0) {
        page_streams_.erase(old_id);
        cow->MarkFreed(old_id);
      }
      info->pages.back() = copy->page_id();
      page_streams_[copy->page_id()] = 1;
      pool_->UnpinPage(copy->page_id(), /*dirty=*/true);
    }
    const PageId tail = info->pages.back();
    size_t chunk = std::min(kEntriesPerPage - next.slot, entries.size() - i);
    PRIX_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(tail));
    std::memcpy(page->data() + next.slot * sizeof(ElementPos),
                entries.data() + i, chunk * sizeof(ElementPos));
    pool_->UnpinPage(tail, /*dirty=*/true);
    info->count += static_cast<uint32_t>(chunk);
    total_entries_ += chunk;
    i += chunk;
  }
  return Status::OK();
}

Status StreamStore::AppendDocument(const Document& doc, DocId assigned,
                                   CowContext* cow,
                                   std::vector<LabelId>* touched) {
  if (assigned != num_docs_) {
    return Status::InvalidArgument(
        "stream append out of order: DocId " + std::to_string(assigned) +
        " with " + std::to_string(num_docs_) + " documents stored");
  }
  std::vector<ElementPos> regions = ComputeRegions(doc);
  std::map<LabelId, std::vector<ElementPos>> by_label;
  for (NodeId v = 0; v < doc.num_nodes(); ++v) {
    ElementPos e = regions[v];
    e.doc = assigned;
    by_label[doc.label(v)].push_back(e);
  }
  for (auto& [label, entries] : by_label) {
    std::sort(entries.begin(), entries.end(),
              [](const ElementPos& a, const ElementPos& b) {
                return a.BeginKey() < b.BeginKey();
              });
    PRIX_RETURN_NOT_OK(AppendEntries(&streams_[label], entries, cow));
    if (touched != nullptr) touched->push_back(label);
  }
  ++num_docs_;
  return Status::OK();
}

Result<ElementPos> StreamStore::ReadEntry(const StreamInfo& info,
                                          uint32_t index) const {
  if (index >= info.count) {
    return Status::OutOfRange("stream entry out of range");
  }
  const PageRun run = Locate(info, index);
  const PageId id = info.pages[run.page];
  PRIX_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(id));
  ElementPos out;
  std::memcpy(&out, page->data() + run.slot * sizeof(ElementPos),
              sizeof(ElementPos));
  pool_->UnpinPage(id, /*dirty=*/false);
  return out;
}

Status SimpleStreamCursor::LoadCurrent() {
  // Tombstoned documents keep their stream entries (streams are
  // append-only); the cursor hides them so consumers only ever see live
  // elements.
  while (!Eof()) {
    if (index_ >= buffer_first_ + buffer_.size()) {
      const StreamStore::PageRun run = StreamStore::Locate(*info_, index_);
      const PageId id = info_->pages[run.page];
      PRIX_ASSIGN_OR_RETURN(Page * page, store_->pool()->FetchPage(id));
      buffer_.resize(run.count);
      std::memcpy(buffer_.data(),
                  page->data() + run.slot * sizeof(ElementPos),
                  run.count * sizeof(ElementPos));
      store_->pool()->UnpinPage(id, /*dirty=*/false);
      buffer_first_ = index_;
    }
    current_ = buffer_[index_ - buffer_first_];
    if (!store_->IsDeleted(current_.doc)) break;
    ++index_;
  }
  return Status::OK();
}

}  // namespace prix
