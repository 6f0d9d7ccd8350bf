#include "storage/record_store.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"
#include "common/varint.h"
#include "storage/page_format.h"

namespace prix {

void PutU32(std::vector<char>* buf, uint32_t v) {
  char tmp[4];
  std::memcpy(tmp, &v, 4);
  buf->insert(buf->end(), tmp, tmp + 4);
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void PutU64(std::vector<char>* buf, uint64_t v) {
  char tmp[8];
  std::memcpy(tmp, &v, 8);
  buf->insert(buf->end(), tmp, tmp + 8);
}

uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Blob page layout: [next PageId u32][chunk len u32][payload], all within
// the usable area (the trailer is the storage layer's).
constexpr size_t kBlobPayload = kPageUsable - 8;

Result<PageId> WriteBlob(BufferPool* pool, const std::vector<char>& data,
                         std::vector<PageId>* out_pages) {
  size_t num_pages =
      std::max<size_t>(1, (data.size() + kBlobPayload - 1) / kBlobPayload);
  std::vector<PageId> ids(num_pages);
  for (size_t i = 0; i < num_pages; ++i) {
    PRIX_ASSIGN_OR_RETURN(Page * page, pool->NewPage());
    ids[i] = page->page_id();
    pool->UnpinPage(ids[i], /*dirty=*/true);
  }
  if (out_pages != nullptr) *out_pages = ids;
  for (size_t i = 0; i < num_pages; ++i) {
    PRIX_ASSIGN_OR_RETURN(Page * page, pool->FetchPage(ids[i]));
    PageId next = i + 1 < num_pages ? ids[i + 1] : kInvalidPage;
    size_t offset = i * kBlobPayload;
    uint32_t chunk =
        static_cast<uint32_t>(std::min(kBlobPayload, data.size() - offset));
    std::memcpy(page->data(), &next, 4);
    std::memcpy(page->data() + 4, &chunk, 4);
    if (chunk > 0) std::memcpy(page->data() + 8, data.data() + offset, chunk);
    SetPageType(page->data(), PageType::kBlob);
    pool->UnpinPage(ids[i], /*dirty=*/true);
  }
  return ids[0];
}

Status ReadBlob(BufferPool* pool, PageId first, std::vector<char>* out) {
  out->clear();
  PageId cur = first;
  uint64_t hops = 0;
  while (cur != kInvalidPage) {
    // A corrupt next pointer can close a cycle of individually valid
    // pages; any legitimate chain has at most one link per file page.
    if (++hops > pool->disk()->num_pages()) {
      return Status::Corruption("blob chain does not terminate (cycle via "
                                "page " +
                                std::to_string(cur) + ")");
    }
    PRIX_ASSIGN_OR_RETURN(Page * page, pool->FetchPage(cur));
    if (GetPageType(page->data()) != PageType::kBlob) {
      Status st = Status::Corruption(
          "page " + std::to_string(cur) + " is not a blob page (type " +
          PageTypeName(GetPageType(page->data())) + ")");
      pool->UnpinPage(cur, false);
      return st;
    }
    PageId next;
    uint32_t chunk;
    std::memcpy(&next, page->data(), 4);
    std::memcpy(&chunk, page->data() + 4, 4);
    if (chunk > kBlobPayload) {
      pool->UnpinPage(cur, false);
      return Status::Corruption("blob page " + std::to_string(cur) +
                                ": chunk length " + std::to_string(chunk) +
                                " out of range");
    }
    out->insert(out->end(), page->data() + 8, page->data() + 8 + chunk);
    pool->UnpinPage(cur, false);
    cur = next;
  }
  return Status::OK();
}

Status ReadBlobPages(BufferPool* pool, PageId first,
                     std::vector<PageId>* out_pages) {
  out_pages->clear();
  PageId cur = first;
  uint64_t hops = 0;
  while (cur != kInvalidPage) {
    if (++hops > pool->disk()->num_pages()) {
      return Status::Corruption("blob chain does not terminate (cycle via "
                                "page " +
                                std::to_string(cur) + ")");
    }
    PRIX_ASSIGN_OR_RETURN(Page * page, pool->FetchPage(cur));
    if (GetPageType(page->data()) != PageType::kBlob) {
      Status st = Status::Corruption(
          "page " + std::to_string(cur) + " is not a blob page (type " +
          PageTypeName(GetPageType(page->data())) + ")");
      pool->UnpinPage(cur, false);
      return st;
    }
    out_pages->push_back(cur);
    PageId next;
    std::memcpy(&next, page->data(), 4);
    pool->UnpinPage(cur, false);
    cur = next;
  }
  return Status::OK();
}

// Catalog encoding: varint fields; page ids as zig-zag deltas (allocation
// makes them near-consecutive), extent offsets as plain deltas (append-only
// makes them monotonic, and storing the delta also proves monotonicity to
// the decoder for free).
void RecordStore::SerializeTo(std::vector<char>* out) const {
  PutVarint64(out, next_offset_);
  PutVarint64(out, pages_.size());
  PageId prev_page = 0;
  for (PageId id : pages_) {
    PutVarint64(out, ZigzagEncode64(static_cast<int64_t>(id) -
                                    static_cast<int64_t>(prev_page)));
    prev_page = id;
  }
  PutVarint64(out, catalog_.size());
  uint64_t prev_offset = 0;
  for (const Extent& e : catalog_) {
    PutVarint64(out, e.offset - prev_offset);
    PutVarint32(out, e.length);
    prev_offset = e.offset;
  }
}

Result<RecordStore> RecordStore::Deserialize(BufferPool* pool, const char** p,
                                             const char* end) {
  RecordStore store(pool);
  const uint32_t file_pages = pool->disk()->num_pages();
  uint64_t num_pages = 0;
  if (!GetVarint64(p, end, &store.next_offset_) ||
      !GetVarint64(p, end, &num_pages)) {
    return Status::Corruption("truncated store catalog");
  }
  // A fabricated count cannot force a huge allocation: each page id costs
  // at least one encoded byte, so the count is bounded by the remaining
  // catalog bytes. Every page the catalog references must exist in the
  // file, and the logical size must fit the page list — arbitrary bytes
  // here must fail now, not as a wild fetch during a later Load.
  if (num_pages > static_cast<uint64_t>(end - *p)) {
    return Status::Corruption("record store catalog page count " +
                              std::to_string(num_pages) +
                              " exceeds the catalog size");
  }
  store.pages_.resize(num_pages);
  int64_t prev_page = 0;
  for (uint64_t i = 0; i < num_pages; ++i) {
    uint64_t enc;
    if (!GetVarint64(p, end, &enc)) {
      return Status::Corruption("truncated store catalog (page list)");
    }
    int64_t id = prev_page + ZigzagDecode64(enc);
    if (id < 0 || id >= static_cast<int64_t>(file_pages)) {
      return Status::Corruption("record store catalog references page " +
                                std::to_string(id) + " beyond the file (" +
                                std::to_string(file_pages) + " pages)");
    }
    store.pages_[i] = static_cast<PageId>(id);
    prev_page = id;
  }
  if (store.next_offset_ > num_pages * kPageUsable) {
    return Status::Corruption(
        "record store logical size " + std::to_string(store.next_offset_) +
        " exceeds its " + std::to_string(num_pages) + " data pages");
  }
  uint64_t num_records = 0;
  if (!GetVarint64(p, end, &num_records)) {
    return Status::Corruption("truncated store catalog");
  }
  if (num_records > static_cast<uint64_t>(end - *p)) {
    return Status::Corruption("record store catalog record count " +
                              std::to_string(num_records) +
                              " exceeds the catalog size");
  }
  store.catalog_.resize(num_records);
  uint64_t prev_offset = 0;
  for (uint64_t i = 0; i < num_records; ++i) {
    uint64_t delta;
    uint32_t length;
    if (!GetVarint64(p, end, &delta) || !GetVarint32(p, end, &length)) {
      return Status::Corruption("truncated store catalog (extent list)");
    }
    uint64_t offset = prev_offset + delta;
    if (offset < prev_offset) {  // wrapped
      return Status::Corruption("record " + std::to_string(i) +
                                " extent offset overflows");
    }
    if (offset > store.next_offset_ || length > store.next_offset_ - offset) {
      return Status::Corruption("record " + std::to_string(i) +
                                " extent exceeds the store's logical size");
    }
    store.catalog_[i] = Extent{offset, length};
    prev_offset = offset;
  }
  return store;
}

Result<uint32_t> RecordStore::Append(const char* data, size_t len) {
  Extent extent{next_offset_, static_cast<uint32_t>(len)};
  PRIX_RETURN_NOT_OK(AppendBytes(data, len));
  uint32_t id = static_cast<uint32_t>(catalog_.size());
  catalog_.push_back(extent);
  return id;
}

Status RecordStore::Load(uint32_t id, std::vector<char>* out) const {
  if (id >= catalog_.size()) {
    return Status::NotFound("record " + std::to_string(id) + " not in store");
  }
  const Extent& e = catalog_[id];
  out->resize(e.length);
  return ReadBytes(e.offset, out->data(), e.length);
}

Status RecordStore::AppendBytes(const char* data, size_t len) {
  size_t written = 0;
  while (written < len) {
    size_t page_index = static_cast<size_t>(next_offset_ / kPageUsable);
    size_t page_off = static_cast<size_t>(next_offset_ % kPageUsable);
    if (page_index == pages_.size()) {
      PRIX_ASSIGN_OR_RETURN(Page * page, pool_->NewPage());
      SetPageType(page->data(), PageType::kHeapData);
      if (cow_ != nullptr) cow_->MarkFresh(page->page_id());
      pages_.push_back(page->page_id());
      pool_->UnpinPage(page->page_id(), /*dirty=*/true);
    } else if (page_off > 0 && cow_ != nullptr &&
               !cow_->IsFresh(pages_[page_index])) {
      // The tail page is committed (a snapshot can reach it through an
      // older catalog); copy it to a fresh page before extending it.
      PRIX_ASSIGN_OR_RETURN(Page * old_page,
                            pool_->FetchPage(pages_[page_index]));
      PageGuard old_guard(pool_, old_page);
      PRIX_ASSIGN_OR_RETURN(Page * copy, pool_->NewPage());
      std::memcpy(copy->data(), old_page->data(), kPageSize);
      old_guard.Release();
      cow_->MarkFresh(copy->page_id());
      cow_->MarkFreed(pages_[page_index]);
      pages_[page_index] = copy->page_id();
      pool_->UnpinPage(copy->page_id(), /*dirty=*/true);
    }
    PRIX_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(pages_[page_index]));
    size_t chunk = std::min(len - written, kPageUsable - page_off);
    std::memcpy(page->data() + page_off, data + written, chunk);
    pool_->UnpinPage(pages_[page_index], /*dirty=*/true);
    written += chunk;
    next_offset_ += chunk;
  }
  return Status::OK();
}

Status RecordStore::ReadBytes(uint64_t offset, char* out, size_t len) const {
  size_t done = 0;
  while (done < len) {
    size_t page_index = static_cast<size_t>((offset + done) / kPageUsable);
    size_t page_off = static_cast<size_t>((offset + done) % kPageUsable);
    if (page_index >= pages_.size()) {
      return Status::OutOfRange("RecordStore read past end");
    }
    PRIX_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(pages_[page_index]));
    size_t chunk = std::min(len - done, kPageUsable - page_off);
    std::memcpy(out + done, page->data() + page_off, chunk);
    pool_->UnpinPage(pages_[page_index], /*dirty=*/false);
    done += chunk;
  }
  return Status::OK();
}

}  // namespace prix
