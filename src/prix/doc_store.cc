#include "prix/doc_store.h"

#include <algorithm>

#include "common/macros.h"
#include "common/varint.h"

namespace prix {

namespace {

/// Array coding: 128-entry blocks, each a restart value plus zig-zag
/// deltas, preceded by a directory of per-block byte lengths (skip
/// offsets). See the DocStore class comment.
constexpr uint32_t kDocBlockEntries = 128;

void BlockEncodeU32(const uint32_t* v, size_t len, std::vector<char>* out) {
  size_t num_blocks = (len + kDocBlockEntries - 1) / kDocBlockEntries;
  std::vector<char> data;
  std::vector<size_t> block_lens;
  block_lens.reserve(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    size_t before = data.size();
    size_t lo = b * kDocBlockEntries;
    size_t hi = std::min(len, lo + kDocBlockEntries);
    PutVarint32(&data, v[lo]);  // restart value
    for (size_t i = lo + 1; i < hi; ++i) {
      PutVarint64(&data, ZigzagEncode64(static_cast<int64_t>(v[i]) -
                                        static_cast<int64_t>(v[i - 1])));
    }
    block_lens.push_back(data.size() - before);
  }
  for (size_t n : block_lens) PutVarint64(out, n);
  out->insert(out->end(), data.begin(), data.end());
}

Status BlockDecodeU32(const char** p, const char* end, size_t len,
                      uint32_t* dst) {
  size_t num_blocks = (len + kDocBlockEntries - 1) / kDocBlockEntries;
  std::vector<uint64_t> block_lens(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    if (!GetVarint64(p, end, &block_lens[b])) {
      return Status::Corruption("doc record: truncated block directory");
    }
  }
  for (size_t b = 0; b < num_blocks; ++b) {
    if (block_lens[b] > static_cast<uint64_t>(end - *p)) {
      return Status::Corruption("doc record: block length " +
                                std::to_string(block_lens[b]) +
                                " runs past the record");
    }
    // Each block's varints are bounded by its own directory entry, and the
    // cursor must land exactly on the block end — a garbled delta cannot
    // desynchronize the blocks after it.
    const char* block_end = *p + block_lens[b];
    size_t lo = b * kDocBlockEntries;
    size_t hi = std::min(len, lo + kDocBlockEntries);
    uint32_t restart;
    if (!GetVarint32(p, block_end, &restart)) {
      return Status::Corruption("doc record: bad block restart value");
    }
    dst[lo] = restart;
    int64_t prev = restart;
    for (size_t i = lo + 1; i < hi; ++i) {
      uint64_t enc;
      if (!GetVarint64(p, block_end, &enc)) {
        return Status::Corruption("doc record: truncated block delta");
      }
      int64_t value = prev + ZigzagDecode64(enc);
      if (value < 0 || value > 0xffffffffll) {
        return Status::Corruption("doc record: block delta out of range");
      }
      dst[i] = static_cast<uint32_t>(value);
      prev = value;
    }
    if (*p != block_end) {
      return Status::Corruption("doc record: trailing bytes in block");
    }
  }
  return Status::OK();
}

}  // namespace

Status DocStore::Append(DocId doc, const PruferSequences& seq,
                        const std::vector<LeafEntry>& leaves) {
  if (doc != store_.num_records()) {
    return Status::InvalidArgument("DocStore::Append out of DocId order");
  }
  std::vector<char> buf;
  const uint32_t n = seq.num_nodes;
  const uint32_t len = n > 0 ? n - 1 : 0;
  PutVarint32(&buf, n);
  PutVarint32(&buf, seq.root_label);
  BlockEncodeU32(seq.lps.data(), len, &buf);
  BlockEncodeU32(seq.nps.data(), len, &buf);
  PutVarint64(&buf, leaves.size());
  uint32_t prev_post = 0;
  for (const LeafEntry& leaf : leaves) {
    PutVarint32(&buf, leaf.label);
    PutVarint64(&buf, ZigzagEncode64(static_cast<int64_t>(leaf.postorder) -
                                     static_cast<int64_t>(prev_post)));
    prev_post = leaf.postorder;
  }
  PRIX_ASSIGN_OR_RETURN(uint32_t id, store_.Append(buf.data(), buf.size()));
  PRIX_DCHECK(id == doc);
  (void)id;
  return Status::OK();
}

Result<StoredDoc> DocStore::Load(DocId doc) const {
  std::vector<char> buf;
  PRIX_RETURN_NOT_OK(store_.Load(doc, &buf));
  StoredDoc out;
  const char* p = buf.data();
  const char* end = buf.data() + buf.size();
  uint32_t n;
  if (!GetVarint32(&p, end, &n) ||
      !GetVarint32(&p, end, &out.seq.root_label)) {
    return Status::Corruption("truncated doc record");
  }
  out.seq.num_nodes = n;
  uint32_t len = n > 0 ? n - 1 : 0;
  // Every encoded entry costs at least one byte, so a fabricated node count
  // is caught before it can size an allocation.
  if (len > static_cast<uint64_t>(end - p)) {
    return Status::Corruption("doc record: node count " + std::to_string(n) +
                              " exceeds the record size");
  }
  out.seq.lps.resize(len);
  out.seq.nps.resize(len);
  PRIX_RETURN_NOT_OK(BlockDecodeU32(&p, end, len, out.seq.lps.data()));
  PRIX_RETURN_NOT_OK(BlockDecodeU32(&p, end, len, out.seq.nps.data()));
  uint64_t leaf_count;
  if (!GetVarint64(&p, end, &leaf_count)) {
    return Status::Corruption("truncated doc record (leaf count)");
  }
  if (leaf_count > static_cast<uint64_t>(end - p)) {
    return Status::Corruption("doc record: leaf count " +
                              std::to_string(leaf_count) +
                              " exceeds the record size");
  }
  out.leaves.resize(leaf_count);
  int64_t prev_post = 0;
  for (uint64_t i = 0; i < leaf_count; ++i) {
    uint64_t enc;
    if (!GetVarint32(&p, end, &out.leaves[i].label) ||
        !GetVarint64(&p, end, &enc)) {
      return Status::Corruption("truncated doc record (leaf list)");
    }
    int64_t post = prev_post + ZigzagDecode64(enc);
    if (post < 0 || post > 0xffffffffll) {
      return Status::Corruption("doc record: leaf postorder out of range");
    }
    out.leaves[i].postorder = static_cast<uint32_t>(post);
    prev_post = post;
  }
  if (p != end) {
    return Status::Corruption("doc record: trailing bytes after leaf list");
  }
  return out;
}

}  // namespace prix
