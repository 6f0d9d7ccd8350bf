#include "prix/maxgap.h"

#include <algorithm>

#include "storage/record_store.h"

namespace prix {

void MaxGapTable::AddDocument(const Document& doc) {
  std::vector<uint32_t> number = doc.ComputePostorder();
  for (NodeId v = 0; v < doc.num_nodes(); ++v) {
    const auto& kids = doc.children(v);
    if (kids.size() < 2) continue;
    uint32_t gap = number[kids.back()] - number[kids.front()];
    uint32_t& slot = table_[doc.label(v)];
    slot = std::max(slot, gap);
  }
}

void MaxGapTable::SerializeTo(std::vector<char>* out) const {
  PutU32(out, static_cast<uint32_t>(table_.size()));
  for (const auto& [label, gap] : table_) {
    PutU32(out, label);
    PutU32(out, gap);
  }
}

Result<MaxGapTable> MaxGapTable::Deserialize(const char** p,
                                             const char* end) {
  if (*p + 4 > end) return Status::Corruption("truncated MaxGap table");
  uint32_t count = GetU32(*p);
  *p += 4;
  if (*p + 8ull * count > end) {
    return Status::Corruption("truncated MaxGap table");
  }
  MaxGapTable table;
  table.table_.reserve(count);
  for (uint32_t i = 0; i < count; ++i, *p += 8) {
    table.table_[GetU32(*p)] = GetU32(*p + 4);
  }
  return table;
}

}  // namespace prix
