#ifndef PRIX_COMMON_BUILD_INFO_H_
#define PRIX_COMMON_BUILD_INFO_H_

#include <cstdint>
#include <string>

#include "common/json.h"

namespace prix {

// On-disk format versions, owned here (the bottom layer) so the subsystems
// that write them and the build-info stamp that reports them can never
// disagree. Bump the owner's constant and every consumer follows.

/// Database catalog header format (db/database.cc header codec).
constexpr uint32_t kDbFormatVersion = 4;
/// Oplog sidecar format (storage/oplog.cc header codec).
constexpr uint32_t kOpLogFormatVersion = 1;

struct BuildInfo {
  std::string git_describe;   ///< `git describe` at configure time
  uint32_t db_format = 0;     ///< kDbFormatVersion
  uint32_t oplog_format = 0;  ///< kOpLogFormatVersion
  bool crc32c_hardware = false;  ///< SSE4.2/ARMv8 CRC dispatch taken
};

BuildInfo GetBuildInfo();

/// One line for `prix --version`:
///   prix <git-describe> (db format 2, oplog format 1, crc32c hardware)
std::string BuildInfoLine();

/// Appends `"build": {...}` to a JsonWriter positioned inside an object.
/// Stamped into every BENCH_*.json so a result file identifies the exact
/// binary that produced it.
void AppendBuildInfoJson(JsonWriter* w);

}  // namespace prix

#endif  // PRIX_COMMON_BUILD_INFO_H_
