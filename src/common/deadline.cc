#include "common/deadline.h"

#include <chrono>

namespace prix {

namespace deadline_internal {
#if defined(__ELF__) && (defined(__GNUC__) || defined(__clang__))
thread_local constinit const Deadline* tls_deadline
    __attribute__((tls_model("initial-exec"))) = nullptr;
#else
thread_local constinit const Deadline* tls_deadline = nullptr;
#endif
}  // namespace deadline_internal

uint64_t Deadline::NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace prix
