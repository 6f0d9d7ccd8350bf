#ifndef PRIX_COMMON_DEADLINE_H_
#define PRIX_COMMON_DEADLINE_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"

namespace prix {

// Cooperative per-request deadlines and cancellation (DESIGN.md §5j).
//
// A Deadline is a steady-clock expiry time plus a cancel flag. The request
// owner (a server connection, the CLI's --timeout-ms) creates one and keeps
// it alive for the whole request; the executing side installs it with a
// ScopedDeadline and long-running loops call CheckDeadline() at their
// checkpoints — B+-tree/trie descents, per-document verification, buffer
// pool misses — so a timed-out or abandoned query stops consuming CPU and
// I/O within one checkpoint interval instead of running to completion.
//
// The plumbing mirrors MetricsContext: ScopedDeadline publishes the token
// into a thread-local slot, so storage-layer checkpoints need no signature
// changes, and a query running with no deadline pays one TLS load plus a
// predictable branch per checkpoint. Cancel() may be called from ANY thread
// (it is how a server cancels the query of a client that disconnected
// mid-request); expiry is evaluated lazily on the executing thread.

/// One request's deadline + cancellation token. Create on the requesting
/// side, pass by pointer (QueryOptions::deadline); must outlive every
/// execution that might check it. Cancel() is thread-safe; everything else
/// is cheap and const.
class Deadline {
 public:
  /// No expiry; still cancellable.
  Deadline() = default;

  /// Expires `ms` milliseconds from now (steady clock). ms == 0 makes an
  /// already-expired deadline (useful in tests).
  static Deadline AfterMillis(uint64_t ms) {
    return Deadline(NowMicros() + ms * 1000);
  }
  static Deadline AfterMicros(uint64_t us) {
    return Deadline(NowMicros() + us);
  }

  Deadline(const Deadline&) = delete;
  Deadline& operator=(const Deadline&) = delete;

  /// Flags the request as abandoned. Safe from any thread, any number of
  /// times; checkpoints on the executing thread observe it at their next
  /// CheckDeadline().
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  bool has_expiry() const { return deadline_us_ != 0; }

  /// Microseconds until expiry: 0 when already expired, UINT64_MAX when the
  /// deadline has no expiry (admission control treats that as "always
  /// meetable").
  uint64_t remaining_us() const {
    if (deadline_us_ == 0) return UINT64_MAX;
    uint64_t now = NowMicros();
    return now >= deadline_us_ ? 0 : deadline_us_ - now;
  }

  bool expired() const { return deadline_us_ != 0 && remaining_us() == 0; }

  /// OK, or the typed error this request should die with: Cancelled beats
  /// DeadlineExceeded (a cancelled request is dead regardless of time).
  Status Check() const {
    if (cancelled()) return Status::Cancelled("request cancelled");
    if (expired()) return Status::DeadlineExceeded("deadline exceeded");
    return Status::OK();
  }

  /// Monotonic microseconds (same clock as MetricsContext::NowMicros; kept
  /// separate so prix_common needs no new dependencies).
  static uint64_t NowMicros();

 private:
  explicit Deadline(uint64_t deadline_us) : deadline_us_(deadline_us) {}

  uint64_t deadline_us_ = 0;  ///< 0 = no expiry
  std::atomic<bool> cancelled_{false};
};

namespace deadline_internal {
/// The innermost installed deadline of this thread (nullptr when none).
/// Initial-exec TLS for the same reason as metrics_internal::tls_context:
/// the checkpoint hook must stay a single %fs-relative load + branch.
/// `constinit` likewise (see there).
#if defined(__ELF__) && (defined(__GNUC__) || defined(__clang__))
extern thread_local constinit const Deadline* tls_deadline
    __attribute__((tls_model("initial-exec")));
#else
extern thread_local constinit const Deadline* tls_deadline;
#endif
}  // namespace deadline_internal

/// RAII scope publishing `deadline` to this thread's checkpoints. Nests
/// (the inner scope wins, the outer is restored on exit); installing
/// nullptr is a no-op scope, so call sites can pass an optional deadline
/// through unconditionally.
class ScopedDeadline {
 public:
  explicit ScopedDeadline(const Deadline* deadline)
      : parent_(deadline_internal::tls_deadline) {
    if (deadline != nullptr) deadline_internal::tls_deadline = deadline;
  }
  ~ScopedDeadline() { deadline_internal::tls_deadline = parent_; }
  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  const Deadline* parent_;
};

/// The checkpoint hook: OK (one TLS load + branch) when this thread has no
/// installed deadline, else Deadline::Check(). Engine match loops call this
/// every iteration or every few hundred iterations; the buffer pool calls
/// it before each physical read.
inline Status CheckDeadline() {
  const Deadline* d = deadline_internal::tls_deadline;
  if (d == nullptr) return Status::OK();
  return d->Check();
}

/// Currently installed deadline (nullptr when none) — for code that wants
/// remaining_us(), e.g. to bound a blocking wait.
inline const Deadline* CurrentDeadline() {
  return deadline_internal::tls_deadline;
}

}  // namespace prix

#endif  // PRIX_COMMON_DEADLINE_H_
