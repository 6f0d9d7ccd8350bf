#ifndef PRIX_SERVE_ADMISSION_H_
#define PRIX_SERVE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "common/deadline.h"
#include "common/result.h"

namespace prix {

// Admission control for the serving layer (DESIGN.md §5j): a bounded FIFO
// queue in front of a fixed number of execute slots, with deadline-aware
// shedding. The goal under overload is a flat ceiling — memory bounded by
// max_queued, useful work bounded by max_executing — with excess load
// turned into cheap, typed SHED responses the client can back off on,
// instead of a growing queue of work that will time out anyway.
//
// Shed decisions (all typed, all carrying a retry-after hint):
//  - queue full                -> ResourceExhausted, shed on arrival
//  - deadline unmeetable       -> ResourceExhausted, shed on arrival: the
//    predicted queue wait (EWMA service time x queue depth / slots) already
//    exceeds the request's remaining deadline, so queueing it would only
//    waste a slot on a corpse
//  - draining                  -> Unavailable (SIGTERM shutdown in progress)
// A request whose deadline expires or is cancelled WHILE queued leaves the
// queue with its own DeadlineExceeded/Cancelled — it was admitted-then-
// abandoned, not shed.

class AdmissionController {
 public:
  struct Options {
    size_t max_executing = 4;       ///< concurrent requests actually running
    size_t max_queued = 64;         ///< waiters beyond the executing set
    /// EWMA seed before any sample; 0 means "unknown", which falls back to
    /// the conservative kConservativeServiceUs so cold-start shed
    /// predictions err toward shedding rather than queueing corpses.
    uint64_t initial_service_us = 10'000;
  };

  /// Stand-in service time while no request has completed yet.
  static constexpr uint64_t kConservativeServiceUs = 10'000;

  explicit AdmissionController(const Options& options);

  /// Blocks until an execute slot is granted or the request is refused.
  /// On OK the caller MUST call Release() when the request finishes. On
  /// ResourceExhausted / Unavailable, `retry_after_ms` (if non-null) holds
  /// the backoff hint to send with the SHED frame. `deadline` may be null.
  Status Admit(const Deadline* deadline, uint32_t* retry_after_ms);

  /// Returns an execute slot and feeds `service_us` into the EWMA the
  /// shed predictions use.
  void Release(uint64_t service_us);

  /// Refuse every new request with Unavailable and wake queued waiters
  /// (they are shed with Unavailable too). Idempotent.
  void BeginDrain();

  // Introspection (tests and the stats endpoint).
  size_t executing() const;
  size_t queued() const;
  uint64_t ewma_service_us() const;
  uint64_t admitted_total() const;
  uint64_t shed_total() const;

 private:
  struct Waiter {
    bool granted = false;
    bool abandoned = false;  ///< left the queue (deadline/cancel); skip it
  };

  /// Pops grantable waiters into execute slots. Caller holds mu_.
  void GrantLocked();

  uint64_t PredictedWaitUsLocked() const;
  uint32_t RetryAfterMsLocked() const;

  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t executing_ = 0;
  std::deque<std::shared_ptr<Waiter>> queue_;
  uint64_t ewma_service_us_;
  /// False until the first Release(): the first real sample replaces the
  /// seed outright instead of blending into it.
  bool has_sample_ = false;
  uint64_t admitted_total_ = 0;
  uint64_t shed_total_ = 0;
  bool draining_ = false;
};

}  // namespace prix

#endif  // PRIX_SERVE_ADMISSION_H_
