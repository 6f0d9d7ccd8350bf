#include "serve/admission.h"

#include <algorithm>
#include <chrono>

namespace prix {

AdmissionController::AdmissionController(const Options& options)
    : options_(options),
      // Cold-start guard: before any request has completed the EWMA is pure
      // guesswork, so an unset (zero) seed falls back to a conservative
      // figure — shedding a meetable deadline costs one retry; admitting an
      // unmeetable one wastes a slot on a corpse.
      ewma_service_us_(options.initial_service_us > 0
                           ? options.initial_service_us
                           : kConservativeServiceUs) {}

uint64_t AdmissionController::PredictedWaitUsLocked() const {
  // Every max_executing releases admit one queue position, so a request
  // arriving behind `queued` waiters with all slots busy waits roughly
  // (queued / slots + 1) service times. Coarse on purpose: it only has to
  // be right within a factor of two for deadline-unmeetable shedding to
  // beat queueing the corpse.
  size_t slots = std::max<size_t>(1, options_.max_executing);
  uint64_t queue_rounds = (queue_.size() + slots) / slots;
  return ewma_service_us_ * queue_rounds;
}

uint32_t AdmissionController::RetryAfterMsLocked() const {
  uint64_t us = PredictedWaitUsLocked();
  return static_cast<uint32_t>(std::max<uint64_t>(1, us / 1000));
}

Status AdmissionController::Admit(const Deadline* deadline,
                                  uint32_t* retry_after_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  auto shed = [&](const std::string& why) {
    ++shed_total_;
    if (retry_after_ms != nullptr) *retry_after_ms = RetryAfterMsLocked();
    return Status::ResourceExhausted(why);
  };
  if (draining_) {
    ++shed_total_;
    if (retry_after_ms != nullptr) *retry_after_ms = RetryAfterMsLocked();
    return Status::Unavailable("server is draining");
  }
  if (queue_.size() >= options_.max_queued) {
    return shed("admission queue full (" +
                std::to_string(options_.max_queued) + " waiting)");
  }
  if (deadline != nullptr && deadline->has_expiry() && executing_ >= options_.max_executing) {
    uint64_t predicted = PredictedWaitUsLocked();
    if (deadline->remaining_us() < predicted) {
      return shed("deadline unmeetable: predicted queue wait " +
                  std::to_string(predicted / 1000) + " ms exceeds remaining " +
                  std::to_string(deadline->remaining_us() / 1000) + " ms");
    }
  }
  auto waiter = std::make_shared<Waiter>();
  queue_.push_back(waiter);
  GrantLocked();
  while (!waiter->granted) {
    if (draining_) {
      waiter->abandoned = true;
      ++shed_total_;
      GrantLocked();
      if (retry_after_ms != nullptr) *retry_after_ms = RetryAfterMsLocked();
      return Status::Unavailable("server is draining");
    }
    Status dead = deadline != nullptr ? deadline->Check() : Status::OK();
    if (!dead.ok()) {
      waiter->abandoned = true;
      GrantLocked();
      return dead.Annotate("while queued for admission");
    }
    // Wake at least every 50 ms to re-check the deadline; a deadline closer
    // than that bounds the sleep itself.
    uint64_t sleep_us = 50'000;
    if (deadline != nullptr && deadline->has_expiry()) {
      sleep_us = std::min(sleep_us, deadline->remaining_us() + 1);
    }
    cv_.wait_for(lock, std::chrono::microseconds(sleep_us));
  }
  ++admitted_total_;
  return Status::OK();
}

void AdmissionController::GrantLocked() {
  bool granted_any = false;
  while (executing_ < options_.max_executing && !queue_.empty()) {
    std::shared_ptr<Waiter> w = queue_.front();
    queue_.pop_front();
    if (w->abandoned) continue;
    w->granted = true;
    ++executing_;
    granted_any = true;
  }
  // Also reap abandoned waiters stuck behind a full executing set so the
  // bounded queue is bounded by LIVE waiters.
  while (!queue_.empty() && queue_.front()->abandoned) queue_.pop_front();
  if (granted_any) cv_.notify_all();
}

void AdmissionController::Release(uint64_t service_us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (executing_ > 0) --executing_;
  if (!has_sample_) {
    // First completed request: adopt its service time outright instead of
    // blending into the synthetic seed — a seed orders of magnitude off
    // would otherwise take ~log(err)/log(4/3) releases to converge, shedding
    // meetable requests (seed too high) or queueing corpses (too low) the
    // whole way down.
    ewma_service_us_ = std::max<uint64_t>(1, service_us);
    has_sample_ = true;
  } else {
    // EWMA with alpha = 1/4: new = old + (sample - old) / 4, in integers.
    ewma_service_us_ =
        ewma_service_us_ + (static_cast<int64_t>(service_us) -
                            static_cast<int64_t>(ewma_service_us_)) /
                               4;
    if (ewma_service_us_ == 0) ewma_service_us_ = 1;
  }
  GrantLocked();
  cv_.notify_all();
}

void AdmissionController::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  cv_.notify_all();
}

size_t AdmissionController::executing() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executing_;
}

size_t AdmissionController::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

uint64_t AdmissionController::ewma_service_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ewma_service_us_;
}

uint64_t AdmissionController::admitted_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admitted_total_;
}

uint64_t AdmissionController::shed_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_total_;
}

}  // namespace prix
