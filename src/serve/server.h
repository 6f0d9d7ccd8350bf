#ifndef PRIX_SERVE_SERVER_H_
#define PRIX_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "prix/engine.h"
#include "serve/admission.h"
#include "serve/result_cache.h"
#include "serve/wire.h"
#include "xml/tag_dictionary.h"

namespace prix {

/// Tuning and wiring for one Server. Defaults are sized for the paper's
/// single-machine setup; everything is overridable from `prix serve`.
struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 asks the kernel for an ephemeral port (the
  /// bound port is reported by Server::port() and printed by the CLI).
  uint16_t port = 0;

  /// Admission control. `max_executing` (at least 1) is the only bound on
  /// concurrent execution: an admitted request runs on its own connection
  /// thread.
  AdmissionController::Options admission{4, 64, 8, 10'000};

  /// Result cache budget; 0 disables caching.
  size_t cache_bytes = 16u << 20;

  /// Deadline applied to requests that carry timeout_ms == 0. 0 = none.
  uint32_t default_timeout_ms = 0;

  /// Slowloris guard: a connection that keeps a frame (or its length
  /// prefix) incomplete this long is dropped with a typed error. The clock
  /// is per frame, not per byte — drip-feeding cannot extend it.
  uint32_t idle_timeout_ms = 10'000;

  /// Idle-connection reaper: a connection that completes a frame and then
  /// goes silent — no bytes at all — is allowed this much quiet before it
  /// is closed with a typed DeadlineExceeded and counted in
  /// `prix.serve.conns_reaped`. Bounds how long an abandoned client can
  /// pin a connection thread between requests (the per-frame clock above
  /// only governs a frame in flight). 0 disables reaping, collapsing both
  /// bounds back into idle_timeout_ms.
  uint32_t idle_conn_timeout_ms = 60'000;

  /// Cap on simultaneously open connections (thread-per-connection means
  /// this also caps connection threads). An accept beyond the cap is
  /// answered with a typed ResourceExhausted error and closed immediately,
  /// so a connection flood cannot exhaust threads or fds. 0 = unlimited.
  size_t max_connections = 256;

  /// Catalog names of the PRIX indexes every batch runs against.
  std::string rp_name = "rp";
  std::string ep_name;  ///< empty = no extended index
};

/// `prix serve`: a thread-per-connection TCP server speaking the wire
/// protocol of serve/wire.h. Each connection thread answers its own
/// requests with ExecuteXPathBatch against a pinned generation snapshot
/// (DESIGN.md §5j); admission's execute slots bound how many do so at once.
///
/// Request lifecycle: decode (hostile-input hardened) -> result-cache
/// probe at the current committed generation -> admission (bounded queue,
/// per-client caps, deadline-aware shedding) -> snapshot-pinned batch
/// execution on the connection thread with the request's Deadline
/// installed -> typed response (kResult / kError / kShed). A watchdog thread polls executing
/// connections for peer disconnect (POLLRDHUP) and cancels their Deadline,
/// so a client that vanishes mid-request stops burning CPU and I/O within
/// one engine checkpoint.
///
/// Shutdown: BeginDrain() (the SIGTERM path) stops accepting, sheds the
/// admission queue, lets in-flight requests finish and their responses
/// flush, then Join() returns. Stop() additionally cancels in-flight
/// request deadlines for a fast exit.
class Server {
 public:
  /// Binds, listens, and starts the accept/watchdog threads. `db` and
  /// `dict` must outlive the server; the named RP index must exist and
  /// `admission.max_executing` must be at least 1 (InvalidArgument
  /// otherwise).
  static Result<std::unique_ptr<Server>> Start(Database* db,
                                               TagDictionary* dict,
                                               const ServerOptions& options);

  ~Server();

  uint16_t port() const { return port_; }

  /// Graceful shutdown trigger; idempotent and safe from any thread.
  void BeginDrain();

  /// Cancels in-flight deadlines too (drain, but impatient).
  void Stop();

  /// Blocks until every connection thread has exited. Call after
  /// BeginDrain()/Stop(); returns OK when the server wound down cleanly.
  Status Join();

  // Introspection for tests and `prix serve` logging.
  const AdmissionController& admission() const { return admission_; }
  /// Test hook: a test may occupy execute slots itself to force queueing.
  AdmissionController& admission_for_testing() { return admission_; }
  const ResultCache& cache() const { return cache_; }
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;

  Server(Database* db, TagDictionary* dict, const ServerOptions& options);

  void AcceptLoop();
  void WatchdogLoop();
  void ConnectionLoop(Conn* conn);
  /// Handles one kQuery frame end to end; the returned buffer is the
  /// encoded response frame to send.
  std::vector<char> HandleQuery(Conn* conn, const Frame& frame);

  void RegisterExecuting(Conn* conn, Deadline* deadline);
  void UnregisterExecuting(Conn* conn);
  void ReapFinishedConns();

  Database* db_;
  TagDictionary* dict_;
  ServerOptions options_;
  AdmissionController admission_;
  ResultCache cache_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<uint64_t> next_client_id_{0};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> watchdog_stop_{false};
  std::atomic<uint64_t> requests_served_{0};

  std::thread accept_thread_;
  std::thread watchdog_thread_;

  struct Conn {
    int fd = -1;
    /// Admission key. One id per connection (monotonic counter): the
    /// server binds loopback only, so every peer shares 127.0.0.1 and the
    /// address cannot distinguish clients — keying on it would collapse
    /// per_client_inflight into an accidental global cap. Per-connection
    /// keys restore per-client fairness (one budget per connection);
    /// global bounds come from max_executing/max_queued/max_connections.
    uint64_t client_id = 0;
    std::thread thread;
    std::atomic<bool> done{false};
    /// Deadline of the request this connection is executing (null when
    /// idle). The deadline lives on the connection thread's stack, so every
    /// access — install, clear, and the watchdog's Cancel — happens under
    /// conns_mu_; the connection thread cannot clear-and-destroy it while
    /// the watchdog is mid-Cancel.
    Deadline* executing_deadline = nullptr;
  };
  std::mutex conns_mu_;
  std::list<std::unique_ptr<Conn>> conns_;
};

}  // namespace prix

#endif  // PRIX_SERVE_SERVER_H_
