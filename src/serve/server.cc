#ifndef _GNU_SOURCE
#define _GNU_SOURCE  // POLLRDHUP: half-close detection for the watchdog
#endif

#include "serve/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "common/macros.h"
#include "common/metrics.h"

namespace prix {

namespace {

/// The disconnect events the watchdog cancels on. POLLRDHUP (peer shut
/// down its write side) is Linux-specific; where absent, POLLERR/POLLHUP
/// still catch hard resets.
#ifdef POLLRDHUP
constexpr short kGoneEvents = POLLRDHUP | POLLERR | POLLHUP;
#else
constexpr short kGoneEvents = POLLERR | POLLHUP;
#endif

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

/// Encodes a result frame, unless the payload would not fit one frame —
/// result size is driven by query selectivity and batch size, which a
/// hostile batch controls, so the overflow is a typed error back to the
/// client, never AppendFrame's process-aborting invariant.
std::vector<char> EncodeBoundedResult(const QueryResponse& resp) {
  size_t payload = ResultPayloadBytes(resp);
  if (payload + 1 <= kMaxFrameBody) return EncodeResult(resp);
  ErrorResponse err;
  err.request_id = resp.request_id;
  err.status_code = static_cast<uint32_t>(StatusCode::kResourceExhausted);
  err.message = "result of " + std::to_string(payload) +
                " bytes exceeds the " + std::to_string(kMaxFrameBody) +
                "-byte frame limit; narrow the queries or shrink the batch";
  MetricsRegistry& reg = MetricsRegistry::Global();
  if (reg.enabled()) reg.counter("prix.serve.oversized_results").Add(1);
  return EncodeError(err);
}

}  // namespace

Server::Server(Database* db, TagDictionary* dict, const ServerOptions& options)
    : db_(db),
      dict_(dict),
      options_(options),
      admission_(options.admission),
      cache_(options.cache_bytes) {}

Result<std::unique_ptr<Server>> Server::Start(Database* db,
                                              TagDictionary* dict,
                                              const ServerOptions& options) {
  if (options.admission.max_executing == 0) {
    return Status::InvalidArgument(
        "admission.max_executing must be at least 1 (0 admits nothing)");
  }
  PRIX_ASSIGN_OR_RETURN(Database::IndexEntry rp, db->GetIndex(options.rp_name));
  if (rp.kind != Database::IndexKind::kPrixRegular &&
      rp.kind != Database::IndexKind::kPrixExtended) {
    return Status::InvalidArgument("index '" + options.rp_name +
                                   "' is not a PRIX index");
  }
  if (!options.ep_name.empty()) {
    PRIX_RETURN_NOT_OK(db->GetIndex(options.ep_name).status());
  }
  auto server = std::unique_ptr<Server>(new Server(db, dict, options));

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Errno("bind");
    ::close(fd);
    return st;
  }
  if (::listen(fd, 128) < 0) {
    Status st = Errno("listen");
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) <
      0) {
    Status st = Errno("getsockname");
    ::close(fd);
    return st;
  }
  server->listen_fd_ = fd;
  server->port_ = ntohs(addr.sin_port);
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  server->watchdog_thread_ =
      std::thread([s = server.get()] { s->WatchdogLoop(); });
  return server;
}

Server::~Server() {
  Stop();
  (void)Join();
}

void Server::BeginDrain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  admission_.BeginDrain();
  // Wake the blocking accept(); the fd itself is closed in Join after the
  // accept thread exits.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void Server::Stop() {
  BeginDrain();
  if (stopping_.exchange(true)) return;
  // Impatient drain: cancel whatever is executing so engine checkpoints
  // abort those requests at their next CheckDeadline().
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto& conn : conns_) {
    if (conn->executing_deadline != nullptr) {
      conn->executing_deadline->Cancel();
    }
  }
}

Status Server::Join() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // No new connections can appear now; join the existing ones.
  while (true) {
    std::unique_ptr<Conn> conn;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.empty()) break;
      conn = std::move(conns_.front());
      conns_.pop_front();
    }
    if (conn->thread.joinable()) conn->thread.join();
  }
  watchdog_stop_.store(true, std::memory_order_release);
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  return Status::OK();
}

void Server::ReapFinishedConns() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::AcceptLoop() {
  while (!draining_.load(std::memory_order_relaxed)) {
    struct sockaddr_in peer;
    socklen_t len = sizeof(peer);
    int fd = ::accept4(listen_fd_, reinterpret_cast<struct sockaddr*>(&peer),
                       &len, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // shutdown() in BeginDrain surfaces as EINVAL/ECONNABORTED here.
      if (draining_.load(std::memory_order_relaxed)) break;
      // Persistent failures (EMFILE/ENFILE when the process is out of fds)
      // must not busy-spin a core; back off briefly before retrying.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ReapFinishedConns();
    if (options_.max_connections != 0) {
      size_t open;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        open = conns_.size();
      }
      if (open >= options_.max_connections) {
        // Refuse, typed, without spawning a thread: a connection flood is
        // bounded at the door instead of exhausting threads or fds.
        ErrorResponse err;
        err.request_id = 0;
        err.status_code = static_cast<uint32_t>(StatusCode::kResourceExhausted);
        err.message = "connection limit (" +
                      std::to_string(options_.max_connections) +
                      ") reached, retry later";
        (void)WriteAll(fd, EncodeError(err));
        ::close(fd);
        MetricsRegistry& reg = MetricsRegistry::Global();
        if (reg.enabled()) reg.counter("prix.serve.conns_refused").Add(1);
        continue;
      }
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { ConnectionLoop(raw); });
  }
}

void Server::WatchdogLoop() {
  // ~25 ms disconnect-detection latency: cheap (one non-blocking poll over
  // the executing set) and far below any realistic query deadline. The
  // whole collect-poll-cancel sequence holds conns_mu_, so a request that
  // finishes concurrently blocks in UnregisterExecuting until any Cancel
  // aimed at its (stack-allocated) deadline has completed.
  while (!watchdog_stop_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      std::vector<struct pollfd> fds;
      std::vector<Deadline*> deadlines;
      for (auto& conn : conns_) {
        if (conn->executing_deadline == nullptr) continue;
        struct pollfd p;
        p.fd = conn->fd;
        p.events = kGoneEvents;
        p.revents = 0;
        fds.push_back(p);
        deadlines.push_back(conn->executing_deadline);
      }
      if (!fds.empty() && ::poll(fds.data(), fds.size(), 0) > 0) {
        for (size_t i = 0; i < fds.size(); ++i) {
          if (fds[i].revents & kGoneEvents) deadlines[i]->Cancel();
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
}

void Server::RegisterExecuting(Conn* conn, Deadline* deadline) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  conn->executing_deadline = deadline;
}

void Server::UnregisterExecuting(Conn* conn) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  conn->executing_deadline = nullptr;
}

void Server::ConnectionLoop(Conn* conn) {
  FrameDecoder dec;
  while (true) {
    auto got = ReadFrame(conn->fd, &dec, options_.idle_timeout_ms, &draining_,
                         options_.idle_conn_timeout_ms);
    if (!got.ok()) {
      // Malformed stream, idle timeout, or shutdown: answer with a typed
      // error when the peer may still be listening, then hang up (framing
      // cannot resync after garbage). A DeadlineExceeded with no frame
      // bytes buffered is the idle-connection reaper (silence between
      // frames), not a slowloris kill — count it so operators can see
      // abandoned clients being recycled.
      if (got.status().IsDeadlineExceeded() && dec.buffered() == 0 &&
          options_.idle_conn_timeout_ms != 0) {
        MetricsRegistry& reg = MetricsRegistry::Global();
        if (reg.enabled()) reg.counter("prix.serve.conns_reaped").Add(1);
      }
      if (!got.status().IsUnavailable()) {
        ErrorResponse err;
        err.request_id = 0;
        err.status_code = static_cast<uint32_t>(got.status().code());
        err.message = got.status().ToString();
        (void)WriteAll(conn->fd, EncodeError(err));
      }
      break;
    }
    if (!got->has_value()) break;  // clean EOF
    const Frame& frame = **got;
    std::vector<char> reply;
    switch (frame.type) {
      case FrameType::kPing: {
        reply.clear();
        AppendFrame(&reply, FrameType::kPong, frame.payload);
        break;
      }
      case FrameType::kQuery:
        reply = HandleQuery(conn, frame);
        break;
      default: {
        ErrorResponse err;
        err.request_id = PeekRequestId(frame);
        err.status_code =
            static_cast<uint32_t>(StatusCode::kInvalidArgument);
        err.message = "unexpected frame type " +
                      std::to_string(static_cast<unsigned>(frame.type)) +
                      " from a client";
        reply = EncodeError(err);
        break;
      }
    }
    if (!WriteAll(conn->fd, reply).ok()) break;
    if (draining_.load(std::memory_order_relaxed)) break;
  }
  ::close(conn->fd);
  conn->done.store(true, std::memory_order_release);
}

std::vector<char> Server::HandleQuery(Conn* conn, const Frame& frame) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  uint64_t start_us = Deadline::NowMicros();
  auto query = DecodeQuery(frame);
  if (!query.ok()) {
    ErrorResponse err;
    err.request_id = PeekRequestId(frame);
    err.status_code = static_cast<uint32_t>(query.status().code());
    err.message = query.status().ToString();
    if (reg.enabled()) reg.counter("prix.serve.bad_frames").Add(1);
    return EncodeError(err);
  }
  const QueryRequest& req = *query;
  uint32_t timeout_ms = req.timeout_ms != 0 ? req.timeout_ms
                                            : options_.default_timeout_ms;
  Deadline deadline = timeout_ms != 0 ? Deadline::AfterMillis(timeout_ms)
                                      : Deadline();

  // Cache probe at the current committed generation, BEFORE admission: a
  // full hit answers without consuming an execute slot, and the keyed
  // generation makes the answer exact for that snapshot even if a writer
  // commits while the response is in flight.
  if (!req.xpaths.empty()) {
    uint64_t gen = db_->catalog_generation();
    QueryResponse resp;
    resp.request_id = req.request_id;
    resp.generation = gen;
    resp.cached = true;
    resp.docs.resize(req.xpaths.size());
    bool all_hit = true;
    for (size_t i = 0; i < req.xpaths.size() && all_hit; ++i) {
      all_hit = cache_.Lookup(options_.rp_name, gen, req.xpaths[i],
                              &resp.docs[i]);
    }
    if (all_hit) {
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      if (reg.enabled()) {
        reg.counter("prix.serve.requests").Add(1);
        reg.histogram("prix.serve.request_us")
            .Record(Deadline::NowMicros() - start_us);
      }
      return EncodeBoundedResult(resp);
    }
  }

  uint32_t retry_after_ms = 0;
  Status admitted = admission_.Admit(&deadline, &retry_after_ms);
  if (admitted.IsResourceExhausted() || admitted.IsUnavailable()) {
    ShedResponse shed;
    shed.request_id = req.request_id;
    shed.retry_after_ms = retry_after_ms;
    shed.message = admitted.ToString();
    if (reg.enabled()) reg.counter("prix.serve.shed").Add(1);
    return EncodeShed(shed);
  }
  if (!admitted.ok()) {
    // Deadline expired or request cancelled while queued.
    ErrorResponse err;
    err.request_id = req.request_id;
    err.status_code = static_cast<uint32_t>(admitted.code());
    err.message = admitted.ToString();
    if (reg.enabled()) reg.counter("prix.serve.errors").Add(1);
    return EncodeError(err);
  }

  RegisterExecuting(conn, &deadline);
  QueryOptions qopts;
  qopts.deadline = &deadline;
  auto batch = ExecuteXPathBatch(
      db_, EngineKind::kPrix, {.rp = options_.rp_name, .ep = options_.ep_name},
      req.xpaths, dict_, qopts);
  UnregisterExecuting(conn);
  uint64_t service_us = Deadline::NowMicros() - start_us;
  admission_.Release(service_us);

  if (!batch.ok()) {
    ErrorResponse err;
    err.request_id = req.request_id;
    err.status_code = static_cast<uint32_t>(batch.status().code());
    err.message = batch.status().ToString();
    if (reg.enabled()) reg.counter("prix.serve.errors").Add(1);
    return EncodeError(err);
  }

  QueryResponse resp;
  resp.request_id = req.request_id;
  resp.generation = batch->generation;
  resp.cached = false;
  resp.docs.reserve(batch->results.size());
  for (size_t i = 0; i < batch->results.size(); ++i) {
    const std::vector<DocId>& docs = batch->results[i].docs;
    resp.docs.emplace_back(docs.begin(), docs.end());
    cache_.Insert(options_.rp_name, batch->generation, req.xpaths[i],
                  resp.docs.back());
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  if (reg.enabled()) {
    reg.counter("prix.serve.requests").Add(1);
    reg.histogram("prix.serve.request_us").Record(service_us);
  }
  return EncodeBoundedResult(resp);
}

}  // namespace prix
