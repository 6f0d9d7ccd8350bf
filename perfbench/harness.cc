#include "harness.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "serve/wire.h"

extern char** environ;

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::vector<char*> ArgvPointers(const std::vector<std::string>& argv) {
  std::vector<char*> out;
  for (const std::string& a : argv) out.push_back(const_cast<char*>(a.c_str()));
  out.push_back(nullptr);
  return out;
}

}  // namespace

Child::Child(const std::vector<std::string>& argv, bool pipe_stdout) {
  int out[2] = {-1, -1};
  if (pipe_stdout && ::pipe2(out, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (pipe_stdout) {
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  } else {
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
  }
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  std::vector<char*> args = ArgvPointers(argv);
  int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (pipe_stdout) {
    ::close(out[1]);
    out_fd_ = out[0];
  }
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
  }
}

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

std::string Child::ReadLine(double timeout_s) {
  double deadline = Now() + timeout_s;
  for (;;) {
    size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    double left = deadline - Now();
    if (left <= 0) throw std::runtime_error("child output timed out");
    pollfd p{out_fd_, POLLIN, 0};
    int rc = ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;
    char chunk[4096];
    ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("child closed its output");
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

int Child::WaitFor(double timeout_s) {
  double deadline = Now() + timeout_s;
  int status = 0;
  while (Now() < deadline) {
    rusage usage{};
    pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
    if (r == pid_) {
      pid_ = -1;
      max_rss_kb_ = usage.ru_maxrss;
      return status;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  throw std::runtime_error("child did not exit in time");
}

int Child::Stop(double timeout_s) {
  ::kill(pid_, SIGTERM);
  return WaitFor(timeout_s);
}

void Child::Wait(double timeout_s) {
  int status = WaitFor(timeout_s);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child failed with status " +
                             std::to_string(status));
  }
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

void RunCommand(const std::vector<std::string>& argv, double timeout_s) {
  Child child(argv, false);
  child.Wait(timeout_s);
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                         : 0;
}

namespace {

/// Connects to 127.0.0.1:`port` with TCP_NODELAY, or throws.
int Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to port " + std::to_string(port));
  }
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Reads one frame or throws.
prix::Frame ReadOne(int fd, prix::FrameDecoder* dec) {
  auto frame = prix::ReadFrame(fd, dec, 60'000);
  if (!frame.ok()) throw std::runtime_error(frame.status().ToString());
  if (!frame->has_value()) throw std::runtime_error("server closed");
  return std::move(**frame);
}

void SendAll(int fd, const std::vector<char>& data) {
  prix::Status s = prix::WriteAll(fd, data);
  if (!s.ok()) throw std::runtime_error(s.ToString());
}

}  // namespace

void Ping(uint16_t port, double timeout_s) {
  int fd = Connect(port);
  std::vector<char> ping;
  prix::AppendFrame(&ping, prix::FrameType::kPing, {'u', 'p'});
  prix::FrameDecoder dec;
  try {
    SendAll(fd, ping);
    auto frame = prix::ReadFrame(fd, &dec,
                                 static_cast<uint32_t>(timeout_s * 1000));
    if (!frame.ok() || !frame->has_value() ||
        (**frame).type != prix::FrameType::kPong) {
      throw std::runtime_error("server did not answer the ping");
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

LoadResult RunClosedLoop(uint16_t port, const Stream& stream,
                         size_t connections) {
  // Frames are encoded before the clock starts: encoding is the load
  // generator's work, not the server's.
  std::vector<std::vector<char>> frames;
  frames.reserve(stream.distinct.size());
  for (size_t i = 0; i < stream.distinct.size(); ++i) {
    prix::QueryRequest req;
    req.request_id = i;
    req.xpaths = {stream.distinct[i]};
    frames.push_back(prix::EncodeQuery(req));
  }
  LoadResult out;
  const size_t n = stream.requests.size();
  out.latency_us.assign(n, 0);
  out.answers.assign(n, Answer{});
  std::vector<int> fds;
  for (size_t c = 0; c < connections; ++c) fds.push_back(Connect(port));
  std::atomic<size_t> cursor{0};
  std::atomic<uint64_t> retries{0};
  std::vector<std::string> errors(connections);
  double start = Now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      prix::FrameDecoder dec;
      try {
        for (size_t i; (i = cursor.fetch_add(1)) < n;) {
          const std::vector<char>& frame = frames[stream.requests[i]];
          Answer& a = out.answers[i];
          uint64_t t0 = NowNs();
          for (int attempt = 0;; ++attempt) {
            SendAll(fds[c], frame);
            prix::Frame reply = ReadOne(fds[c], &dec);
            if (reply.type == prix::FrameType::kResult) {
              out.latency_us[i] = double(NowNs() - t0) / 1000.0;
              auto r = prix::DecodeResult(reply);
              if (!r.ok()) throw std::runtime_error(r.status().ToString());
              a.kind = Answer::kResult;
              a.generation = r->generation;
              a.cached = r->cached;
              if (r->docs.size() == 1) a.docs = std::move(r->docs[0]);
              break;
            }
            if (reply.type == prix::FrameType::kShed && attempt < 8) {
              auto shed = prix::DecodeShed(reply);
              retries.fetch_add(1);
              uint32_t ms = shed.ok() ? shed->retry_after_ms : 1;
              std::this_thread::sleep_for(
                  std::chrono::milliseconds(std::clamp<uint32_t>(ms, 1, 50)));
              continue;
            }
            out.latency_us[i] = double(NowNs() - t0) / 1000.0;
            a.kind = reply.type == prix::FrameType::kShed ? Answer::kShed
                                                          : Answer::kError;
            break;
          }
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  out.wall_s = Now() - start;
  out.shed_retries = retries.load();
  for (int fd : fds) ::close(fd);
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("load connection: " + e);
  }
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
