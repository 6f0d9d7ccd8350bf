#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "corpus.h"

namespace perfbench {

/// Seconds on the steady clock.
double Now();

/// Microseconds on the steady clock.
uint64_t NowUs();

/// Nanoseconds on the steady clock.
uint64_t NowNs();

/// A child process with its stdout on a pipe or discarded, and an empty
/// stdin. The destructor kills and reaps a child still running, so no
/// process outlives the benchmark.
class Child {
 public:
  Child(const std::vector<std::string>& argv, bool pipe_stdout);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }

  /// Next stdout line without its newline; throws at EOF or after
  /// `timeout_s` seconds.
  std::string ReadLine(double timeout_s);

  /// Peak resident set size of the child in MiB (the kernel's ru_maxrss,
  /// which is its VmHWM), known once the child has been reaped.
  double PeakRssMb() const { return max_rss_kb_ / 1024.0; }

  /// SIGTERM, then waits up to `timeout_s` (SIGKILL after). Returns the
  /// exit status as waitpid reports it.
  int Stop(double timeout_s);

  /// Waits for a normal exit; throws when the exit code is not 0.
  void Wait(double timeout_s);

 private:
  int WaitFor(double timeout_s);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buf_;
  long max_rss_kb_ = 0;
};

/// The CPUs this process may run on.
std::vector<int> AllowedCpus();

/// Restricts the calling thread, and the threads and processes it starts
/// from then on, to `cpus`.
void PinTo(const std::vector<int>& cpus);

/// Runs a command to completion with stdout discarded; throws on failure.
void RunCommand(const std::vector<std::string>& argv, double timeout_s);

/// File size in bytes, 0 when missing.
uint64_t FileBytes(const std::string& path);

/// The server's answer to one request, as the client decoded it.
struct Answer {
  enum Kind : uint8_t { kResult, kError, kShed } kind = kError;
  uint64_t generation = 0;
  bool cached = false;
  std::vector<uint32_t> docs;
};

/// What one closed-loop run over a stream measured.
struct LoadResult {
  std::vector<double> latency_us;  ///< per request, send to response
  std::vector<Answer> answers;       ///< per request
  double wall_s = 0;                 ///< first send to last response
  uint64_t shed_retries = 0;         ///< kShed responses that were retried
};

/// Sends a kPing on a fresh connection and waits for the kPong.
void Ping(uint16_t port, double timeout_s);

/// Replays `stream` in order over `connections` closed-loop connections:
/// each connection sends its next request when the previous response has
/// arrived, taking requests from a shared cursor. A kShed answer is
/// retried after the server's retry hint, up to 8 times; its latency
/// includes the retries.
LoadResult RunClosedLoop(uint16_t port, const Stream& stream,
                         size_t connections);

/// `q` quantile (nearest rank) of `values`.
double Quantile(std::vector<double> values, double q);

/// Median of `values`.
double Median(std::vector<double> values);


}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
