#ifndef PRIX_COMMON_METRICS_H_
#define PRIX_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace prix {

// Per-operation metrics in the RocksDB PerfContext/Statistics mold:
//
//  - MetricsContext (the PerfContext half): a thread-local, RAII-scoped
//    counter block the storage layer charges on every buffer-pool
//    hit/miss, physical page read/write, and B+-tree node visit. Because
//    the context is thread-local and queries execute on one thread,
//    attribution is EXACT: a query's counters contain its own I/O and
//    nothing else, no matter how many other queries fault pages
//    concurrently (QueryStats::pages_read is read from here).
//  - MetricsRegistry (the Statistics half): process-wide named counters
//    and power-of-two latency histograms (p50/p95/p99), disabled by
//    default, exported as JSON by benches and `prix stats`.
//  - TraceSpan: lightweight per-query phase spans, collected only when a
//    context opts in, rendered as an indented phase breakdown.
//
// Cost model (see DESIGN.md §5f and tools/check_metrics_overhead.sh): a
// charge with no open context is one thread-local load plus a predictable
// branch; building with -DPRIX_NO_METRICS compiles the hooks out entirely
// so the gap between the two is measurable. The ≤2% budget is enforced on
// bench_micro_core's buffer-pool/B+-tree hot paths.

/// Counter block charged by the storage layer. Plain (non-atomic) fields:
/// a context belongs to exactly one thread for its whole lifetime.
struct MetricCounters {
  uint64_t pool_hits = 0;       ///< buffer-pool hits
  uint64_t pool_misses = 0;     ///< buffer-pool misses
  uint64_t physical_reads = 0;  ///< pages read from disk (paper's "Disk IO")
  uint64_t physical_writes = 0; ///< pages written to disk
  uint64_t btree_nodes = 0;     ///< B+-tree nodes visited on read paths

  void MergeFrom(const MetricCounters& other) {
    pool_hits += other.pool_hits;
    pool_misses += other.pool_misses;
    physical_reads += other.physical_reads;
    physical_writes += other.physical_writes;
    btree_nodes += other.btree_nodes;
  }
};

/// One recorded trace span (microseconds relative to the context's birth).
struct TraceEvent {
  const char* name = nullptr;  ///< static string; spans never own names
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
  uint32_t depth = 0;  ///< nesting depth at record time (root span = 0)
};

class MetricsContext;

namespace metrics_internal {
/// The innermost open context of this thread (nullptr outside any scope).
/// Declared here so the Charge* hooks inline to a TLS load + branch. The
/// initial-exec TLS model keeps that load a single %fs-relative move
/// instead of a __tls_get_addr call (we only ever link statically; the
/// overhead guard in tools/check_metrics_overhead.sh holds it to <=2%).
/// `constinit` tells every includer that the variable needs no dynamic
/// initialization, so no access goes through a weak TLS-init-function
/// check. Without it, GCC 12 under -fsanitize=undefined could branch on that
/// check's flags (the function is absent, so "null") where it meant to test
/// the variable's address, and report "load of null pointer".
#if defined(__ELF__) && (defined(__GNUC__) || defined(__clang__))
extern thread_local constinit MetricsContext* tls_context
    __attribute__((tls_model("initial-exec")));
#else
extern thread_local constinit MetricsContext* tls_context;
#endif
}  // namespace metrics_internal

/// RAII per-operation scope. Opening one makes this thread's storage-layer
/// charges land in `counters`; closing it folds the counters into the
/// enclosing scope (if any), so an outer scope around a batch still sees
/// batch totals. Contexts must be closed on the thread that opened them
/// and nest strictly (stack order) — both properties fall out of RAII.
class MetricsContext {
 public:
  explicit MetricsContext(bool collect_trace = false)
      : tracing_(collect_trace),
        parent_(metrics_internal::tls_context) {
    if (tracing_) birth_us_ = NowMicros();
    metrics_internal::tls_context = this;
  }

  ~MetricsContext() {
    metrics_internal::tls_context = parent_;
    if (parent_ != nullptr) parent_->counters.MergeFrom(counters);
  }

  MetricsContext(const MetricsContext&) = delete;
  MetricsContext& operator=(const MetricsContext&) = delete;

  static MetricsContext* Current() { return metrics_internal::tls_context; }

  MetricCounters counters;

  // ---- tracing (off unless the context was opened with collect_trace) ----
  bool tracing() const { return tracing_; }
  uint64_t birth_us() const { return birth_us_; }
  std::vector<TraceEvent>& trace() { return trace_; }

  /// Monotonic clock in microseconds (steady_clock).
  static uint64_t NowMicros();

 private:
  friend class TraceSpan;
  bool tracing_ = false;
  uint64_t birth_us_ = 0;
  uint32_t span_depth_ = 0;
  std::vector<TraceEvent> trace_;
  MetricsContext* parent_ = nullptr;
};

/// RAII trace span. A no-op unless some ENCLOSING context was opened with
/// collect_trace; the nearest such context collects the span, so a caller
/// tracing a query sees phase spans even though Execute opens its own
/// (non-tracing) context for I/O attribution in between. `name` must be a
/// static string.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    MetricsContext* ctx = MetricsContext::Current();
    while (ctx != nullptr && !ctx->tracing()) ctx = ctx->parent_;
    if (ctx == nullptr) return;
    ctx_ = ctx;
    name_ = name;
    depth_ = ctx->span_depth_++;
    start_us_ = MetricsContext::NowMicros();
  }
  ~TraceSpan() {
    if (ctx_ == nullptr) return;
    --ctx_->span_depth_;
    ctx_->trace_.push_back(TraceEvent{
        name_, start_us_ - ctx_->birth_us(),
        MetricsContext::NowMicros() - start_us_, depth_});
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  MetricsContext* ctx_ = nullptr;
  const char* name_ = nullptr;
  uint64_t start_us_ = 0;
  uint32_t depth_ = 0;
};

/// Renders recorded spans as an indented per-phase breakdown, one line per
/// span: "  refine           1234 us".
std::string RenderTrace(const std::vector<TraceEvent>& trace);

// ---- storage-layer charge hooks ----
//
// Compiled out under PRIX_NO_METRICS (the baseline build the overhead
// guard compares against); otherwise one TLS load + branch when no scope
// is open.
#ifdef PRIX_NO_METRICS
inline void ChargePoolHit() {}
inline void ChargePoolMiss() {}
inline void ChargePhysicalRead() {}
inline void ChargePhysicalWrite() {}
inline void ChargeBtreeNode() {}
inline void ChargeBtreeNodes(uint64_t) {}
#else
inline void ChargePoolHit() {
  if (MetricsContext* c = metrics_internal::tls_context) {
    ++c->counters.pool_hits;
  }
}
inline void ChargePoolMiss() {
  if (MetricsContext* c = metrics_internal::tls_context) {
    ++c->counters.pool_misses;
  }
}
inline void ChargePhysicalRead() {
  if (MetricsContext* c = metrics_internal::tls_context) {
    ++c->counters.physical_reads;
  }
}
inline void ChargePhysicalWrite() {
  if (MetricsContext* c = metrics_internal::tls_context) {
    ++c->counters.physical_writes;
  }
}
inline void ChargeBtreeNode() {
  if (MetricsContext* c = metrics_internal::tls_context) {
    ++c->counters.btree_nodes;
  }
}
/// Bulk variant so a B+-tree descent pays one TLS access for the whole
/// root-to-leaf walk instead of one per level.
inline void ChargeBtreeNodes(uint64_t n) {
  if (MetricsContext* c = metrics_internal::tls_context) {
    c->counters.btree_nodes += n;
  }
}
#endif  // PRIX_NO_METRICS

/// Process-wide monotonically increasing counter (relaxed atomics).
class MetricCounter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Lock-free histogram with power-of-two buckets: bucket 0 holds value 0,
/// bucket i (i >= 1) holds values in [2^(i-1), 2^i). Record is two relaxed
/// fetch_adds; percentiles interpolate linearly inside the hit bucket, so
/// a quantile is exact to within a factor of two (plenty for latency
/// reporting — the same trade RocksDB's HistogramStat makes).
class MetricHistogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  void Record(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;
  /// Value at quantile `q` in [0, 1] (0.5 = p50). 0 when empty.
  uint64_t Percentile(double q) const;
  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Process-wide registry of named counters and histograms. Lookup takes a
/// mutex and is meant to be done once (cache the returned reference — the
/// objects are never destroyed or moved while the process lives); Record
/// and Add on the returned objects are lock-free. Disabled by default so
/// library users pay nothing; benches, tests, and the CLI enable it.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Finds or creates the named metric. References stay valid for the
  /// process lifetime (Reset zeroes values, it never removes entries).
  MetricCounter& counter(std::string_view name);
  MetricHistogram& histogram(std::string_view name);

  /// Zeroes every registered counter and histogram.
  void Reset();

  /// Full dump, sorted by name:
  /// {"counters": {...}, "histograms": {name: {count, sum, mean, p50, p95,
  /// p99, max}, ...}}
  std::string ToJson() const;

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
  std::atomic<bool> enabled_{false};
};

}  // namespace prix

#endif  // PRIX_COMMON_METRICS_H_
