#include "common/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "common/json.h"

namespace prix {

namespace metrics_internal {
thread_local constinit MetricsContext* tls_context = nullptr;
}  // namespace metrics_internal

uint64_t MetricsContext::NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string RenderTrace(const std::vector<TraceEvent>& trace) {
  // Spans close innermost-first; re-emit in start order so the breakdown
  // reads top-down like a call tree.
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(trace.size());
  for (const TraceEvent& e : trace) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->start_us < b->start_us;
                   });
  std::string out;
  for (const TraceEvent* e : ordered) {
    char line[160];
    std::snprintf(line, sizeof(line), "%*s%-*s %8llu us (+%llu us)\n",
                  static_cast<int>(2 * e->depth), "",
                  static_cast<int>(24 - 2 * e->depth), e->name,
                  static_cast<unsigned long long>(e->dur_us),
                  static_cast<unsigned long long>(e->start_us));
    out += line;
  }
  return out;
}

void MetricHistogram::Record(uint64_t value) {
  size_t bucket = 0;
  if (value > 0) {
    bucket = 64 - static_cast<size_t>(__builtin_clzll(value));
    if (bucket >= kNumBuckets) bucket = kNumBuckets - 1;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (value > prev &&
         !max_.compare_exchange_weak(prev, value,
                                     std::memory_order_relaxed)) {
  }
}

double MetricHistogram::mean() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

uint64_t MetricHistogram::Percentile(double q) const {
  uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the requested quantile (1-based), then walk buckets.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(n - 1)) + 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    uint64_t in_bucket = buckets_[b].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= rank) {
      if (b == 0) return 0;
      // Linear interpolation inside [2^(b-1), 2^b).
      uint64_t lo = 1ull << (b - 1);
      uint64_t width = lo;  // bucket width equals its lower bound
      double frac = static_cast<double>(rank - seen - 1) /
                    static_cast<double>(in_bucket);
      uint64_t value = lo + static_cast<uint64_t>(frac *
                                                  static_cast<double>(width));
      uint64_t cap = max();
      return cap != 0 && value > cap ? cap : value;
    }
    seen += in_bucket;
  }
  return max();
}

void MetricHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

/// Name -> metric maps. Values are unique_ptrs so references handed out by
/// counter()/histogram() survive rehashing; entries are never erased.
struct MetricsRegistry::Impl {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<MetricCounter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<MetricHistogram>, std::less<>>
      histograms;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* impl = new Impl();  // leaked: registry outlives static dtors
  return *impl;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricCounter& MetricsRegistry::counter(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.counters.find(name);
  if (it == im.counters.end()) {
    it = im.counters
             .emplace(std::string(name), std::make_unique<MetricCounter>())
             .first;
  }
  return *it->second;
}

MetricHistogram& MetricsRegistry::histogram(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.histograms.find(name);
  if (it == im.histograms.end()) {
    it = im.histograms
             .emplace(std::string(name), std::make_unique<MetricHistogram>())
             .first;
  }
  return *it->second;
}

void MetricsRegistry::Reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (auto& [name, c] : im.counters) c->Reset();
  for (auto& [name, h] : im.histograms) h->Reset();
}

std::string MetricsRegistry::ToJson() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, c] : im.counters) {
    w.Key(name).UInt(c->value());
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, h] : im.histograms) {
    w.Key(name).BeginObject();
    w.Key("count").UInt(h->count());
    w.Key("sum").UInt(h->sum());
    w.Key("mean").Double(h->mean());
    w.Key("p50").UInt(h->Percentile(0.50));
    w.Key("p95").UInt(h->Percentile(0.95));
    w.Key("p99").UInt(h->Percentile(0.99));
    w.Key("max").UInt(h->max());
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

}  // namespace prix
