// Parallel twig-query throughput: sweeps 1/2/4/8 reader threads over the
// Table-3 query mix per dataset with a WARM buffer pool (the concurrent-
// traffic regime of ROADMAP.md, as opposed to the paper's cold-cache
// single-query measurements, which are bench_paper's). The readers answer
// through one shared Engines handle on a pinned snapshot, the read path
// `prix serve` runs, taking query indexes from one atomic counter and
// cycling the mix. Each thread count runs kTrials trials of kTrialSeconds
// wall time; the report is the median queries/second with its quartiles,
// and the buffer-pool hit rate. Emits BENCH_parallel.json.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "query/xpath_parser.h"

using namespace prix;
using namespace prix::bench;

namespace {

constexpr size_t kThreadSweep[] = {1, 2, 4, 8};
/// Wall time of one trial, and trials per sweep point.
constexpr double kTrialSeconds = 0.5;
constexpr size_t kTrials = 5;

struct SweepPoint {
  size_t threads = 0;
  uint64_t queries = 0;  ///< over all trials
  double qps_q1 = 0;
  double qps_median = 0;
  double qps_q3 = 0;
  double hit_rate = 0;
};

struct DatasetReport {
  std::string name;
  size_t mix_size = 0;
  std::vector<SweepPoint> sweep;
  bool results_consistent = true;
};

/// Quantile `q` of `sorted` by linear interpolation between ranks.
double Quantile(const std::vector<double>& sorted, double q) {
  const double rank = q * (sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (rank - lo) * (sorted[hi] - sorted[lo]);
}

/// One trial: `threads` readers answer mix[i % mix.size()] for i = 0, 1, ...
/// until kTrialSeconds pass. Returns queries answered per second; clears
/// `*consistent` when an answer differs from `expected`.
double RunTrial(const Engines& engines, const std::vector<TwigPattern>& mix,
                const std::vector<QueryResult>& expected, size_t threads,
                uint64_t* queries, std::atomic<bool>* consistent) {
  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t t = 0; t < threads; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t q = next.fetch_add(1) % mix.size();
        auto r = engines.Execute(EngineKind::kPrix, mix[q]);
        if (!r.ok() || r->docs != expected[q].docs ||
            r->matches.size() != expected[q].matches.size()) {
          consistent->store(false);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kTrialSeconds));
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  // A reader takes an index only after seeing `stop` clear, and answers it.
  const uint64_t answered = next.load();
  *queries += answered;
  return answered / seconds;
}

double HitRate(const BufferPoolStats& stats) {
  uint64_t logical = stats.hits + stats.misses;
  return logical == 0 ? 0.0 : static_cast<double>(stats.hits) / logical;
}

}  // namespace

int main() {
  const double scale = ScaleFromEnv();
  unsigned hw = std::thread::hardware_concurrency();
  // hardware_concurrency may return 0 ("unknown"); the sysconf count of
  // ONLINE processors is the authoritative host annotation (ROADMAP item:
  // speedups are only meaningful when this is > 1).
  long online = sysconf(_SC_NPROCESSORS_ONLN);
  long host_cpus = online > 0 ? online : (hw > 0 ? long{hw} : 1);
  std::printf(
      "Parallel twig-query throughput, warm cache (scale %.2f, %u hardware "
      "threads, %ld online CPUs%s; %zu trials of %.1f s per point)\n",
      scale, hw, host_cpus,
      host_cpus > 1 ? "" : " - single-core host, expect flat speedup",
      kTrials, kTrialSeconds);

  std::vector<DatasetReport> reports;
  for (const char* dataset : {"DBLP", "SWISSPROT", "TREEBANK"}) {
    EngineSet set(dataset, scale);
    if (!set.Build().ok()) return 1;
    DatasetReport report;
    report.name = dataset;

    std::vector<TwigPattern> mix;
    for (const QuerySpec& spec : AllQueries()) {
      if (std::strcmp(spec.dataset, dataset) != 0) continue;
      auto pattern = ParseXPath(spec.xpath, &set.collection().dictionary);
      if (!pattern.ok()) {
        std::fprintf(stderr, "parse %s: %s\n", spec.id.c_str(),
                     pattern.status().ToString().c_str());
        return 1;
      }
      mix.push_back(std::move(*pattern));
    }
    report.mix_size = mix.size();

    // The serial pass opens PRIX at this generation, warms the pool, and
    // records the answers every timed query is checked against.
    const Engines engines(&set.db(), set.db().OpenSnapshot());
    std::vector<QueryResult> expected;
    for (const TwigPattern& pattern : mix) {
      auto r = engines.Execute(EngineKind::kPrix, pattern);
      if (!r.ok()) {
        std::fprintf(stderr, "serial pass on %s: %s\n", dataset,
                     r.status().ToString().c_str());
        return 1;
      }
      expected.push_back(std::move(*r));
    }

    std::atomic<bool> consistent{true};
    for (size_t threads : kThreadSweep) {
      SweepPoint point;
      point.threads = threads;
      std::vector<double> qps;
      set.pool()->ResetStats();
      for (size_t trial = 0; trial < kTrials; ++trial) {
        qps.push_back(RunTrial(engines, mix, expected, threads,
                               &point.queries, &consistent));
      }
      std::sort(qps.begin(), qps.end());
      point.qps_q1 = Quantile(qps, 0.25);
      point.qps_median = Quantile(qps, 0.5);
      point.qps_q3 = Quantile(qps, 0.75);
      point.hit_rate = HitRate(set.pool()->stats());
      report.sweep.push_back(point);
    }
    report.results_consistent = consistent.load();

    std::printf("\n[%s] %zu-query mix\n", dataset, mix.size());
    std::printf("  %-8s %10s %12s %10s %10s %10s\n", "threads", "queries",
                "median qps", "q1-q3 %", "speedup", "hit-rate");
    for (const SweepPoint& point : report.sweep) {
      std::printf("  %-8zu %10lu %12.1f %9.1f%% %9.2fx %9.1f%%\n",
                  point.threads, (unsigned long)point.queries,
                  point.qps_median,
                  100.0 * (point.qps_q3 - point.qps_q1) / point.qps_median,
                  point.qps_median / report.sweep.front().qps_median,
                  100.0 * point.hit_rate);
    }
    if (!report.results_consistent) {
      std::printf("  WARNING: parallel results diverged from serial!\n");
    }
    reports.push_back(std::move(report));
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("parallel_throughput");
  w.Key("scale").Double(scale);
  w.Key("hardware_concurrency").UInt(hw);
  w.Key("host_cpus").UInt(static_cast<uint64_t>(host_cpus));
  w.Key("multicore").Bool(host_cpus > 1);
  w.Key("trials").UInt(kTrials);
  w.Key("trial_seconds").Double(kTrialSeconds);
  w.Key("datasets").BeginArray();
  bool consistent = true;
  for (const DatasetReport& report : reports) {
    consistent &= report.results_consistent;
    w.BeginObject();
    w.Key("name").String(report.name);
    w.Key("mix_size").UInt(report.mix_size);
    w.Key("results_consistent").Bool(report.results_consistent);
    w.Key("warm_sweep").BeginArray();
    for (const SweepPoint& point : report.sweep) {
      w.BeginObject();
      w.Key("threads").UInt(point.threads);
      w.Key("queries").UInt(point.queries);
      w.Key("qps_median").Double(point.qps_median);
      w.Key("qps_q1").Double(point.qps_q1);
      w.Key("qps_q3").Double(point.qps_q3);
      w.Key("speedup").Double(point.qps_median /
                              report.sweep.front().qps_median);
      w.Key("hit_rate").Double(point.hit_rate);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  if (Status st = WriteJsonFile("BENCH_parallel.json", w.Take()); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote BENCH_parallel.json\n");
  return consistent ? 0 : 1;
}
