// Parallel twig-query throughput: sweeps 1/2/4/8 worker threads over the
// Table-3 query mix per dataset with a WARM buffer pool (the concurrent-
// traffic regime of ROADMAP.md, as opposed to the paper's cold-cache
// single-query measurements) and reports queries/second plus buffer-pool
// hit rates. The paper's cold-cache single-query numbers are bench_paper's.
// Emits BENCH_parallel.json.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "prix/query_driver.h"
#include "query/xpath_parser.h"

using namespace prix;
using namespace prix::bench;

namespace {

constexpr size_t kThreadSweep[] = {1, 2, 4, 8};
/// Each sweep point runs the dataset's query mix this many times.
constexpr size_t kBatchRepeats = 24;

struct SweepPoint {
  size_t threads = 0;
  double seconds = 0;
  double qps = 0;
  double hit_rate = 0;
  size_t queries = 0;
};

struct DatasetReport {
  std::string name;
  std::vector<SweepPoint> sweep;
  bool results_consistent = true;
};

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
      "threads, %ld online CPUs%s)\n",
      scale, hw, host_cpus,
      host_cpus > 1 ? "" : " - single-core host, expect flat speedup");

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

    // Warm the pool once (serial), then sweep thread counts on the same
    // warm pool. The batch replicates the mix so every worker has work.
    std::vector<TwigPattern> batch;
    batch.reserve(mix.size() * kBatchRepeats);
    for (size_t r = 0; r < kBatchRepeats; ++r) {
      for (const TwigPattern& pattern : mix) batch.push_back(pattern);
    }
    QueryProcessor warmup(set.db(), set.rp(), set.ep());
    std::vector<size_t> expected_matches;
    for (const TwigPattern& pattern : mix) {
      auto r = warmup.Execute(pattern);
      if (!r.ok()) return 1;
      expected_matches.push_back(r->matches.size());
    }

    for (size_t threads : kThreadSweep) {
      QueryDriver driver(set.db(), set.rp(), set.ep(), threads);
      set.pool()->ResetStats();
      auto t0 = std::chrono::steady_clock::now();
      auto result = driver.ExecuteBatch(batch);
      auto t1 = std::chrono::steady_clock::now();
      if (!result.ok()) {
        std::fprintf(stderr, "batch on %s at %zu threads: %s\n", dataset,
                     threads, result.status().ToString().c_str());
        return 1;
      }
      for (size_t i = 0; i < result->results.size(); ++i) {
        report.results_consistent &=
            result->results[i].matches.size() ==
            expected_matches[i % expected_matches.size()];
      }
      SweepPoint point;
      point.threads = threads;
      point.queries = batch.size();
      point.seconds = std::chrono::duration<double>(t1 - t0).count();
      point.qps = batch.size() / point.seconds;
      point.hit_rate = HitRate(set.pool()->stats());
      report.sweep.push_back(point);
    }

    std::printf("\n[%s] %zu-query mix x%zu repeats\n", dataset, mix.size(),
                kBatchRepeats);
    std::printf("  %-8s %12s %12s %10s %10s\n", "threads", "secs", "qps",
                "speedup", "hit-rate");
    for (const SweepPoint& point : report.sweep) {
      std::printf("  %-8zu %12.3f %12.1f %9.2fx %9.1f%%\n", point.threads,
                  point.seconds, point.qps,
                  point.qps / report.sweep.front().qps,
                  100.0 * point.hit_rate);
    }
    if (!report.results_consistent) {
      std::printf("  WARNING: parallel results diverged from serial!\n");
    }
    reports.push_back(std::move(report));
  }

  // Overall throughput per thread count (sum of queries / sum of time).
  std::printf("\nOverall (all datasets)\n");
  std::printf("  %-8s %12s %10s\n", "threads", "qps", "speedup");
  std::vector<double> overall_qps;
  for (size_t i = 0; i < std::size(kThreadSweep); ++i) {
    double queries = 0, seconds = 0;
    for (const DatasetReport& report : reports) {
      queries += report.sweep[i].queries;
      seconds += report.sweep[i].seconds;
    }
    overall_qps.push_back(queries / seconds);
    std::printf("  %-8zu %12.1f %9.2fx\n", kThreadSweep[i], overall_qps[i],
                overall_qps[i] / overall_qps[0]);
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("parallel_throughput");
  w.Key("scale").Double(scale);
  w.Key("hardware_concurrency").UInt(hw);
  w.Key("host_cpus").UInt(static_cast<uint64_t>(host_cpus));
  w.Key("multicore").Bool(host_cpus > 1);
  w.Key("batch_repeats").UInt(kBatchRepeats);
  w.Key("datasets").BeginArray();
  for (const DatasetReport& report : reports) {
    w.BeginObject();
    w.Key("name").String(report.name);
    w.Key("results_consistent").Bool(report.results_consistent);
    w.Key("warm_sweep").BeginArray();
    for (const SweepPoint& point : report.sweep) {
      w.BeginObject();
      w.Key("threads").UInt(point.threads);
      w.Key("queries").UInt(point.queries);
      w.Key("seconds").Double(point.seconds);
      w.Key("qps").Double(point.qps);
      w.Key("speedup").Double(point.qps / report.sweep.front().qps);
      w.Key("hit_rate").Double(point.hit_rate);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("overall").BeginArray();
  for (size_t i = 0; i < overall_qps.size(); ++i) {
    w.BeginObject();
    w.Key("threads").UInt(kThreadSweep[i]);
    w.Key("qps").Double(overall_qps[i]);
    w.Key("speedup").Double(overall_qps[i] / overall_qps[0]);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  if (Status st = WriteJsonFile("BENCH_parallel.json", w.Take()); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote BENCH_parallel.json\n");
  return 0;
}
