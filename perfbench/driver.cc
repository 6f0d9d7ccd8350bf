// The benchmark driver: one workload, one seed, one run.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --prix PATH --work DIR
//
// It generates the workload's corpus and streams from the seed, builds and
// serves the corpus with the real `prix index` and `prix serve` (or runs
// the in-process parts through `perfbench_driver hold`, see hold.cc),
// drives the load from this one process, checks every answer against the
// NaiveMatch oracle, and prints one JSON line last:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). The streams, the oracle-checked answers and a
// stamped result file stay in DIR.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/build_info.h"
#include "corpus.h"
#include "harness.h"
#include "prix/subsequence_matcher.h"
#include "query/xpath_parser.h"

namespace perfbench {
int HoldMain(int argc, char** argv);
}

namespace perfbench {
namespace {

// The paper's Table 3 queries.
constexpr const char* kTable3Dblp[] = {
    R"(//inproceedings[./author="Jim Gray"][./year="1990"])",
    "//www[./editor]/url", R"(//title[text()="Semantic Analysis Patterns"])"};
constexpr const char* kTable3Swissprot[] = {
    R"(//Entry[./Keyword="Rhizomelic"])",
    R"(//Entry/Ref[./Author="Mueller P"][./Author="Keller M"])",
    R"(//Entry[./Org="Piroplasmida"][.//Author]//from)"};
constexpr const char* kTable3Treebank[] = {
    "//S//NP/SYM", "//NP[./RBR_OR_JJR]/PP", "//NP/PP/NP[./NNS_OR_NN][./NN]"};

enum class Mode { kServed, kCold };

/// One workload. Stream sizes scale with --seconds: the stream that each of
/// the kSetups * kPassesPerSetup passes replays samples `distinct_per_s`
/// twigs and sends `requests_per_s` requests per second of run time over
/// the passes, so the mix and the cache-hit share are properties of the
/// seed, not of how fast the program is.
struct Spec {
  const char* name;
  Dataset dataset;
  size_t records;
  uint64_t gen_seed;  ///< the generator's default seed: fixed corpus
  const char* const* table3;
  Mode mode;
  bool cache;
  double distinct_per_s;
  double requests_per_s;  ///< at most distinct_per_s: each twig once
  double zipf;            ///< Zipf exponent over twig ranks; 0: uniform
  size_t probe_writes;    ///< writes of the traced run's write probe
};

const Spec kSpecs[] = {
    {"dblp-zipf", Dataset::kDblp, 20000, 42, kTable3Dblp, Mode::kServed,
     true, 215, 520, 1.0, 20},
    {"treebank-twig", Dataset::kTreebank, 3800, 2718, kTable3Treebank,
     Mode::kServed, false, 40, 40, 0, 0},
    {"swissprot-cold", Dataset::kSwissprot, 6000, 1337, kTable3Swissprot,
     Mode::kCold, false, 500, 500, 0, 0},
};

/// Setups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Passes over the stream after each setup.
constexpr int kPassesPerSetup = 3;
/// Closed-loop connections of a served stream. One, so that every pass
/// does the same work; more measured how the host scheduled them.
constexpr size_t kConnections = 1;
/// Distinct queries the cold-page probe runs after a served stream.
constexpr size_t kColdProbe = 100;
/// Seed of the write probe's insert/update/delete mix and of its records,
/// fixed like the twigs.
constexpr uint64_t kWriteSeed = 1000003;

struct Args {
  std::string workload, prix, work, self;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

void RemoveDb(const std::string& db) {
  std::remove(db.c_str());
  std::remove((db + ".oplog").c_str());
}

/// The twigs of a workload are sampled once, with a fixed seed; --seed
/// draws the stream from them (order, Zipf ranks and draws). Twig costs are
/// heavy-tailed (a few twigs in a hundred can take most of a run), so twigs
/// sampled afresh per seed would make the run-to-run spread a property of
/// the sample rather than of the program.
constexpr uint64_t kTwigSeed = 20040330;

Stream MakeStream(const Spec& spec, const Corpus& corpus, size_t num_docs,
                  uint64_t seed, double seconds) {
  Stream s;
  size_t distinct =
      std::max<size_t>(8, static_cast<size_t>(spec.distinct_per_s * seconds));
  prix::Random twig_rng(kTwigSeed);
  s.distinct = SampleTwigs(spec.dataset, corpus, num_docs, distinct, &twig_rng);
  prix::Random rng(seed);
  for (int i = 0; i < 3; ++i) {
    if (std::find(s.distinct.begin(), s.distinct.end(), spec.table3[i]) ==
        s.distinct.end()) {
      s.distinct.push_back(spec.table3[i]);
    }
  }
  const size_t d = s.distinct.size();
  if (spec.zipf > 0) {
    // Seeded Zipf draw: rank r has weight 1/r^zipf; ranks map to twigs
    // through a seeded permutation.
    std::vector<uint32_t> rank(d);
    for (uint32_t i = 0; i < d; ++i) rank[i] = i;
    for (size_t i = d; i > 1; --i) std::swap(rank[i - 1], rank[rng.Uniform(i)]);
    std::vector<double> cdf(d);
    double sum = 0;
    for (size_t r = 0; r < d; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf);
      cdf[r] = sum;
    }
    size_t n = static_cast<size_t>(spec.requests_per_s * seconds);
    for (size_t i = 0; i < n; ++i) {
      double u = rng.NextDouble() * sum;
      size_t r = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
      s.requests.push_back(rank[std::min(r, d - 1)]);
    }
  } else {
    // Uniform: every twig the same number of times, in seeded order, so
    // the work of a run does not depend on which twigs repeat.
    size_t n = static_cast<size_t>(spec.requests_per_s * seconds);
    size_t repeat = std::max<size_t>(1, n / d);
    for (size_t k = 0; k < repeat; ++k) {
      for (uint32_t i = 0; i < d; ++i) s.requests.push_back(i);
    }
    for (size_t i = s.requests.size(); i > 1; --i) {
      std::swap(s.requests[i - 1], s.requests[rng.Uniform(i)]);
    }
  }
  return s;
}

/// A parsed `hold` output file.
struct HoldOut {
  struct Read {
    double latency_us = 0;
    uint64_t gen = 0;
    bool cached = false, seen = false;
    std::vector<uint32_t> docs;
  };
  struct Write {
    uint64_t rp_us, ep_us, pages_written, oplog_bytes, file_pages;
  };
  std::vector<Read> reads;
  std::vector<std::vector<uint64_t>> query_stats;  ///< Q line fields
  std::vector<Write> writes;
  std::map<std::string, double> stats;
  double Stat(const std::string& name) const {
    auto it = stats.find(name);
    return it == stats.end() ? 0 : it->second;
  }
};

HoldOut ParseHold(const std::string& path, size_t requests) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing " + path);
  HoldOut out;
  out.reads.resize(requests);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream f(line);
    std::string kind;
    f >> kind;
    if (kind == "R") {
      uint64_t i = 0, n = 0;
      int cached = 0;
      HoldOut::Read r;
      f >> i >> r.latency_us >> r.gen >> cached >> n;
      r.cached = cached != 0;
      r.seen = true;
      r.docs.resize(n);
      for (auto& d : r.docs) f >> d;
      if (i >= requests) throw std::runtime_error("bad request index");
      out.reads[i] = std::move(r);
    } else if (kind == "Q") {
      std::vector<uint64_t> v;
      for (uint64_t x; f >> x;) v.push_back(x);
      out.query_stats.push_back(std::move(v));
    } else if (kind == "W") {
      uint64_t i;
      HoldOut::Write w;
      f >> i >> w.rp_us >> w.ep_us >> w.pages_written >> w.oplog_bytes >>
          w.file_pages;
      out.writes.push_back(w);
    } else if (kind == "S") {
      std::string name;
      double v = 0;
      f >> name >> v;
      out.stats[name] += v;
    }
  }
  return out;
}

/// Span self times, summed per span name, from a `hold` spans file.
struct Spans {
  std::map<std::string, double> self_us;  ///< name -> summed self time
  std::map<std::string, size_t> count;
  /// Per request: summed self time of the server-side spans.
  std::map<uint64_t, double> server_us;
};

Spans ParseSpans(const std::string& path) {
  struct S {
    std::string name;
    uint64_t start, end;
    int64_t parent;
    uint64_t request;
  };
  std::vector<S> spans;
  std::ifstream in(path);
  for (S s; in >> s.name >> s.start >> s.end >> s.parent >> s.request;) {
    spans.push_back(s);
  }
  std::vector<double> child_us(spans.size(), 0);
  for (const S& s : spans) {
    if (s.parent >= 0) child_us[s.parent] += double(s.end - s.start);
  }
  static const std::set<std::string> kServerSide = {
      "wire.decode_query", "serve.cache_probe", "db.snapshot_open",
      "query.parse",       "prix.execute",      "wire.encode_result"};
  Spans out;
  for (size_t i = 0; i < spans.size(); ++i) {
    double self = double(spans[i].end - spans[i].start) - child_us[i];
    out.self_us[spans[i].name] += self;
    out.count[spans[i].name] += 1;
    if (kServerSide.count(spans[i].name) != 0) {
      out.server_us[spans[i].request] += self;
    }
  }
  return out;
}

class Run {
 public:
  Run(const Spec& spec, const Args& args) : spec_(spec), args_(args) {
    db_ = args.work + "/db.prix";
    xml_ = args.work + "/corpus.xml";
    writes_xml_ = args.work + "/writes.xml";
    stream_path_ = args.work + "/stream.txt";
  }

  void Prepare();
  /// Measures; returns the result line.
  std::string Execute();
  /// Facts of the run that are not metrics (corpus size, cache-hit share,
  /// writes), as a JSON object for the stamped result file.
  std::string Info() const;

 private:
  struct M {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<std::string> HoldArgs() const {
    return {args_.self, "hold", "--db", db_};
  }

  /// `prix index`, then (served workloads) Serve; returns the seconds.
  double Setup();
  /// Starts `prix serve` on the database and waits until it answers a ping.
  void Serve(std::unique_ptr<Child>* server, uint16_t* port);
  void CheckRead(uint32_t query, bool answered,
                 const std::vector<uint32_t>& docs);
  HoldOut WriteProbe();
  void WriteMetrics(const HoldOut& held);
  double ColdProbe();
  double SpaceAmp() const;
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void Fact(const std::string& name, double value, const char* unit) {
    info_.push_back({name, value, unit});
  }
  static std::string Json(const std::vector<M>& metrics);
  std::string Result() const;

  const Spec& spec_;
  const Args& args_;
  std::string db_, xml_, writes_xml_, stream_path_;
  Corpus corpus_;
  size_t base_docs_ = 0;
  uint64_t xml_bytes_ = 0;
  std::vector<WriteOp> plan_;
  Stream stream_;
  std::vector<std::vector<uint32_t>> matches_;  ///< per distinct, DocIds
  uint64_t attempted_ = 0, failed_ = 0, mismatches_ = 0;
  std::vector<M> metrics_, info_;
};

void Run::Prepare() {
  xml_bytes_ = AppendCorpusFile(spec_.dataset, spec_.records, spec_.gen_seed,
                                true, xml_, &corpus_);
  base_docs_ = corpus_.docs.size();
  stream_ = MakeStream(spec_, corpus_, base_docs_, args_.seed,
                       args_.seconds / (kSetups * kPassesPerSetup));
  WriteFile(stream_path_, FormatStream(stream_));
  size_t threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  matches_ = OracleAll(corpus_, stream_.distinct, threads);
  if (spec_.probe_writes > 0) {
    // The probe's records share the corpus generator and intern after the
    // corpus's labels, as the holding process interns them.
    size_t ops = spec_.probe_writes + 1;  // + the first, loading write
    AppendCorpusFile(spec_.dataset, ops, kWriteSeed, false, writes_xml_,
                     &corpus_);
    plan_ = PlanWrites(kWriteSeed, ops, base_docs_);
  }
}

void Run::CheckRead(uint32_t query, bool answered,
                    const std::vector<uint32_t>& docs) {
  ++attempted_;
  if (!answered || docs != matches_[query]) {
    ++failed_;
    if (answered && ++mismatches_ <= 3) {
      std::fprintf(stderr, "perfbench: wrong answer for %s (%zu docs, "
                   "oracle %zu)\n", stream_.distinct[query].c_str(),
                   docs.size(), matches_[query].size());
    }
  }
}

double Run::Setup() {
  RemoveDb(db_);
  double t0 = Now();
  RunCommand({args_.prix, "index", db_, xml_}, 600);
  if (spec_.mode == Mode::kCold) return Now() - t0;
  std::unique_ptr<Child> server;
  uint16_t port = 0;
  Serve(&server, &port);
  double seconds = Now() - t0;
  server->Stop(120);
  return seconds;
}

void Run::Serve(std::unique_ptr<Child>* server, uint16_t* port) {
  std::vector<std::string> argv = {args_.prix, "serve", db_, "--port", "0"};
  if (!spec_.cache) {
    argv.push_back("--cache-mb");
    argv.push_back("0");
  }
  server->reset(new Child(argv, true));
  const std::string prefix = "prix serve: listening on port ";
  for (;;) {
    std::string line = (*server)->ReadLine(120);
    if (line.rfind(prefix, 0) == 0) {
      *port = static_cast<uint16_t>(std::stoul(line.substr(prefix.size())));
      break;
    }
  }
  Ping(*port, 60);
}

double Run::SpaceAmp() const {
  uint64_t live = 0;
  for (size_t d = 0; d < base_docs_; ++d) live += corpus_.doc_bytes[d];
  return double(FileBytes(db_) + FileBytes(db_ + ".oplog")) / double(live);
}

/// Mean pages read per query with a cleared pool over the workload's first
/// kColdProbe twigs (the same for every seed), run by a fresh holding
/// process on the final database.
double Run::ColdProbe() {
  Stream probe;
  for (uint32_t q = 0; q < stream_.distinct.size() && q < kColdProbe; ++q) {
    probe.requests.push_back(q);
    probe.distinct.push_back(stream_.distinct[q]);
  }
  std::string path = args_.work + "/probe.txt";
  WriteFile(path, FormatStream(probe));
  std::vector<std::string> argv = HoldArgs();
  argv.insert(argv.end(), {"--cold", path, "--out", path + ".out"});
  Child(argv, false).Wait(170);
  HoldOut out = ParseHold(path + ".out", probe.requests.size());
  double pages = 0;
  for (const auto& q : out.query_stats) pages += double(q.at(1));
  return pages / double(out.query_stats.size());
}

/// Runs the write probe on the database the traced stream left: the
/// seeded insert/update/delete mix, each write on rp and then ep as
/// `prix insert` does.
HoldOut Run::WriteProbe() {
  std::vector<std::string> argv = HoldArgs();
  std::string out = args_.work + "/writes.out";
  argv.insert(argv.end(),
              {"--write", writes_xml_, "--plan-seed",
               std::to_string(kWriteSeed), "--plan-ops",
               std::to_string(plan_.size()), "--base-docs",
               std::to_string(base_docs_), "--out", out});
  Child(argv, false).Wait(170);
  return ParseHold(out, 0);
}

/// The write path's per-layer metrics, from the probe's log: latency of a
/// user-level write (the rp call plus the ep call), writes per second of
/// writing, and bytes written (pages x 8 KiB plus oplog growth) per XML
/// byte written. The first write, which loads every engine's ingest state
/// (about a second on DBLP, against tens of milliseconds for most writes
/// after it), is left out. All 0 on workloads without a probe.
void Run::WriteMetrics(const HoldOut& held) {
  const std::vector<HoldOut::Write>& writes = held.writes;
  attempted_ += plan_.size();
  failed_ += plan_.size() - std::min(plan_.size(), writes.size());
  std::vector<double> ms;
  double bytes_out = 0, xml_in = 0, rp_us = 0, ep_us = 0, pages = 0,
         oplog = 0, growth = 0;
  for (size_t i = 1; i < writes.size(); ++i) {
    const HoldOut::Write& w = writes[i];
    ms.push_back(double(w.rp_us + w.ep_us) / 1000.0);
    bytes_out += double(w.pages_written) * 8192.0 + double(w.oplog_bytes);
    if (plan_.at(i).kind != WriteOp::kDelete) {
      xml_in += double(corpus_.doc_bytes[base_docs_ + plan_[i].record]);
    }
    rp_us += double(w.rp_us);
    ep_us += double(w.ep_us);
    pages += double(w.pages_written);
    oplog += double(w.oplog_bytes);
    growth += double(w.file_pages);
  }
  auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
  double n = double(ms.size());
  Metric("db.write_p50_ms", Quantile(ms, 0.5), "ms");
  Metric("db.write_p95_ms", Quantile(ms, 0.95), "ms");
  Metric("db.writes_per_s", per(n, (rp_us + ep_us) / 1e6), "1/s");
  Metric("db.write_amp", per(bytes_out, xml_in), "ratio");
  Metric("db.write_rp_us", per(rp_us, n), "us");
  Metric("db.write_ep_us", per(ep_us, n), "us");
  Metric("db.pages_written_per_write", per(pages, n), "pages");
  Metric("db.oplog_bytes_per_write", per(oplog, n), "bytes");
  Metric("db.file_growth_pages_per_write", per(growth, n), "pages");
  Metric("db.pages_reused_frac",
         per(held.Stat("db.pages_reused"), held.Stat("db.pages_freed")),
         "ratio");
}

std::string Run::Json(const std::vector<M>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           Fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

std::string Run::Info() const { return Json(info_); }

std::string Run::Result() const {
  return std::string("{\"correct\": ") + (failed_ == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) +
         ", \"metrics\": " + Json(metrics_) + "}";
}

std::string Run::Execute() {
  Prepare();
  const bool served = spec_.mode == Mode::kServed;
  // Every setup is followed by kPassesPerSetup passes over the stream, each
  // on a fresh server (the cold client: a fresh process). Over one
  // closed-loop connection every pass does the same work request for
  // request: the same cache hits and misses, the same pool state. On a
  // shared host one CPU can run three times slower than another for
  // seconds at a time, and that only ever adds time. So a pass runs the
  // server and this process's load threads on one CPU, the passes take the
  // CPUs in turn, a request's latency is the least over the passes, and
  // query_qps is the requests over the sum of those latencies.
  const int setups_wanted = args_.trace ? 1 : kSetups;
  const int passes_per_setup = args_.trace ? 1 : kPassesPerSetup;
  const size_t n = stream_.requests.size();
  std::vector<double> setups, rss, opens, cold_pages;
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  double hits = 0;
  uint64_t shed = 0;
  int passes = 0;
  const std::vector<int> cpus = AllowedCpus();
  for (int setup = 0; setup < setups_wanted; ++setup) {
    setups.push_back(Setup());
    for (int p = 0; p < passes_per_setup; ++p, ++passes) {
      // Children and threads started from here on inherit the CPU.
      PinTo({cpus[passes % cpus.size()]});
      std::vector<double> latency;
      if (served) {
        std::unique_ptr<Child> server;
        uint16_t port = 0;
        Serve(&server, &port);
        LoadResult r = RunClosedLoop(port, stream_, kConnections);
        server->Stop(120);
        rss.push_back(server->PeakRssMb());
        server.reset();
        shed += r.shed_retries;
        for (size_t i = 0; i < n; ++i) {
          const Answer& a = r.answers[i];
          hits += a.cached ? 1 : 0;
          shed += a.kind == Answer::kShed ? 1 : 0;
          CheckRead(stream_.requests[i], a.kind == Answer::kResult, a.docs);
        }
        latency = std::move(r.latency_us);
      } else {
        std::vector<std::string> argv = HoldArgs();
        std::string out = args_.work + "/cold.out";
        argv.insert(argv.end(), {"--cold", stream_path_, "--out", out});
        Child child(argv, false);
        child.Wait(170);
        rss.push_back(child.PeakRssMb());
        HoldOut held = ParseHold(out, n);
        opens.push_back(held.Stat("open_us") / 1e6);
        // The pool clear before each query is the paper's cold-cache
        // emulation, not work a user waits for: the client's clock runs
        // only over parse and Execute.
        double pages = 0;
        for (size_t i = 0; i < n; ++i) {
          latency.push_back(held.reads[i].latency_us);
          CheckRead(stream_.requests[i], held.reads[i].seen,
                    held.reads[i].docs);
        }
        for (const auto& q : held.query_stats) pages += double(q.at(1));
        cold_pages.push_back(pages / double(held.query_stats.size()));
      }
      PinTo(cpus);
      for (size_t i = 0; i < n; ++i) best[i] = std::min(best[i], latency[i]);
    }
  }
  double best_s = 0;
  for (double us : best) best_s += us / 1e6;
  const double p50 = Quantile(best, 0.5), p95 = Quantile(best, 0.95);
  const double qps = double(n) / best_s;
  const double sent = double(n) * passes;
  const double peak_rss = Median(rss);
  const double setup_s = Median(setups) + Median(opens);
  Fact("documents", double(base_docs_), "count");
  Fact("xml_bytes", double(xml_bytes_), "bytes");
  Fact("requests", double(stream_.requests.size()), "count");
  Fact("passes", double(passes), "count");
  Fact("distinct_queries", double(stream_.distinct.size()), "count");
  Fact("connections", double(kConnections), "count");
  Fact("cache_hit_share", hits / sent, "ratio");
  Fact("shed_frac", double(shed) / sent, "ratio");

  if (!args_.trace) {
    Metric("setup_s", setup_s, "s");
    Metric("query_p50_us", p50, "us");
    Metric("query_p95_us", p95, "us");
    Metric("query_qps", qps, "1/s");
    Metric("space_amp", SpaceAmp(), "ratio");
    Metric("peak_rss_mb", peak_rss, "MB");
    Metric("cold_pages_per_query",
           served ? ColdProbe() : Median(cold_pages), "pages");
    RemoveDb(db_);
    return Result();
  }

  // ---- traced run: build in-process with spans, then the traced stream.
  RemoveDb(db_);
  std::string build_out = args_.work + "/build.out";
  {
    std::vector<std::string> argv = HoldArgs();
    argv.insert(argv.end(), {"--build", xml_, "--out", build_out});
    Child(argv, false).Wait(600);
  }
  HoldOut build = ParseHold(build_out, 0);
  Spans build_spans = ParseSpans(build_out + ".spans");
  std::string read_out = args_.work + "/traced.out";
  {
    std::vector<std::string> argv = HoldArgs();
    if (served) {
      argv.insert(argv.end(),
                  {"--read", stream_path_, "--readers",
                   std::to_string(kConnections), "--cache-mb",
                   spec_.cache ? "16" : "0", "--out", read_out});
    } else {
      argv.insert(argv.end(),
                  {"--cold", stream_path_, "--trace", "--out", read_out});
    }
    Child(argv, false).Wait(170);
  }
  HoldOut traced = ParseHold(read_out, stream_.requests.size());
  Spans spans = ParseSpans(read_out + ".spans");
  for (size_t i = 0; i < traced.reads.size(); ++i) {
    CheckRead(stream_.requests[i], traced.reads[i].seen, traced.reads[i].docs);
  }
  HoldOut writes = plan_.empty() ? HoldOut{} : WriteProbe();
  RemoveDb(db_);

  auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
  auto self = [&](const char* name) {
    return per(spans.self_us[name], double(spans.count[name]));
  };
  double requests = double(stream_.requests.size());
  double executed = double(traced.query_stats.size());
  std::vector<double> server_side;
  for (const auto& [req, us] : spans.server_us) server_side.push_back(us);
  double cache_hits = traced.Stat("cache.hits");
  double cache_lookups = cache_hits + traced.Stat("cache.misses");
  double wire = spans.self_us["wire.encode_query"] +
                spans.self_us["wire.decode_query"] +
                spans.self_us["wire.encode_result"] +
                spans.self_us["wire.decode_result"];
  Metric("serve.cache_hit_ratio", per(cache_hits, cache_lookups), "ratio");
  Metric("serve.cache_probe_us", self("serve.cache_probe"), "us");
  Metric("serve.wire_us", per(wire, requests * (served ? 1 : 0)), "us");
  Metric("serve.unattributed_us", served ? p50 - Median(server_side) : 0,
         "us");
  Metric("serve.shed_frac", per(double(shed), requests), "ratio");
  Metric("db.snapshot_open_us", self("db.snapshot_open"), "us");
  WriteMetrics(writes);
  Metric("query.parse_us", self("query.parse"), "us");
  Metric("prix.execute_us", self("prix.execute"), "us");
  // Q line fields: 0 request, 1 pages_read, 2 pool_hits, 3 pool_misses,
  // 4 btree_nodes, 5 match_us, 6 refine_us, 7 verify_us, 8 range_queries,
  // 9 trie_nodes, 10 pruned, 11 candidates, 12 passed, 13 docs_loaded.
  std::vector<double> q(14, 0);
  for (const auto& v : traced.query_stats) {
    for (size_t k = 0; k < q.size() && k < v.size(); ++k) q[k] += double(v[k]);
  }
  Metric("prix.match_us", per(q[5], executed), "us");
  Metric("prix.refine_us", per(q[6], executed), "us");
  Metric("prix.verify_us", per(q[7], executed), "us");
  Metric("prix.range_queries_per_query", per(q[8], executed), "count");
  Metric("prix.trie_nodes_per_query", per(q[9], executed), "count");
  Metric("prix.maxgap_prune_frac", per(q[10], q[9]), "ratio");
  Metric("prix.refine_pass_frac", per(q[12], q[11]), "ratio");
  Metric("prix.docs_loaded_per_query", per(q[13], executed), "count");
  Metric("btree.nodes_per_query", per(q[4], executed), "count");
  double hit = traced.Stat("pool.hits"), miss = traced.Stat("pool.misses");
  Metric("storage.pool_hit_ratio", per(hit, hit + miss), "ratio");
  Metric("storage.pages_read_per_query",
         per(traced.Stat("pool.physical_reads"), executed), "pages");
  Metric("storage.evictions_per_query",
         per(traced.Stat("pool.evictions"), executed), "count");
  Metric("storage.pool_lock_waits_per_query",
         per(traced.Stat("pool.lock_waits"), executed), "count");
  auto build_s = [&](const char* name) {
    return build_spans.self_us[name] / 1e6;
  };
  Metric("build.xml_parse_s", build_s("build.xml_parse"), "s");
  Metric("build.prix_s", build_s("build.prix"), "s");
  Metric("build.vist_s", build_s("build.vist"), "s");
  Metric("build.twigstack_s", build_s("build.twigstack"), "s");
  Metric("build.save_s", build_s("build.save"), "s");
  for (const char* name : {"space.rp_pages", "space.ep_pages",
                           "space.vist_pages", "space.ts_pages",
                           "space.xb_pages"}) {
    Metric(name, build.Stat(name), "pages");
  }
  double traced_setup = 0;
  for (const auto& [name, us] : build_spans.self_us) traced_setup += us;
  traced_setup = traced_setup / 1e6 + traced.Stat("open_us") / 1e6;
  double traced_clock = traced.Stat("read_s");
  if (!served) {
    traced_clock = 0;
    for (const auto& r : traced.reads) traced_clock += r.latency_us / 1e6;
  }
  double traced_qps = requests / traced_clock;
  Metric("trace.qps_overhead_frac", (qps - traced_qps) / qps, "ratio");
  Metric("trace.setup_overhead_frac", (traced_setup - setup_s) / setup_s,
         "ratio");
  return Result();
}

int Main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "hold") {
    return HoldMain(argc - 2, argv + 2);
  }
  Args args;
  args.self = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
    std::string v = argv[++i];
    if (flag == "--workload") args.workload = v;
    else if (flag == "--seed") args.seed = std::stoull(v);
    else if (flag == "--seconds") args.seconds = std::stod(v);
    else if (flag == "--trace") args.trace = v == "1";
    else if (flag == "--prix") args.prix = v;
    else if (flag == "--work") args.work = v;
    else throw std::runtime_error("unknown flag " + flag);
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) throw std::runtime_error("unknown workload");
  if (args.prix.empty() || args.work.empty() || args.seconds <= 0) {
    throw std::runtime_error("--prix, --work and --seconds are required");
  }
  ::mkdir(args.work.c_str(), 0755);
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 1) load[0] = -1;
  Run run(*spec, args);
  std::string line = run.Execute();

  // The stamped result, kept beside the stream.
  prix::BuildInfo info = prix::GetBuildInfo();
  std::ostringstream stamp;
  stamp << "{\"workload\": \"" << spec->name << "\", \"seed\": " << args.seed
        << ", \"seconds\": " << args.seconds << ", \"trace\": "
        << (args.trace ? 1 : 0) << ", \"build_info\": {\"git_describe\": \""
        << info.git_describe << "\", \"db_format\": " << info.db_format
        << ", \"oplog_format\": " << info.oplog_format
        << ", \"crc32c_hardware\": "
        << (info.crc32c_hardware ? "true" : "false")
        << ", \"maxgap_simd\": "
        << (prix::GapPruneUsingSimd() ? "true" : "false")
        << "}, \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"loadavg_at_start\": " << Fmt(load[0])
        << ", \"info\": " << run.Info() << ", \"result\": " << line << "}\n";
  WriteFile(args.work + "/result" + (args.trace ? "-trace" : "") + ".json",
            stamp.str());
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
