#include "bench_common.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/build_info.h"
#include "common/macros.h"
#include "naive/naive_matcher.h"
#include "query/xpath_parser.h"

namespace prix::bench {

const std::vector<QuerySpec>& AllQueries() {
  static const std::vector<QuerySpec> kQueries = {
      {"Q1", kQ1, "DBLP", 6},      {"Q2", kQ2, "DBLP", 21},
      {"Q3", kQ3, "DBLP", 1},      {"Q4", kQ4, "SWISSPROT", 3},
      {"Q5", kQ5, "SWISSPROT", 5}, {"Q6", kQ6, "SWISSPROT", 158},
      {"Q7", kQ7, "TREEBANK", 9},  {"Q8", kQ8, "TREEBANK", 1},
      {"Q9", kQ9, "TREEBANK", 6},
  };
  return kQueries;
}

double ScaleFromEnv() {
  const char* env = std::getenv("PRIX_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::atof(env);
  return scale > 0 ? scale : 1.0;
}

DocumentCollection MakeDataset(const std::string& name, double scale) {
  if (name == "DBLP") {
    datagen::DblpConfig config;
    config.num_records = static_cast<size_t>(20000 * scale);
    return datagen::GenerateDblp(config);
  }
  if (name == "SWISSPROT") {
    datagen::SwissprotConfig config;
    config.num_entries = static_cast<size_t>(6000 * scale);
    return datagen::GenerateSwissprot(config);
  }
  if (name == "TREEBANK") {
    datagen::TreebankConfig config;
    config.num_sentences = static_cast<size_t>(6000 * scale);
    return datagen::GenerateTreebank(config);
  }
  PRIX_CHECK(false && "unknown dataset name");
  return {};
}

EngineSet::EngineSet(const std::string& dataset_name, double scale,
                     const std::string& engines)
    : name_(dataset_name), engines_(engines) {
  coll_ = MakeDataset(dataset_name, scale);
}

EngineSet::~EngineSet() {
  rp_.reset();
  ep_.reset();
  vist_.reset();
  streams_.reset();
  forest_.reset();
  db_.reset();
  if (!dir_.empty()) {
    std::string cmd = "rm -rf " + dir_;
    if (std::system(cmd.c_str()) != 0) {
      std::fprintf(stderr, "warning: failed to remove %s\n", dir_.c_str());
    }
  }
}

Status EngineSet::Build() {
  char tmpl[] = "/tmp/prix_bench_XXXXXX";
  if (mkdtemp(tmpl) == nullptr) return Status::IoError("mkdtemp failed");
  dir_ = tmpl;
  PRIX_ASSIGN_OR_RETURN(db_, Database::Create(dir_ + "/bench.prix"));

  auto t0 = std::chrono::steady_clock::now();
  if (engines_.find("prix") != std::string::npos) {
    PrixIndexOptions rp_opts;
    PRIX_ASSIGN_OR_RETURN(rp_, PrixIndex::Build(coll_.documents, db_->pool(),
                                                rp_opts, &rp_stats_));
    PrixIndexOptions ep_opts;
    ep_opts.extended = true;
    PRIX_ASSIGN_OR_RETURN(ep_, PrixIndex::Build(coll_.documents, db_->pool(),
                                                ep_opts, &ep_stats_));
  }
  if (engines_.find("vist") != std::string::npos) {
    PRIX_ASSIGN_OR_RETURN(
        vist_, VistIndex::Build(coll_.documents, db_->pool(), &vist_stats_));
  }
  if (engines_.find("twigstack") != std::string::npos) {
    PRIX_ASSIGN_OR_RETURN(streams_,
                          StreamStore::Build(coll_.documents, db_->pool()));
    PRIX_ASSIGN_OR_RETURN(forest_, XbForest::Build(streams_.get()));
  }
  auto t1 = std::chrono::steady_clock::now();
  std::fprintf(
      stderr, "[%s] %zu docs, %zu nodes; engines (%s) built in %.1fs\n",
      name_.c_str(), coll_.documents.size(), coll_.TotalNodes(),
      engines_.c_str(),
      std::chrono::duration<double>(t1 - t0).count());
  return Status::OK();
}

Status EngineSet::ColdStart() { return db_->ColdStart(); }

Result<RunResult> EngineSet::RunPrix(const std::string& xpath,
                                     bool use_maxgap,
                                     QueryOptions::IndexChoice index) {
  PRIX_CHECK(rp_ != nullptr);
  QueryProcessor qp(*db_, rp_.get(), ep_.get());
  QueryOptions options;
  options.use_maxgap = use_maxgap;
  options.index = index;
  // Two passes: the first absorbs OS-level warm-up (file-cache writeback
  // after an index build); the reported pass still starts from a cold
  // buffer pool, which is the paper's direct-I/O measurement.
  RunResult out;
  for (int pass = 0; pass < 2; ++pass) {
    PRIX_RETURN_NOT_OK(ColdStart());
    // The context captures this run's exact I/O (Execute's inner context
    // folds into it on return), including parse-time dictionary work.
    MetricsContext mctx;
    auto t0 = std::chrono::steady_clock::now();
    PRIX_ASSIGN_OR_RETURN(QueryResult qr,
                          qp.ExecuteXPath(xpath, &coll_.dictionary, options));
    auto t1 = std::chrono::steady_clock::now();
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    out.io = mctx.counters;
    out.pages = qr.stats.pages_read;
    out.matches = qr.matches.size();
    out.docs = qr.docs.size();
    out.prix_stats = qr.stats;
  }
  return out;
}

Result<RunResult> EngineSet::RunVist(const std::string& xpath) {
  PRIX_CHECK(vist_ != nullptr);
  PRIX_ASSIGN_OR_RETURN(TwigPattern pattern,
                        ParseXPath(xpath, &coll_.dictionary));
  VistQueryProcessor qp(vist_.get());
  RunResult out;
  for (int pass = 0; pass < 2; ++pass) {
    PRIX_RETURN_NOT_OK(ColdStart());
    MetricsContext mctx;
    auto t0 = std::chrono::steady_clock::now();
    PRIX_ASSIGN_OR_RETURN(VistQueryResult qr, qp.Execute(pattern));
    auto t1 = std::chrono::steady_clock::now();
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    out.io = mctx.counters;
    out.pages = out.io.physical_reads;
    out.matches = qr.matches.size();
    out.docs = qr.docs.size();
    out.vist_stats = qr.stats;
  }
  return out;
}

Result<RunResult> EngineSet::RunTwigStack(const std::string& xpath,
                                          bool use_xb) {
  PRIX_CHECK(streams_ != nullptr);
  PRIX_ASSIGN_OR_RETURN(TwigPattern pattern,
                        ParseXPath(xpath, &coll_.dictionary));
  TwigStackEngine engine(streams_.get(), use_xb ? forest_.get() : nullptr);
  RunResult out;
  for (int pass = 0; pass < 2; ++pass) {
    PRIX_RETURN_NOT_OK(ColdStart());
    MetricsContext mctx;
    auto t0 = std::chrono::steady_clock::now();
    PRIX_ASSIGN_OR_RETURN(TwigStackResult qr, engine.Execute(pattern));
    auto t1 = std::chrono::steady_clock::now();
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    out.io = mctx.counters;
    out.pages = out.io.physical_reads;
    out.matches = qr.matches.size();
    out.docs = qr.docs.size();
    out.twig_stats = qr.stats;
  }
  return out;
}

size_t EngineSet::OracleCount(const std::string& xpath) {
  auto pattern = ParseXPath(xpath, &coll_.dictionary);
  PRIX_CHECK(pattern.ok());
  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  return NaiveMatchCollection(coll_.documents, twig,
                              MatchSemantics::kOrdered)
      .size();
}

std::string Secs(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f secs", seconds);
  return buf;
}

std::string PagesStr(uint64_t pages) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu pages",
                static_cast<unsigned long long>(pages));
  return buf;
}

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {
  MetricsRegistry::Global().set_enabled(true);
  MetricsRegistry::Global().Reset();
}

void BenchReport::AddRow(std::string_view engine, std::string_view dataset,
                         std::string_view query, std::string_view xpath,
                         const RunResult& r) {
  JsonWriter w;
  w.BeginObject();
  w.Key("engine").String(engine);
  w.Key("dataset").String(dataset);
  w.Key("query").String(query);
  w.Key("xpath").String(xpath);
  w.Key("seconds").Double(r.seconds);
  w.Key("matches").UInt(r.matches);
  w.Key("docs").UInt(r.docs);
  w.Key("pages_read").UInt(r.pages);
  w.Key("io").BeginObject();
  w.Key("pool_hits").UInt(r.io.pool_hits);
  w.Key("pool_misses").UInt(r.io.pool_misses);
  w.Key("physical_reads").UInt(r.io.physical_reads);
  w.Key("physical_writes").UInt(r.io.physical_writes);
  w.Key("btree_nodes").UInt(r.io.btree_nodes);
  w.EndObject();
  w.Key("phases_us").BeginObject();
  w.Key("match").UInt(r.prix_stats.match_us);
  w.Key("refine").UInt(r.prix_stats.refine_us);
  w.Key("verify").UInt(r.prix_stats.verify_us);
  w.Key("total").UInt(r.prix_stats.total_us);
  w.EndObject();
  w.EndObject();
  rows_.push_back(w.Take());
}

void BenchReport::AddRawRow(std::string json_object) {
  rows_.push_back(std::move(json_object));
}

Status BenchReport::Write() {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String(name_);
  AppendBuildInfoJson(&w);
  w.Key("scale").Double(ScaleFromEnv());
  w.Key("rows").BeginArray();
  for (const std::string& row : rows_) w.RawValue(row);
  w.EndArray();
  // Process-wide registry dump: includes the per-phase latency histograms
  // (prix.query.*_us) accumulated since construction.
  w.Key("metrics").RawValue(MetricsRegistry::Global().ToJson());
  w.EndObject();
  std::string doc = w.Take();
  PRIX_RETURN_NOT_OK(ValidateJson(doc).Annotate("BENCH_" + name_ + ".json"));
  std::string path = "BENCH_" + name_ + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
  if (std::fputc('\n', f) == EOF || n != doc.size()) {
    std::fclose(f);
    return Status::IoError("short write to " + path);
  }
  if (std::fclose(f) != 0) return Status::IoError("close failed: " + path);
  std::fprintf(stderr, "wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  return Status::OK();
}

}  // namespace prix::bench
