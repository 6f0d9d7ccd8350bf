#include "bench_common.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/build_info.h"
#include "common/macros.h"
#include "datagen/dblp_gen.h"
#include "datagen/swissprot_gen.h"
#include "datagen/treebank_gen.h"
#include "naive/naive_matcher.h"
#include "query/xpath_parser.h"
#include "twigstack/twig_stack.h"

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

namespace {

/// Documents a dataset has at scale 1, and the fewest its generator needs
/// to plant every Table 3 answer and decoy.
struct DatasetSize {
  size_t base;
  size_t min;
};

DatasetSize SizeOf(std::string_view name) {
  if (name == "DBLP") return {20000, datagen::DblpConfig{}.min_records()};
  if (name == "SWISSPROT") {
    return {6000, datagen::SwissprotConfig{}.min_entries()};
  }
  PRIX_CHECK(name == "TREEBANK");
  return {6000, datagen::TreebankConfig{}.min_sentences()};
}

size_t DocCount(DatasetSize size, double scale) {
  return static_cast<size_t>(size.base * scale);
}

}  // namespace

double ScaleFromEnv(std::initializer_list<std::string_view> datasets) {
  const char* env = std::getenv("PRIX_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  char* end = nullptr;
  const double scale = std::strtod(env, &end);
  bool ok = end != env && *end == '\0' && std::isfinite(scale) && scale > 0;
  double min_scale = 0;  // the smallest on a 0.001 grid that fits them all
  for (std::string_view name : datasets) {
    const DatasetSize size = SizeOf(name);
    ok = ok && DocCount(size, scale) >= size.min;
    double least = std::ceil(1000.0 * size.min / size.base) / 1000;
    while (DocCount(size, least) < size.min) least += 0.001;
    min_scale = std::max(min_scale, least);
  }
  if (!ok) {
    std::fprintf(stderr,
                 "PRIX_BENCH_SCALE='%s' must be a number of at least %.3f, "
                 "the smallest scale at which every planted answer fits\n",
                 env, min_scale);
    std::exit(2);
  }
  return scale;
}

DocumentCollection MakeDataset(const std::string& name, double scale) {
  const size_t count = DocCount(SizeOf(name), scale);
  if (name == "DBLP") {
    datagen::DblpConfig config;
    config.num_records = count;
    return datagen::GenerateDblp(config);
  }
  if (name == "SWISSPROT") {
    datagen::SwissprotConfig config;
    config.num_entries = count;
    return datagen::GenerateSwissprot(config);
  }
  datagen::TreebankConfig config;
  config.num_sentences = count;
  return datagen::GenerateTreebank(config);
}

const char* VariantName(Variant v) {
  static constexpr const char* kNames[] = {
      "PRIX", "PRIX-maxgap", "PRIX-RP",   "PRIX-EP",
      "PRIX-fulltwig", "ViST", "TwigStack", "TwigStackXB", "Oracle"};
  return kNames[static_cast<int>(v)];
}

EngineKind VariantEngine(Variant v) {
  PRIX_CHECK(v != Variant::kOracle);
  if (v == Variant::kVist) return EngineKind::kVist;
  if (v == Variant::kTwigStack) return EngineKind::kTwigStack;
  if (v == Variant::kTwigStackXB) return EngineKind::kTwigStackXB;
  return EngineKind::kPrix;
}

QueryOptions VariantOptions(Variant v) {
  QueryOptions options;
  options.use_maxgap = v != Variant::kPrixNoMaxGap;
  if (v == Variant::kPrixRp) {
    options.index = QueryOptions::IndexChoice::kRegular;
  } else if (v == Variant::kPrixEp) {
    options.index = QueryOptions::IndexChoice::kExtended;
  } else if (v == Variant::kPrixFullTwig) {
    options.wildcard_filter = QueryOptions::WildcardFilter::kFullTwig;
  }
  return options;
}

EngineSet::EngineSet(const std::string& dataset_name, double scale)
    : name_(dataset_name), coll_(MakeDataset(dataset_name, scale)) {}

EngineSet::~EngineSet() {
  rp_.reset();
  ep_.reset();
  engines_.reset();
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
  PrixIndexOptions rp_opts;
  PRIX_ASSIGN_OR_RETURN(rp_, PrixIndex::Build(coll_.documents, db_->pool(),
                                              rp_opts, &rp_stats_));
  PrixIndexOptions ep_opts;
  ep_opts.extended = true;
  PRIX_ASSIGN_OR_RETURN(ep_, PrixIndex::Build(coll_.documents, db_->pool(),
                                              ep_opts, &ep_stats_));
  PRIX_ASSIGN_OR_RETURN(
      std::unique_ptr<VistIndex> vist,
      VistIndex::Build(coll_.documents, db_->pool(), &vist_stats_));
  PRIX_ASSIGN_OR_RETURN(std::unique_ptr<StreamStore> streams,
                        StreamStore::Build(coll_.documents, db_->pool()));
  PRIX_ASSIGN_OR_RETURN(std::unique_ptr<XbForest> forest,
                        XbForest::Build(streams.get()));
  auto t1 = std::chrono::steady_clock::now();
  PRIX_RETURN_NOT_OK(rp_->Save(db_.get(), "rp"));
  PRIX_RETURN_NOT_OK(ep_->Save(db_.get(), "ep"));
  PRIX_RETURN_NOT_OK(vist->Save(db_.get(), "v"));
  PRIX_RETURN_NOT_OK(streams->Save(db_.get(), "ts"));
  PRIX_RETURN_NOT_OK(forest->Save(db_.get(), "xb"));
  engines_ = std::make_unique<Engines>(db_.get(), db_->OpenSnapshot());
  std::fprintf(stderr, "[%s] %zu docs, %zu nodes; engines built in %.1fs\n",
               name_.c_str(), coll_.documents.size(), coll_.TotalNodes(),
               std::chrono::duration<double>(t1 - t0).count());
  return Status::OK();
}

Result<RunResult> EngineSet::Measure(Variant variant,
                                     const std::string& xpath) {
  PRIX_ASSIGN_OR_RETURN(TwigPattern pattern,
                        ParseXPath(xpath, &coll_.dictionary));
  RunResult out;
  for (int pass = 0; pass < 2; ++pass) {
    PRIX_RETURN_NOT_OK(db_->ColdStart());
    out = RunResult{};
    auto t0 = std::chrono::steady_clock::now();
    if (variant == Variant::kOracle) {
      std::vector<TwigMatch> matches =
          NaiveMatchCollection(coll_.documents, EffectiveTwig::Build(pattern),
                               MatchSemantics::kOrdered);
      out.matches = matches.size();
      for (size_t i = 0; i < matches.size(); ++i) {  // grouped by document
        out.docs += i == 0 || matches[i].doc != matches[i - 1].doc;
      }
    } else {
      PRIX_ASSIGN_OR_RETURN(
          QueryResult qr, engines_->Execute(VariantEngine(variant), pattern,
                                            VariantOptions(variant)));
      out.matches = qr.matches.size();
      out.docs = qr.docs.size();
      out.stats = qr.stats;
    }
    auto t1 = std::chrono::steady_clock::now();
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
  }
  return out;
}

BenchReport::BenchReport(std::string name, double scale)
    : name_(std::move(name)), scale_(scale) {
  MetricsRegistry::Global().set_enabled(true);
  MetricsRegistry::Global().Reset();
}

void BenchReport::AddRow(Variant variant, std::string_view dataset,
                         std::string_view query, std::string_view xpath,
                         const RunResult& r) {
  JsonWriter w;
  w.BeginObject();
  w.Key("engine").String(VariantName(variant));
  w.Key("dataset").String(dataset);
  w.Key("query").String(query);
  w.Key("xpath").String(xpath);
  w.Key("seconds").Double(r.seconds);
  w.Key("matches").UInt(r.matches);
  w.Key("docs").UInt(r.docs);
  w.Key("pages_read").UInt(r.stats.pages_read);
  w.Key("io").BeginObject();
  w.Key("pool_hits").UInt(r.stats.pool_hits);
  w.Key("pool_misses").UInt(r.stats.pool_misses);
  w.Key("physical_reads").UInt(r.stats.pages_read);
  w.Key("physical_writes").UInt(r.stats.pages_written);
  w.Key("btree_nodes").UInt(r.stats.btree_nodes);
  w.EndObject();
  if (variant != Variant::kOracle &&
      VariantEngine(variant) == EngineKind::kPrix) {
    w.Key("phases_us").BeginObject();
    w.Key("match").UInt(r.stats.match_us);
    w.Key("refine").UInt(r.stats.refine_us);
    w.Key("verify").UInt(r.stats.verify_us);
    w.Key("total").UInt(r.stats.total_us);
    w.EndObject();
    w.Key("descent").BeginObject();
    w.Key("range_queries").UInt(r.stats.matcher.range_queries);
    w.Key("nodes_scanned").UInt(r.stats.matcher.nodes_scanned);
    w.Key("pruned_by_anchor").UInt(r.stats.matcher.pruned_by_anchor);
    w.Key("occurrences").UInt(r.stats.matcher.occurrences);
    w.EndObject();
  }
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
  w.Key("scale").Double(scale_);
  w.Key("rows").BeginArray();
  for (const std::string& row : rows_) w.RawValue(row);
  w.EndArray();
  // Process-wide registry dump: includes the per-phase latency histograms
  // (prix.query.*_us) accumulated since construction.
  w.Key("metrics").RawValue(MetricsRegistry::Global().ToJson());
  w.EndObject();
  const std::string path = "BENCH_" + name_ + ".json";
  PRIX_RETURN_NOT_OK(WriteJsonFile(path, w.Take()));
  std::fprintf(stderr, "wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  return Status::OK();
}

Status WriteJsonFile(const std::string& path, const std::string& doc) {
  PRIX_RETURN_NOT_OK(ValidateJson(doc).Annotate(path));
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
  if (std::fputc('\n', f) == EOF || n != doc.size()) {
    std::fclose(f);
    return Status::IoError("short write to " + path);
  }
  if (std::fclose(f) != 0) return Status::IoError("close failed: " + path);
  return Status::OK();
}

}  // namespace prix::bench
