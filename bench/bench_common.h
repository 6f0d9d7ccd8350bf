#ifndef PRIX_BENCH_BENCH_COMMON_H_
#define PRIX_BENCH_BENCH_COMMON_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>

#include "common/json.h"
#include "common/metrics.h"
#include "common/result.h"
#include "db/database.h"
#include "prix/engine.h"
#include "prix/prix_index.h"
#include "prix/query_processor.h"
#include "vist/vist_index.h"

namespace prix::bench {

/// The paper's Table 3 queries (identical XPath over the generated analogs).
inline constexpr const char* kQ1 =
    R"(//inproceedings[./author="Jim Gray"][./year="1990"])";
inline constexpr const char* kQ2 = "//www[./editor]/url";
inline constexpr const char* kQ3 =
    R"(//title[text()="Semantic Analysis Patterns"])";
inline constexpr const char* kQ4 = R"(//Entry[./Keyword="Rhizomelic"])";
inline constexpr const char* kQ5 =
    R"(//Entry/Ref[./Author="Mueller P"][./Author="Keller M"])";
inline constexpr const char* kQ6 =
    R"(//Entry[./Org="Piroplasmida"][.//Author]//from)";
inline constexpr const char* kQ7 = "//S//NP/SYM";
inline constexpr const char* kQ8 = "//NP[./RBR_OR_JJR]/PP";
inline constexpr const char* kQ9 = "//NP/PP/NP[./NNS_OR_NN][./NN]";

struct QuerySpec {
  std::string id;
  std::string xpath;
  const char* dataset;  // "DBLP", "SWISSPROT", "TREEBANK"
  size_t paper_matches;  // Table 3's count; 0 for queries the paper lacks
};

/// All nine queries with the paper's match counts (Table 3).
const std::vector<QuerySpec>& AllQueries();

/// Scale factor from $PRIX_BENCH_SCALE (default 1.0). A value that is not a
/// number, or that is too small for one of `datasets` to hold every planted
/// Table 3 answer, ends the process with exit status 2 and a message naming
/// the smallest scale at which all of them fit.
double ScaleFromEnv(std::initializer_list<std::string_view> datasets =
                                {"DBLP", "SWISSPROT", "TREEBANK"});

DocumentCollection MakeDataset(const std::string& name, double scale);

/// One way of answering a twig: an engine kind plus the QueryOptions an
/// experiment varies (VariantEngine, VariantOptions). The paper's matrix is
/// Table 3's queries × these.
enum class Variant {  // the PRIX variants come first
  kPrix,           // the defaults: MaxGap on, index chosen, sound filter
  kPrixNoMaxGap,   // A1
  kPrixRp,         // A2: forced RPIndex
  kPrixEp,         // A2: forced EPIndex
  kPrixFullTwig,   // A4: the paper's full-twig wildcard filter
  kVist,
  kTwigStack,
  kTwigStackXB,
  kOracle,  // the naive matcher over the in-memory documents; no engine
};

/// "PRIX", "PRIX-maxgap", ..., "Oracle": the row name in reports.
const char* VariantName(Variant v);

/// The engine `v` runs on (not for kOracle).
EngineKind VariantEngine(Variant v);

/// The options `v` runs its engine with.
QueryOptions VariantOptions(Variant v);

/// Outcome of one cold-cache query run: the engine's own QueryStats, whose
/// I/O counters are exact for the run (Engines::Execute), and the wall
/// time around it. The Oracle fills only `matches` and `docs`.
struct RunResult {
  double seconds = 0;
  uint64_t matches = 0;
  uint64_t docs = 0;
  QueryStats stats;
};

/// One dataset with every engine built and saved inside one Database (Sec.
/// 6.1 setup: a shared paged file behind a 2000-page pool). Queries run
/// through an Engines handle at the saved generation, against a cleared
/// pool, emulating the paper's direct-I/O cold-cache measurements.
class EngineSet {
 public:
  EngineSet(const std::string& dataset_name, double scale);
  ~EngineSet();

  Status Build();

  /// Runs `xpath` twice, each time from a cold pool, and reports the second
  /// pass: the first absorbs OS-level warm-up (file-cache writeback after
  /// the build) and the engine's one open at the generation, while the
  /// reported one still starts from a cold buffer pool, which is the
  /// paper's direct-I/O measurement.
  Result<RunResult> Measure(Variant variant, const std::string& xpath);

  DocumentCollection& collection() { return coll_; }
  Database& db() { return *db_; }
  BufferPool* pool() { return db_->pool(); }
  const PrixIndexBuildStats& rp_stats() const { return rp_stats_; }
  const PrixIndexBuildStats& ep_stats() const { return ep_stats_; }
  const VistIndexBuildStats& vist_stats() const { return vist_stats_; }
  PrixIndex* rp() { return rp_.get(); }
  PrixIndex* ep() { return ep_.get(); }

 private:
  std::string name_;
  DocumentCollection coll_;
  std::string dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<PrixIndex> rp_;
  std::unique_ptr<PrixIndex> ep_;
  std::unique_ptr<Engines> engines_;
  PrixIndexBuildStats rp_stats_;
  PrixIndexBuildStats ep_stats_;
  VistIndexBuildStats vist_stats_;
};

/// Collects benchmark rows and writes them as `BENCH_<name>.json` in the
/// working directory. Construction enables and resets the global
/// MetricsRegistry, so the per-phase latency histograms the query layer
/// records (prix.query.{match,refine,verify,total}_us) accumulate over the
/// bench and land in the file's "metrics" section. All strings pass
/// through JsonWriter's escaping, and Write() re-validates the full
/// document before touching the file, so a bench can never leave behind
/// malformed JSON.
class BenchReport {
 public:
  BenchReport(std::string name, double scale);

  /// Appends one measured cell. `query` is the short id ("Q1"); `xpath`
  /// may contain quotes/backslashes — it is escaped on emission. Only PRIX
  /// rows carry `phases_us` and Algorithm 1's `descent` counters; the
  /// other engines have no such phases.
  void AddRow(Variant variant, std::string_view dataset,
              std::string_view query, std::string_view xpath,
              const RunResult& r);

  /// Appends a pre-serialized JSON object as a row (caller-validated).
  void AddRawRow(std::string json_object);

  /// Writes BENCH_<name>.json (rows + registry dump). Returns the result
  /// of validation/IO; also logs the path on success.
  Status Write();

 private:
  std::string name_;
  double scale_;
  std::vector<std::string> rows_;
};

/// Validates `doc` with ValidateJson, then writes it and a newline to
/// `path`; nothing is written when validation fails.
Status WriteJsonFile(const std::string& path, const std::string& doc);

}  // namespace prix::bench

#endif  // PRIX_BENCH_BENCH_COMMON_H_
