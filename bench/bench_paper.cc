// The paper's Section 6 experiments in one binary. Each dataset is
// generated and built once, with every engine in one Database, and each
// (dataset, query, variant) cell is measured once from a cold pool. Tables
// 2-9, Figure 6 and the ablations A1-A5 are views over those cells.
//
// Usage: bench_paper [section...]
//   sections: table2 table3 table4 table5 table6 table7 table8 table9
//             figure6 a1 a2 a3 a4 a5 (run in this order; none means all)
//
// PRIX_BENCH_SCALE=<f> scales the datasets (default 1.0). With
// PRIX_EXPORT_QUERIES=<path>, it first writes Table 3's nine queries as a
// Zambezi-format query file (common/queryfile.h), the input shape `prix
// bench-serve` replays. Every measured cell is one row of BENCH_paper.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <tuple>
#include <unordered_map>

#include "bench_common.h"
#include "common/macros.h"
#include "common/queryfile.h"
#include "common/random.h"
#include "datagen/name_pools.h"
#include "trie/dynamic_trie.h"
#include "trie/range_labeler.h"

using namespace prix;
using namespace prix::bench;

namespace {

constexpr const char* kDatasets[] = {"DBLP", "SWISSPROT", "TREEBANK"};

/// The measured cells, and the datasets they were measured on.
class Matrix {
 public:
  explicit Matrix(double scale) : scale_(scale), report_("paper", scale) {}

  double scale() const { return scale_; }
  BenchReport& report() { return report_; }

  /// The dataset with all its engines, generated and built on first use.
  Result<EngineSet*> Dataset(const std::string& name) {
    std::unique_ptr<EngineSet>& set = sets_[name];
    if (set == nullptr) {
      auto built = std::make_unique<EngineSet>(name, scale_);
      PRIX_RETURN_NOT_OK(built->Build().Annotate("building " + name));
      set = std::move(built);
    }
    return set.get();
  }

  /// The cell (query, variant), measured and reported on first use.
  Result<const RunResult*> Cell(const QuerySpec& q, Variant variant) {
    auto key = std::make_tuple(std::string(q.dataset), q.id, variant);
    auto it = cells_.find(key);
    if (it == cells_.end()) {
      PRIX_ASSIGN_OR_RETURN(EngineSet * set, Dataset(q.dataset));
      Result<RunResult> run = set->Measure(variant, q.xpath);
      if (!run.ok()) {
        return run.status().Annotate(std::string(VariantName(variant)) +
                                     " on " + q.id);
      }
      report_.AddRow(variant, q.dataset, q.id, q.xpath, *run);
      it = cells_.emplace(key, *run).first;
    }
    return &it->second;
  }

 private:
  double scale_;
  BenchReport report_;
  std::map<std::string, std::unique_ptr<EngineSet>> sets_;
  std::map<std::tuple<std::string, std::string, Variant>, RunResult> cells_;
};

using ull = unsigned long long;

Status Table2(Matrix& m) {
  std::printf(
      "Table 2: Datasets (synthetic analogs, scale %.2f; see DESIGN.md)\n",
      m.scale());
  std::printf("%-12s %12s %12s %12s %10s %12s\n", "Dataset", "Nodes",
              "Elements", "Values", "Max-depth", "#Sequences");
  for (const char* name : kDatasets) {
    PRIX_ASSIGN_OR_RETURN(EngineSet * set, m.Dataset(name));
    const DocumentCollection& coll = set->collection();
    size_t elements = 0, values = 0;
    uint32_t max_depth = 0;
    for (const Document& doc : coll.documents) {
      elements += doc.CountElements();
      values += doc.CountValues();
      max_depth = std::max(max_depth, doc.MaxDepth());
    }
    std::printf("%-12s %12zu %12zu %12zu %10u %12zu\n", name,
                coll.TotalNodes(), elements, values, max_depth,
                coll.documents.size());
    JsonWriter w;
    w.BeginObject();
    w.Key("section").String("table2");
    w.Key("dataset").String(name);
    w.Key("nodes").UInt(coll.TotalNodes());
    w.Key("elements").UInt(elements);
    w.Key("values").UInt(values);
    w.Key("max_depth").UInt(max_depth);
    w.Key("sequences").UInt(coll.documents.size());
    w.Key("rp_trie_nodes").UInt(set->rp_stats().trie_nodes);
    w.Key("rp_max_path_sharing").UInt(set->rp_stats().max_path_sharing);
    w.Key("ep_trie_nodes").UInt(set->ep_stats().trie_nodes);
    w.Key("vist_trie_nodes").UInt(set->vist_stats().trie_nodes);
    w.Key("vist_prefix_labels").UInt(set->vist_stats().prefix_labels);
    w.EndObject();
    m.report().AddRawRow(w.Take());
  }

  std::printf("\nIndex construction statistics\n");
  std::printf("%-12s %14s %16s %14s %16s %18s\n", "Dataset", "RP trie",
              "RP max-sharing", "EP trie", "ViST trie",
              "ViST prefix-labels");
  for (const char* name : kDatasets) {
    PRIX_ASSIGN_OR_RETURN(EngineSet * set, m.Dataset(name));
    std::printf("%-12s %14llu %16llu %14llu %16llu %18llu\n", name,
                (ull)set->rp_stats().trie_nodes,
                (ull)set->rp_stats().max_path_sharing,
                (ull)set->ep_stats().trie_nodes,
                (ull)set->vist_stats().trie_nodes,
                (ull)set->vist_stats().prefix_labels);
  }
  std::printf(
      "\nPaper reference (Table 2): DBLP 134MB/3.3M elements/depth 6/328858"
      " seqs; SWISSPROT 115MB/3.0M/5/50000; TREEBANK 86MB/2.4M/36/56385.\n");
  return Status::OK();
}

/// A3's controlled sequence workloads, which isolate the two failure axes
/// the paper names ("long sequences and large alphabet sizes").
struct LabelerWorkload {
  const char* name;
  size_t num_seqs;
  size_t alphabet;   // distinct labels per position
  size_t length;     // sequence length
  double head_skew;  // fraction of sequences sharing the head label
};

/// The persisted node entries a DynamicTrie leaves behind, by LeftPos, so
/// the final labels can be re-Init'ed. Docid entries are not kept.
struct ImageOps {
  std::unordered_map<uint64_t, DynTrieEntry> nodes;
  uint64_t root_left = 0;
  uint64_t root_right = 0;

  Status InsertNode(uint64_t ckey, uint64_t left, uint64_t right,
                    uint32_t level) {
    nodes[left] = DynTrieEntry{ckey, left, right, level};
    return Status::OK();
  }
  Status DeleteNode(uint64_t, uint64_t left) {
    nodes.erase(left);
    return Status::OK();
  }
  Status InsertDoc(uint64_t, uint32_t, DocId) { return Status::OK(); }
  Status DeleteDoc(uint64_t, uint32_t) { return Status::OK(); }
  void SetRootRange(uint64_t left, uint64_t right) {
    root_left = left;
    root_right = right;
  }
  std::vector<DynTrieEntry> Entries() const {
    std::vector<DynTrieEntry> ents;
    ents.reserve(nodes.size());
    for (const auto& [left, e] : nodes) ents.push_back(e);
    return ents;
  }
};

/// Ablation A3: the insert labeler (DynamicTrie, Sec. 5.2.1) replaying
/// synthetic sequence workloads in the two shapes a database meets: every
/// sequence inserted into an empty trie, and an exact bulk build of the
/// first half followed by inserting the rest (`prix index`, then `prix
/// insert`). It counts relabel batches and the nodes they move, and fails
/// unless the final labels re-Init (containment, levels, sibling keys).
Status A3Relabel(Matrix& m) {
  std::printf("Ablation A3: insert labeler relabel work (Sec. 5.2.1)\n");
  std::printf("%-18s %8s %6s %11s %10s %16s %10s %6s\n", "workload", "trie",
              "sigma", "start", "relabels", "relabeled nodes", "insert ms",
              "valid");
  const LabelerWorkload workloads[] = {
      // Small alphabet, short sequences: the easy case.
      {"narrow/short", 4000, 8, 8, 0.3},
      // Large alphabet: high fanout exhausts a node's free scope.
      {"wide/short", 4000, 4000, 6, 0.0},
      // Long sequences over a moderate alphabet.
      {"narrow/long", 2000, 32, 60, 0.3},
      // Both at once, with a skewed head.
      {"wide/long/skewed", 2000, 1500, 40, 0.6},
  };
  for (const LabelerWorkload& w : workloads) {
    Random rng(99);
    std::vector<std::vector<uint64_t>> seqs(w.num_seqs);
    for (std::vector<uint64_t>& seq : seqs) {
      seq.resize(w.length);
      for (uint64_t& label : seq) {
        // Zipf-ish head: a `head_skew` fraction of draws reuse label 0.
        label = rng.Bernoulli(w.head_skew) ? 0 : 1 + rng.Uniform(w.alphabet);
      }
    }
    for (const size_t bulk : {size_t{0}, w.num_seqs / 2}) {
      SequenceTrie base;
      for (DocId d = 0; d < bulk; ++d) base.Insert(seqs[d], d);
      const std::vector<RangeLabel> labels = LabelTrieExact(base);
      ImageOps ops;
      ops.SetRootRange(labels[0].left, labels[0].right);
      for (uint32_t v = 1; v < base.num_nodes(); ++v) {
        ops.nodes[labels[v].left] = DynTrieEntry{
            base.node(v).key, labels[v].left, labels[v].right,
            base.node(v).depth};
      }
      DynamicTrie trie;
      PRIX_RETURN_NOT_OK(
          trie.Init(ops.Entries(), ops.root_left, ops.root_right));

      auto t0 = std::chrono::steady_clock::now();
      for (DocId d = bulk; d < seqs.size(); ++d) {
        PRIX_ASSIGN_OR_RETURN(uint64_t end, trie.InsertPath(seqs[d], ops));
        PRIX_RETURN_NOT_OK(trie.InsertDocEntry(end, d, ops).status());
      }
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      const size_t trie_nodes = ops.nodes.size() + 1;  // + the virtual root
      DynamicTrie reopened;
      Status valid =
          reopened.Init(ops.Entries(), ops.root_left, ops.root_right);
      const char* start = bulk == 0 ? "empty" : "exact half";
      std::printf("%-18s %8zu %6zu %11s %10llu %16llu %10.1f %6s\n", w.name,
                  trie_nodes, w.alphabet, start, (ull)trie.relabels(),
                  (ull)trie.relabeled_nodes(), ms, valid.ok() ? "yes" : "NO");
      if (!valid.ok()) {
        return valid.Annotate(std::string("A3 ") + w.name + " from " + start);
      }
      JsonWriter j;
      j.BeginObject();
      j.Key("section").String("a3");
      j.Key("workload").String(w.name);
      j.Key("start").String(start);
      j.Key("trie_nodes").UInt(trie_nodes);
      j.Key("alphabet").UInt(w.alphabet);
      j.Key("relabels").UInt(trie.relabels());
      j.Key("relabeled_nodes").UInt(trie.relabeled_nodes());
      j.Key("insert_ms").Double(ms);
      j.EndObject();
      m.report().AddRawRow(j.Take());
    }
  }
  std::printf(
      "\n(Bulk builds are exact-labeled, with no slack: the first insert "
      "into one grows the root scope and relabels the whole trie, and later "
      "inserts claim the slack that relabel spread. Relabel work grows with "
      "fanout: a node keeps only ~%llu free positions per relabel.)\n",
      (ull)DynamicTrie::kRelabelSpread);
  return Status::OK();
}

// ---- Views: the remaining sections print columns of measured cells ----

/// One printed value of a cell (or, for HasValue, Paper and XPath, of its
/// query).
using Stat = std::string (*)(const QuerySpec& q, const RunResult& r);

std::string Time(const QuerySpec&, const RunResult& r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", r.seconds);
  return buf;
}
std::string HasValue(const QuerySpec& q, const RunResult&) {
  return q.xpath.find('"') != std::string::npos ? "yes" : "no";
}
std::string Paper(const QuerySpec& q, const RunResult&) {
  return std::to_string(q.paper_matches);
}
std::string XPath(const QuerySpec& q, const RunResult&) { return q.xpath; }
template <auto get>
std::string Count(const QuerySpec&, const RunResult& r) {
  return std::to_string(get(r));
}
constexpr Stat Pages =
    Count<[](const RunResult& r) { return r.stats.pages_read; }>;
constexpr Stat Matches = Count<[](const RunResult& r) { return r.matches; }>;
constexpr Stat Scanned =
    Count<[](const RunResult& r) { return r.stats.matcher.nodes_scanned; }>;
constexpr Stat Candidates =
    Count<[](const RunResult& r) { return r.stats.refine.candidates; }>;
constexpr Stat Pruned =
    Count<[](const RunResult& r) { return r.stats.matcher.pruned_by_maxgap; }>;
constexpr Stat Keys =
    Count<[](const RunResult& r) { return r.stats.vist.matched_prefixes; }>;
constexpr Stat Elements = Count<
    [](const RunResult& r) { return r.stats.twigstack.elements_processed; }>;
constexpr Stat Drilldowns =
    Count<[](const RunResult& r) { return r.stats.twigstack.drilldowns; }>;

struct Column {
  const char* header;
  Variant variant;
  Stat stat;
};

/// A table whose rows are queries and whose columns are cells of them.
struct View {
  const char* title;
  std::vector<QuerySpec> rows;
  std::vector<Column> columns;
  /// Variants that must give every row the same number of matches, which
  /// must also be the paper's count where the query has one.
  std::vector<Variant> agree;
  const char* footer;
};

std::vector<QuerySpec> Queries(std::initializer_list<std::string_view> ids) {
  std::vector<QuerySpec> out;
  for (const QuerySpec& q : AllQueries()) {
    for (std::string_view id : ids) {
      if (q.id == id) out.push_back(q);
    }
  }
  return out;
}

/// A5's rows: //inproceedings[./author=<the rank-r author>]. Author names
/// are Zipf-distributed, so the rank sweeps the match cardinality.
std::vector<QuerySpec> AuthorRankQueries() {
  std::vector<QuerySpec> out;
  for (size_t rank : {0, 1, 3, 10, 50, 200, 1000, 5000}) {
    out.push_back({"rank" + std::to_string(rank),
                   "//inproceedings[./author=\"" + datagen::AuthorName(rank) +
                       "\"]",
                   "DBLP", 0});
  }
  return out;
}

Status Render(Matrix& m, const View& s) {
  std::printf("%s\n", s.title);
  auto width = [](const Column& c) {
    return std::max<int>(10, std::strlen(c.header));
  };
  std::printf("%-8s %-10s", "Query", "Dataset");
  for (const Column& c : s.columns) std::printf(" %*s", width(c), c.header);
  std::printf("\n");
  for (const QuerySpec& q : s.rows) {
    std::printf("%-8s %-10s", q.id.c_str(), q.dataset);
    for (const Column& c : s.columns) {
      PRIX_ASSIGN_OR_RETURN(const RunResult* r, m.Cell(q, c.variant));
      std::printf(" %*s", width(c), c.stat(q, *r).c_str());
    }
    std::printf("\n");
    if (s.agree.empty()) continue;
    PRIX_ASSIGN_OR_RETURN(const RunResult* first, m.Cell(q, s.agree[0]));
    // The generators plant exactly the paper's count at every scale.
    const uint64_t want =
        q.paper_matches != 0 ? q.paper_matches : first->matches;
    for (Variant v : s.agree) {
      PRIX_ASSIGN_OR_RETURN(const RunResult* r, m.Cell(q, v));
      if (r->matches != want) {
        return Status::Internal(std::string(VariantName(v)) + " finds " +
                                std::to_string(r->matches) + " on " + q.id +
                                ", not " + std::to_string(want));
      }
    }
  }
  std::printf("\n%s\n", s.footer);
  return Status::OK();
}

struct Section {
  const char* name;
  std::function<Status(Matrix&)> run;
};

std::function<Status(Matrix&)> Show(View view) {
  return [view = std::move(view)](Matrix& m) { return Render(m, view); };
}

std::vector<Section> Sections() {
  using V = Variant;
  const std::vector<QuerySpec> all = AllQueries();
  const std::vector<Column> prix_vs_vist = {{"PRIX time", V::kPrix, Time},
                                            {"PRIX IO", V::kPrix, Pages},
                                            {"ViST time", V::kVist, Time},
                                            {"ViST IO", V::kVist, Pages}};
  const std::vector<Column> prix_vs_xb = {
      {"PRIX time", V::kPrix, Time},
      {"PRIX IO", V::kPrix, Pages},
      {"TSXB time", V::kTwigStackXB, Time},
      {"TSXB IO", V::kTwigStackXB, Pages}};
  auto plus = [](std::vector<Column> columns, Column extra) {
    columns.push_back(extra);
    return columns;
  };
  return {
      {"table2", Table2},
      {"table3",
       Show({"Table 3: XPath queries and twig-match counts", all,
             {{"paper", V::kOracle, Paper},
              {"oracle", V::kOracle, Matches},
              {"PRIX", V::kPrix, Matches},
              {"ViST", V::kVist, Matches},
              {"TwigStk", V::kTwigStack, Matches},
              {"TwigStkXB", V::kTwigStackXB, Matches},
              {"XPath", V::kOracle, XPath}},
             {V::kOracle, V::kPrix, V::kVist, V::kTwigStack,
              V::kTwigStackXB},
             "All engines agree with the oracle and the paper's Table 3 "
             "counts."})},
      {"table4",
       Show({"Table 4: DBLP - PRIX vs ViST (seconds, pages read)",
             Queries({"Q1", "Q2", "Q3"}), prix_vs_vist, {},
             "Paper (Table 4): Q1 1.48s/185p vs 15.28s/3543p; Q2 0.05s/7p "
             "vs 0.15s/15p; Q3 0.07s/9p vs 22.07s/2280p."})},
      {"table5",
       Show({"Table 5: SWISSPROT - PRIX vs ViST (seconds, pages read)",
             Queries({"Q4", "Q5", "Q6"}), prix_vs_vist, {},
             "Paper (Table 5): Q4 0.29s/23p vs 9.52s/1757p; Q5 0.36s/49p "
             "vs 131.67s/128150p; Q6 0.75s/86p vs 39.12s/6967p."})},
      {"table6",
       Show({"Table 6: TREEBANK - PRIX vs ViST (seconds, pages read)",
             Queries({"Q7", "Q8", "Q9"}),
             plus(prix_vs_vist, {"ViST keys matched", V::kVist, Keys}),
             {},
             "Paper (Table 6): Q7 0.42s/46p vs 198.40s/40827p; Q8 0.35s/35p "
             "vs 672.20s/94505p; Q9 0.50s/55p vs 767.24s/121928p. The "
             "paper reports 515 matched (S,//) keys for Q7 and 46355 for "
             "Q8."})},
      {"table7",
       Show({"Table 7: DBLP - TwigStack vs TwigStackXB (seconds, pages "
             "read, stream elements)",
             Queries({"Q1", "Q2", "Q3"}),
             {{"TS time", V::kTwigStack, Time},
              {"TS IO", V::kTwigStack, Pages},
              {"TS elems", V::kTwigStack, Elements},
              {"TSXB time", V::kTwigStackXB, Time},
              {"TSXB IO", V::kTwigStackXB, Pages},
              {"TSXB elems", V::kTwigStackXB, Elements}},
             {},
             "Paper (Table 7): Q1 20.74s/8756p vs 1.28s/201p; Q2 "
             "7.25s/2310p vs 0.49s/63p; Q3 6.17s/2271p vs 0.05s/8p."})},
      {"table8",
       Show({"Table 8: PRIX vs TwigStackXB (clustered solutions)",
             Queries({"Q1", "Q5", "Q7"}), prix_vs_xb, {},
             "Paper (Table 8): Q1 1.48s/185p vs 1.28s/201p; Q5 0.36s/49p vs "
             "0.33s/59p; Q7 0.42s/46p vs 0.47s/51p."})},
      {"table9",
       Show({"Table 9: PRIX vs TwigStackXB (scattered solutions)",
             Queries({"Q2", "Q6", "Q8"}),
             plus(prix_vs_xb, {"drilldowns", V::kTwigStackXB, Drilldowns}),
             {},
             "Paper (Table 9): Q2 0.05s/7p vs 0.49s/63p; Q6 0.75s/86p vs "
             "3.10s/485p; Q8 0.35s/35p vs 1.93s/310p."})},
      {"figure6",
       Show({"Figure 6: Elapsed time for XPath queries (seconds)", all,
             {{"PRIX", V::kPrix, Time},
              {"ViST", V::kVist, Time},
              {"TwigStack", V::kTwigStack, Time},
              {"TwigStackXB", V::kTwigStackXB, Time}},
             {},
             "Expected shape (paper Fig. 6, log scale): PRIX fastest or tied "
             "on every query; ViST slowest by 1-3 orders of magnitude except "
             "Q2; TwigStackXB between PRIX and TwigStack."})},
      // A1: the MaxGap upper-bounding metric (Sec. 5.4, Theorem 4).
      {"a1",
       Show({"Ablation A1: MaxGap pruning (Sec. 5.4) on vs off", all,
             {{"scan+", V::kPrix, Scanned},
              {"cand+", V::kPrix, Candidates},
              {"IO+", V::kPrix, Pages},
              {"scan-", V::kPrixNoMaxGap, Scanned},
              {"cand-", V::kPrixNoMaxGap, Candidates},
              {"IO-", V::kPrixNoMaxGap, Pages},
              {"pruned", V::kPrix, Pruned},
              {"matches", V::kPrix, Matches}},
             {V::kPrix, V::kPrixNoMaxGap},
             "('+' columns: MaxGap enabled; '-' columns: disabled. The "
             "metric may only remove work, never results.)"})},
      // A2: the high selectivity of value labels under the bottom-up
      // transformation prunes virtual-trie paths early (Sec. 5.6).
      {"a2",
       Show({"Ablation A2: RPIndex vs EPIndex for value queries (Sec. 5.6)",
             all,
             {{"value", V::kPrixRp, HasValue},
              {"RP time", V::kPrixRp, Time},
              {"RP scan", V::kPrixRp, Scanned},
              {"RP IO", V::kPrixRp, Pages},
              {"EP time", V::kPrixEp, Time},
              {"EP scan", V::kPrixEp, Scanned},
              {"EP IO", V::kPrixEp, Pages}},
             {V::kPrixRp, V::kPrixEp},
             "(Expected: EP wins on value queries; RP is preferable without "
             "values — the paper's query-optimizer rule.)"})},
      {"a3", A3Relabel},
      // A4: the full-twig filter can miss documents whose only embeddings
      // nest two multi-node '//' branches inside one child subtree
      // (DESIGN.md Sec. 5 item 5); on the generated datasets it does not.
      {"a4",
       Show({"Ablation A4: wildcard filtering - sound spine vs full-twig "
             "(paper)",
             Queries({"Q4", "Q5", "Q6", "Q7", "Q8", "Q9"}),
             {{"sound time", V::kPrix, Time},
              {"sound IO", V::kPrix, Pages},
              {"matches", V::kPrix, Matches},
              {"paper time", V::kPrixFullTwig, Time},
              {"paper IO", V::kPrixFullTwig, Pages},
              {"matches", V::kPrixFullTwig, Matches}},
             {V::kPrix, V::kPrixFullTwig},
             "(Both modes return identical results on these datasets; the "
             "run checks it. Their work differs only on twigs at branch-"
             "coincidence risk (Q6 here), which the sound mode filters by a "
             "root-to-leaf spine instead of the whole twig; depending on "
             "the data and the scale, the spine reads more pages or "
             "fewer.)"})},
      // A5: the paper's stated future work (Sec. 7).
      {"a5",
       Show({"Ablation A5: cost vs result cardinality "
             "(//inproceedings[./author=\"<rank r author>\"])",
             AuthorRankQueries(),
             {{"matches", V::kPrix, Matches},
              {"PRIX time", V::kPrix, Time},
              {"PRIX IO", V::kPrix, Pages},
              {"TSXB time", V::kTwigStackXB, Time},
              {"TSXB IO", V::kTwigStackXB, Pages}},
             {V::kPrix, V::kTwigStackXB},
             "(PRIX I/O tracks result cardinality across two orders of "
             "magnitude — the bottom-up transform starts at the queried "
             "author value, and candidate document loads dominate for "
             "popular authors. TwigStackXB skips to the author's stream "
             "region, so its cost saturates at the region's page count for "
             "popular authors.)"})},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Section> sections = Sections();
  const std::vector<std::string> wanted(argv + 1, argv + argc);
  for (const std::string& name : wanted) {
    if (std::none_of(sections.begin(), sections.end(),
                     [&](const Section& s) { return name == s.name; })) {
      std::fprintf(stderr, "unknown section '%s'; sections:", name.c_str());
      for (const Section& s : sections) std::fprintf(stderr, " %s", s.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
  }

  const double scale = ScaleFromEnv();
  if (const char* path = std::getenv("PRIX_EXPORT_QUERIES")) {
    std::vector<QueryFileEntry> entries;
    for (const QuerySpec& q : AllQueries()) {
      entries.push_back({entries.size() + 1, q.xpath});
    }
    std::ofstream out(path, std::ios::trunc);
    out << FormatQueryFile(entries);
    out.close();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::printf("exported %zu queries to %s (Zambezi format)\n\n",
                entries.size(), path);
  }

  Matrix matrix(scale);
  const char* separator = "";
  for (const Section& s : sections) {
    if (!wanted.empty() &&
        std::find(wanted.begin(), wanted.end(), s.name) == wanted.end()) {
      continue;
    }
    std::printf("%s", separator);
    separator = "\n";
    Status st = s.run(matrix);
    std::fflush(stdout);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", s.name, st.ToString().c_str());
      return 1;
    }
  }
  return matrix.report().Write().ok() ? 0 : 1;
}
