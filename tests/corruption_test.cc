// Silent-corruption defense tests (DESIGN.md §5g). The centerpiece is a
// seeded fuzz that garbles every page of a built index file, one page at a
// time, and asserts the fail-safe contract end to end:
//
//   - `prix verify`'s scrub pinpoints the garbled page id,
//   - opening and querying the damaged file returns a non-OK Status or the
//     exact correct answers — never wrong answers, never UB,
//   - salvage rebuilds every index from the surviving documents, and the
//     salvaged file answers exactly like the oracle.
//
// The contract holds because the BufferPool CRC-verifies every physical
// read: corrupt bytes can never enter the cache, so an OK result was
// computed entirely from verified pages. Run under ASan/UBSan via
// tools/ci.sh's corruption stage; override the seed with
// PRIX_CORRUPTION_SEED for directed reproduction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "db/database.h"
#include "naive/naive_matcher.h"
#include "prix/engine.h"
#include "prix/prix_index.h"
#include "prix/query_processor.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"
#include "storage/page_format.h"
#include "testutil/temp_db.h"
#include "testutil/tree_gen.h"
#include "twigstack/position_stream.h"
#include "twigstack/twig_stack.h"
#include "verify/verifier.h"
#include "vist/vist_index.h"
#include "vist/vist_query.h"

namespace prix {
namespace {

using testutil::RandomCollection;
using testutil::RandomDocOptions;
using testutil::RandomTwig;
using testutil::TempDb;

uint64_t FuzzSeed() {
  if (const char* env = std::getenv("PRIX_CORRUPTION_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260806;
}

/// Reads the whole file into memory; the fuzz restores from this snapshot
/// after each mutation so every iteration sees the same pristine file.
std::vector<char> Slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> bytes(static_cast<size_t>(size));
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteAt(const std::string& path, uint64_t offset, const char* data,
             size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  ASSERT_EQ(std::fwrite(data, 1, n, f), n);
  std::fclose(f);
}

/// A small indexed collection with naive-matcher ground truth, built once
/// and shared by the fuzz and the salvage tests.
struct Workload {
  TagDictionary dict;
  std::vector<Document> docs;
  std::vector<TwigPattern> patterns;
  std::vector<std::vector<TwigMatch>> expected;

  explicit Workload(uint64_t seed) {
    Random rng(seed);
    RandomDocOptions doc_opts;
    doc_opts.max_nodes = 32;  // bounds the file: the fuzz is O(pages^2)
    docs = RandomCollection(rng, 40, &dict, doc_opts);
    for (int i = 0; i < 20 && patterns.size() < 5; ++i) {
      TwigPattern pattern =
          RandomTwig(rng, docs[rng.Uniform(docs.size())], &dict);
      if (pattern.num_nodes() < 2) continue;
      EffectiveTwig twig = EffectiveTwig::Build(pattern);
      auto matches =
          NaiveMatchCollection(docs, twig, MatchSemantics::kOrdered);
      std::sort(matches.begin(), matches.end());
      patterns.push_back(std::move(pattern));
      expected.push_back(std::move(matches));
    }
  }

  /// Builds the RP and ViST indexes into `db`, so the fuzz sweeps over
  /// every page type both index families use (B+-tree nodes, heap record
  /// chunks, catalog blobs).
  void BuildInto(TempDb* db) const {
    auto rp = PrixIndex::Build(docs, db->pool(), PrixIndexOptions{});
    ASSERT_TRUE(rp.ok()) << rp.status().ToString();
    ASSERT_TRUE((*rp)->Save(&db->db(), "rp").ok());
    auto vist = VistIndex::Build(docs, db->pool());
    ASSERT_TRUE(vist.ok()) << vist.status().ToString();
    ASSERT_TRUE((*vist)->Save(&db->db(), "vist").ok());
  }

  /// Builds every engine into `db` under the names `prix index` uses: PRIX
  /// "rp" and "ep", ViST "v", TwigStack's streams "ts" and the XB-forest
  /// "xb" over them.
  void BuildEveryEngineInto(TempDb* db) const {
    for (bool extended : {false, true}) {
      auto prix = PrixIndex::Build(docs, db->pool(),
                                   PrixIndexOptions{.extended = extended});
      ASSERT_TRUE(prix.ok()) << prix.status().ToString();
      ASSERT_TRUE((*prix)->Save(&db->db(), extended ? "ep" : "rp").ok());
    }
    auto vist = VistIndex::Build(docs, db->pool());
    ASSERT_TRUE(vist.ok()) << vist.status().ToString();
    ASSERT_TRUE((*vist)->Save(&db->db(), "v").ok());
    auto streams = StreamStore::Build(docs, db->pool());
    ASSERT_TRUE(streams.ok()) << streams.status().ToString();
    ASSERT_TRUE((*streams)->Save(&db->db(), "ts").ok());
    auto forest = XbForest::Build(streams->get());
    ASSERT_TRUE(forest.ok()) << forest.status().ToString();
    ASSERT_TRUE((*forest)->Save(&db->db(), "xb").ok());
  }

  /// The documents `NaiveMatchCollection` matches pattern `q` in under
  /// `semantics`, sorted and distinct.
  std::vector<DocId> OracleDocs(size_t q, MatchSemantics semantics) const {
    std::vector<DocId> out;
    for (const TwigMatch& m : NaiveMatchCollection(
             docs, EffectiveTwig::Build(patterns[q]), semantics)) {
      out.push_back(m.doc);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
};

/// Body of the every-page garble sweep, run under two seeds: what a garbled
/// payload decodes to depends on the bytes, so the fail-safe contract gets
/// two independent draws against delta-coded leaves and varint records.
void RunGarbleSweep(uint64_t seed) {
  SCOPED_TRACE("PRIX_CORRUPTION_SEED=" + std::to_string(seed));
  Workload load(seed);
  ASSERT_GE(load.patterns.size(), 3u);

  TempDb db(Database::Options{.pool_pages = 128});
  load.BuildInto(&db);
  ASSERT_TRUE(db.CloseHandle().ok());

  std::vector<char> pristine = Slurp(db.path());
  ASSERT_EQ(pristine.size() % kPageSize, 0u);
  size_t num_pages = pristine.size() / kPageSize;
  ASSERT_GE(num_pages, 4u);

  Random rng(seed ^ 0x9e3779b97f4a7c15ull);
  size_t opened = 0, queried_ok = 0;
  for (PageId garbled = 0; garbled < num_pages; ++garbled) {
    SCOPED_TRACE("garbled page " + std::to_string(garbled));
    // Mutate: overwrite the page with seeded random bytes. A random fill
    // fails the trailer CRC with probability 1 - 2^-32 and is never the
    // all-zero page, so the scrub must flag exactly this page.
    char junk[kPageSize];
    for (size_t i = 0; i < kPageSize; i += 4) {
      uint32_t word = static_cast<uint32_t>(rng.Next());
      std::memcpy(junk + i, &word, 4);
    }
    WriteAt(db.path(), uint64_t{garbled} * kPageSize, junk, kPageSize);

    // The scrub pinpoints the damage without needing a readable catalog.
    VerifyReport report;
    ASSERT_TRUE(ScrubPages(db.path(), &report).ok());
    EXPECT_EQ(report.pages_scanned, num_pages);
    EXPECT_GE(report.pages_bad, 1u);
    bool pinpointed = false;
    for (const VerifyIssue& issue : report.issues) {
      if (issue.page == garbled) pinpointed = true;
    }
    EXPECT_TRUE(pinpointed) << "scrub missed the garbled page";

    // Open + query: every outcome must be an error Status or the exact
    // ground-truth answer. Garbling a header slot typically falls back to
    // the other slot; garbling an unreferenced page changes nothing; a
    // referenced page trips the pool's CRC verify on first touch.
    auto open = Database::Open(db.path(), Database::Options{.pool_pages = 128});
    if (open.ok()) {
      ++opened;
      auto rp = PrixIndex::Open(open->get(), "rp");
      if (rp.ok()) {
        QueryProcessor qp(**open, rp->get(), nullptr);
        for (size_t q = 0; q < load.patterns.size(); ++q) {
          auto result = qp.Execute(load.patterns[q]);
          if (!result.ok()) continue;  // detected: acceptable
          auto got = result->matches;
          std::sort(got.begin(), got.end());
          EXPECT_EQ(got, load.expected[q])
              << "query " << q << " returned OK with wrong matches";
          ++queried_ok;
        }
      }
      auto vist = VistIndex::Open(open->get(), "vist");
      if (vist.ok()) {
        VistQueryProcessor vqp(vist->get());
        for (size_t q = 0; q < load.patterns.size(); ++q) {
          auto result = vqp.Execute(load.patterns[q]);
          if (!result.ok()) continue;
          auto got = result->matches;
          std::sort(got.begin(), got.end());
          EXPECT_EQ(got, load.expected[q])
              << "vist query " << q << " returned OK with wrong matches";
        }
      }
      (*open)->Abandon();  // read-only probe: never write to the victim
    }

    // Restore the pristine page for the next iteration.
    WriteAt(db.path(), uint64_t{garbled} * kPageSize,
            pristine.data() + uint64_t{garbled} * kPageSize, kPageSize);
  }
  // The fuzz must have exercised both regimes, or it proves nothing.
  EXPECT_GT(opened, 0u) << "every open failed: fuzz never reached queries";
  EXPECT_GT(queried_ok, 0u) << "no query ever succeeded";
}

TEST(CorruptionFuzzTest, EverySinglePageGarbleFailsSafelyAndIsPinpointed) {
  RunGarbleSweep(FuzzSeed());
}

TEST(CorruptionFuzzTest, SecondSeedGarbleFailsSafelyToo) {
  RunGarbleSweep(FuzzSeed() ^ 0xc0117e55ed);
}

TEST(CorruptionFuzzTest, VerifyDatabaseWalksStructureAndNamesTheIndex) {
  Workload load(FuzzSeed() + 1);
  TempDb db(Database::Options{.pool_pages = 128});
  load.BuildInto(&db);
  ASSERT_TRUE(db.CloseHandle().ok());

  // Clean file: both passes agree it is clean.
  VerifyReport clean;
  ASSERT_TRUE(ScrubPages(db.path(), &clean).ok());
  ASSERT_TRUE(VerifyDatabase(db.path(), &clean).ok());
  EXPECT_TRUE(clean.clean()) << clean.issues.size() << " issues on a clean db";
  EXPECT_EQ(clean.indexes_checked, 2u);  // "rp" + "vist"

  // Garble one B+-tree node page: the structural walk must attribute the
  // fault to the index that owns the page.
  std::vector<char> pristine = Slurp(db.path());
  PageId victim = kInvalidPage;
  for (size_t p = pristine.size() / kPageSize; p-- > 2;) {
    if (GetPageType(pristine.data() + p * kPageSize) == PageType::kBtreeNode) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidPage) << "no B+-tree node page in the file";
  char junk[kPageSize];
  std::memset(junk, 0xa5, kPageSize);
  WriteAt(db.path(), uint64_t{victim} * kPageSize, junk, kPageSize);

  VerifyReport report;
  ASSERT_TRUE(VerifyDatabase(db.path(), &report).ok());
  EXPECT_EQ(report.indexes_checked, 2u);
  EXPECT_GE(report.indexes_bad, 1u);
  ASSERT_FALSE(report.issues.empty());
  bool named = false;
  for (const VerifyIssue& issue : report.issues) {
    if (issue.index == "rp" || issue.index == "vist") named = true;
  }
  EXPECT_TRUE(named) << "no issue names the owning index";
}

TEST(CorruptionFuzzTest, SalvageRebuildsAQueryableDatabase) {
  Workload load(FuzzSeed() + 2);
  ASSERT_GE(load.patterns.size(), 3u);
  TempDb db(Database::Options{.pool_pages = 128});
  load.BuildInto(&db);
  ASSERT_TRUE(db.CloseHandle().ok());

  // Garble one B+-tree node so part of one tree becomes unreachable.
  std::vector<char> pristine = Slurp(db.path());
  PageId victim = kInvalidPage;
  for (size_t p = pristine.size() / kPageSize; p-- > 2;) {
    if (GetPageType(pristine.data() + p * kPageSize) == PageType::kBtreeNode) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidPage);
  char junk[kPageSize];
  std::memset(junk, 0x3c, kPageSize);
  WriteAt(db.path(), uint64_t{victim} * kPageSize, junk, kPageSize);

  std::string out = db.path() + ".salvaged";
  SalvageReport report;
  Status st = SalvageDatabase(db.path(), out, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.rebuilt, (std::vector<std::string>{"rp", "vist"}));
  EXPECT_TRUE(report.lost.empty());
  EXPECT_EQ(report.documents, load.docs.size());

  // The salvaged file is fully clean under both verification passes...
  VerifyReport verify;
  ASSERT_TRUE(ScrubPages(out, &verify).ok());
  ASSERT_TRUE(VerifyDatabase(out, &verify).ok());
  EXPECT_TRUE(verify.clean());

  // ...and answers exactly like the oracle: the garbled node belongs to an
  // index, not to rp's document store, so every document is recovered and
  // every index is rebuilt from all of them.
  auto open = Database::Open(out, Database::Options{.pool_pages = 128});
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  auto rp = PrixIndex::Open(open->get(), "rp");
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();
  QueryProcessor qp(**open, rp->get(), nullptr);
  for (size_t q = 0; q < load.patterns.size(); ++q) {
    auto result = qp.Execute(load.patterns[q]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto got = result->matches;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, load.expected[q]) << "query " << q;
  }
  (*open)->Abandon();
  ::unlink(out.c_str());
}

/// Garbles every page of a file holding all five engines, one page at a
/// time, and salvages it. Either the source catalog cannot be opened, or
/// the salvaged file recovers every document (rp and ep never share a
/// page, so each DocId survives in one of them), verifies clean, and every
/// engine answers every fixture twig exactly like the oracle.
TEST(CorruptionFuzzTest, EverySinglePageGarbleSalvagesToTheOracle) {
  const uint64_t seed = FuzzSeed();
  SCOPED_TRACE("PRIX_CORRUPTION_SEED=" + std::to_string(seed));
  Workload load(seed);
  ASSERT_GE(load.patterns.size(), 3u);
  TempDb db(Database::Options{.pool_pages = 128});
  load.BuildEveryEngineInto(&db);
  ASSERT_TRUE(db.CloseHandle().ok());

  std::vector<std::vector<DocId>> ordered, standard;
  for (size_t q = 0; q < load.patterns.size(); ++q) {
    ordered.push_back(load.OracleDocs(q, MatchSemantics::kOrdered));
    standard.push_back(load.OracleDocs(q, MatchSemantics::kStandard));
  }
  const std::vector<std::string> every_index = {"rp", "ep", "v", "ts", "xb"};
  std::vector<char> pristine = Slurp(db.path());
  const size_t num_pages = pristine.size() / kPageSize;
  const std::string out = db.path() + ".salvaged";
  Random rng(seed ^ 0x5a1fa9e5ull);
  size_t salvaged = 0;
  for (PageId garbled = 0; garbled < num_pages; ++garbled) {
    SCOPED_TRACE("garbled page " + std::to_string(garbled));
    char junk[kPageSize];
    for (size_t i = 0; i < kPageSize; i += 4) {
      uint32_t word = static_cast<uint32_t>(rng.Next());
      std::memcpy(junk + i, &word, 4);
    }
    WriteAt(db.path(), uint64_t{garbled} * kPageSize, junk, kPageSize);
    ::unlink(out.c_str());

    SalvageReport report;
    Status st = SalvageDatabase(db.path(), out, &report);
    if (!st.ok()) {
      EXPECT_NE(st.ToString().find("cannot open source"), std::string::npos)
          << st.ToString();
    } else {
      ++salvaged;
      EXPECT_TRUE(report.lost.empty()) << report.lost.size() << " lost";
      EXPECT_EQ(report.documents, load.docs.size());
      std::vector<std::string> rebuilt = report.rebuilt;
      std::sort(rebuilt.begin(), rebuilt.end());
      std::vector<std::string> want = every_index;
      std::sort(want.begin(), want.end());
      EXPECT_EQ(rebuilt, want);
      VerifyReport verify;
      ASSERT_TRUE(ScrubPages(out, &verify).ok());
      ASSERT_TRUE(VerifyDatabase(out, &verify).ok());
      EXPECT_TRUE(verify.clean()) << verify.issues.size() << " issue(s)";

      auto open = Database::Open(out, Database::Options{.pool_pages = 128});
      ASSERT_TRUE(open.ok()) << open.status().ToString();
      // PRIX twice: from rp and ep together, and from rp alone.
      const Engines both(open->get(), (*open)->OpenSnapshot());
      const Engines rp_only(open->get(), (*open)->OpenSnapshot(),
                            PrixIndexNames{.rp = "rp", .ep = ""});
      for (size_t q = 0; q < load.patterns.size(); ++q) {
        for (EngineKind kind : kAllEngineKinds) {
          const bool twigstack = kind == EngineKind::kTwigStack ||
                                 kind == EngineKind::kTwigStackXB;
          const auto& want_docs = twigstack ? standard[q] : ordered[q];
          auto got = both.Execute(kind, load.patterns[q]);
          ASSERT_TRUE(got.ok()) << EngineKindName(kind) << " query " << q
                                << ": " << got.status().ToString();
          EXPECT_EQ(got->docs, want_docs)
              << EngineKindName(kind) << " query " << q;
        }
        auto rp = rp_only.Execute(EngineKind::kPrix, load.patterns[q]);
        ASSERT_TRUE(rp.ok()) << rp.status().ToString();
        EXPECT_EQ(rp->docs, ordered[q]) << "rp alone, query " << q;
      }
      (*open)->Abandon();
    }
    WriteAt(db.path(), uint64_t{garbled} * kPageSize,
            pristine.data() + uint64_t{garbled} * kPageSize, kPageSize);
  }
  ::unlink(out.c_str());
  EXPECT_GT(salvaged, num_pages / 2) << "the sweep rarely reached a salvage";
}

/// A DocId any PRIX index tombstones stays dead: salvage rebuilds it as an
/// empty placeholder document, tombstoned in the rebuilt PRIX indexes and
/// stream store, so no engine answers it.
TEST(CorruptionFuzzTest, SalvageKeepsADeletedDocumentDead) {
  Workload load(FuzzSeed() + 3);
  ASSERT_GE(load.patterns.size(), 3u);
  TempDb db(Database::Options{.pool_pages = 128});
  load.BuildEveryEngineInto(&db);
  constexpr DocId kDeleted = 1;
  // Deleted through rp alone: ep still holds the document live.
  ASSERT_TRUE(db->DeleteDocument("rp", kDeleted).ok());
  ASSERT_TRUE(db.CloseHandle().ok());

  const std::string out = db.path() + ".salvaged";
  SalvageReport report;
  Status st = SalvageDatabase(db.path(), out, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(report.lost.empty());
  EXPECT_EQ(report.documents, load.docs.size() - 1);
  EXPECT_EQ(report.rebuilt.size(), 5u);
  VerifyReport verify;
  ASSERT_TRUE(VerifyDatabase(out, &verify).ok());
  EXPECT_TRUE(verify.clean());

  auto open = Database::Open(out, Database::Options{.pool_pages = 128});
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  const Engines engines(open->get(), (*open)->OpenSnapshot());
  for (size_t q = 0; q < load.patterns.size(); ++q) {
    for (EngineKind kind : kAllEngineKinds) {
      const bool twigstack = kind == EngineKind::kTwigStack ||
                             kind == EngineKind::kTwigStackXB;
      std::vector<DocId> want = load.OracleDocs(
          q, twigstack ? MatchSemantics::kStandard : MatchSemantics::kOrdered);
      want.erase(std::remove(want.begin(), want.end(), kDeleted), want.end());
      auto got = engines.Execute(kind, load.patterns[q]);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->docs, want) << EngineKindName(kind) << " query " << q;
    }
  }
  (*open)->Abandon();
  ::unlink(out.c_str());
}

TEST(CorruptionFuzzTest, SalvageRefusesInPlaceOperation) {
  TempDb db(Database::Options{.pool_pages = 64});
  ASSERT_TRUE(db.CloseHandle().ok());
  SalvageReport report;
  Status st = SalvageDatabase(db.path(), db.path(), &report);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

// --- FaultInjector read-mutation faults -----------------------------------

class ReadMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/prix_mut_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    ASSERT_TRUE(disk_.Open(dir_ + "/db").ok());
    // Seed two stamped pages through a pool so trailers are valid.
    BufferPool pool(&disk_, 8);
    for (int i = 0; i < 2; ++i) {
      auto page = pool.NewPage();
      ASSERT_TRUE(page.ok());
      std::memset((*page)->data(), 0x11 * (i + 1), kPageUsable);
      pool.UnpinPage((*page)->page_id(), /*dirty=*/true);
    }
    ASSERT_TRUE(pool.Clear().ok());
    disk_.set_fault_injector(&injector_);
  }
  void TearDown() override {
    disk_.set_fault_injector(nullptr);
    ASSERT_TRUE(disk_.Close().ok());
    std::string cmd = "rm -rf " + dir_;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  std::string dir_;
  DiskManager disk_;
  FaultInjector injector_;
};

TEST_F(ReadMutationTest, FlippedBitInOneReadIsCaughtOnceThenHeals) {
  injector_.FlipBitsInRead(/*nth=*/1);
  BufferPool pool(&disk_, 8);
  auto page = pool.FetchPage(0);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kCorruption)
      << page.status().ToString();
  EXPECT_NE(page.status().ToString().find("checksum mismatch"),
            std::string::npos)
      << page.status().ToString();
  // The flip was transient (a lying bus, not rotted media): the retry reads
  // the true bytes and succeeds.
  auto again = pool.FetchPage(0);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  pool.UnpinPage(0, false);
  ASSERT_TRUE(pool.Clear().ok());
}

TEST_F(ReadMutationTest, GarbledPageFailsEveryReadUntilRewritten) {
  injector_.GarblePageAt(/*offset=*/1 * kPageSize);
  BufferPool pool(&disk_, 8);
  // Persistent rot on page 1: every fetch fails, page 0 stays readable.
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto page = pool.FetchPage(1);
    ASSERT_FALSE(page.ok());
    EXPECT_EQ(page.status().code(), StatusCode::kCorruption);
  }
  auto healthy = pool.FetchPage(0);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  pool.UnpinPage(0, false);
  ASSERT_TRUE(pool.Clear().ok());
}

TEST_F(ReadMutationTest, ChecksumMetricsCountVerifiesAndFailures) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  uint64_t verifies_before = reg.counter("checksum_verifies").value();
  uint64_t failures_before = reg.counter("checksum_failures").value();

  injector_.GarblePageAt(/*offset=*/1 * kPageSize);
  BufferPool pool(&disk_, 8);
  auto good = pool.FetchPage(0);
  ASSERT_TRUE(good.ok());
  pool.UnpinPage(0, false);
  auto bad = pool.FetchPage(1);
  ASSERT_FALSE(bad.ok());
  // Warm-cache hit: no physical read, so no extra verify charge.
  auto hit = pool.FetchPage(0);
  ASSERT_TRUE(hit.ok());
  pool.UnpinPage(0, false);
  ASSERT_TRUE(pool.Clear().ok());

  EXPECT_EQ(reg.counter("checksum_verifies").value() - verifies_before, 2u);
  EXPECT_EQ(reg.counter("checksum_failures").value() - failures_before, 1u);
  reg.set_enabled(was_enabled);
}

}  // namespace
}  // namespace prix
