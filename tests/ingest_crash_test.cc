// Crash-at-every-syscall sweep over the online-ingest commit path
// (DESIGN.md §5i): a reference run counts every page write and fdatasync a
// seed-build-then-insert workload performs; then for each k the workload
// reruns with the injector crashing on the k-th write (resp. sync), with
// seeded per-page rollback fates and file truncation. Reopening WITHOUT the
// injector must recover a catalog generation equal to the last commit that
// returned OK — or, when the crash hit the commit-point header write itself
// and it landed whole, the one in flight — and every document that
// generation committed must answer queries, cold-cache included. A crash
// mid-insert may leak free-list pages; it must never lose a committed
// document or produce an unopenable database.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "prix/prix_index.h"
#include "prix/query_processor.h"
#include "query/xpath_parser.h"
#include "storage/fault_injector.h"
#include "testutil/tree_gen.h"
#include "twigstack/position_stream.h"
#include "twigstack/twig_stack.h"
#include "vist/vist_index.h"
#include "vist/vist_query.h"
#include "xml/tag_dictionary.h"

namespace prix {
namespace {

using testutil::DocFromSexp;

// Seed docs 0-1 are built in bulk; docs 2-4 arrive via InsertDocument, one
// committed generation each. The third insert extends a fresh trie path so
// the sweep also crosses the symbol-tree-split/new-page write pattern.
const char* const kSeedSexps[] = {
    "(book (author (name)) (title))",
    "(article (author (name)) (journal))",
};
const char* const kInsertSexps[] = {
    "(book (editor (name)) (title) (year))",
    "(article (editor (name)) (journal))",
    "(book (author (name) (name)) (title) (year) (isbn))",
};

// //author/name matches seed docs 0,1 and insert doc 4; //book[./year]
// matches insert docs 2,4. Together they touch every committed document.
const char* const kQueries[] = {"//author/name", "//book[./year]"};

class IngestCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/prix_ingest_crash_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::string cmd = "rm -rf " + dir_;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  static Database::Options PoolOptions(FaultInjector* inj) {
    Database::Options opts;
    opts.pool_pages = 64;
    opts.fault_injector = inj;
    return opts;
  }

  // Runs create -> bulk-build+save -> three InsertDocuments -> close,
  // tolerating injected crashes. Records in `gen_docs_` the number of
  // ingested documents committed AT each generation (so a recovered
  // generation maps to an exact expected document set), and returns the
  // last generation that was committed with an OK status.
  uint64_t RunUntilCrash(const std::string& path, FaultInjector* inj) {
    gen_docs_.clear();
    auto db = Database::Create(path, PoolOptions(inj));
    if (!db.ok()) return 0;
    uint64_t last_ok = (*db)->catalog_generation();

    std::vector<Document> seed;
    DocId id = 0;
    for (const char* s : kSeedSexps) {
      seed.push_back(DocFromSexp(s, id++, &dict_));
    }
    auto index = PrixIndex::Build(seed, (*db)->pool(), PrixIndexOptions{});
    // Each commit's expected state is recorded BEFORE the attempt: a crash
    // on the commit-point header write itself may land the commit whole, in
    // which case recovery reports last_ok + 1 and must see this state.
    gen_docs_[last_ok + 1] = 0;
    Status st = index.ok() ? (*index)->Save(db->get(), "rp") : index.status();
    if (!st.ok()) {
      (*db)->Abandon();
      return last_ok;
    }
    last_ok = (*db)->catalog_generation();

    if (tri_) {
      // Co-resident derived engines (DESIGN.md §5k): each Save is one more
      // commit with zero ingested documents, and every ingest commit below
      // then carries all four engines — so the sweep also crosses the
      // ViST sequence-append, stream-append, and XB re-bucket write
      // patterns mid-crash.
      auto vist = VistIndex::Build(seed, (*db)->pool(), nullptr);
      gen_docs_[last_ok + 1] = 0;
      st = vist.ok() ? (*vist)->Save(db->get(), "v") : vist.status();
      if (!st.ok()) {
        (*db)->Abandon();
        return last_ok;
      }
      last_ok = (*db)->catalog_generation();
      auto streams = StreamStore::Build(seed, (*db)->pool());
      gen_docs_[last_ok + 1] = 0;
      st = streams.ok() ? (*streams)->Save(db->get(), "ts") : streams.status();
      if (!st.ok()) {
        (*db)->Abandon();
        return last_ok;
      }
      last_ok = (*db)->catalog_generation();
      auto forest = XbForest::Build(streams->get());
      gen_docs_[last_ok + 1] = 0;
      st = forest.ok() ? (*forest)->Save(db->get(), "xb") : forest.status();
      if (!st.ok()) {
        (*db)->Abandon();
        return last_ok;
      }
      last_ok = (*db)->catalog_generation();
    }

    for (size_t i = 0; i < 3; ++i) {
      Document doc =
          DocFromSexp(kInsertSexps[i], static_cast<DocId>(2 + i), &dict_);
      gen_docs_[last_ok + 1] = i + 1;
      auto inserted = (*db)->InsertDocument("rp", doc);
      if (!inserted.ok()) {
        (*db)->Abandon();
        return last_ok;
      }
      last_ok = (*db)->catalog_generation();
    }
    gen_docs_[last_ok + 1] = 3;  // Close commits once more
    st = (*db)->Close();
    if (!st.ok()) {
      (*db)->Abandon();
      return last_ok;
    }
    return last_ok + 1;
  }

  // Reopens cleanly and asserts: a committed generation recovered, and the
  // exact document set of THAT generation answers the query mix (warm and
  // cold cache) — no committed document lost, no uncommitted one visible.
  void CheckRecovery(const std::string& path, uint64_t last_ok) {
    auto db = Database::Open(path, PoolOptions(nullptr));
    if (!db.ok()) {
      EXPECT_EQ(last_ok, 0u) << "committed generation " << last_ok
                             << " lost: " << db.status().ToString();
      return;
    }
    uint64_t gen = (*db)->catalog_generation();
    EXPECT_TRUE(gen == last_ok || gen == last_ok + 1)
        << "recovered generation " << gen << ", last committed " << last_ok;
    auto it = gen_docs_.find(gen);
    if (it == gen_docs_.end()) {
      // Crash before the index's first commit: only an empty catalog may
      // recover.
      EXPECT_FALSE((*db)->HasIndex("rp"))
          << "generation " << gen << " has 'rp' but no recorded state";
      ASSERT_TRUE((*db)->Close().ok());
      return;
    }
    size_t ingested = it->second;
    auto index = PrixIndex::Open(db->get(), "rp");
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    EXPECT_EQ((*index)->num_docs(), 2 + ingested);

    // Expected answers for the recovered prefix (see kQueries above).
    std::vector<DocId> author_name = {0, 1};
    if (ingested >= 3) author_name.push_back(4);
    std::vector<DocId> book_year;
    if (ingested >= 1) book_year.push_back(2);
    if (ingested >= 3) book_year.push_back(4);
    const std::vector<DocId>* expected[] = {&author_name, &book_year};

    QueryProcessor qp(**db, index->get(), nullptr);
    for (size_t q = 0; q < 2; ++q) {
      auto result = qp.ExecuteXPath(kQueries[q], &dict_);
      ASSERT_TRUE(result.ok())
          << kQueries[q] << ": " << result.status().ToString();
      EXPECT_EQ(result->docs, *expected[q]) << kQueries[q];
    }
    // Cold cache: every answer must come back from the recovered file.
    ASSERT_TRUE((*db)->ColdStart().ok());
    auto cold = qp.ExecuteXPath(kQueries[0], &dict_);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(cold->docs, author_name);

    // Tri-engine leg: every derived engine that exists at the recovered
    // generation is unstamped, opens, and answers exactly like PRIX. (One
    // may exist without the others when the crash hit between their seed
    // Saves; after the last Save they ride every commit together.)
    if (tri_) {
      auto canon = [](std::vector<DocId> docs) {
        std::sort(docs.begin(), docs.end());
        docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
        return docs;
      };
      if ((*db)->HasIndex("v")) {
        auto vist = VistIndex::Open(db->get(), "v");
        ASSERT_TRUE(vist.ok()) << vist.status().ToString();
        EXPECT_EQ((*vist)->num_docs(), 2 + ingested);
        VistQueryProcessor vq(vist->get());
        for (size_t q = 0; q < 2; ++q) {
          auto pattern = ParseXPath(kQueries[q], &dict_);
          ASSERT_TRUE(pattern.ok());
          auto result = vq.Execute(*pattern);
          ASSERT_TRUE(result.ok())
              << kQueries[q] << ": " << result.status().ToString();
          EXPECT_EQ(canon(result->docs), *expected[q])
              << kQueries[q] << " (vist)";
        }
      }
      if ((*db)->HasIndex("ts")) {
        auto streams = StreamStore::Open(db->get(), "ts");
        ASSERT_TRUE(streams.ok()) << streams.status().ToString();
        EXPECT_EQ((*streams)->num_docs(), 2 + ingested);
        Result<std::unique_ptr<XbForest>> forest =
            Status::NotFound("no forest");
        if ((*db)->HasIndex("xb")) {
          forest = XbForest::Open(db->get(), "xb", streams->get());
          ASSERT_TRUE(forest.ok()) << forest.status().ToString();
        }
        TwigStackEngine engine(streams->get(),
                               forest.ok() ? forest->get() : nullptr);
        for (size_t q = 0; q < 2; ++q) {
          auto pattern = ParseXPath(kQueries[q], &dict_);
          ASSERT_TRUE(pattern.ok());
          auto result = engine.Execute(*pattern);
          ASSERT_TRUE(result.ok())
              << kQueries[q] << ": " << result.status().ToString();
          EXPECT_EQ(canon(result->docs), *expected[q])
              << kQueries[q] << " (twigstack)";
        }
      }
    }
    ASSERT_TRUE((*db)->Close().ok());
  }

  void RunCrashPoint(const std::string& label, FaultInjector* inj) {
    SCOPED_TRACE(label);
    const std::string path = dir_ + "/" + label + ".prix";
    uint64_t last_ok = RunUntilCrash(path, inj);
    ASSERT_NO_FATAL_FAILURE(CheckRecovery(path, last_ok));
  }

  TagDictionary dict_;
  std::string dir_;
  std::map<uint64_t, size_t> gen_docs_;  ///< generation -> ingested docs
  bool tri_ = false;  ///< also build + check ViST / TwigStack / XB-forest
};

TEST_F(IngestCrashTest, CrashAtEveryWritePointKeepsCommittedDocuments) {
  FaultInjector counting;
  uint64_t gen = RunUntilCrash(dir_ + "/reference.prix", &counting);
  ASSERT_GT(gen, 0u);
  ASSERT_FALSE(counting.crashed());
  uint64_t total_writes = counting.op_count(FaultInjector::Op::kWrite) +
                          counting.op_count(FaultInjector::Op::kExtend);
  ASSERT_GT(total_writes, 20u) << "the sweep must have real coverage";

  for (uint64_t k = 1; k <= total_writes; ++k) {
    FaultInjector inj(0xc2b2ae35u + k);
    inj.CrashAtWrite(k);
    ASSERT_NO_FATAL_FAILURE(RunCrashPoint("write_" + std::to_string(k), &inj));
    ASSERT_TRUE(inj.crashed()) << "crash point " << k << " never fired";
  }
}

TEST_F(IngestCrashTest, CrashAtEverySyncPointKeepsCommittedDocuments) {
  FaultInjector counting;
  uint64_t gen = RunUntilCrash(dir_ + "/reference.prix", &counting);
  ASSERT_GT(gen, 0u);
  uint64_t total_syncs = counting.op_count(FaultInjector::Op::kSync);
  ASSERT_GE(total_syncs, 8u);  // >= 2 per commit: build, 3 inserts, close

  for (uint64_t k = 1; k <= total_syncs; ++k) {
    FaultInjector inj(0x27d4eb2fu + k);
    inj.CrashAtSync(k);
    ASSERT_NO_FATAL_FAILURE(RunCrashPoint("sync_" + std::to_string(k), &inj));
    ASSERT_TRUE(inj.crashed()) << "crash point " << k << " never fired";
  }
}

TEST_F(IngestCrashTest, TriEngineCrashAtWritePointsKeepsEnginesAligned) {
  tri_ = true;
  FaultInjector counting;
  uint64_t gen = RunUntilCrash(dir_ + "/reference.prix", &counting);
  ASSERT_GT(gen, 0u);
  ASSERT_FALSE(counting.crashed());
  uint64_t total_writes = counting.op_count(FaultInjector::Op::kWrite) +
                          counting.op_count(FaultInjector::Op::kExtend);
  ASSERT_GT(total_writes, 40u) << "the tri-engine sweep must have coverage";

  // The tri-engine run writes several times more pages per commit than the
  // PRIX-only sweep above; stride 3 keeps the runtime in budget while the
  // seeded offset still rotates coverage across the commit's write pattern.
  for (uint64_t k = 1; k <= total_writes; k += 3) {
    FaultInjector inj(0x9e3779b9u + k);
    inj.CrashAtWrite(k);
    ASSERT_NO_FATAL_FAILURE(
        RunCrashPoint("tri_write_" + std::to_string(k), &inj));
    ASSERT_TRUE(inj.crashed()) << "crash point " << k << " never fired";
  }
}

TEST_F(IngestCrashTest, TriEngineCrashAtEverySyncPointKeepsEnginesAligned) {
  tri_ = true;
  FaultInjector counting;
  uint64_t gen = RunUntilCrash(dir_ + "/reference.prix", &counting);
  ASSERT_GT(gen, 0u);
  uint64_t total_syncs = counting.op_count(FaultInjector::Op::kSync);
  ASSERT_GE(total_syncs, 14u);  // >= 2 per commit: 4 builds, 3 inserts, close

  for (uint64_t k = 1; k <= total_syncs; ++k) {
    FaultInjector inj(0x85ebca6bu + k);
    inj.CrashAtSync(k);
    ASSERT_NO_FATAL_FAILURE(
        RunCrashPoint("tri_sync_" + std::to_string(k), &inj));
    ASSERT_TRUE(inj.crashed()) << "crash point " << k << " never fired";
  }
}

}  // namespace
}  // namespace prix
