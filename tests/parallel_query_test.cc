// Concurrent reads: N threads answering one query list through one shared
// Engines handle (or one shared QueryProcessor) return bit-identical
// results to a serial pass, with exact per-query I/O attribution; XPath
// parsing from many threads interns each fresh tag once; ExecuteXPathBatch
// stops at its first error; and racing batches open each engine once per
// generation. Run under ThreadSanitizer via tools/check_tsan.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "naive/naive_matcher.h"
#include "prix/engine.h"
#include "prix/prix_index.h"
#include "prix/snapshot_view.h"
#include "query/xpath_parser.h"
#include "testutil/temp_db.h"
#include "testutil/tree_gen.h"
#include "twigstack/position_stream.h"
#include "twigstack/twig_stack.h"
#include "vist/vist_index.h"

namespace prix {
namespace {

using testutil::RandomCollection;
using testutil::RandomDocOptions;
using testutil::RandomTwig;
using testutil::RandomTwigOptions;

/// Answers `run(i)` for every i in [0, n) on `threads` std::threads that
/// take query indexes from one atomic counter, the way a reader pool over a
/// shared Engines handle does. Slot i holds query i's result.
std::vector<Result<QueryResult>> RunOnThreads(
    size_t threads, size_t n,
    const std::function<Result<QueryResult>(size_t)>& run) {
  std::vector<Result<QueryResult>> got(n, Status::Internal("not run"));
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        got[i] = run(i);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return got;
}

class ParallelQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Random rng(4242);
    RandomDocOptions doc_opts;
    docs_ = RandomCollection(rng, /*num_docs=*/60, &dict_, doc_opts);
    PrixIndexOptions rp_opts;
    auto rp = PrixIndex::Build(docs_, db_.pool(), rp_opts);
    ASSERT_TRUE(rp.ok()) << rp.status().ToString();
    rp_ = std::move(*rp);
    PrixIndexOptions ep_opts;
    ep_opts.extended = true;
    auto ep = PrixIndex::Build(docs_, db_.pool(), ep_opts);
    ASSERT_TRUE(ep.ok()) << ep.status().ToString();
    ep_ = std::move(*ep);
    ASSERT_TRUE(rp_->Save(&db_.db(), "rp").ok());
    ASSERT_TRUE(ep_->Save(&db_.db(), "ep").ok());
  }

  /// A mixed batch: random exact/wildcard twigs over collection documents.
  std::vector<TwigPattern> MakeBatch(size_t n) {
    Random rng(777);
    RandomTwigOptions twig_opts;
    twig_opts.descendant_prob = 0.25;  // mix in generalized ('//') queries
    twig_opts.star_prob = 0.05;
    std::vector<TwigPattern> batch;
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(
          RandomTwig(rng, docs_[i % docs_.size()], &dict_, twig_opts));
    }
    return batch;
  }

  testutil::TempDb db_;
  TagDictionary dict_;
  std::vector<Document> docs_;
  std::unique_ptr<PrixIndex> rp_;
  std::unique_ptr<PrixIndex> ep_;
};

TEST_F(ParallelQueryTest, BatchMatchesSerialExecution) {
  std::vector<TwigPattern> batch = MakeBatch(48);

  // Serial ground truth over the same indexes.
  QueryProcessor serial(db_.db(), rp_.get(), ep_.get());
  std::vector<QueryResult> expected;
  for (const TwigPattern& pattern : batch) {
    auto r = serial.Execute(pattern);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(*r));
  }

  // Every thread answers through one handle on the saved indexes' snapshot.
  const Engines engines(&db_.db(), db_->OpenSnapshot());
  for (size_t threads : {1u, 4u, 8u}) {
    auto got = RunOnThreads(threads, batch.size(), [&](size_t i) {
      return engines.Execute(EngineKind::kPrix, batch[i]);
    });
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(got[i].ok()) << got[i].status().ToString();
      EXPECT_EQ(got[i]->matches, expected[i].matches)
          << "query " << i << " at " << threads << " threads";
      EXPECT_EQ(got[i]->docs, expected[i].docs);
      EXPECT_EQ(got[i]->stats.docs_loaded, expected[i].stats.docs_loaded);
    }
  }
}

TEST_F(ParallelQueryTest, ExactPerQueryIoAttribution) {
  // Regression test for the pool-delta accounting bug: QueryStats counters
  // come from the thread-local MetricsContext that Execute opens, so they
  // are exact per query no matter how many other queries run concurrently.
  // The old scheme diffed pool-wide stats() around Execute and charged
  // every concurrent query's reads to every query.
  std::vector<TwigPattern> batch = MakeBatch(32);
  BufferPool* pool = db_.pool();
  const Engines engines(&db_.db(), db_->OpenSnapshot());
  // Open PRIX's indexes at this generation now: an open is charged to no
  // query, so one inside the measured passes would break conservation.
  ASSERT_TRUE(engines.Execute(EngineKind::kPrix, batch[0]).ok());
  auto execute = [&](size_t i) {
    return engines.Execute(EngineKind::kPrix, batch[i]);
  };

  // Serial cold ground truth, on this thread: per-query logical fetches,
  // node visits, and physical reads.
  ASSERT_TRUE(pool->Clear().ok());
  struct PerQuery {
    uint64_t logical;  // pool_hits + pool_misses
    uint64_t nodes;    // btree_nodes
    uint64_t pages;    // pages_read (physical)
  };
  std::vector<PerQuery> expected;
  const uint64_t serial_phys_before = pool->stats().physical_reads;
  uint64_t serial_pages_sum = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    auto r = execute(i);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const QueryStats& s = r->stats;
    expected.push_back(
        {s.pool_hits + s.pool_misses, s.btree_nodes, s.pages_read});
    serial_pages_sum += s.pages_read;
  }
  // Conservation: every physical read belongs to exactly one query.
  EXPECT_EQ(serial_pages_sum,
            pool->stats().physical_reads - serial_phys_before);

  for (size_t threads : {1u, 8u}) {
    ASSERT_TRUE(pool->Clear().ok());
    const uint64_t phys_before = pool->stats().physical_reads;
    auto got = RunOnThreads(threads, batch.size(), execute);
    uint64_t pages_sum = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(got[i].ok()) << got[i].status().ToString();
      const QueryStats& s = got[i]->stats;
      // Logical page fetches and node visits are properties of the query
      // plan: identical serial vs 8 threads, whatever the cache does.
      EXPECT_EQ(s.pool_hits + s.pool_misses, expected[i].logical)
          << "query " << i << " at " << threads << " threads";
      EXPECT_EQ(s.btree_nodes, expected[i].nodes)
          << "query " << i << " at " << threads << " threads";
      // A query can never be charged more physical reads than it made
      // page fetches. The pool-delta scheme broke exactly this.
      EXPECT_LE(s.pages_read, expected[i].logical)
          << "query " << i << " at " << threads << " threads";
      if (threads == 1) {
        // One thread replays the exact serial access pattern.
        EXPECT_EQ(s.pages_read, expected[i].pages) << "query " << i;
      }
      pages_sum += s.pages_read;
    }
    // Conservation holds under concurrency: concurrent queries racing on a
    // shared cold page charge the read to whichever thread performed it,
    // never to both.
    EXPECT_EQ(pages_sum, pool->stats().physical_reads - phys_before)
        << threads << " threads";
  }

  // Warm regime: the working set is resident (2000-page pool), so exact
  // attribution must report zero physical reads for EVERY query at 8
  // threads — identical to a warm serial run.
  auto warm = RunOnThreads(8, batch.size(), execute);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(warm[i].ok()) << warm[i].status().ToString();
    const QueryStats& s = warm[i]->stats;
    EXPECT_EQ(s.pages_read, 0u) << "query " << i;
    EXPECT_EQ(s.pool_misses, 0u) << "query " << i;
    EXPECT_EQ(s.pool_hits, expected[i].logical) << "query " << i;
  }
}

TEST_F(ParallelQueryTest, SharedProcessorIsSafeAcrossThreads) {
  // One QueryProcessor instance, many threads: guards the "no hidden
  // shared mutable state" contract directly.
  std::vector<TwigPattern> batch = MakeBatch(24);
  QueryProcessor shared(db_.db(), rp_.get(), ep_.get());
  std::vector<QueryResult> expected;
  for (const TwigPattern& pattern : batch) {
    auto r = shared.Execute(pattern);
    ASSERT_TRUE(r.ok());
    expected.push_back(std::move(*r));
  }
  auto got = RunOnThreads(8, batch.size(),
                          [&](size_t i) { return shared.Execute(batch[i]); });
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << got[i].status().ToString();
    EXPECT_EQ(got[i]->matches, expected[i].matches) << "query " << i;
  }
}

TEST_F(ParallelQueryTest, ConcurrentXPathParsingInternsEachFreshTagOnce) {
  // Threads parse their XPaths concurrently, interning into one shared
  // dictionary (thread-safe Intern). Tags no document has force fresh
  // interning from several threads at once; under TSan this guards the
  // TagDictionary synchronization directly.
  std::vector<std::string> xpaths = {
      "//tag0//tag1", "//tag0[./tag1]/tag2", "//tag2", "//tag1/tag0",
      "//tag0[.//tag2]//tag1"};
  for (int i = 0; i < 24; ++i) {
    xpaths.push_back("//tag0/fresh" + std::to_string(i % 6) +
                     "//batchonly" + std::to_string(i));
  }
  const size_t labels_before = dict_.size();
  const Engines engines(&db_.db(), db_->OpenSnapshot());
  auto got = RunOnThreads(8, xpaths.size(), [&](size_t i)
                                                -> Result<QueryResult> {
    PRIX_ASSIGN_OR_RETURN(TwigPattern pattern, ParseXPath(xpaths[i], &dict_));
    return engines.Execute(EngineKind::kPrix, pattern);
  });
  // Six shared fresh tags and 24 distinct ones, one id apiece.
  EXPECT_EQ(dict_.size(), labels_before + 6 + 24);
  for (int i = 0; i < 6; ++i) {
    EXPECT_NE(dict_.Find("fresh" + std::to_string(i)), kInvalidLabel);
  }
  QueryProcessor serial(db_.db(), rp_.get(), ep_.get());
  for (size_t i = 0; i < xpaths.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << got[i].status().ToString();
    auto expected = serial.ExecuteXPath(xpaths[i], &dict_);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(got[i]->matches, expected->matches) << xpaths[i];
  }
}

TEST_F(ParallelQueryTest, XPathBatchStopsAtTheFirstError) {
  // The batch answers in order on the calling thread and returns the
  // earliest failing query's status, not a later one's.
  const std::vector<std::string> xpaths = {"//tag0//tag1", "//tag0[",
                                           "//tag2", "//tag1[[x"};
  auto batch = ExecuteXPathBatch(&db_.db(), EngineKind::kPrix, {}, xpaths,
                                 &dict_);
  ASSERT_FALSE(batch.ok());
  const std::string message = batch.status().ToString();
  EXPECT_NE(message.find("//tag0["), std::string::npos) << message;
  EXPECT_EQ(message.find("//tag1[[x"), std::string::npos) << message;

  auto good = ExecuteXPathBatch(&db_.db(), EngineKind::kPrix, {},
                                {xpaths[0], xpaths[2]}, &dict_);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->generation, db_.db().catalog_generation());
  ASSERT_EQ(good->results.size(), 2u);
  QueryProcessor serial(db_.db(), rp_.get(), ep_.get());
  for (size_t i = 0; i < 2; ++i) {
    auto expected = serial.ExecuteXPath(xpaths[2 * i], &dict_);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(good->results[i].matches, expected->matches) << xpaths[2 * i];
  }
}

TEST_F(ParallelQueryTest, ConcurrentFirstSnapshotOpenAnswersLikeTheOracle) {
  // For each engine in turn, four ExecuteXPathBatch calls on their own
  // threads race into a generation no reader of that engine has opened
  // yet, the served path's first miss after a commit. The snapshot memo
  // must open each index once, only when its engine is first asked, and
  // hand every batch the same answers; under TSan this guards the memo's
  // first-open latch and the engines' shared read paths.
  auto vist = VistIndex::Build(docs_, db_.pool());
  ASSERT_TRUE(vist.ok()) << vist.status().ToString();
  ASSERT_TRUE((*vist)->Save(&db_.db(), "v").ok());
  auto streams = StreamStore::Build(docs_, db_.pool());
  ASSERT_TRUE(streams.ok()) << streams.status().ToString();
  ASSERT_TRUE((*streams)->Save(&db_.db(), "ts").ok());
  auto forest = XbForest::Build(streams->get());
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  ASSERT_TRUE((*forest)->Save(&db_.db(), "xb").ok());
  const std::vector<std::string> xpaths = {
      "//tag0//tag1", "//tag0[./tag1]/tag2", "//tag2", "//tag1/tag0",
      "//tag0[.//tag2]//tag1"};
  std::vector<TwigPattern> patterns;
  for (const std::string& xpath : xpaths) {
    auto pattern = ParseXPath(xpath, &dict_);
    ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();
    patterns.push_back(*pattern);
  }
  // PRIX and ViST answer ordered semantics, TwigStack(XB) the standard one.
  auto oracle = [&](EngineKind kind, const TwigPattern& pattern) {
    const bool twigstack = kind == EngineKind::kTwigStack ||
                           kind == EngineKind::kTwigStackXB;
    EffectiveTwig twig = EffectiveTwig::Build(pattern);
    std::vector<DocId> docs;
    for (const Document& doc : docs_) {
      if (!NaiveMatch(doc, twig,
                      twigstack ? MatchSemantics::kStandard
                                : MatchSemantics::kOrdered)
               .empty()) {
        docs.push_back(doc.doc_id());
      }
    }
    return docs;
  };

  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.set_enabled(true);
  reg.Reset();
  constexpr int kThreads = 4;
  // Indexes open so far: PRIX's rp and ep, then ViST's v, then the stream
  // store ts, then the XB-forest xb over the already open ts.
  uint64_t want_opens = 0;
  for (EngineKind kind : kAllEngineKinds) {
    SCOPED_TRACE(EngineKindName(kind));
    std::latch start(kThreads);
    std::vector<Result<BatchResult>> got(kThreads,
                                         Status::Internal("not run"));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        got[t] = ExecuteXPathBatch(&db_.db(), kind, {}, xpaths, &dict_);
      });
    }
    for (std::thread& thread : threads) thread.join();
    want_opens += kind == EngineKind::kPrix ? 2 : 1;
    EXPECT_EQ(reg.counter("prix.db.index_opens").value(), want_opens);
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(got[t].ok()) << got[t].status().ToString();
      EXPECT_EQ(got[t]->generation, db_.db().catalog_generation());
      for (size_t i = 0; i < xpaths.size(); ++i) {
        const std::vector<DocId>& docs = got[t]->results[i].docs;
        std::vector<DocId> want = oracle(kind, patterns[i]);
        if (kind == EngineKind::kVist && i == 4) {
          // ViST orders branches by preorder, so it misses the ordered
          // match whose first branch (tag2) lies inside the image of the
          // later one (tag1): doc 24, and only that one (CHANGES.md FOUND).
          ASSERT_EQ(std::erase(want, DocId{24}), 1u);
        }
        EXPECT_EQ(docs, want) << xpaths[i] << " on thread " << t;
      }
    }
  }

  // From a cold pool, each engine's own I/O counters are exactly what a
  // context around the whole call sees, and every engine feeds the
  // registry's `<engine>.query.*` once per query.
  const Engines engines(&db_.db(), db_->OpenSnapshot());
  for (EngineKind kind : kAllEngineKinds) {
    SCOPED_TRACE(EngineKindName(kind));
    const std::string prefix = std::string(EngineKindName(kind)) + ".query.";
    MetricCounter& count = reg.counter(prefix + "count");
    MetricHistogram& pages = reg.histogram(prefix + "pages_read");
    const uint64_t count_before = count.value();
    const uint64_t pages_before = pages.count();
    ASSERT_TRUE(db_.db().ColdStart().ok());
    MetricsContext outer;
    auto result = engines.Execute(kind, patterns[1]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->stats.pages_read, 0u);
    EXPECT_EQ(result->stats.pages_read, outer.counters.physical_reads);
    EXPECT_EQ(result->stats.pool_misses, outer.counters.pool_misses);
    EXPECT_EQ(result->stats.pool_hits, outer.counters.pool_hits);
    EXPECT_EQ(count.value(), count_before + 1);
    EXPECT_EQ(pages.count(), pages_before + 1);
  }
  reg.set_enabled(false);

  // The memo keys on the type too: ViST's memoized "v" asked for as a PRIX
  // index is refused by PRIX's open, never handed out as the wrong type.
  auto wrong = SnapshotView::OpenAt(&db_.db(), db_->OpenSnapshot(), "v");
  EXPECT_TRUE(wrong.status().IsInvalidArgument()) << wrong.status().ToString();
}

}  // namespace
}  // namespace prix
