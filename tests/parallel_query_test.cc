// ThreadPool and QueryDriver tests: Status propagation through futures,
// and N-thread batch execution returning bit-identical results to the
// serial QueryProcessor over the same indexes. Run under ThreadSanitizer
// via tools/check_tsan.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "naive/naive_matcher.h"
#include "prix/engine.h"
#include "prix/prix_index.h"
#include "prix/query_driver.h"
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

TEST(ThreadPoolTest, RunsTasksAndPropagatesStatus) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([&counter, i]() -> Status {
      counter.fetch_add(1);
      if (i == 13) return Status::InvalidArgument("task 13 fails");
      return Status::OK();
    }));
  }
  int failures = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    Status st = futures[i].get();
    if (!st.ok()) {
      ++failures;
      EXPECT_EQ(i, 13u);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    }
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, WaitIdleDrainsQueue) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&done]() -> Status {
      done.fetch_add(1);
      return Status::OK();
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPoolTest, DestructorRunsPendingTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&done]() -> Status {
        done.fetch_add(1);
        return Status::OK();
      });
    }
  }
  EXPECT_EQ(done.load(), 16);
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

  for (size_t threads : {1u, 4u, 8u}) {
    QueryDriver driver(db_.db(), rp_.get(), ep_.get(), threads);
    auto batch_result = driver.ExecuteBatch(batch);
    ASSERT_TRUE(batch_result.ok()) << batch_result.status().ToString();
    ASSERT_EQ(batch_result->results.size(), batch.size());
    uint64_t merged_loads = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch_result->results[i].matches, expected[i].matches)
          << "query " << i << " at " << threads << " threads";
      EXPECT_EQ(batch_result->results[i].docs, expected[i].docs);
      merged_loads += batch_result->results[i].stats.docs_loaded;
    }
    // The batch aggregate is the MergeFrom-fold of the per-query stats.
    EXPECT_EQ(batch_result->total.docs_loaded, merged_loads);
  }
}

TEST_F(ParallelQueryTest, ExactPerQueryIoAttribution) {
  // Regression test for the pool-delta accounting bug: QueryStats counters
  // now come from the thread-local MetricsContext that Execute opens, so
  // they are exact per query no matter how many other queries run
  // concurrently. The old scheme diffed pool-wide stats() around Execute
  // and charged every concurrent query's reads to every query.
  std::vector<TwigPattern> batch = MakeBatch(32);
  BufferPool* pool = db_.pool();

  // Serial cold ground truth: per-query logical fetches, node visits, and
  // physical reads.
  ASSERT_TRUE(pool->Clear().ok());
  QueryProcessor serial(db_.db(), rp_.get(), ep_.get());
  struct PerQuery {
    uint64_t logical;  // pool_hits + pool_misses
    uint64_t nodes;    // btree_nodes
    uint64_t pages;    // pages_read (physical)
  };
  std::vector<PerQuery> expected;
  const uint64_t serial_phys_before = pool->stats().physical_reads;
  uint64_t serial_pages_sum = 0;
  for (const TwigPattern& pattern : batch) {
    auto r = serial.Execute(pattern);
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
    QueryDriver driver(db_.db(), rp_.get(), ep_.get(), threads);
    auto result = driver.ExecuteBatch(batch);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    uint64_t pages_sum = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      const QueryStats& s = result->results[i].stats;
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
        // One worker replays the exact serial access pattern.
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
  QueryDriver warm_driver(db_.db(), rp_.get(), ep_.get(), 8);
  auto warm = warm_driver.ExecuteBatch(batch);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  for (size_t i = 0; i < batch.size(); ++i) {
    const QueryStats& s = warm->results[i].stats;
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
  ThreadPool workers(8);
  std::vector<QueryResult> got(batch.size());
  std::vector<std::future<Status>> futures;
  for (size_t i = 0; i < batch.size(); ++i) {
    futures.push_back(workers.Submit([&, i]() -> Status {
      PRIX_ASSIGN_OR_RETURN(got[i], shared.Execute(batch[i]));
      return Status::OK();
    }));
  }
  for (auto& future : futures) ASSERT_TRUE(future.get().ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got[i].matches, expected[i].matches) << "query " << i;
  }
}

TEST_F(ParallelQueryTest, XPathBatchParsesInsideWorkers) {
  // Workers parse their XPath concurrently, interning into one shared
  // dictionary (thread-safe Intern). Unknown tags force fresh interning
  // from several threads at once; under TSan this guards the
  // TagDictionary synchronization directly.
  std::vector<std::string> xpaths = {
      "//tag0//tag1", "//tag0[./tag1]/tag2", "//tag2", "//tag1/tag0",
      "//tag0[.//tag2]//tag1"};
  for (int i = 0; i < 24; ++i) {
    xpaths.push_back("//tag0/fresh" + std::to_string(i % 6) +
                     "//batchonly" + std::to_string(i));
  }
  ASSERT_TRUE(rp_->Save(&db_.db(), "rp").ok());
  ASSERT_TRUE(ep_->Save(&db_.db(), "ep").ok());
  QueryDriver driver(db_.db(), nullptr, nullptr, 8);
  auto batch =
      driver.ExecuteXPathBatchSnapshot(EngineKind::kPrix, {}, xpaths, &dict_);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->results.size(), xpaths.size());
  QueryProcessor serial(db_.db(), rp_.get(), ep_.get());
  for (size_t i = 0; i < xpaths.size(); ++i) {
    auto expected = serial.ExecuteXPath(xpaths[i], &dict_);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(batch->results[i].matches, expected->matches) << xpaths[i];
  }
  // All duplicated fresh tags interned to one id apiece.
  for (int i = 0; i < 6; ++i) {
    EXPECT_NE(dict_.Find("fresh" + std::to_string(i)), kInvalidLabel);
  }
}

TEST_F(ParallelQueryTest, ConcurrentFirstSnapshotOpenAnswersLikeTheOracle) {
  // For each engine in turn, four batches race into a generation no reader
  // of that engine has opened yet, the served path's first miss after a
  // commit. The snapshot memo must open each index once, only when its
  // engine is first asked, and hand every batch the same answers; under
  // TSan this guards the memo's first-open latch and the engines' shared
  // read paths.
  ASSERT_TRUE(rp_->Save(&db_.db(), "rp").ok());
  ASSERT_TRUE(ep_->Save(&db_.db(), "ep").ok());
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
  QueryDriver driver(db_.db(), nullptr, nullptr, kThreads);
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
        got[t] = driver.ExecuteXPathBatchSnapshot(kind, {}, xpaths, &dict_);
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
