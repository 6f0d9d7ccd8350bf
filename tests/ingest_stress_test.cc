// Snapshot-isolation stress proof (DESIGN.md §5i/§5k, the PR's acceptance
// test): reader threads run query batches through pinned snapshots while
// the writer thread interleaves insert / update / delete commits. After
// every commit the writer records that generation's oracle answer set
// (per-document naive matching over exactly the documents live at that
// generation); every reader batch must equal EXACTLY the oracle of the one
// generation it pinned — never a mix of two generations, never a torn
// in-flight state. Ingest carries the co-resident ViST and TwigStack
// engines in the same commits, so ViST and TwigStackXB readers run the same
// snapshot batches (ExecuteXPathBatch) and are held to the same
// per-generation oracle. Run under TSan by tools/check_tsan.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "naive/naive_matcher.h"
#include "prix/engine.h"
#include "prix/prix_index.h"
#include "query/xpath_parser.h"
#include "testutil/temp_db.h"
#include "testutil/tree_gen.h"
#include "twigstack/position_stream.h"
#include "twigstack/twig_stack.h"
#include "vist/vist_index.h"
#include "xml/tag_dictionary.h"

namespace prix {
namespace {

using testutil::RandomCollection;
using testutil::RandomDocOptions;
using testutil::TempDb;

// Fixed query mix; labels come from tree_gen's tag0..tagN pool. The mix
// covers exact paths, a branch predicate, and a '//' generalized query.
const char* const kQueries[] = {
    "//tag0/tag1",
    "//tag1[./tag2]",
    "//tag0//tag3",
    "//tag2/tag0",
};
constexpr size_t kNumQueries = 4;

class IngestStressTest : public ::testing::Test {
 protected:
  IngestStressTest() : db_(Database::Options{.pool_pages = 256}) {}

  // Oracle for the current live set, one sorted DocId vector per query.
  std::vector<std::vector<DocId>> ComputeOracle() {
    std::vector<std::vector<DocId>> expected(kNumQueries);
    for (size_t q = 0; q < kNumQueries; ++q) {
      for (const auto& [id, doc] : live_) {
        if (!NaiveMatch(doc, twigs_[q], MatchSemantics::kOrdered).empty()) {
          expected[q].push_back(id);
        }
      }
    }
    return expected;
  }

  // Publishes the oracle for `gen`, waking any reader waiting on it.
  void RecordOracle(uint64_t gen) {
    std::lock_guard<std::mutex> lock(oracle_mu_);
    oracles_[gen] = ComputeOracle();
    oracle_cv_.notify_all();
  }

  // Blocks until the writer has recorded `gen`'s oracle. The writer records
  // every generation it commits, so the wait always terminates (or the
  // writer is done and the generation genuinely never existed — a failure).
  bool WaitForOracle(uint64_t gen, std::vector<std::vector<DocId>>* out) {
    std::unique_lock<std::mutex> lock(oracle_mu_);
    oracle_cv_.wait(lock, [&] {
      return oracles_.count(gen) > 0 || writer_done_.load();
    });
    auto it = oracles_.find(gen);
    if (it == oracles_.end()) return false;
    *out = it->second;
    return true;
  }

  TempDb db_;
  TagDictionary dict_;
  std::vector<EffectiveTwig> twigs_;
  std::map<DocId, Document> live_;  // writer-thread only after readers start

  std::mutex oracle_mu_;
  std::condition_variable oracle_cv_;
  std::map<uint64_t, std::vector<std::vector<DocId>>> oracles_;
  std::atomic<bool> writer_done_{false};
};

TEST_F(IngestStressTest, EveryBatchEqualsExactlyOneGenerationsOracle) {
  Random rng(20260808);
  RandomDocOptions doc_opts;
  doc_opts.max_nodes = 18;
  doc_opts.alphabet = 4;
  doc_opts.value_leaf_prob = 0.0;  // structural queries only
  std::vector<Document> pool = RandomCollection(rng, 120, &dict_, doc_opts);

  // Seed: the first 10 documents, exact-labeled as every build is. The
  // first insert grows the root scope and relabels the whole trie, and
  // ranges that exhaust later relabel again, all under readers.
  std::vector<Document> seed(pool.begin(), pool.begin() + 10);
  auto index = PrixIndex::Build(seed, db_.pool(), PrixIndexOptions{});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_TRUE((*index)->Save(&db_.db(), "rp").ok());
  for (DocId d = 0; d < seed.size(); ++d) live_.emplace(d, seed[d]);

  // Co-resident derived engines over the same seed; every writer commit
  // below carries them, so snapshot readers can open them at any pinned
  // generation.
  auto vist = VistIndex::Build(seed, db_.pool(), nullptr);
  ASSERT_TRUE(vist.ok()) << vist.status().ToString();
  ASSERT_TRUE((*vist)->Save(&db_.db(), "v").ok());
  auto streams = StreamStore::Build(seed, db_.pool());
  ASSERT_TRUE(streams.ok()) << streams.status().ToString();
  ASSERT_TRUE((*streams)->Save(&db_.db(), "ts").ok());
  auto forest = XbForest::Build(streams->get());
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  ASSERT_TRUE((*forest)->Save(&db_.db(), "xb").ok());

  for (const char* xpath : kQueries) {
    auto pattern = ParseXPath(xpath, &dict_);
    ASSERT_TRUE(pattern.ok()) << xpath;
    twigs_.push_back(EffectiveTwig::Build(*pattern));
  }
  RecordOracle(db_->catalog_generation());

  const std::vector<std::string> queries(kQueries, kQueries + kNumQueries);
  // Three PRIX readers and one each for ViST and TwigStackXB, each running
  // ExecuteXPathBatch on its own thread and all held to the same
  // per-generation oracle. (The query mix is all chain twigs, so the
  // ordered oracle is also TwigStack's standard-semantics answer.)
  const EngineKind kReaders[] = {EngineKind::kPrix, EngineKind::kPrix,
                                 EngineKind::kPrix, EngineKind::kVist,
                                 EngineKind::kTwigStackXB};
  constexpr int kNumReaders = 5;
  std::atomic<uint64_t> batches_checked{0};
  std::atomic<uint64_t> distinct_failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kNumReaders);
  for (int r = 0; r < kNumReaders; ++r) {
    readers.emplace_back([&, r] {
      const EngineKind kind = kReaders[r];
      // Keep reading until the writer finishes, then one final batch so
      // every reader also checks the terminal generation.
      bool final_pass = false;
      while (true) {
        auto batch = ExecuteXPathBatch(&db_.db(), kind, {.ep = ""}, queries,
                                       &dict_);
        if (!batch.ok()) {
          ADD_FAILURE() << EngineKindName(kind) << " reader " << r << ": "
                        << batch.status().ToString();
          ++distinct_failures;
          return;
        }
        std::vector<std::vector<DocId>> expected;
        if (!WaitForOracle(batch->generation, &expected)) {
          ADD_FAILURE() << EngineKindName(kind) << " reader " << r
                        << " saw generation " << batch->generation
                        << " with no oracle";
          ++distinct_failures;
          return;
        }
        for (size_t q = 0; q < kNumQueries; ++q) {
          if (batch->results[q].docs != expected[q]) {
            ADD_FAILURE() << EngineKindName(kind) << " reader " << r
                          << " generation " << batch->generation
                          << " query " << kQueries[q] << ": got "
                          << batch->results[q].docs.size()
                          << " docs, oracle " << expected[q].size();
            ++distinct_failures;
          }
        }
        ++batches_checked;
        if (final_pass || distinct_failures.load() > 0) return;
        if (writer_done_.load()) final_pass = true;
      }
    });
  }

  // Writer: a seeded interleaving of inserts (60%), updates (20%), and
  // deletes (20%), each committing one generation whose oracle is recorded
  // before moving on.
  size_t next = seed.size();
  for (int op = 0; op < 70 && next < pool.size(); ++op) {
    if (distinct_failures.load() > 0) break;  // stop churning on failure
    uint32_t kind = rng.Uniform(10);
    if (kind >= 6 && live_.size() > 4) {
      auto it = live_.begin();
      std::advance(it, rng.Uniform(live_.size()));
      if (kind >= 8) {
        ASSERT_TRUE(db_->DeleteDocument("rp", it->first).ok());
        live_.erase(it);
      } else {
        Document replacement = pool[next++];
        auto id = db_->UpdateDocument("rp", it->first, replacement);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        live_.erase(it);
        live_.emplace(*id, std::move(replacement));
      }
    } else {
      Document doc = pool[next++];
      auto id = db_->InsertDocument("rp", doc);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      live_.emplace(*id, std::move(doc));
    }
    RecordOracle(db_->catalog_generation());
  }
  writer_done_.store(true);
  {
    // Wake any reader parked on a generation that will now never appear
    // (there is none — but the predicate re-check needs the signal).
    std::lock_guard<std::mutex> lock(oracle_mu_);
    oracle_cv_.notify_all();
  }
  for (auto& t : readers) t.join();

  EXPECT_EQ(distinct_failures.load(), 0u);
  EXPECT_GE(batches_checked.load(), static_cast<uint64_t>(kNumReaders));
  // The run must have actually interleaved: multiple generations committed.
  EXPECT_GT(oracles_.size(), 30u);
}

}  // namespace
}  // namespace prix
