// Online-ingest round trips (DESIGN.md §5i): InsertDocument /
// UpdateDocument / DeleteDocument against a live PRIX index, exercised
// single-threaded. The anchor is the incremental-equals-rebuild test: a
// collection grown one document at a time must answer every query exactly
// like an index bulk-built over the same live documents, because ingest
// changes when pages are written and nothing about what they mean. The
// concurrent-reader proof lives in ingest_stress_test.cc; the crash sweep
// in ingest_crash_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "naive/naive_matcher.h"
#include "prix/engine.h"
#include "prix/prix_index.h"
#include "prix/query_processor.h"
#include "prix/snapshot_view.h"
#include "query/xpath_parser.h"
#include "testutil/temp_db.h"
#include "testutil/tree_gen.h"
#include "verify/verifier.h"
#include "xml/tag_dictionary.h"

namespace prix {
namespace {

using testutil::DocFromSexp;
using testutil::RandomCollection;
using testutil::RandomDocOptions;
using testutil::RandomTwig;
using testutil::TempDb;

class IngestTest : public ::testing::Test {
 protected:
  IngestTest() : db_(Database::Options{.pool_pages = 128}) {}

  // Seeds the database with an index named `name` over `sexps`. Builds are
  // exact-labeled, so the first insert that adds a trie node relabels.
  std::vector<Document> Seed(const std::string& name,
                             const std::vector<std::string>& sexps,
                             PrixIndexOptions options = {}) {
    std::vector<Document> docs;
    DocId id = 0;
    for (const std::string& s : sexps) {
      docs.push_back(DocFromSexp(s, id++, &dict_));
    }
    auto index = PrixIndex::Build(docs, db_.pool(), options);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    EXPECT_TRUE((*index)->Save(&db_.db(), name).ok());
    return docs;
  }

  // Matching DocIds for `xpath`, via a freshly opened index (ingest moves
  // tree roots, so a pre-commit PrixIndex handle is stale by design).
  std::vector<DocId> Query(const std::string& name, const std::string& xpath) {
    auto index = PrixIndex::Open(&db_.db(), name);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    QueryProcessor qp(db_.db(), index->get(), nullptr);
    auto result = qp.ExecuteXPath(xpath, &dict_);
    EXPECT_TRUE(result.ok()) << xpath << ": " << result.status().ToString();
    return result.ok() ? result->docs : std::vector<DocId>{};
  }

  TagDictionary dict_;
  TempDb db_;
};

TEST_F(IngestTest, InsertQueryDeleteUpdateRoundTrip) {
  const std::string name = "rp";
  std::vector<Document> live = Seed(
      name, {"(book (author (name)) (title))", "(article (author (name)))"});
  const std::vector<std::string> xpaths = {
      "//book/title", "//book[./editor]", "//author/name",
      "//article[./editor]/journal", "//name"};
  // Every answer must equal the naive oracle over the live documents.
  auto expect_oracle = [&](const char* step) {
    SCOPED_TRACE(step);
    for (const std::string& xpath : xpaths) {
      auto pattern = ParseXPath(xpath, &dict_);
      ASSERT_TRUE(pattern.ok()) << xpath;
      std::vector<DocId> want;
      for (const TwigMatch& m :
           NaiveMatchCollection(live, EffectiveTwig::Build(*pattern),
                                MatchSemantics::kOrdered)) {
        want.push_back(m.doc);
      }
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      EXPECT_EQ(Query(name, xpath), want) << xpath;
    }
  };
  expect_oracle("seeded");

  // Insert: the new document is immediately visible to fresh queries.
  Document d2 = DocFromSexp("(book (editor (name)) (title))", 2, &dict_);
  auto id = db_->InsertDocument(name, d2);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, 2u);
  live.push_back(d2);
  EXPECT_EQ(Query(name, "//book/title"), (std::vector<DocId>{0, 2}));
  expect_oracle("inserted doc 2");

  // Delete: the document disappears from every answer; its id stays dead.
  ASSERT_TRUE(db_->DeleteDocument(name, 0).ok());
  live.erase(live.begin());
  EXPECT_EQ(Query(name, "//book/title"), (std::vector<DocId>{2}));
  expect_oracle("deleted doc 0");

  // Update: old id gone, fresh id visible, DocIds never reused.
  Document d1b = DocFromSexp("(article (editor (name)) (journal))", 3, &dict_);
  auto new_id = db_->UpdateDocument(name, 1, d1b);
  ASSERT_TRUE(new_id.ok()) << new_id.status().ToString();
  EXPECT_EQ(*new_id, 3u);
  live.erase(live.begin());
  live.push_back(d1b);
  expect_oracle("updated doc 1 to 3");

  // Everything above survives a close/reopen of the whole environment.
  ASSERT_TRUE(db_.Reopen().ok());
  auto reopened = PrixIndex::Open(&db_.db(), name);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_docs(), 4u);
  EXPECT_EQ((*reopened)->num_live_docs(), 2u);
  EXPECT_TRUE((*reopened)->IsDeleted(0));
  EXPECT_TRUE((*reopened)->IsDeleted(1));
  expect_oracle("reopened");
}

TEST_F(IngestTest, ErrorsLeaveTheIndexUntouched) {
  Seed("rp", {"(book (title))"});
  uint64_t gen = db_->catalog_generation();

  EXPECT_EQ(db_->InsertDocument("rp", Document()).status().code(),
            StatusCode::kInvalidArgument);
  Document doc = DocFromSexp("(book (year))", 9, &dict_);
  EXPECT_EQ(db_->InsertDocument("nope", doc).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_->DeleteDocument("rp", 7).code(), StatusCode::kNotFound);
  EXPECT_EQ(db_->UpdateDocument("rp", 7, doc).status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(db_->DeleteDocument("rp", 0).ok());
  // Double delete and update-of-dead are NotFound, not corruption.
  EXPECT_EQ(db_->DeleteDocument("rp", 0).code(), StatusCode::kNotFound);
  EXPECT_EQ(db_->UpdateDocument("rp", 0, doc).status().code(),
            StatusCode::kNotFound);

  // Only the one successful delete committed.
  EXPECT_EQ(db_->catalog_generation(), gen + 1);
  auto index = PrixIndex::Open(&db_.db(), "rp");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->num_docs(), 1u);
  EXPECT_EQ((*index)->num_live_docs(), 0u);
}

TEST_F(IngestTest, DepthLimitAppliesToInsertAndUpdate) {
  Seed("rp", {"(book (title))"});
  // `<r>` over a chain of `<a>`: `depth` levels of nodes in all.
  auto chain = [&](uint32_t depth, DocId id) {
    Document doc(id);
    NodeId node = doc.AddRoot(dict_.Intern("r"));
    for (uint32_t level = 2; level <= depth; ++level) {
      node = doc.AddChild(node, dict_.Intern("a"));
    }
    return doc;
  };
  const uint64_t gen = db_->catalog_generation();
  for (DocId id : {1u, 2u}) {
    Document over = chain(kMaxDocumentDepth + 1, id);
    EXPECT_EQ(db_->InsertDocument("rp", over).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(db_->UpdateDocument("rp", 0, over).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(db_->catalog_generation(), gen);

  auto id = db_->InsertDocument("rp", chain(kMaxDocumentDepth, 1));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(db_->catalog_generation(), gen + 1);
  EXPECT_EQ(Query("rp", "/r/a"), (std::vector<DocId>{*id}));
}

TEST_F(IngestTest, ExactLabeledIndexGrowsItsRangesAndRelabels) {
  // An exact-labeled trie has zero slack everywhere, so the very first
  // insert that extends a path must go through the relabel machinery.
  MetricsRegistry::Global().set_enabled(true);
  MetricsRegistry::Global().Reset();
  Seed("rp", {"(book (author (name)) (title))", "(article (author (name)))"});

  Document doc =
      DocFromSexp("(book (author (name) (name)) (title) (year))", 2, &dict_);
  auto id = db_->InsertDocument("rp", doc);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_GT(MetricsRegistry::Global().counter("prix.ingest.relabels").value(),
            0u);
  // Old and new documents both answer correctly after the relabel.
  EXPECT_EQ(Query("rp", "//book/title"), (std::vector<DocId>{0, 2}));
  EXPECT_EQ(Query("rp", "//author/name"), (std::vector<DocId>{0, 1, 2}));
  EXPECT_EQ(Query("rp", "//book[./year]"), (std::vector<DocId>{2}));
  MetricsRegistry::Global().set_enabled(false);
}

TEST_F(IngestTest, IncrementalBuildEqualsBulkRebuild) {
  // Grow a collection one document at a time (with interleaved deletes and
  // updates), then check a battery of random twigs against an index
  // bulk-built over exactly the live documents. The seed is EXACT-labeled
  // (zero slack anywhere), so growth repeatedly exhausts ranges and the
  // relabel machinery runs throughout the churn, not just on the first op.
  MetricsRegistry::Global().set_enabled(true);
  MetricsRegistry::Global().Reset();
  Random rng(4242);
  RandomDocOptions doc_opts;
  doc_opts.max_nodes = 24;
  doc_opts.alphabet = 4;  // few labels -> deep shared trie paths
  doc_opts.deep_bias = 0.85;
  std::vector<Document> pool = RandomCollection(rng, 60, &dict_, doc_opts);

  Seed("rp", {"(tag0 (tag1))"});
  std::map<DocId, Document> live;
  live.emplace(0u, DocFromSexp("(tag0 (tag1))", 0, &dict_));

  size_t next = 0;
  for (int op = 0; op < 80 && next < pool.size(); ++op) {
    uint32_t kind = rng.Uniform(10);
    if (kind >= 8 && live.size() > 2) {
      // Pick a uniformly random live doc.
      auto it = live.begin();
      std::advance(it, rng.Uniform(live.size()));
      if (kind == 8) {
        ASSERT_TRUE(db_->DeleteDocument("rp", it->first).ok());
        live.erase(it);
      } else {
        Document replacement = pool[next++];
        auto id = db_->UpdateDocument("rp", it->first, replacement);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        live.erase(it);
        live.emplace(*id, std::move(replacement));
      }
    } else {
      Document doc = pool[next++];
      auto id = db_->InsertDocument("rp", doc);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      live.emplace(*id, std::move(doc));
    }
  }
  ASSERT_GT(next, 30u);
  EXPECT_GT(MetricsRegistry::Global().counter("prix.ingest.relabels").value(),
            0u)
      << "the workload never exhausted a range; deepen the documents";
  MetricsRegistry::Global().set_enabled(false);

  auto grown = PrixIndex::Open(&db_.db(), "rp");
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  QueryProcessor qp(db_.db(), grown->get(), nullptr);

  std::vector<Document> live_docs;
  for (const auto& [id, doc] : live) live_docs.push_back(doc);

  size_t tried = 0;
  for (int i = 0; i < 60 && tried < 20; ++i) {
    const Document& sample = live_docs[rng.Uniform(live_docs.size())];
    TwigPattern pattern = RandomTwig(rng, sample, &dict_);
    if (pattern.num_nodes() < 2) continue;
    ++tried;
    EffectiveTwig twig = EffectiveTwig::Build(pattern);
    std::vector<DocId> oracle;
    for (const auto& [id, doc] : live) {
      if (!NaiveMatch(doc, twig, MatchSemantics::kOrdered).empty()) {
        oracle.push_back(id);
      }
    }
    auto got = qp.Execute(pattern);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->docs, oracle) << "query " << i;
  }
  EXPECT_GE(tried, 10u);
}

TEST_F(IngestTest, FreeListGrowsPersistsAndPagesAreReused) {
  MetricsRegistry::Global().set_enabled(true);
  MetricsRegistry::Global().Reset();
  Seed("rp", {"(book (author (name)) (title) (year))"});
  // Every update retires the superseded catalog/tree pages.
  DocId current = 0;
  for (int i = 0; i < 6; ++i) {
    Document doc = DocFromSexp("(book (author (name)) (title))", 0, &dict_);
    auto id = db_->UpdateDocument("rp", current, doc);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    current = *id;
  }
  EXPECT_GT(db_->free_page_count(), 0u);
  EXPECT_GT(MetricsRegistry::Global().counter("prix.db.pages_freed").value(),
            0u);

  // The list is persistent: it survives close/reopen.
  ASSERT_TRUE(db_.Reopen().ok());
  EXPECT_GT(db_->free_page_count(), 0u);

  // A reader that took and released a view leaves the current generation's
  // snapshot (and its memoized index) held by the Database. That reference
  // pins only the current generation, so it must not hold reuse back.
  {
    auto view = SnapshotView::OpenAt(&db_.db(), db_->OpenSnapshot(), "rp");
    ASSERT_TRUE(view.ok()) << view.status().ToString();
  }

  // With no snapshot pinning an old generation, further commits recycle
  // retired pages instead of extending the file. They recycle more pages
  // than the list held before them: the surplus was freed inside the loop,
  // which a lingering pin on the view's generation would have blocked.
  const size_t free_before = db_->free_page_count();
  MetricCounter& reused =
      MetricsRegistry::Global().counter("prix.db.pages_reused");
  const uint64_t reused_before = reused.value();
  for (int i = 0; i < 10; ++i) {
    Document doc = DocFromSexp("(book (title))", 0, &dict_);
    auto id = db_->UpdateDocument("rp", current, doc);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    current = *id;
  }
  EXPECT_GT(reused.value(), 0u);
  EXPECT_GT(reused.value() - reused_before, free_before);
  MetricsRegistry::Global().set_enabled(false);
  EXPECT_EQ(Query("rp", "//book/title"), (std::vector<DocId>{current}));
}

TEST_F(IngestTest, SnapshotKeepsAnsweringTheGenerationItPinned) {
  Seed("rp", {"(book (title))", "(article (journal))"});
  const std::vector<std::string> queries = {"//book/title"};

  // Pin a snapshot, then delete the only matching document THROUGH the
  // live path. A batch on the old snapshot's generation would see it; a
  // fresh batch must not.
  auto snapshot = db_->OpenSnapshot();
  uint64_t pinned_gen = snapshot->generation();
  ASSERT_TRUE(db_->DeleteDocument("rp", 0).ok());

  auto after = ExecuteXPathBatch(&db_.db(), EngineKind::kPrix, {.ep = ""},
                                 queries, &dict_);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->generation, pinned_gen + 1);
  EXPECT_TRUE(after->results[0].docs.empty());

  // The pinned generation's pages are still intact: reading the old
  // catalog entry directly still answers the old result.
  auto entry = snapshot->GetIndex("rp");
  ASSERT_TRUE(entry.ok());
  auto old_index = PrixIndex::OpenFromEntry(db_.pool(), *entry);
  ASSERT_TRUE(old_index.ok()) << old_index.status().ToString();
  QueryProcessor qp(db_.db(), old_index->get(), nullptr);
  auto old_result = qp.ExecuteXPath("//book/title", &dict_);
  ASSERT_TRUE(old_result.ok()) << old_result.status().ToString();
  EXPECT_EQ(old_result->docs, (std::vector<DocId>{0}));
}

TEST_F(IngestTest, ViewsOfOneGenerationShareOneOpenedIndex) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.set_enabled(true);
  reg.Reset();
  Seed("rp", {"(book (title))", "(article (journal))", "(book (year))"});
  auto first = SnapshotView::OpenAt(&db_.db(), db_->OpenSnapshot(), "rp");
  auto second = SnapshotView::OpenAt(&db_.db(), db_->OpenSnapshot(), "rp");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(&first->snapshot(), &second->snapshot());
  EXPECT_EQ(first->index(), second->index());
  EXPECT_EQ(reg.counter("prix.db.index_opens").value(), 1u);

  // The memoized index holds no page pins: a cold start succeeds with it
  // alive and reads exactly what a freshly opened index reads.
  QueryProcessor memo_qp(db_.db(), first->index(), nullptr);
  ASSERT_TRUE(db_->ColdStart().ok());
  auto memo_cold = memo_qp.ExecuteXPath("//book/title", &dict_);
  ASSERT_TRUE(memo_cold.ok()) << memo_cold.status().ToString();
  auto fresh = PrixIndex::Open(&db_.db(), "rp");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  QueryProcessor fresh_qp(db_.db(), fresh->get(), nullptr);
  ASSERT_TRUE(db_->ColdStart().ok());
  auto fresh_cold = fresh_qp.ExecuteXPath("//book/title", &dict_);
  ASSERT_TRUE(fresh_cold.ok()) << fresh_cold.status().ToString();
  EXPECT_GT(memo_cold->stats.pages_read, 0u);
  EXPECT_EQ(memo_cold->stats.pages_read, fresh_cold->stats.pages_read);
  EXPECT_EQ(memo_cold->docs, fresh_cold->docs);

  // A commit starts a new generation with its own index; the old views
  // keep answering theirs.
  ASSERT_TRUE(db_->DeleteDocument("rp", 0).ok());
  auto third = SnapshotView::OpenAt(&db_.db(), db_->OpenSnapshot(), "rp");
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third->generation(), first->generation() + 1);
  EXPECT_NE(third->index(), first->index());
  EXPECT_EQ(reg.counter("prix.db.index_opens").value(), 2u);
  reg.set_enabled(false);
  auto old_answer = memo_qp.ExecuteXPath("//book/title", &dict_);
  ASSERT_TRUE(old_answer.ok()) << old_answer.status().ToString();
  EXPECT_EQ(old_answer->docs, (std::vector<DocId>{0}));
  QueryProcessor new_qp(db_.db(), third->index(), nullptr);
  auto new_answer = new_qp.ExecuteXPath("//book/title", &dict_);
  ASSERT_TRUE(new_answer.ok()) << new_answer.status().ToString();
  EXPECT_TRUE(new_answer->docs.empty());
}

TEST_F(IngestTest, VerifyReportsLiveAndDeadDocuments) {
  Seed("rp", {"(book (title))", "(article (journal))", "(book (year))"});
  ASSERT_TRUE(db_->DeleteDocument("rp", 1).ok());
  const std::string path = db_.path();
  ASSERT_TRUE(db_.CloseHandle().ok());

  VerifyReport report;
  ASSERT_TRUE(VerifyDatabase(path, &report).ok());
  EXPECT_TRUE(report.clean()) << report.issues.size() << " issues";
  ASSERT_EQ(report.doc_stats.size(), 1u);
  EXPECT_EQ(report.doc_stats[0].index, "rp");
  EXPECT_EQ(report.doc_stats[0].live_docs, 2u);
  EXPECT_EQ(report.doc_stats[0].dead_docs, 1u);
  EXPECT_GT(report.free_pages, 0u);

  auto reopened = Database::Open(path);
  ASSERT_TRUE(reopened.ok());
  db_.Adopt(std::move(*reopened));
}

TEST_F(IngestTest, ExtendedIndexIngestsInLockstepWithRegular) {
  // The CLI keeps "rp" and "ep" DocIds in lockstep; value queries route to
  // the extended index, structural ones to the regular — both must see the
  // grown collection.
  PrixIndexOptions ep_options;
  ep_options.extended = true;
  Seed("rp", {"(book (author (=Jim)) (title))"});
  Seed("ep", {"(book (author (=Jim)) (title))"}, ep_options);

  Document doc = DocFromSexp("(book (author (=Ana)) (title))", 1, &dict_);
  auto rp_id = db_->InsertDocument("rp", doc);
  auto ep_id = db_->InsertDocument("ep", doc);
  ASSERT_TRUE(rp_id.ok()) << rp_id.status().ToString();
  ASSERT_TRUE(ep_id.ok()) << ep_id.status().ToString();
  EXPECT_EQ(*rp_id, *ep_id);

  auto rp = PrixIndex::Open(&db_.db(), "rp");
  auto ep = PrixIndex::Open(&db_.db(), "ep");
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();
  ASSERT_TRUE(ep.ok()) << ep.status().ToString();
  EXPECT_TRUE((*ep)->extended());
  QueryProcessor qp(db_.db(), rp->get(), ep->get());
  auto by_value = qp.ExecuteXPath("//book[./author=\"Ana\"]", &dict_);
  ASSERT_TRUE(by_value.ok()) << by_value.status().ToString();
  EXPECT_EQ(by_value->docs, (std::vector<DocId>{1}));
  EXPECT_TRUE(by_value->stats.used_extended_index);
  auto structural = qp.ExecuteXPath("//book/title", &dict_);
  ASSERT_TRUE(structural.ok()) << structural.status().ToString();
  EXPECT_EQ(structural->docs, (std::vector<DocId>{0, 1}));
}

}  // namespace
}  // namespace prix
