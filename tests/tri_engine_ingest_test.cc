// Tri-engine ingest commits (DESIGN.md §5k): a mutation through
// Database::Insert/Update/DeleteDocument lands in ONE committed generation
// for every co-resident engine — the PRIX indexes it targets plus every
// aligned ViST, TwigStack stream store, and XB-forest in the catalog. The
// anchor test grows a collection through a long seeded insert/update/delete
// workload and then requires the carried engines, opened at the final
// generation, to answer a query mix exactly like engines bulk-built from
// scratch over the live documents — and, where semantics coincide, exactly
// like PRIX itself. Ingest changes when pages are written, never what they
// mean, and that must hold per engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "naive/naive_matcher.h"
#include "prix/engine.h"
#include "prix/prix_index.h"
#include "prix/query_processor.h"
#include "storage/cow.h"
#include "query/xpath_parser.h"
#include "testutil/temp_db.h"
#include "testutil/tree_gen.h"
#include "twigstack/position_stream.h"
#include "twigstack/twig_stack.h"
#include "verify/verifier.h"
#include "vist/vist_index.h"
#include "vist/vist_query.h"
#include "xml/tag_dictionary.h"

namespace prix {
namespace {

using testutil::DocFromSexp;
using testutil::RandomCollection;
using testutil::RandomDocOptions;
using testutil::TempDb;

std::vector<DocId> Canon(std::vector<DocId> docs) {
  std::sort(docs.begin(), docs.end());
  docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
  return docs;
}

class TriEngineIngestTest : public ::testing::Test {
 protected:
  TriEngineIngestTest() : db_(Database::Options{.pool_pages = 512}) {}

  // Builds "rp" (PRIX), "v" (ViST), "ts" + "xb" (TwigStack
  // streams and forest) over `docs` — the full co-resident engine set.
  void BuildEngines(const std::vector<Document>& docs) {
    auto rp = PrixIndex::Build(docs, db_.pool(), PrixIndexOptions{});
    ASSERT_TRUE(rp.ok()) << rp.status().ToString();
    ASSERT_TRUE((*rp)->Save(&db_.db(), "rp").ok());
    auto vist = VistIndex::Build(docs, db_.pool(), nullptr);
    ASSERT_TRUE(vist.ok()) << vist.status().ToString();
    ASSERT_TRUE((*vist)->Save(&db_.db(), "v").ok());
    auto streams = StreamStore::Build(docs, db_.pool());
    ASSERT_TRUE(streams.ok()) << streams.status().ToString();
    ASSERT_TRUE((*streams)->Save(&db_.db(), "ts").ok());
    auto forest = XbForest::Build(streams->get());
    ASSERT_TRUE(forest.ok()) << forest.status().ToString();
    ASSERT_TRUE((*forest)->Save(&db_.db(), "xb").ok());
  }

  // Closes the database, runs `prix verify`'s structural walk over it and
  // reopens it. The walk must find no issue (a ViST or stream store out of
  // step with the PRIX indexes is one, since the next write would refuse
  // it), and every engine in `names` must hold the same number of
  // documents.
  void ExpectVerifiesAligned(const std::vector<std::string>& names) {
    const std::string path = db_.path();
    ASSERT_TRUE(db_.CloseHandle().ok());
    VerifyReport report;
    ASSERT_TRUE(VerifyDatabase(path, &report).ok());
    for (const VerifyIssue& issue : report.issues) {
      ADD_FAILURE() << issue.index << " (" << issue.context
                    << "): " << issue.message;
    }
    std::map<std::string, uint64_t> docs;
    for (const IndexDocStats& ds : report.doc_stats) {
      docs[ds.index] = ds.live_docs + ds.dead_docs;
    }
    for (const std::string& name : names) {
      ASSERT_EQ(docs.count(name), 1u) << name;
      EXPECT_EQ(docs[name], docs[names.front()]) << name;
    }
    auto reopened = Database::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    db_.Adopt(std::move(*reopened));
  }

  // Doc-level oracle: live documents with at least one embedding under
  // `semantics`.
  std::vector<DocId> Oracle(const std::map<DocId, Document>& live,
                            const TwigPattern& pattern,
                            MatchSemantics semantics) {
    EffectiveTwig twig = EffectiveTwig::Build(pattern);
    std::vector<DocId> docs;
    for (const auto& [id, doc] : live) {
      if (!NaiveMatch(doc, twig, semantics).empty()) docs.push_back(id);
    }
    return docs;
  }

  TagDictionary dict_;
  TempDb db_;
};

TEST_F(TriEngineIngestTest, GrownEnginesEqualBulkRebuildsAndPrix) {
  Random rng(20260808);
  RandomDocOptions doc_opts;
  doc_opts.max_nodes = 20;
  doc_opts.alphabet = 4;  // few labels -> twigs hit many documents
  doc_opts.deep_bias = 0.8;
  std::vector<Document> pool = RandomCollection(rng, 90, &dict_, doc_opts);

  // Seed all four engines over the first few documents, then churn.
  std::vector<Document> seed(pool.begin(), pool.begin() + 4);
  for (size_t i = 0; i < seed.size(); ++i) seed[i].set_doc_id(DocId(i));
  BuildEngines(seed);
  std::map<DocId, Document> live;
  for (size_t i = 0; i < seed.size(); ++i) live.emplace(DocId(i), seed[i]);

  // 80 seeded mixed operations against "rp"; the derived engines are never
  // named — carrying them in each commit is the database's job.
  size_t next = seed.size();
  int deletes = 0, updates = 0;
  for (int op = 0; op < 80 && next < pool.size(); ++op) {
    uint32_t kind = rng.Uniform(10);
    if (kind >= 7 && live.size() > 2) {
      auto it = live.begin();
      std::advance(it, rng.Uniform(live.size()));
      if (kind >= 9) {
        ASSERT_TRUE(db_->DeleteDocument("rp", it->first).ok());
        live.erase(it);
        ++deletes;
      } else {
        Document replacement = pool[next++];
        auto id = db_->UpdateDocument("rp", it->first, replacement);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        live.erase(it);
        replacement.set_doc_id(*id);
        live.emplace(*id, std::move(replacement));
        ++updates;
      }
    } else {
      Document doc = pool[next++];
      auto id = db_->InsertDocument("rp", doc);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      doc.set_doc_id(*id);
      live.emplace(*id, std::move(doc));
    }
  }
  ASSERT_GT(next, 40u);
  ASSERT_GT(deletes, 3) << "workload never deleted; retune the seed";
  ASSERT_GT(updates, 3) << "workload never updated; retune the seed";

  // Every engine rode every commit: the database verifies clean, every
  // engine opens at the final generation, and the document spaces line up.
  ExpectVerifiesAligned({"rp", "v", "ts"});
  auto rp = PrixIndex::Open(&db_.db(), "rp");
  auto vist = VistIndex::Open(&db_.db(), "v");
  auto streams = StreamStore::Open(&db_.db(), "ts");
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();
  ASSERT_TRUE(vist.ok()) << vist.status().ToString();
  ASSERT_TRUE(streams.ok()) << streams.status().ToString();
  auto forest = XbForest::Open(&db_.db(), "xb", streams->get());
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  EXPECT_EQ((*vist)->num_docs(), (*rp)->num_docs());
  EXPECT_EQ((*streams)->num_docs(), (*rp)->num_docs());

  // From-scratch references: the same engines bulk-built over exactly the
  // live documents (renumbered 0..n-1; `live_ids` maps back).
  std::vector<Document> bulk_docs;
  std::vector<DocId> live_ids;
  for (const auto& [id, doc] : live) {
    Document copy = doc;
    copy.set_doc_id(DocId(bulk_docs.size()));
    bulk_docs.push_back(std::move(copy));
    live_ids.push_back(id);
  }
  auto bulk_vist = VistIndex::Build(bulk_docs, db_.pool(), nullptr);
  ASSERT_TRUE(bulk_vist.ok()) << bulk_vist.status().ToString();
  auto bulk_streams = StreamStore::Build(bulk_docs, db_.pool());
  ASSERT_TRUE(bulk_streams.ok()) << bulk_streams.status().ToString();
  auto bulk_forest = XbForest::Build(bulk_streams->get());
  ASSERT_TRUE(bulk_forest.ok()) << bulk_forest.status().ToString();
  auto translate = [&](std::vector<DocId> docs) {
    for (DocId& d : docs) d = live_ids[d];
    return docs;
  };

  // Path queries are semantics-invariant at doc level (a chain's embedding
  // order is forced by ancestry), so every engine must agree on them
  // outright. Branching twigs differ by design — PRIX/ViST match ordered
  // (Sec. 4), TwigStack standard — so those are checked per engine against
  // the matching-semantics oracle and against the engine's own bulk build.
  const std::vector<std::string> paths = {
      "//tag0//tag1", "//tag0/tag1",  "//tag1//tag2",
      "//tag2/tag3",  "//tag0//tag3", "//tag1/tag0",
  };
  const std::vector<std::string> branches = {
      "//tag0[./tag1][./tag2]",
      "//tag1[.//tag3]",
      "//tag0[.//tag1]/tag2",
      "//tag2[./tag0]",
  };
  QueryProcessor qp(db_.db(), rp->get(), nullptr);
  VistQueryProcessor grown_vq(vist->get());
  VistQueryProcessor bulk_vq(bulk_vist->get());
  TwigStackEngine grown_ts(streams->get(), nullptr);
  TwigStackEngine grown_xb(streams->get(), forest->get());
  TwigStackEngine bulk_ts(bulk_streams->get(), bulk_forest->get());

  size_t nonempty = 0;
  for (const std::string& q : paths) {
    SCOPED_TRACE(q);
    auto pattern = ParseXPath(q, &dict_);
    ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();

    auto prix_r = qp.Execute(*pattern);
    auto vist_r = grown_vq.Execute(*pattern);
    auto ts_r = grown_ts.Execute(*pattern);
    auto xb_r = grown_xb.Execute(*pattern);
    ASSERT_TRUE(prix_r.ok()) << prix_r.status().ToString();
    ASSERT_TRUE(vist_r.ok()) << vist_r.status().ToString();
    ASSERT_TRUE(ts_r.ok()) << ts_r.status().ToString();
    ASSERT_TRUE(xb_r.ok()) << xb_r.status().ToString();

    std::vector<DocId> reference = Canon(prix_r->docs);
    EXPECT_EQ(reference, Oracle(live, *pattern, MatchSemantics::kOrdered));
    EXPECT_EQ(Canon(vist_r->docs), reference);
    EXPECT_EQ(Canon(ts_r->docs), reference);
    EXPECT_EQ(Canon(xb_r->docs), reference);

    auto bulk_v = bulk_vq.Execute(*pattern);
    auto bulk_t = bulk_ts.Execute(*pattern);
    ASSERT_TRUE(bulk_v.ok()) << bulk_v.status().ToString();
    ASSERT_TRUE(bulk_t.ok()) << bulk_t.status().ToString();
    EXPECT_EQ(Canon(translate(bulk_v->docs)), Canon(vist_r->docs));
    EXPECT_EQ(Canon(translate(bulk_t->docs)), Canon(ts_r->docs));
    if (!reference.empty()) ++nonempty;
  }
  ASSERT_GE(nonempty, 3u) << "query mix too selective; retune the alphabet";

  for (const std::string& q : branches) {
    SCOPED_TRACE(q);
    auto pattern = ParseXPath(q, &dict_);
    ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();

    auto prix_r = qp.Execute(*pattern);
    auto vist_r = grown_vq.Execute(*pattern);
    auto ts_r = grown_ts.Execute(*pattern);
    auto xb_r = grown_xb.Execute(*pattern);
    ASSERT_TRUE(prix_r.ok()) << prix_r.status().ToString();
    ASSERT_TRUE(vist_r.ok()) << vist_r.status().ToString();
    ASSERT_TRUE(ts_r.ok()) << ts_r.status().ToString();
    ASSERT_TRUE(xb_r.ok()) << xb_r.status().ToString();

    auto ordered = Oracle(live, *pattern, MatchSemantics::kOrdered);
    auto standard = Oracle(live, *pattern, MatchSemantics::kStandard);
    EXPECT_EQ(Canon(prix_r->docs), ordered);
    EXPECT_EQ(Canon(ts_r->docs), standard);
    EXPECT_EQ(Canon(xb_r->docs), standard);
    // ViST's subsequence matcher is stricter than the ordered oracle on
    // hand-picked branch orders (vist_test pins its semantics via twigs
    // sampled from real documents, as the battery below does); here the
    // binding check is grown == bulk.

    auto bulk_v = bulk_vq.Execute(*pattern);
    auto bulk_t = bulk_ts.Execute(*pattern);
    ASSERT_TRUE(bulk_v.ok()) << bulk_v.status().ToString();
    ASSERT_TRUE(bulk_t.ok()) << bulk_t.status().ToString();
    EXPECT_EQ(Canon(translate(bulk_v->docs)), Canon(vist_r->docs));
    EXPECT_EQ(Canon(translate(bulk_t->docs)), Canon(ts_r->docs));
  }

  // Random-twig battery: twigs sampled from live documents, where ViST's
  // ordered semantics are pinned (same contract as vist_test). PRIX and
  // ViST — both ordered — must agree with the oracle and with each other,
  // and the grown ViST with its bulk rebuild.
  std::vector<const Document*> live_docs;
  for (const auto& [id, doc] : live) live_docs.push_back(&doc);
  size_t tried = 0;
  for (int i = 0; i < 60 && tried < 15; ++i) {
    const Document& sample = *live_docs[rng.Uniform(live_docs.size())];
    TwigPattern pattern = testutil::RandomTwig(rng, sample, &dict_);
    if (pattern.num_nodes() < 2) continue;
    ++tried;
    SCOPED_TRACE("random twig " + std::to_string(i));
    auto prix_r = qp.Execute(pattern);
    auto vist_r = grown_vq.Execute(pattern);
    auto bulk_v = bulk_vq.Execute(pattern);
    ASSERT_TRUE(prix_r.ok()) << prix_r.status().ToString();
    ASSERT_TRUE(vist_r.ok()) << vist_r.status().ToString();
    ASSERT_TRUE(bulk_v.ok()) << bulk_v.status().ToString();
    auto ordered = Oracle(live, pattern, MatchSemantics::kOrdered);
    EXPECT_EQ(Canon(prix_r->docs), ordered);
    EXPECT_EQ(Canon(vist_r->docs), ordered);
    EXPECT_EQ(Canon(translate(bulk_v->docs)), Canon(vist_r->docs));
  }
  ASSERT_GE(tried, 10u);

  // The grown state is durable: reopen and re-answer.
  ASSERT_TRUE(db_.Reopen().ok());
  auto reopened_vist = VistIndex::Open(&db_.db(), "v");
  ASSERT_TRUE(reopened_vist.ok()) << reopened_vist.status().ToString();
  auto pattern = ParseXPath("//tag0//tag1", &dict_);
  ASSERT_TRUE(pattern.ok());
  VistQueryProcessor reopened_vq(reopened_vist->get());
  auto reopened_r = reopened_vq.Execute(*pattern);
  ASSERT_TRUE(reopened_r.ok()) << reopened_r.status().ToString();
  EXPECT_EQ(Canon(reopened_r->docs),
            Oracle(live, *pattern, MatchSemantics::kOrdered));
}

TEST_F(TriEngineIngestTest, LockstepPrixPairCarriesDerivedEnginesOnce) {
  // The CLI keeps "rp" and "ep" in DocId lockstep by inserting each
  // document into both. The derived engines must advance exactly once per
  // document: they ride the first commit and recognize the second as the
  // same document (their num_docs is already d+1), not as corruption.
  std::vector<Document> docs;
  docs.push_back(DocFromSexp("(book (author (name)) (title))", 0, &dict_));
  docs.push_back(DocFromSexp("(article (author (name)))", 1, &dict_));
  BuildEngines(docs);
  PrixIndexOptions ep_options;
  ep_options.extended = true;
  auto ep = PrixIndex::Build(docs, db_.pool(), ep_options);
  ASSERT_TRUE(ep.ok()) << ep.status().ToString();
  ASSERT_TRUE((*ep)->Save(&db_.db(), "ep").ok());

  Document doc = DocFromSexp("(book (editor (name)) (title))", 2, &dict_);
  auto rp_id = db_->InsertDocument("rp", doc);
  ASSERT_TRUE(rp_id.ok()) << rp_id.status().ToString();
  auto ep_id = db_->InsertDocument("ep", doc);
  ASSERT_TRUE(ep_id.ok()) << ep_id.status().ToString();
  EXPECT_EQ(*rp_id, *ep_id);

  ExpectVerifiesAligned({"rp", "ep", "v", "ts"});
  auto vist = VistIndex::Open(&db_.db(), "v");
  ASSERT_TRUE(vist.ok()) << vist.status().ToString();
  EXPECT_EQ((*vist)->num_docs(), 3u) << "derived engine double-ingested";
  auto streams = StreamStore::Open(&db_.db(), "ts");
  ASSERT_TRUE(streams.ok()) << streams.status().ToString();
  EXPECT_EQ((*streams)->num_docs(), 3u);

  auto pattern = ParseXPath("//book/title", &dict_);
  ASSERT_TRUE(pattern.ok());
  VistQueryProcessor vq(vist->get());
  auto vr = vq.Execute(*pattern);
  ASSERT_TRUE(vr.ok()) << vr.status().ToString();
  EXPECT_EQ(Canon(vr->docs), (std::vector<DocId>{0, 2}));
  TwigStackEngine ts(streams->get(), nullptr);
  auto tr = ts.Execute(*pattern);
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
  EXPECT_EQ(Canon(tr->docs), (std::vector<DocId>{0, 2}));

  // Deleting through either PRIX index tombstones the shared document in
  // every engine (first commit does the work, the lockstep twin no-ops).
  ASSERT_TRUE(db_->DeleteDocument("rp", 0).ok());
  ASSERT_TRUE(db_->DeleteDocument("ep", 0).ok());
  auto vist2 = VistIndex::Open(&db_.db(), "v");
  ASSERT_TRUE(vist2.ok()) << vist2.status().ToString();
  VistQueryProcessor vq2(vist2->get());
  auto vr2 = vq2.Execute(*pattern);
  ASSERT_TRUE(vr2.ok()) << vr2.status().ToString();
  EXPECT_EQ(Canon(vr2->docs), (std::vector<DocId>{2}));
  auto streams2 = StreamStore::Open(&db_.db(), "ts");
  ASSERT_TRUE(streams2.ok()) << streams2.status().ToString();
  TwigStackEngine ts2(streams2->get(), nullptr);
  auto tr2 = ts2.Execute(*pattern);
  ASSERT_TRUE(tr2.ok()) << tr2.status().ToString();
  EXPECT_EQ(Canon(tr2->docs), (std::vector<DocId>{2}));
  ExpectVerifiesAligned({"rp", "ep", "v", "ts"});
}

TEST_F(TriEngineIngestTest, SharedTailPageIsCopiedAndFreedWithItsLastStream) {
  // One small document packs every stream onto one page. Each transaction
  // below appends to one stream: the page is copied each time, and only
  // the transaction that moves its last stream off supersedes it.
  std::vector<Document> docs = {DocFromSexp("(a (b) (c))", 0, &dict_)};
  auto store = StreamStore::Build(docs, db_.pool());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const std::vector<LabelId> labels = {dict_.Find("a"), dict_.Find("b"),
                                       dict_.Find("c")};
  const PageId shared = (*store)->Find(labels[0])->pages[0];
  for (LabelId label : labels) {
    ASSERT_EQ((*store)->Find(label)->pages, std::vector<PageId>{shared});
  }
  const std::vector<std::string> appended = {"(a)", "(b)", "(c)"};
  for (size_t k = 0; k < labels.size(); ++k) {
    SCOPED_TRACE("append to stream " + std::to_string(k));
    const DocId d = static_cast<DocId>(k + 1);
    CowContext cow;
    ASSERT_TRUE((*store)
                    ->AppendDocument(DocFromSexp(appended[k], d, &dict_), d,
                                     &cow, nullptr)
                    .ok());
    const StreamStore::StreamInfo* moved = (*store)->Find(labels[k]);
    ASSERT_EQ(moved->pages.size(), 1u);
    EXPECT_NE(moved->pages[0], shared);
    EXPECT_TRUE(cow.IsFresh(moved->pages[0]));
    EXPECT_EQ(cow.freed, k + 1 < labels.size() ? std::vector<PageId>{}
                                               : std::vector<PageId>{shared});
    // Every stream still reads its own entries: the moved ones from their
    // copies, the others from the shared page.
    for (size_t m = 0; m < labels.size(); ++m) {
      const StreamStore::StreamInfo* info = (*store)->Find(labels[m]);
      EXPECT_EQ(info->pages[0] == shared, m > k) << "stream " << m;
      std::vector<DocId> seen;
      SimpleStreamCursor cursor(store->get(), info);
      ASSERT_TRUE(cursor.Init().ok());
      while (!cursor.Eof()) {
        seen.push_back(cursor.Current().doc);
        ASSERT_TRUE(cursor.Advance().ok());
      }
      const std::vector<DocId> expected =
          m <= k ? std::vector<DocId>{0, DocId(m + 1)} : std::vector<DocId>{0};
      EXPECT_EQ(seen, expected) << "stream " << m;
    }
  }
}

TEST_F(TriEngineIngestTest, SharedPageStreamsAnswerAtOldAndNewGeneration) {
  std::vector<Document> docs;
  docs.push_back(DocFromSexp("(book (author) (title))", 0, &dict_));
  docs.push_back(DocFromSexp("(book (author))", 1, &dict_));
  BuildEngines(docs);
  const LabelId author = dict_.Find("author");
  const LabelId title = dict_.Find("title");
  auto built = StreamStore::Open(&db_.db(), "ts");
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const PageId shared = (*built)->Find(author)->pages[0];
  ASSERT_EQ((*built)->Find(title)->pages[0], shared);

  std::shared_ptr<const Snapshot> old_gen = db_->OpenSnapshot();
  auto id = db_->InsertDocument("rp", DocFromSexp("(book (title))", 2, &dict_));
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  auto streams_new = StreamStore::Open(&db_.db(), "ts");
  ASSERT_TRUE(streams_new.ok()) << streams_new.status().ToString();
  // The insert moved "title" off the shared page; "author" stays on it.
  EXPECT_EQ((*streams_new)->Find(author)->pages[0], shared);
  EXPECT_NE((*streams_new)->Find(title)->pages[0], shared);

  const Engines old_engines(&db_.db(), old_gen);
  const Engines new_engines(&db_.db(), db_->OpenSnapshot());
  auto answer = [&](const Engines& engines, EngineKind kind,
                    const char* xpath) {
    auto pattern = ParseXPath(xpath, &dict_);
    EXPECT_TRUE(pattern.ok());
    auto result = engines.Execute(kind, *pattern);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->docs : std::vector<DocId>{};
  };
  for (EngineKind kind : {EngineKind::kTwigStack, EngineKind::kTwigStackXB}) {
    SCOPED_TRACE(EngineKindName(kind));
    EXPECT_EQ(answer(old_engines, kind, "//book/author"),
              (std::vector<DocId>{0, 1}));
    EXPECT_EQ(answer(old_engines, kind, "//book/title"),
              (std::vector<DocId>{0}));
    EXPECT_EQ(answer(new_engines, kind, "//book/author"),
              (std::vector<DocId>{0, 1}));
    EXPECT_EQ(answer(new_engines, kind, "//book/title"),
              (std::vector<DocId>{0, 2}));
  }
}

}  // namespace
}  // namespace prix
