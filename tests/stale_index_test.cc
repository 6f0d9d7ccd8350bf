// Derived indexes and the write contract (DESIGN.md §5j/§5k). Online ingest
// carries every co-resident ViST, TwigStack stream store and XB-forest along
// in the same commit as the PRIX index it writes, so aligned engines answer
// at every generation. A derived index that cannot ride the commit — one
// that fails to load into the writer, or whose document count is out of
// step with the PRIX index — fails the write with Corruption naming it, and
// nothing commits. `prix verify` reports such a database CORRUPT, and
// `prix verify --salvage` rebuilds the derived entries from the documents.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "db/database.h"
#include "naive/naive_matcher.h"
#include "prix/prix_index.h"
#include "prix/query_processor.h"
#include "query/xpath_parser.h"
#include "storage/record_store.h"
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
using testutil::TempDb;

/// Path queries: their document-level answers are the same under ordered
/// (PRIX, ViST) and standard (TwigStack) semantics, so every engine must
/// agree with one oracle.
const std::vector<std::string> kQueries = {
    "//book/author/name", "//author/name", "//book/title",
    "//article",          "//book//name", "//editor/name",
};

/// Each engine's answer (sorted DocIds) to each of kQueries.
using Answers = std::map<std::string, std::vector<std::vector<DocId>>>;

/// `entry`'s answer to `pattern`, sorted: PRIX through the query processor,
/// ViST through its own, a stream store through TwigStack, and an XB-forest
/// through TwigStackXB over "ts".
Result<std::vector<DocId>> Answer(Database* db,
                                  const Database::IndexEntry& entry,
                                  const TwigPattern& pattern) {
  std::vector<DocId> docs;
  if (entry.kind == Database::IndexKind::kPrixRegular) {
    PRIX_ASSIGN_OR_RETURN(auto rp, PrixIndex::Open(db, entry.name));
    QueryProcessor qp(*db, rp.get(), nullptr);
    PRIX_ASSIGN_OR_RETURN(QueryResult r, qp.Execute(pattern));
    docs = r.docs;
  } else if (entry.kind == Database::IndexKind::kVist) {
    PRIX_ASSIGN_OR_RETURN(auto vist, VistIndex::Open(db, entry.name));
    PRIX_ASSIGN_OR_RETURN(VistQueryResult r,
                          VistQueryProcessor(vist.get()).Execute(pattern));
    docs = r.docs;
  } else {
    const bool xb = entry.kind == Database::IndexKind::kXbForest;
    PRIX_ASSIGN_OR_RETURN(auto streams,
                          StreamStore::Open(db, xb ? "ts" : entry.name));
    std::unique_ptr<XbForest> forest;
    if (xb) {
      PRIX_ASSIGN_OR_RETURN(forest,
                            XbForest::Open(db, entry.name, streams.get()));
    }
    TwigStackEngine engine(streams.get(), forest.get());
    PRIX_ASSIGN_OR_RETURN(TwigStackResult r, engine.Execute(pattern));
    docs = r.docs;
  }
  std::sort(docs.begin(), docs.end());
  docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
  return docs;
}

class StaleIndexTest : public ::testing::Test {
 protected:
  StaleIndexTest() : db_(Database::Options{.pool_pages = 256}) {}

  // One collection, three aligned engines over it: PRIX "rp", ViST "v",
  // TwigStack streams "ts" + XB forest "xb". All four ride every ingest
  // commit.
  void BuildAllEngines() {
    docs_.push_back(DocFromSexp("(book (author (name)) (title))", 0, &dict_));
    docs_.push_back(DocFromSexp("(article (author (name)))", 1, &dict_));

    auto rp = PrixIndex::Build(docs_, db_.pool(), PrixIndexOptions{});
    ASSERT_TRUE(rp.ok()) << rp.status().ToString();
    ASSERT_TRUE((*rp)->Save(&db_.db(), "rp").ok());

    auto vist = VistIndex::Build(docs_, db_.pool(), nullptr);
    ASSERT_TRUE(vist.ok()) << vist.status().ToString();
    ASSERT_TRUE((*vist)->Save(&db_.db(), "v").ok());

    auto streams = StreamStore::Build(docs_, db_.pool());
    ASSERT_TRUE(streams.ok()) << streams.status().ToString();
    ASSERT_TRUE((*streams)->Save(&db_.db(), "ts").ok());
    auto forest = XbForest::Build(streams->get());
    ASSERT_TRUE(forest.ok()) << forest.status().ToString();
    ASSERT_TRUE((*forest)->Save(&db_.db(), "xb").ok());
  }

  // Derived indexes out of step with the collection: built over a SUBSET of
  // it, so their DocIds do not line up with the PRIX index's.
  void BuildMisalignedVist() {
    auto vist = VistIndex::Build({docs_[0]}, db_.pool(), nullptr);
    ASSERT_TRUE(vist.ok()) << vist.status().ToString();
    ASSERT_TRUE((*vist)->Save(&db_.db(), "v-old").ok());
  }
  void BuildMisalignedStreams() {
    auto streams = StreamStore::Build({docs_[0]}, db_.pool());
    ASSERT_TRUE(streams.ok()) << streams.status().ToString();
    ASSERT_TRUE((*streams)->Save(&db_.db(), "ts-old").ok());
  }

  Document NewDoc() {
    return DocFromSexp("(book (editor (name)))",
                       static_cast<DocId>(docs_.size()), &dict_);
  }

  // One ingest commit into the PRIX index.
  void IngestOne() {
    Document doc = NewDoc();
    auto id = db_.db().InsertDocument("rp", doc);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    docs_.push_back(doc);
  }

  // Every engine in `db`'s catalog, opened fresh, answering kQueries.
  Answers AnswersOf(Database* db) {
    Answers out;
    for (const Database::IndexEntry& entry : db->ListIndexes()) {
      for (const std::string& q : kQueries) {
        auto pattern = ParseXPath(q, &dict_);
        EXPECT_TRUE(pattern.ok()) << q;
        auto docs = Answer(db, entry, *pattern);
        EXPECT_TRUE(docs.ok()) << entry.name << " " << q << ": "
                               << docs.status().ToString();
        out[entry.name].push_back(docs.ok() ? *docs : std::vector<DocId>{});
      }
    }
    return out;
  }

  // The answers every engine over the whole collection must give.
  std::vector<std::vector<DocId>> Oracle() {
    std::vector<std::vector<DocId>> out;
    for (const std::string& q : kQueries) {
      auto pattern = ParseXPath(q, &dict_);
      EXPECT_TRUE(pattern.ok()) << q;
      if (!pattern.ok()) return out;
      EffectiveTwig twig = EffectiveTwig::Build(*pattern);
      std::vector<DocId> docs;
      for (const Document& doc : docs_) {
        if (!NaiveMatch(doc, twig, MatchSemantics::kOrdered).empty()) {
          docs.push_back(doc.doc_id());
        }
      }
      out.push_back(docs);
    }
    return out;
  }

  // Insert, update and delete, twice over (a refused write must not leave
  // the writer believing the derived indexes are carried), must each fail
  // with Corruption saying `why` and leave the generation where it was.
  void ExpectWritesRefused(const std::string& why) {
    const uint64_t gen = db_->catalog_generation();
    for (int round = 0; round < 2; ++round) {
      for (const Status& st :
           {db_->InsertDocument("rp", NewDoc()).status(),
            db_->UpdateDocument("rp", 1, NewDoc()).status(),
            db_->DeleteDocument("rp", 0)}) {
        EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
        EXPECT_NE(st.ToString().find(why), std::string::npos)
            << st.ToString();
        EXPECT_EQ(db_->catalog_generation(), gen);
      }
    }
  }

  // `prix verify` (which prints CORRUPT exactly when the report is not
  // clean) must flag the `culprits` and nothing else.
  void ExpectVerifyFlags(std::vector<std::string> culprits) {
    ASSERT_TRUE(db_.CloseHandle().ok());
    VerifyReport report;
    ASSERT_TRUE(VerifyDatabase(db_.path(), &report).ok());
    EXPECT_EQ(report.indexes_bad, culprits.size());
    std::vector<std::string> flagged;
    for (const VerifyIssue& issue : report.issues) {
      flagged.push_back(issue.index);
    }
    std::sort(flagged.begin(), flagged.end());
    std::sort(culprits.begin(), culprits.end());
    EXPECT_EQ(flagged, culprits);
  }

  TagDictionary dict_;
  std::vector<Document> docs_;
  TempDb db_;
};

TEST_F(StaleIndexTest, AlignedEnginesRideEveryCommit) {
  BuildAllEngines();
  const uint64_t gen = db_->catalog_generation();
  IngestOne();
  IngestOne();
  // Two ingest commits, one generation each; every co-resident engine kept
  // pace with the PRIX index and answers like the oracle.
  EXPECT_EQ(db_->catalog_generation(), gen + 2);
  const auto oracle = Oracle();
  for (const auto& [name, answers] : AnswersOf(&db_.db())) {
    EXPECT_EQ(answers, oracle) << name;
  }
}

TEST_F(StaleIndexTest, MisalignedDerivedIndexFailsEveryWrite) {
  BuildAllEngines();
  for (const char* culprit : {"v-old", "ts-old"}) {
    if (std::string(culprit) == "v-old") {
      BuildMisalignedVist();
    } else {
      ASSERT_TRUE(db_->DropIndex("v-old").ok());
      BuildMisalignedStreams();
    }
    const Answers before = AnswersOf(&db_.db());
    ExpectWritesRefused("'" + std::string(culprit) + "' holds 1 document(s)");
    EXPECT_EQ(AnswersOf(&db_.db()), before) << culprit;
  }
}

TEST_F(StaleIndexTest, UnloadableVistFailsWritesAndVerify) {
  BuildAllEngines();
  // A ViST entry whose catalog blob is not a ViST catalog.
  auto root = WriteBlob(db_.pool(), std::vector<char>(64, 'z'));
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  Database::IndexEntry entry;
  entry.name = "v-bad";
  entry.kind = Database::IndexKind::kVist;
  entry.root = *root;
  ASSERT_TRUE(db_->PutIndex(entry).ok());
  ExpectWritesRefused("'v-bad' cannot be loaded");
  ExpectVerifyFlags({"v-bad"});
}

TEST_F(StaleIndexTest, ForestWithoutStreamStoreFailsWritesAndVerify) {
  BuildAllEngines();
  ASSERT_TRUE(db_->DropIndex("ts").ok());
  ExpectWritesRefused("'xb' pairs with no stream store");
  ExpectVerifyFlags({"xb"});
}

TEST_F(StaleIndexTest, VerifierReportsMisalignedIndexesCorrupt) {
  BuildAllEngines();
  BuildMisalignedVist();
  BuildMisalignedStreams();
  ExpectVerifyFlags({"ts-old", "v-old"});
}

TEST_F(StaleIndexTest, SalvagedFileAnswersLikeTheOracleAndAcceptsWrites) {
  BuildAllEngines();
  BuildMisalignedVist();
  BuildMisalignedStreams();
  ASSERT_TRUE(db_.CloseHandle().ok());

  TempDb salvaged(Database::Options{.pool_pages = 256});
  ASSERT_TRUE(salvaged.CloseHandle().ok());
  SalvageReport sr;
  ASSERT_TRUE(SalvageDatabase(db_.path(), salvaged.path(), &sr).ok());
  std::vector<std::string> rebuilt = sr.rebuilt;
  std::sort(rebuilt.begin(), rebuilt.end());
  EXPECT_EQ(rebuilt, (std::vector<std::string>{"ts", "ts-old", "v-old", "xb"}));
  VerifyReport report;
  ASSERT_TRUE(VerifyDatabase(salvaged.path(), &report).ok());
  EXPECT_TRUE(report.clean());

  auto opened = Database::Open(salvaged.path());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  salvaged.Adopt(std::move(*opened));
  auto oracle = Oracle();
  Answers answers = AnswersOf(&salvaged.db());
  EXPECT_EQ(answers.size(), 6u);
  for (const auto& [name, got] : answers) EXPECT_EQ(got, oracle) << name;

  const uint64_t gen = salvaged->catalog_generation();
  Document doc = NewDoc();
  auto id = salvaged->InsertDocument("rp", doc);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, docs_.size());
  EXPECT_EQ(salvaged->catalog_generation(), gen + 1);
  docs_.push_back(doc);
  oracle = Oracle();
  for (const auto& [name, got] : AnswersOf(&salvaged.db())) {
    EXPECT_EQ(got, oracle) << name;
  }
}

}  // namespace
}  // namespace prix
