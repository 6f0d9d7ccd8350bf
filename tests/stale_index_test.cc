// Staleness stamping for co-resident engines (DESIGN.md §5k). Online ingest
// now carries every aligned ViST / TwigStack index along in the same commit
// as the PRIX indexes, so aligned engines are never stamped — they answer at
// every generation. The `stale_as_of_gen` machinery remains for indexes the
// ingest cannot carry: ones built by older binaries over a different
// document set (misaligned DocIds), or ones that fail to load. Those fall
// out of the commit batch and get stamped exactly as before: typed
// FailedPrecondition on Open, reported by the verifier without flipping the
// database to CORRUPT, cleared by any successful rebuild-and-Save.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "db/database.h"
#include "prix/prix_index.h"
#include "testutil/temp_db.h"
#include "testutil/tree_gen.h"
#include "twigstack/position_stream.h"
#include "twigstack/twig_stack.h"
#include "verify/verifier.h"
#include "vist/vist_index.h"
#include "xml/tag_dictionary.h"

namespace prix {
namespace {

using testutil::DocFromSexp;
using testutil::TempDb;

class StaleIndexTest : public ::testing::Test {
 protected:
  StaleIndexTest() : db_(Database::Options{.pool_pages = 256}) {}

  // One collection, three aligned engines over it: PRIX "rp" (dynamic
  // labeling so ingest works), ViST "v", TwigStack streams "ts" + XB forest
  // "xb". All four ride every ingest commit.
  void BuildAllEngines() {
    docs_.push_back(DocFromSexp("(book (author (name)) (title))", 0, &dict_));
    docs_.push_back(DocFromSexp("(article (author (name)))", 1, &dict_));

    PrixIndexOptions options;
    options.labeling = PrixIndexOptions::Labeling::kDynamic;
    auto rp = PrixIndex::Build(docs_, db_.pool(), options);
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

  // A derived index an older binary left behind: built over a SUBSET of the
  // collection, so its DocIds no longer line up and ingest cannot carry it.
  void BuildMisalignedDerived() {
    std::vector<Document> subset = {docs_[0]};
    auto vist = VistIndex::Build(subset, db_.pool(), nullptr);
    ASSERT_TRUE(vist.ok()) << vist.status().ToString();
    ASSERT_TRUE((*vist)->Save(&db_.db(), "v-old").ok());
    auto streams = StreamStore::Build(subset, db_.pool());
    ASSERT_TRUE(streams.ok()) << streams.status().ToString();
    ASSERT_TRUE((*streams)->Save(&db_.db(), "ts-old").ok());
  }

  // One ingest commit into the PRIX index; returns the commit generation.
  uint64_t IngestOne() {
    Document doc = DocFromSexp("(book (editor (name)))",
                               static_cast<DocId>(next_doc_++), &dict_);
    auto id = db_.db().InsertDocument("rp", doc);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return db_.db().catalog_generation();
  }

  uint64_t StaleGen(const std::string& name) {
    auto entry = db_.db().GetIndex(name);
    EXPECT_TRUE(entry.ok()) << entry.status().ToString();
    return entry.ok() ? entry->stale_as_of_gen : ~0ull;
  }

  TagDictionary dict_;
  std::vector<Document> docs_;
  size_t next_doc_ = 2;
  TempDb db_;
};

TEST_F(StaleIndexTest, AlignedEnginesRideEveryCommitUnstamped) {
  BuildAllEngines();
  EXPECT_EQ(StaleGen("v"), 0u);
  EXPECT_EQ(StaleGen("ts"), 0u);
  EXPECT_EQ(StaleGen("xb"), 0u);

  IngestOne();
  IngestOne();
  // Two ingest commits later every co-resident engine is still current: no
  // stamp anywhere, every Open succeeds, and the document counts kept pace
  // with the PRIX index.
  EXPECT_EQ(StaleGen("rp"), 0u);
  EXPECT_EQ(StaleGen("v"), 0u);
  EXPECT_EQ(StaleGen("ts"), 0u);
  EXPECT_EQ(StaleGen("xb"), 0u);
  auto vist = VistIndex::Open(&db_.db(), "v");
  ASSERT_TRUE(vist.ok()) << vist.status().ToString();
  EXPECT_EQ((*vist)->num_docs(), 4u);
  auto streams = StreamStore::Open(&db_.db(), "ts");
  ASSERT_TRUE(streams.ok()) << streams.status().ToString();
  EXPECT_EQ((*streams)->num_docs(), 4u);
  ASSERT_TRUE(XbForest::Open(&db_.db(), "xb", streams->get()).ok());
}

TEST_F(StaleIndexTest, MisalignedDerivedIndexGetsStamped) {
  BuildAllEngines();
  BuildMisalignedDerived();
  EXPECT_EQ(StaleGen("v-old"), 0u);
  EXPECT_EQ(StaleGen("ts-old"), 0u);

  uint64_t commit_gen = IngestOne();
  // The misaligned engines could not be carried (their DocIds diverge from
  // the collection), so they fell out of the batch and got stamped...
  EXPECT_EQ(StaleGen("v-old"), commit_gen);
  EXPECT_EQ(StaleGen("ts-old"), commit_gen);
  // ...while the aligned ones rode along unstamped.
  EXPECT_EQ(StaleGen("v"), 0u);
  EXPECT_EQ(StaleGen("ts"), 0u);
  EXPECT_EQ(StaleGen("xb"), 0u);
  EXPECT_EQ(StaleGen("rp"), 0u);

  // First staleness wins: a second commit must not move the stamp, because
  // the index has been missing documents since the FIRST one.
  uint64_t second_gen = IngestOne();
  ASSERT_NE(second_gen, commit_gen);
  EXPECT_EQ(StaleGen("v-old"), commit_gen);
  EXPECT_EQ(StaleGen("ts-old"), commit_gen);
}

TEST_F(StaleIndexTest, StaleOpensRefuseWithTypedError) {
  BuildAllEngines();
  BuildMisalignedDerived();
  uint64_t commit_gen = IngestOne();

  auto vist = VistIndex::Open(&db_.db(), "v-old");
  ASSERT_FALSE(vist.ok());
  EXPECT_TRUE(vist.status().IsFailedPrecondition())
      << vist.status().ToString();
  EXPECT_NE(vist.status().ToString().find(
                "stale as of generation " + std::to_string(commit_gen)),
            std::string::npos)
      << vist.status().ToString();
  EXPECT_NE(vist.status().ToString().find("PRIX"), std::string::npos)
      << "error should point at the index that IS maintained";

  auto streams = StreamStore::Open(&db_.db(), "ts-old");
  ASSERT_FALSE(streams.ok());
  EXPECT_TRUE(streams.status().IsFailedPrecondition());

  // The carried engines and the PRIX index itself still open and answer.
  EXPECT_TRUE(VistIndex::Open(&db_.db(), "v").ok());
  EXPECT_TRUE(StreamStore::Open(&db_.db(), "ts").ok());
  EXPECT_TRUE(PrixIndex::Open(&db_.db(), "rp").ok());
}

TEST_F(StaleIndexTest, StalenessSurvivesReopen) {
  BuildAllEngines();
  BuildMisalignedDerived();
  uint64_t commit_gen = IngestOne();
  ASSERT_TRUE(db_.Reopen().ok());
  // The stamp rides a catalog-header trailer; a process restart must see
  // the same staleness, or a rebuilt server would happily serve the stale
  // index again. The aligned engines stay clean across the restart.
  EXPECT_EQ(StaleGen("v-old"), commit_gen);
  EXPECT_EQ(StaleGen("ts-old"), commit_gen);
  EXPECT_EQ(StaleGen("v"), 0u);
  EXPECT_TRUE(
      VistIndex::Open(&db_.db(), "v-old").status().IsFailedPrecondition());
  EXPECT_TRUE(VistIndex::Open(&db_.db(), "v").ok());
}

TEST_F(StaleIndexTest, RebuildClearsStaleness) {
  BuildAllEngines();
  BuildMisalignedDerived();
  IngestOne();
  ASSERT_TRUE(StaleGen("v-old") != 0u);

  // Rebuild the stamped ViST over the CURRENT collection (including the
  // ingested doc) and save over the same name: the fresh entry carries no
  // stamp.
  std::vector<Document> live = docs_;
  live.push_back(DocFromSexp("(book (editor (name)))",
                             static_cast<DocId>(live.size()), &dict_));
  auto vist = VistIndex::Build(live, db_.pool(), nullptr);
  ASSERT_TRUE(vist.ok()) << vist.status().ToString();
  ASSERT_TRUE((*vist)->Save(&db_.db(), "v-old").ok());
  EXPECT_EQ(StaleGen("v-old"), 0u);
  EXPECT_TRUE(VistIndex::Open(&db_.db(), "v-old").ok());
  // The other stamped engine remains stale until its own rebuild.
  EXPECT_NE(StaleGen("ts-old"), 0u);
}

TEST_F(StaleIndexTest, EverySuccessfulSaveClearsTheStamp) {
  BuildAllEngines();
  BuildMisalignedDerived();
  IngestOne();
  ASSERT_NE(StaleGen("v-old"), 0u);

  // Regression: PutIndex used to persist whatever stale_as_of_gen the caller
  // passed, so a Save that round-tripped a stamped entry (read entry, tweak,
  // write back) kept the index refusing forever. A successful Save IS the
  // rebuild signal; it must clear the stamp no matter what the caller's
  // entry says.
  auto entry = db_.db().GetIndex("v-old");
  ASSERT_TRUE(entry.ok());
  ASSERT_NE(entry->stale_as_of_gen, 0u);
  ASSERT_TRUE(db_.db().PutIndex(*entry).ok());
  EXPECT_EQ(StaleGen("v-old"), 0u);
}

TEST_F(StaleIndexTest, VerifierReportsStaleWithoutCorrupt) {
  BuildAllEngines();
  BuildMisalignedDerived();
  uint64_t commit_gen = IngestOne();
  ASSERT_TRUE(db_.CloseHandle().ok());

  VerifyReport report;
  ASSERT_TRUE(VerifyDatabase(db_.path(), &report).ok());
  // Stale is dead weight, not corruption: the database stays clean, the
  // stale indexes are reported by name and generation, and their structural
  // walks are skipped (their Opens would refuse). The aligned engines are
  // walked normally and contribute live/dead document accounting.
  EXPECT_TRUE(report.clean()) << "staleness must not flip clean -> CORRUPT";
  ASSERT_EQ(report.stale_indexes.size(), 2u);
  for (const StaleIndexNote& note : report.stale_indexes) {
    EXPECT_TRUE(note.index == "v-old" || note.index == "ts-old")
        << note.index;
    EXPECT_EQ(note.stale_as_of_gen, commit_gen);
  }
  bool saw_vist = false, saw_streams = false;
  for (const IndexDocStats& ds : report.doc_stats) {
    if (ds.index == "v") {
      saw_vist = true;
      EXPECT_EQ(ds.live_docs, 3u);
      EXPECT_EQ(ds.dead_docs, 0u);
    }
    if (ds.index == "ts") {
      saw_streams = true;
      EXPECT_EQ(ds.live_docs, 3u);
      EXPECT_EQ(ds.dead_docs, 0u);
    }
  }
  EXPECT_TRUE(saw_vist);
  EXPECT_TRUE(saw_streams);
}

}  // namespace
}  // namespace prix
