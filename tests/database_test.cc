// Tests for the Database environment: catalog round-trips, the two-slot
// crash-safe commit protocol, and whole-environment recovery with PRIX and
// ViST indexes after a simulated torn catalog write.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "db/database.h"
#include "prix/prix_index.h"
#include "prix/query_processor.h"
#include "query/xpath_parser.h"
#include "storage/fault_injector.h"
#include "storage/record_store.h"
#include "testutil/temp_db.h"
#include "testutil/tree_gen.h"
#include "vist/vist_index.h"
#include "vist/vist_query.h"

namespace prix {
namespace {

using testutil::DocFromSexp;

// Reads header slot 0 or 1 straight off the database file and returns its
// generation, or 0 if the slot does not carry the catalog magic.
uint64_t SlotGeneration(const std::string& path, int slot) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  char page[kPageSize] = {};
  std::fseek(f, static_cast<long>(slot) * kPageSize, SEEK_SET);
  size_t n = std::fread(page, 1, kPageSize, f);
  std::fclose(f);
  if (n != kPageSize) return 0;
  if (GetU32(page) != 0x50524442u) return 0;  // "PRDB"
  return GetU64(page + 8);
}

// Simulates a torn write: overwrites header slot 0 or 1 with garbage.
void ScribbleSlot(const std::string& path, int slot) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  char page[kPageSize];
  std::memset(page, 0xd7, kPageSize);
  std::fseek(f, static_cast<long>(slot) * kPageSize, SEEK_SET);
  ASSERT_EQ(std::fwrite(page, 1, kPageSize, f), kPageSize);
  std::fclose(f);
}

TEST(DatabaseTest, CatalogPutGetListDrop) {
  testutil::TempDb db(Database::Options{.pool_pages = 64});
  EXPECT_FALSE(db->HasIndex("alpha"));
  EXPECT_TRUE(db->GetIndex("alpha").status().IsNotFound());

  Database::IndexEntry entry;
  entry.name = "alpha";
  entry.kind = Database::IndexKind::kPrixRegular;
  entry.root = 42;
  entry.options = {'x', 'y', 'z'};
  ASSERT_TRUE(db->PutIndex(entry).ok());
  entry.name = "beta";
  entry.kind = Database::IndexKind::kVist;
  entry.root = 7;
  entry.options.clear();
  ASSERT_TRUE(db->PutIndex(entry).ok());

  EXPECT_TRUE(db->HasIndex("alpha"));
  auto got = db->GetIndex("alpha");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->kind, Database::IndexKind::kPrixRegular);
  EXPECT_EQ(got->root, 42u);
  EXPECT_EQ(got->options, (std::vector<char>{'x', 'y', 'z'}));

  auto all = db->ListIndexes();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name, "alpha");
  EXPECT_EQ(all[1].name, "beta");

  // Upsert replaces in place.
  entry.name = "alpha";
  entry.root = 99;
  ASSERT_TRUE(db->PutIndex(entry).ok());
  EXPECT_EQ(db->GetIndex("alpha")->root, 99u);

  ASSERT_TRUE(db->DropIndex("beta").ok());
  EXPECT_FALSE(db->HasIndex("beta"));
  EXPECT_TRUE(db->DropIndex("beta").IsNotFound());

  // Nameless entries are rejected before touching the catalog.
  Database::IndexEntry nameless;
  EXPECT_TRUE(db->PutIndex(nameless).IsInvalidArgument());
}

TEST(DatabaseTest, CatalogSurvivesReopen) {
  testutil::TempDb db(Database::Options{.pool_pages = 64});
  Database::IndexEntry entry;
  entry.name = "blob";
  entry.kind = Database::IndexKind::kBlob;
  entry.root = 5;
  entry.options = {'o', 'p', 't'};
  ASSERT_TRUE(db->PutIndex(entry).ok());
  uint64_t gen = db->catalog_generation();

  ASSERT_TRUE(db.Reopen().ok());
  // Close committed once more; the reopened generation reflects it.
  EXPECT_EQ(db->catalog_generation(), gen + 1);
  auto got = db->GetIndex("blob");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->kind, Database::IndexKind::kBlob);
  EXPECT_EQ(got->root, 5u);
  EXPECT_EQ(got->options, (std::vector<char>{'o', 'p', 't'}));

  // Drops persist too.
  ASSERT_TRUE(db->DropIndex("blob").ok());
  ASSERT_TRUE(db.Reopen().ok());
  EXPECT_FALSE(db->HasIndex("blob"));
}

TEST(DatabaseTest, EveryCommitAlternatesHeaderSlots) {
  testutil::TempDb db(Database::Options{.pool_pages = 64});
  Database::IndexEntry entry;
  entry.name = "e";
  entry.kind = Database::IndexKind::kBlob;
  entry.root = 2;
  ASSERT_TRUE(db->PutIndex(entry).ok());
  ASSERT_TRUE(db->PutIndex(entry).ok());
  uint64_t gen = db->catalog_generation();
  ASSERT_TRUE(db.CloseHandle().ok());  // commits gen+1 on the way out

  uint64_t g0 = SlotGeneration(db.path(), 0);
  uint64_t g1 = SlotGeneration(db.path(), 1);
  // Both slots are valid and hold adjacent generations, newest = close's.
  EXPECT_EQ(std::max(g0, g1), gen + 1);
  EXPECT_EQ(std::min(g0, g1) + 1, std::max(g0, g1));

  auto reopened = Database::Open(db.path());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->catalog_generation(), gen + 1);
  db.Adopt(std::move(*reopened));
}

TEST(DatabaseTest, TornWriteOfNewSlotKeepsCommittedCatalog) {
  testutil::TempDb db(Database::Options{.pool_pages = 64});
  Database::IndexEntry entry;
  entry.name = "survivor";
  entry.kind = Database::IndexKind::kBlob;
  entry.root = 3;
  ASSERT_TRUE(db->PutIndex(entry).ok());
  ASSERT_TRUE(db.CloseHandle().ok());

  // A commit tears mid-write into the slot holding the OLDER generation
  // (that is the slot every new commit targets). The newest committed
  // catalog must be untouched.
  uint64_t g0 = SlotGeneration(db.path(), 0);
  uint64_t g1 = SlotGeneration(db.path(), 1);
  uint64_t newest = std::max(g0, g1);
  ScribbleSlot(db.path(), g0 < g1 ? 0 : 1);

  auto reopened = Database::Open(db.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->catalog_generation(), newest);
  EXPECT_TRUE((*reopened)->HasIndex("survivor"));
  db.Adopt(std::move(*reopened));
}

TEST(DatabaseTest, CorruptNewestSlotFallsBackOneGeneration) {
  testutil::TempDb db(Database::Options{.pool_pages = 64});
  Database::IndexEntry entry;
  entry.name = "survivor";
  entry.kind = Database::IndexKind::kBlob;
  entry.root = 3;
  ASSERT_TRUE(db->PutIndex(entry).ok());
  ASSERT_TRUE(db->PutIndex(entry).ok());  // ensure both slots committed
  ASSERT_TRUE(db.CloseHandle().ok());

  uint64_t g0 = SlotGeneration(db.path(), 0);
  uint64_t g1 = SlotGeneration(db.path(), 1);
  ScribbleSlot(db.path(), g0 > g1 ? 0 : 1);

  auto reopened = Database::Open(db.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->catalog_generation(), std::min(g0, g1));
  EXPECT_TRUE((*reopened)->HasIndex("survivor"));
  db.Adopt(std::move(*reopened));
}

// The ScribbleSlot tests above corrupt a slot from outside, after the fact.
// Here the tear happens where it really would: inside the commit's own
// header pwrite, via the fault injector. The commit fails, and recovery
// must come back with the PREVIOUS generation — the torn slot cannot
// checksum-validate.
TEST(DatabaseTest, InjectedTornHeaderWriteFallsBackOneGeneration) {
  FaultInjector inj(7);
  testutil::TempDb db(Database::Options{.pool_pages = 64});
  db->disk()->set_fault_injector(&inj);
  Database::IndexEntry entry;
  entry.name = "survivor";
  entry.kind = Database::IndexKind::kBlob;
  entry.root = 3;
  ASSERT_TRUE(db->PutIndex(entry).ok());
  uint64_t gen = db->catalog_generation();

  // Nothing is dirty, so the next commit's first (and only) write is its
  // header slot; tear it 12 bytes in — mid-generation-field.
  entry.name = "casualty";
  inj.CrashAtWrite(1, FaultInjector::WriteFate::kTorn, /*torn_bytes=*/12);
  Status st = db->PutIndex(entry);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_TRUE(inj.crashed());
  db->Abandon();

  auto reopened = Database::Open(db.path(),
                                 Database::Options{.pool_pages = 64});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->catalog_generation(), gen);
  EXPECT_TRUE((*reopened)->HasIndex("survivor"));
  EXPECT_FALSE((*reopened)->HasIndex("casualty"));
  db.Adopt(std::move(*reopened));
}

TEST(DatabaseTest, BothSlotsScribbledIsNotAPrixDatabase) {
  testutil::TempDb db(Database::Options{.pool_pages = 64});
  ASSERT_TRUE(db.CloseHandle().ok());
  ScribbleSlot(db.path(), 0);
  ScribbleSlot(db.path(), 1);
  // Scribbling destroys the magic too, so the file is indistinguishable
  // from one that was never a PRIX database.
  auto reopened = Database::Open(db.path());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reopened.status().ToString().find("not a PRIX database"),
            std::string::npos)
      << reopened.status().ToString();
}

TEST(DatabaseTest, BothSlotsTornIsUnrecoverable) {
  testutil::TempDb db(Database::Options{.pool_pages = 64});
  ASSERT_TRUE(db.CloseHandle().ok());
  // Corrupt only the catalog payloads: magic and version stay intact, so
  // both slots parse as torn rather than foreign.
  for (int slot = 0; slot < 2; ++slot) {
    std::FILE* f = std::fopen(db.path().c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    char junk[64];
    std::memset(junk, 0xd7, sizeof(junk));
    std::fseek(f, static_cast<long>(slot) * kPageSize + 24, SEEK_SET);
    ASSERT_EQ(std::fwrite(junk, 1, sizeof(junk), f), sizeof(junk));
    std::fclose(f);
  }
  auto reopened = Database::Open(db.path());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reopened.status().ToString().find("no valid catalog header"),
            std::string::npos)
      << reopened.status().ToString();
}

TEST(DatabaseTest, OlderFormatFilesAreRejectedWithMigrationHint) {
  // Migration guard: a file written by an older layout (format 1 has no
  // page trailers, format 2 has optional header trailers and stale stamps,
  // format 3 has fixed-stride or restart-less B+-tree leaves) must not be
  // half-read; the error tells the operator to rebuild rather than
  // reporting generic corruption. An old slot is simulated by patching the
  // version field of both header slots — the magic survives, so version is
  // judged before anything else.
  for (uint32_t version : {1u, 2u, 3u}) {
    SCOPED_TRACE("format " + std::to_string(version));
    testutil::TempDb db(Database::Options{.pool_pages = 64});
    ASSERT_TRUE(db.CloseHandle().ok());
    for (int slot = 0; slot < 2; ++slot) {
      std::FILE* f = std::fopen(db.path().c_str(), "rb+");
      ASSERT_NE(f, nullptr);
      std::fseek(f, static_cast<long>(slot) * kPageSize + 4, SEEK_SET);
      ASSERT_EQ(std::fwrite(&version, 1, sizeof(version), f),
                sizeof(version));
      std::fclose(f);
    }
    auto reopened = Database::Open(db.path());
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument)
        << reopened.status().ToString();
    EXPECT_NE(reopened.status().ToString().find(
                  "format version " + std::to_string(version) +
                  " unsupported"),
              std::string::npos)
        << reopened.status().ToString();
    EXPECT_NE(reopened.status().ToString().find("rebuild index"),
              std::string::npos)
        << reopened.status().ToString();
  }
}

TEST(DatabaseTest, OpenMissingFileIsNotFound) {
  auto missing = Database::Open("/tmp/prix_db_test_does_not_exist.prix");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

// The acceptance scenario: one file holding PRIX (RP+EP) and ViST indexes
// closes, survives a torn catalog write, and answers the same twig queries
// identically after every reopen.
class DatabaseRecoveryTest : public ::testing::Test {
 protected:
  struct Answer {
    size_t matches;
    std::vector<DocId> docs;
    bool operator==(const Answer& other) const {
      return matches == other.matches && docs == other.docs;
    }
  };

  void BuildAndSave() {
    const char* sexps[] = {
        "(book (author (name)) (title) (year))",
        "(book (author (name) (name)) (title))",
        "(article (author (name)) (journal) (year))",
        "(book (editor (name)) (title) (year))",
        "(article (editor (name)) (journal))",
    };
    DocId id = 0;
    for (const char* sexp : sexps) {
      docs_.push_back(DocFromSexp(sexp, id++, &dict_));
    }
    auto rp = PrixIndex::Build(docs_, db_.pool(), PrixIndexOptions{});
    PrixIndexOptions ep_opts;
    ep_opts.extended = true;
    auto ep = PrixIndex::Build(docs_, db_.pool(), ep_opts);
    auto vist = VistIndex::Build(docs_, db_.pool());
    ASSERT_TRUE(rp.ok() && ep.ok() && vist.ok());
    ASSERT_TRUE((*rp)->Save(&db_.db(), "rp").ok());
    ASSERT_TRUE((*ep)->Save(&db_.db(), "ep").ok());
    ASSERT_TRUE((*vist)->Save(&db_.db(), "vist").ok());
  }

  // Opens all three indexes from the catalog and answers the query mix
  // with both engines, checking they agree with each other.
  void CollectAnswers(std::vector<Answer>* out) {
    auto rp = PrixIndex::Open(&db_.db(), "rp");
    auto ep = PrixIndex::Open(&db_.db(), "ep");
    auto vist = VistIndex::Open(&db_.db(), "vist");
    ASSERT_TRUE(rp.ok()) << rp.status().ToString();
    ASSERT_TRUE(ep.ok()) << ep.status().ToString();
    ASSERT_TRUE(vist.ok()) << vist.status().ToString();
    QueryProcessor qp(db_.db(), rp->get(), ep->get());
    VistQueryProcessor vist_qp(vist->get());
    out->clear();
    for (const char* xpath : kQueries) {
      auto result = qp.ExecuteXPath(xpath, &dict_);
      ASSERT_TRUE(result.ok()) << xpath << ": "
                               << result.status().ToString();
      auto pattern = ParseXPath(xpath, &dict_);
      ASSERT_TRUE(pattern.ok());
      auto vr = vist_qp.Execute(*pattern);
      ASSERT_TRUE(vr.ok()) << xpath << ": " << vr.status().ToString();
      EXPECT_EQ(result->matches.size(), vr->matches.size()) << xpath;
      out->push_back({result->matches.size(), result->docs});
    }
  }

  static constexpr const char* kQueries[4] = {
      "//book[./author]/title",
      "//author/name",
      "//article[./editor]",
      "//book[./author[./name]][./year]",
  };

  TagDictionary dict_;
  std::vector<Document> docs_;
  testutil::TempDb db_{Database::Options{.pool_pages = 256}};
};

TEST_F(DatabaseRecoveryTest, QueryMixIdenticalAcrossReopenAndTornWrite) {
  BuildAndSave();
  std::vector<Answer> baseline;
  ASSERT_NO_FATAL_FAILURE(CollectAnswers(&baseline));
  ASSERT_FALSE(baseline.empty());
  // Sanity: the mix exercises non-empty answers.
  EXPECT_GT(baseline[0].matches, 0u);
  EXPECT_GT(baseline[1].matches, 0u);

  // Clean process restart.
  ASSERT_TRUE(db_.Reopen().ok());
  std::vector<Answer> after_reopen;
  ASSERT_NO_FATAL_FAILURE(CollectAnswers(&after_reopen));
  EXPECT_EQ(after_reopen, baseline);

  // Torn write of the next commit: garbage lands in the older header slot.
  ASSERT_TRUE(db_.CloseHandle().ok());
  uint64_t g0 = SlotGeneration(db_.path(), 0);
  uint64_t g1 = SlotGeneration(db_.path(), 1);
  ASSERT_NE(g0, g1);
  ScribbleSlot(db_.path(), g0 < g1 ? 0 : 1);
  auto reopened = Database::Open(db_.path(),
                                 Database::Options{.pool_pages = 256});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  db_.Adopt(std::move(*reopened));
  std::vector<Answer> after_torn;
  ASSERT_NO_FATAL_FAILURE(CollectAnswers(&after_torn));
  EXPECT_EQ(after_torn, baseline);

  // Now the newest slot is lost instead: recovery falls back a generation,
  // which still names every index (they were committed earlier).
  ASSERT_TRUE(db_.CloseHandle().ok());
  g0 = SlotGeneration(db_.path(), 0);
  g1 = SlotGeneration(db_.path(), 1);
  ASSERT_NE(g0, g1);
  ScribbleSlot(db_.path(), g0 > g1 ? 0 : 1);
  reopened = Database::Open(db_.path(),
                            Database::Options{.pool_pages = 256});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->catalog_generation(), std::min(g0, g1));
  db_.Adopt(std::move(*reopened));
  std::vector<Answer> after_fallback;
  ASSERT_NO_FATAL_FAILURE(CollectAnswers(&after_fallback));
  EXPECT_EQ(after_fallback, baseline);
}

}  // namespace
}  // namespace prix
