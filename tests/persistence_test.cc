#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "naive/naive_matcher.h"
#include "prix/prix_index.h"
#include "prix/query_processor.h"
#include "query/xpath_parser.h"
#include "storage/record_store.h"
#include "testutil/temp_db.h"
#include "testutil/tree_gen.h"
#include "twigstack/position_stream.h"
#include "vist/vist_index.h"
#include "vist/vist_query.h"

namespace prix {
namespace {

using testutil::RandomCollection;
using testutil::RandomTwig;
using testutil::TempDb;

TEST(PersistenceTest, BlobRoundTrip) {
  TempDb db(Database::Options{.pool_pages = 64});
  // Multi-page blob (3 pages worth), empty blob, and a tiny one.
  std::vector<char> big(3 * kPageSize - 100);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i * 7);
  for (const std::vector<char>& blob :
       {big, std::vector<char>{}, std::vector<char>{'x'}}) {
    auto first = WriteBlob(db.pool(), blob);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    std::vector<char> back;
    ASSERT_TRUE(ReadBlob(db.pool(), *first, &back).ok());
    EXPECT_EQ(back, blob);
  }
}

TEST(PersistenceTest, RecordStoreCatalogRoundTrip) {
  TempDb db(Database::Options{.pool_pages = 256});
  RecordStore store(db.pool());
  Random rng(5);
  std::vector<std::vector<char>> records;
  for (int i = 0; i < 200; ++i) {
    std::vector<char> rec(1 + rng.Uniform(500));
    for (auto& c : rec) c = static_cast<char>(rng.Next());
    auto id = store.Append(rec.data(), rec.size());
    ASSERT_TRUE(id.ok());
    records.push_back(std::move(rec));
  }
  std::vector<char> catalog;
  store.SerializeTo(&catalog);
  const char* p = catalog.data();
  auto reopened = RecordStore::Deserialize(db.pool(), &p,
                                           catalog.data() + catalog.size());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(p, catalog.data() + catalog.size());
  for (size_t i = 0; i < records.size(); ++i) {
    std::vector<char> back;
    ASSERT_TRUE(reopened->Load(static_cast<uint32_t>(i), &back).ok());
    EXPECT_EQ(back, records[i]);
  }
}

TEST(PersistenceTest, IndexSurvivesProcessRestart) {
  TagDictionary dict;
  Random rng(77);
  std::vector<Document> docs = RandomCollection(rng, 50, &dict);
  std::vector<TwigPattern> patterns;
  std::vector<std::vector<TwigMatch>> expected;
  for (int i = 0; i < 10; ++i) {
    TwigPattern pattern = RandomTwig(rng, docs[rng.Uniform(docs.size())],
                                     &dict);
    if (pattern.num_nodes() < 2) continue;
    EffectiveTwig twig = EffectiveTwig::Build(pattern);
    auto matches = NaiveMatchCollection(docs, twig, MatchSemantics::kOrdered);
    std::sort(matches.begin(), matches.end());
    patterns.push_back(std::move(pattern));
    expected.push_back(std::move(matches));
  }
  ASSERT_GE(patterns.size(), 3u);

  TempDb db;
  // Phase 1: build, save under catalog names, simulate a shutdown.
  {
    auto rp = PrixIndex::Build(docs, db.pool(), PrixIndexOptions{});
    PrixIndexOptions ep_opts;
    ep_opts.extended = true;
    auto ep = PrixIndex::Build(docs, db.pool(), ep_opts);
    ASSERT_TRUE(rp.ok() && ep.ok());
    ASSERT_TRUE((*rp)->Save(&db.db(), "rp").ok());
    ASSERT_TRUE((*ep)->Save(&db.db(), "ep").ok());
  }
  ASSERT_TRUE(db.Reopen().ok());

  // Phase 2: the reopened catalog resolves both indexes by name and the
  // answers must match the pre-shutdown ground truth.
  EXPECT_TRUE(db->HasIndex("rp"));
  EXPECT_TRUE(db->HasIndex("ep"));
  auto rp = PrixIndex::Open(&db.db(), "rp");
  auto ep = PrixIndex::Open(&db.db(), "ep");
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();
  ASSERT_TRUE(ep.ok()) << ep.status().ToString();
  EXPECT_FALSE((*rp)->extended());
  EXPECT_TRUE((*ep)->extended());
  EXPECT_EQ((*rp)->num_docs(), docs.size());
  QueryProcessor qp(db.db(), rp->get(), ep->get());
  for (size_t i = 0; i < patterns.size(); ++i) {
    auto result = qp.Execute(patterns[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto got = result->matches;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected[i]) << "pattern " << i << " after reopen";
  }
}

TEST(PersistenceTest, VistIndexSurvivesProcessRestart) {
  TagDictionary dict;
  Random rng(31);
  std::vector<Document> docs = RandomCollection(rng, 40, &dict);
  std::vector<TwigPattern> patterns;
  std::vector<std::vector<TwigMatch>> expected;
  for (int i = 0; i < 12 && patterns.size() < 6; ++i) {
    TwigPattern pattern = RandomTwig(rng, docs[rng.Uniform(docs.size())],
                                     &dict);
    if (pattern.num_nodes() < 2) continue;
    EffectiveTwig twig = EffectiveTwig::Build(pattern);
    auto matches = NaiveMatchCollection(docs, twig, MatchSemantics::kOrdered);
    std::sort(matches.begin(), matches.end());
    patterns.push_back(std::move(pattern));
    expected.push_back(std::move(matches));
  }
  ASSERT_GE(patterns.size(), 3u);

  TempDb db;
  {
    auto vist = VistIndex::Build(docs, db.pool());
    ASSERT_TRUE(vist.ok()) << vist.status().ToString();
    ASSERT_TRUE((*vist)->Save(&db.db(), "vist").ok());
  }
  ASSERT_TRUE(db.Reopen().ok());

  auto vist = VistIndex::Open(&db.db(), "vist");
  ASSERT_TRUE(vist.ok()) << vist.status().ToString();
  VistQueryProcessor vqp(vist->get());
  for (size_t i = 0; i < patterns.size(); ++i) {
    auto result = vqp.Execute(patterns[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto got = result->matches;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected[i]) << "pattern " << i << " after reopen";
  }
}

TEST(PersistenceTest, OpenRefusesMalformedChildlessAndTombstoneSections) {
  // The catalog ends with the childless section (count, strictly increasing
  // labels) and the tombstone section (count 0 here). Neither is optional
  // or reordered in any catalog a current build reads, so a blob truncated
  // before the tombstone count, or with two childless labels swapped, is
  // corruption.
  TagDictionary dict;
  Random rng(78);
  std::vector<Document> docs = RandomCollection(rng, 40, &dict);
  TempDb db(Database::Options{.pool_pages = 256});
  auto rp = PrixIndex::Build(docs, db.pool(), PrixIndexOptions{});
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();
  std::vector<LabelId> childless;
  for (LabelId l = 0; l < dict.size(); ++l) {
    if ((*rp)->LabelOccursChildless(l)) childless.push_back(l);
  }
  ASSERT_GE(childless.size(), 2u);
  std::vector<char> saved;
  (*rp)->SerializeCatalog(&saved);
  ASSERT_EQ(GetU32(saved.data() + saved.size() - 4), 0u);
  char* labels = saved.data() + saved.size() - 4 - 4 * childless.size();
  ASSERT_EQ(GetU32(labels - 4), childless.size());

  auto open = [&](const std::vector<char>& blob) {
    auto root = WriteBlob(db.pool(), blob);
    EXPECT_TRUE(root.ok()) << root.status().ToString();
    Database::IndexEntry entry;
    entry.name = "rp";
    entry.kind = Database::IndexKind::kPrixRegular;
    entry.root = *root;
    return PrixIndex::OpenFromEntry(db.pool(), entry);
  };
  ASSERT_TRUE(open(saved).ok());

  std::vector<char> truncated(saved.begin(), saved.end() - 4);
  auto no_count = open(truncated);
  ASSERT_FALSE(no_count.ok());
  EXPECT_EQ(no_count.status().code(), StatusCode::kCorruption);
  EXPECT_NE(no_count.status().ToString().find("truncated index catalog"),
            std::string::npos)
      << no_count.status().ToString();

  std::swap_ranges(labels, labels + 4, labels + 4);
  auto swapped = open(saved);
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kCorruption)
      << swapped.status().ToString();
}

TEST(PersistenceTest, StreamCatalogsBeforeV3AreRefused) {
  // Stream catalogs v1 (no document count) and v2 (unpacked, no first slot)
  // only ever lived in format-2 database files, which Database::Open
  // refuses. Inside a current-format file such a blob is corruption, not an older
  // layout to read. Each blob below would parse as an empty v3 catalog.
  TempDb db(Database::Options{.pool_pages = 64});
  for (uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("stream catalog v" + std::to_string(version));
    std::vector<char> blob;
    PutU32(&blob, 0x54574753);  // "TWGS"
    PutU32(&blob, version);
    for (int field = 0; field < 3; ++field) PutU32(&blob, 0);
    auto root = WriteBlob(db.pool(), blob);
    ASSERT_TRUE(root.ok()) << root.status().ToString();
    Database::IndexEntry entry;
    entry.name = "ts-v" + std::to_string(version);
    entry.kind = Database::IndexKind::kTwigStreams;
    entry.root = *root;
    ASSERT_TRUE(db->PutIndex(entry).ok());
    auto opened = StreamStore::Open(&db.db(), entry.name);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
        << opened.status().ToString();
    EXPECT_NE(opened.status().ToString().find(
                  "unsupported stream-store catalog version"),
              std::string::npos)
        << opened.status().ToString();
  }
}

TEST(PersistenceTest, PrixCatalogV2IsRefused) {
  // Version 2 carried two labeling-option fields that version 3 dropped;
  // no reader for it is kept. A v2-shaped blob (magic, version, extended,
  // labeling, alpha, root range, two tree roots) must not parse as v3.
  TempDb db(Database::Options{.pool_pages = 64});
  std::vector<char> blob;
  PutU32(&blob, 0x50524958);  // "PRIX"
  PutU32(&blob, 2);
  for (int field = 0; field < 3; ++field) PutU32(&blob, 0);
  PutU64(&blob, 1);
  PutU64(&blob, 1);
  for (int field = 0; field < 2; ++field) PutU32(&blob, 0);
  auto root = WriteBlob(db.pool(), blob);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  Database::IndexEntry entry;
  entry.name = "rp-v2";
  entry.kind = Database::IndexKind::kPrixRegular;
  entry.root = *root;
  ASSERT_TRUE(db->PutIndex(entry).ok());
  auto opened = PrixIndex::Open(&db.db(), entry.name);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status().ToString();
  EXPECT_NE(opened.status().ToString().find(
                "unsupported index catalog version 2"),
            std::string::npos)
      << opened.status().ToString();
}

TEST(PersistenceTest, OpenRejectsGarbageCatalog) {
  TempDb db(Database::Options{.pool_pages = 64});
  std::vector<char> junk(100, 'z');
  auto page = WriteBlob(db.pool(), junk);
  ASSERT_TRUE(page.ok());
  Database::IndexEntry entry;
  entry.name = "bogus";
  entry.kind = Database::IndexKind::kPrixRegular;
  entry.root = *page;
  ASSERT_TRUE(db->PutIndex(entry).ok());
  // The catalog entry resolves, but the blob it points at is not a PRIX
  // index catalog.
  EXPECT_FALSE(PrixIndex::Open(&db.db(), "bogus").ok());
  // Kind mismatches are rejected before any page is read.
  EXPECT_FALSE(VistIndex::Open(&db.db(), "bogus").ok());
}

}  // namespace
}  // namespace prix
