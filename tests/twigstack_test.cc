#include "twigstack/twig_stack.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <unordered_set>

#include "query/xpath_parser.h"
#include "testutil/temp_db.h"
#include "testutil/tree_gen.h"

namespace prix {
namespace {

using testutil::DocFromSexp;
using testutil::RandomCollection;
using testutil::RandomDocOptions;
using testutil::RandomTwig;
using testutil::RandomTwigOptions;

TEST(RegionsTest, ContainmentAndLevels) {
  TagDictionary dict;
  Document doc = DocFromSexp("(a (b (c)) (d))", 0, &dict);
  auto regions = ComputeRegions(doc);
  // Preorder: a b c d. a = [1, 8], b = [2, 5], c = [3, 4], d = [6, 7].
  EXPECT_EQ(regions[0].left, 1u);
  EXPECT_EQ(regions[0].right, 8u);
  EXPECT_EQ(regions[1].left, 2u);
  EXPECT_EQ(regions[1].right, 5u);
  EXPECT_EQ(regions[2].left, 3u);
  EXPECT_EQ(regions[2].right, 4u);
  EXPECT_EQ(regions[3].left, 6u);
  EXPECT_EQ(regions[3].right, 7u);
  EXPECT_EQ(regions[0].level, 1u);
  EXPECT_EQ(regions[2].level, 3u);
  // Postorder carried for match reporting: c=1 b=2 d=3 a=4.
  EXPECT_EQ(regions[2].post, 1u);
  EXPECT_EQ(regions[0].post, 4u);
}

class TwigStackTest : public ::testing::Test {
 protected:
  void Build(const std::vector<Document>& docs) {
    auto store = StreamStore::Build(docs, db_.pool());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
    auto forest = XbForest::Build(store_.get());
    ASSERT_TRUE(forest.ok()) << forest.status().ToString();
    forest_ = std::move(*forest);
  }

  void ExpectAgreesWithOracle(const std::vector<Document>& docs,
                              const TwigPattern& pattern,
                              const TagDictionary& dict) {
    EffectiveTwig twig = EffectiveTwig::Build(pattern);
    auto expected =
        NaiveMatchCollection(docs, twig, MatchSemantics::kStandard);
    std::sort(expected.begin(), expected.end());
    for (bool use_xb : {false, true}) {
      TwigStackEngine engine(store_.get(), use_xb ? forest_.get() : nullptr);
      auto result = engine.Execute(pattern);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->matches, expected)
          << "query " << TwigToString(pattern, dict) << " xb " << use_xb
          << ": got " << result->matches.size() << " expected "
          << expected.size();
    }
  }

  testutil::TempDb db_;
  std::unique_ptr<StreamStore> store_;
  std::unique_ptr<XbForest> forest_;
};

TEST_F(TwigStackTest, SimplePathQuery) {
  TagDictionary dict;
  std::vector<Document> docs;
  docs.push_back(DocFromSexp("(a (b (c)) (c))", 0, &dict));
  docs.push_back(DocFromSexp("(a (c))", 1, &dict));
  Build(docs);
  auto pattern = ParseXPath("//a/b/c", &dict);
  ASSERT_TRUE(pattern.ok());
  ExpectAgreesWithOracle(docs, *pattern, dict);
  TwigStackEngine engine(store_.get(), nullptr);
  auto result = engine.Execute(*pattern);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->docs, (std::vector<DocId>{0}));
}

TEST_F(TwigStackTest, BranchingTwig) {
  TagDictionary dict;
  std::vector<Document> docs;
  docs.push_back(DocFromSexp("(P (Q) (R))", 0, &dict));
  docs.push_back(DocFromSexp("(P (x (Q)) (y (R)))", 1, &dict));
  Build(docs);
  // Parent-child: only doc 0. Ancestor-descendant: both.
  auto pc = ParseXPath("//P[./Q][./R]", &dict);
  ExpectAgreesWithOracle(docs, *pc, dict);
  auto ad = ParseXPath("//P[.//Q][.//R]", &dict);
  ExpectAgreesWithOracle(docs, *ad, dict);
  TwigStackEngine engine(store_.get(), nullptr);
  auto r1 = engine.Execute(*pc);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->docs, (std::vector<DocId>{0}));
  auto r2 = engine.Execute(*ad);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->docs, (std::vector<DocId>{0, 1}));
}

TEST_F(TwigStackTest, SuboptimalityProducesWastedPathSolutions) {
  // The PRIX paper's Sec. 2 critique: for parent-child twigs TwigStack emits
  // partial path solutions that the merge step discards.
  TagDictionary dict;
  std::vector<Document> docs;
  for (DocId d = 0; d < 20; ++d) {
    docs.push_back(
        DocFromSexp(d == 0 ? "(P (Q) (R))" : "(P (x (Q)) (y (R)))", d,
                    &dict));
  }
  Build(docs);
  auto pattern = ParseXPath("//P[./Q][./R]", &dict);
  TwigStackEngine engine(store_.get(), nullptr);
  auto result = engine.Execute(*pattern);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->docs, (std::vector<DocId>{0}));
  EXPECT_EQ(result->matches.size(), 1u);
}

TEST_F(TwigStackTest, RandomizedAgreement) {
  TagDictionary dict;
  Random rng(404);
  RandomDocOptions opts;
  opts.max_nodes = 25;
  std::vector<Document> docs = RandomCollection(rng, 40, &dict, opts);
  Build(docs);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    RandomTwigOptions twig_opts;
    twig_opts.descendant_prob = 0.4;
    TwigPattern pattern =
        RandomTwig(rng, docs[rng.Uniform(docs.size())], &dict, twig_opts);
    if (pattern.num_nodes() < 2) continue;
    ++checked;
    SCOPED_TRACE(TwigToString(pattern, dict));
    ExpectAgreesWithOracle(docs, pattern, dict);
  }
  EXPECT_GT(checked, 15);
}

TEST_F(TwigStackTest, ManyLabelsPackIntoFewPagesAndStillAgree) {
  // Hundreds of short streams (DBLP's values are labels): they share pages,
  // so the streams take no more pages than their entries fill.
  TagDictionary dict;
  Random rng(606);
  RandomDocOptions opts;
  opts.alphabet = 300;
  opts.value_alphabet = 500;
  std::vector<Document> docs = RandomCollection(rng, 250, &dict, opts);
  Build(docs);
  std::unordered_set<PageId> pages;
  uint64_t entries = 0;
  for (const auto& [label, info] : store_->streams()) {
    pages.insert(info.pages.begin(), info.pages.end());
    entries += info.count;
  }
  const uint64_t packed = (entries + StreamStore::kEntriesPerPage - 1) /
                          StreamStore::kEntriesPerPage;
  ASSERT_GT(store_->streams().size(), 10 * packed);
  EXPECT_LE(pages.size(), packed);
  EXPECT_EQ(store_->total_pages(), pages.size());
  EXPECT_EQ(store_->total_entries(), entries);

  int checked = 0;
  for (int trial = 0; trial < 30; ++trial) {
    RandomTwigOptions twig_opts;
    twig_opts.descendant_prob = 0.4;
    TwigPattern pattern =
        RandomTwig(rng, docs[rng.Uniform(docs.size())], &dict, twig_opts);
    if (pattern.num_nodes() < 2) continue;
    ++checked;
    SCOPED_TRACE(TwigToString(pattern, dict));
    ExpectAgreesWithOracle(docs, pattern, dict);
  }
  EXPECT_GT(checked, 10);
}

TEST_F(TwigStackTest, XbSkipsElements) {
  // A selective branch should let TwigStackXB touch fewer elements than
  // plain TwigStack.
  TagDictionary dict;
  std::vector<Document> docs;
  for (DocId d = 0; d < 400; ++d) {
    // Rare tag appears in two distant documents only.
    if (d == 13 || d == 390) {
      docs.push_back(DocFromSexp("(a (rare) (b (c)))", d, &dict));
    } else {
      docs.push_back(DocFromSexp("(a (b (c)) (b (c)) (b))", d, &dict));
    }
  }
  Build(docs);
  auto pattern = ParseXPath("//a[./rare]/b", &dict);
  ASSERT_TRUE(pattern.ok());
  TwigStackEngine plain(store_.get(), nullptr);
  TwigStackEngine xb(store_.get(), forest_.get());
  auto r1 = plain.Execute(*pattern);
  auto r2 = xb.Execute(*pattern);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->matches, r2->matches);
  EXPECT_EQ(r1->docs, (std::vector<DocId>{13, 390}));
  EXPECT_LT(r2->stats.elements_processed, r1->stats.elements_processed);
  ExpectAgreesWithOracle(docs, *pattern, dict);
}

TEST_F(TwigStackTest, StarQueriesRejected) {
  TagDictionary dict;
  std::vector<Document> docs;
  docs.push_back(DocFromSexp("(a (b))", 0, &dict));
  Build(docs);
  auto pattern = ParseXPath("//a/*", &dict);
  TwigStackEngine engine(store_.get(), nullptr);
  EXPECT_EQ(engine.Execute(*pattern).status().code(),
            StatusCode::kNotImplemented);
}

TEST_F(TwigStackTest, ExactAnchor) {
  TagDictionary dict;
  std::vector<Document> docs;
  docs.push_back(DocFromSexp("(a (a (b)))", 0, &dict));
  Build(docs);
  auto pattern = ParseXPath("/a/a/b", &dict);
  ASSERT_TRUE(pattern.ok());
  ExpectAgreesWithOracle(docs, *pattern, dict);
}

TEST_F(TwigStackTest, MatchesOracleOnRandomPaths) {
  TagDictionary dict;
  Random rng(505);
  std::vector<Document> docs = RandomCollection(rng, 30, &dict);
  Build(docs);
  int checked = 0;
  for (int trial = 0; trial < 30; ++trial) {
    RandomTwigOptions twig_opts;
    twig_opts.descendant_prob = 0.3;
    twig_opts.max_nodes = 4;
    TwigPattern pattern =
        RandomTwig(rng, docs[rng.Uniform(docs.size())], &dict, twig_opts);
    // Keep only path-shaped patterns.
    bool is_path = true;
    for (uint32_t i = 0; i < pattern.num_nodes(); ++i) {
      is_path &= pattern.node(i).children.size() <= 1;
    }
    if (!is_path || pattern.num_nodes() < 2) continue;
    ++checked;
    SCOPED_TRACE(TwigToString(pattern, dict));
    TwigStackEngine ts(store_.get(), nullptr);
    auto result = ts.Execute(pattern);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EffectiveTwig twig = EffectiveTwig::Build(pattern);
    auto expected =
        NaiveMatchCollection(docs, twig, MatchSemantics::kStandard);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(result->matches, expected);
  }
  EXPECT_GT(checked, 5);
}

}  // namespace
}  // namespace prix
