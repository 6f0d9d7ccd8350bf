#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

#include "datagen/dblp_gen.h"
#include "naive/naive_matcher.h"
#include "prix/prix_index.h"
#include "prix/query_processor.h"
#include "query/xpath_parser.h"
#include "testutil/occurrences.h"
#include "testutil/temp_db.h"
#include "testutil/tree_gen.h"

namespace prix {
namespace {

using testutil::DocFromSexp;
using testutil::ListOccurrences;
using testutil::Occurrence;
using testutil::RandomCollection;
using testutil::RandomDocument;
using testutil::RandomDocOptions;
using testutil::RandomTwig;
using testutil::RandomTwigOptions;
using testutil::WithoutValueAnchors;

std::vector<TwigMatch> SortedMatches(std::vector<TwigMatch> m) {
  std::sort(m.begin(), m.end());
  return m;
}

/// Oracle: union over arrangements of ordered matches == unordered
/// semantics for PRIX (see DESIGN.md); for direct comparison we use the
/// appropriate MatchSemantics per options.
std::vector<TwigMatch> Oracle(const std::vector<Document>& docs,
                              const TwigPattern& pattern,
                              MatchSemantics semantics) {
  EffectiveTwig twig = EffectiveTwig::Build(pattern);
  if (semantics == MatchSemantics::kOrdered) {
    return SortedMatches(NaiveMatchCollection(docs, twig, semantics));
  }
  // Unordered-injective via arrangement union, mirroring Sec. 5.7.
  auto arrangements = EnumerateArrangements(twig, 1u << 20);
  EXPECT_TRUE(arrangements.ok());
  std::set<TwigMatch> all;
  for (const auto& arr : *arrangements) {
    for (auto& m :
         NaiveMatchCollection(docs, arr, MatchSemantics::kOrdered)) {
      all.insert(std::move(m));
    }
  }
  return {all.begin(), all.end()};
}

class PrixE2eTest : public ::testing::Test {
 protected:
  void BuildIndexes(const std::vector<Document>& docs) {
    auto rp = PrixIndex::Build(docs, db_.pool(), PrixIndexOptions{});
    ASSERT_TRUE(rp.ok()) << rp.status().ToString();
    rp_ = std::move(*rp);
    PrixIndexOptions ep_opts;
    ep_opts.extended = true;
    auto ep = PrixIndex::Build(docs, db_.pool(), ep_opts);
    ASSERT_TRUE(ep.ok()) << ep.status().ToString();
    ep_ = std::move(*ep);
  }

  /// Asserts PRIX(results) == oracle for the given pattern under every
  /// combination of index choice and MaxGap setting.
  void ExpectAgreesWithOracle(const std::vector<Document>& docs,
                              const TwigPattern& pattern,
                              MatchSemantics semantics,
                              const TagDictionary& dict) {
    auto expected = Oracle(docs, pattern, semantics);
    QueryProcessor qp(db_.db(), rp_.get(), ep_.get());
    // EP sequences cannot express a trailing '*' (Sec. 5.6 limitation).
    EffectiveTwig eff = EffectiveTwig::Build(pattern);
    bool trailing_star = false;
    for (uint32_t e = 0; e < eff.num_nodes(); ++e) {
      trailing_star |= eff.is_star(e);
    }
    std::vector<QueryOptions::IndexChoice> choices = {
        QueryOptions::IndexChoice::kRegular};
    if (!trailing_star) choices.push_back(QueryOptions::IndexChoice::kExtended);
    for (auto index_choice : choices) {
      for (bool maxgap : {true, false}) {
        QueryOptions options;
        options.semantics = semantics;
        options.index = index_choice;
        options.use_maxgap = maxgap;
        auto result = qp.Execute(pattern, options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(SortedMatches(result->matches), expected)
            << "query " << TwigToString(pattern, dict) << " index "
            << static_cast<int>(index_choice) << " maxgap " << maxgap
            << ": got " << result->matches.size() << " expected "
            << expected.size();
      }
    }
  }

  testutil::TempDb db_;
  std::unique_ptr<PrixIndex> rp_;
  std::unique_ptr<PrixIndex> ep_;
};

TEST_F(PrixE2eTest, PaperFigure2EndToEnd) {
  TagDictionary dict;
  std::vector<Document> docs;
  docs.push_back(DocFromSexp(
      "(A (H) (B (C (D)) (C (D) (E))) (C (G)) (D (E (G) (F) (F))))", 0,
      &dict));
  BuildIndexes(docs);
  auto pattern = ParseXPath("//A[./B[./C]]/D[./E[./F]]", &dict);
  ASSERT_TRUE(pattern.ok());
  ExpectAgreesWithOracle(docs, *pattern, MatchSemantics::kOrdered, dict);
  // Known result: 4 ordered embeddings (C in {3,6} x F in {11,12}).
  QueryProcessor qp(db_.db(), rp_.get(), ep_.get());
  auto result = qp.Execute(*pattern);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->matches.size(), 4u);
  EXPECT_EQ(result->docs, (std::vector<DocId>{0}));
}

TEST_F(PrixE2eTest, ValueQueryUsesExtendedIndexByDefault) {
  TagDictionary dict;
  std::vector<Document> docs;
  docs.push_back(
      DocFromSexp("(book (author (=Jim)) (year (=1990)))", 0, &dict));
  docs.push_back(
      DocFromSexp("(book (author (=Ann)) (year (=1990)))", 1, &dict));
  BuildIndexes(docs);
  QueryProcessor qp(db_.db(), rp_.get(), ep_.get());
  auto pattern =
      ParseXPath("//book[./author=\"Jim\"][./year=\"1990\"]", &dict);
  ASSERT_TRUE(pattern.ok());
  auto result = qp.Execute(*pattern);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.used_extended_index);
  EXPECT_EQ(result->docs, (std::vector<DocId>{0}));
  ExpectAgreesWithOracle(docs, *pattern, MatchSemantics::kOrdered, dict);
}

TEST_F(PrixE2eTest, NoFalseAlarmsOnVistFigure1Scenario) {
  // The ViST false-alarm case (Fig. 1(b)): Doc2 embeds Q's labels in the
  // right preorder but not the right structure; PRIX must return only Doc1.
  TagDictionary dict;
  std::vector<Document> docs;
  docs.push_back(DocFromSexp("(P (Q) (R))", 0, &dict));
  docs.push_back(DocFromSexp("(P (x (Q)) (y (R)))", 1, &dict));
  BuildIndexes(docs);
  QueryProcessor qp(db_.db(), rp_.get(), ep_.get());
  auto pattern = ParseXPath("//P[./Q][./R]", &dict);
  ASSERT_TRUE(pattern.ok());
  auto result = qp.Execute(*pattern);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->docs, (std::vector<DocId>{0}));
}

TEST_F(PrixE2eTest, SingleNodeQueryVerifiesEveryLiveDocument) {
  TagDictionary dict;
  std::vector<Document> docs;
  docs.push_back(DocFromSexp("(a (b) (b (a)))", 0, &dict));
  docs.push_back(DocFromSexp("(c (d))", 1, &dict));
  BuildIndexes(docs);
  QueryProcessor qp(db_.db(), rp_.get(), ep_.get());
  auto pattern = ParseXPath("//a", &dict);
  ASSERT_TRUE(pattern.ok());
  auto result = qp.Execute(*pattern);
  ASSERT_TRUE(result.ok());
  // No sequence to match: every live document is verified.
  EXPECT_EQ(result->stats.docs_verified, docs.size());
  EXPECT_EQ(result->stats.matcher.range_queries, 0u);
  EXPECT_EQ(result->matches.size(), 2u);
  EXPECT_EQ(result->docs, (std::vector<DocId>{0}));
  // A leaf-only label is still found (b at depth 1 and internal b).
  auto pb = ParseXPath("//b", &dict);
  auto rb = qp.Execute(*pb);
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb->matches.size(), 2u);
}

TEST_F(PrixE2eTest, UnorderedFindsSwappedBranches) {
  TagDictionary dict;
  std::vector<Document> docs;
  docs.push_back(DocFromSexp("(a (c) (b))", 0, &dict));
  BuildIndexes(docs);
  QueryProcessor qp(db_.db(), rp_.get(), ep_.get());
  auto pattern = ParseXPath("//a[./b][./c]", &dict);
  ASSERT_TRUE(pattern.ok());
  QueryOptions ordered;
  auto r1 = qp.Execute(*pattern, ordered);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->matches.empty());
  QueryOptions unordered;
  unordered.semantics = MatchSemantics::kUnorderedInjective;
  auto r2 = qp.Execute(*pattern, unordered);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->matches.size(), 1u);
  ExpectAgreesWithOracle(docs, *pattern, MatchSemantics::kUnorderedInjective,
                         dict);
}

TEST_F(PrixE2eTest, WildcardQueriesOnPaperTree) {
  TagDictionary dict;
  std::vector<Document> docs;
  docs.push_back(DocFromSexp(
      "(A (H) (B (C (D)) (C (D) (E))) (C (G)) (D (E (G) (F) (F))))", 0,
      &dict));
  BuildIndexes(docs);
  for (const char* xpath :
       {"//A//C", "//A//F", "//B/*", "//A/*/C", "//A//E/F", "//D//G",
        "/A/B//D", "//A/*/*"}) {
    SCOPED_TRACE(xpath);
    auto pattern = ParseXPath(xpath, &dict);
    ASSERT_TRUE(pattern.ok());
    ExpectAgreesWithOracle(docs, *pattern, MatchSemantics::kOrdered, dict);
  }
}

TEST_F(PrixE2eTest, RandomizedAgreementExactQueries) {
  TagDictionary dict;
  Random rng(1001);
  RandomDocOptions doc_opts;
  doc_opts.max_nodes = 30;
  std::vector<Document> docs = RandomCollection(rng, 60, &dict, doc_opts);
  BuildIndexes(docs);
  int checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Document& doc = docs[rng.Uniform(docs.size())];
    RandomTwigOptions twig_opts;
    TwigPattern pattern = RandomTwig(rng, doc, &dict, twig_opts);
    if (pattern.num_nodes() < 2) continue;
    ++checked;
    SCOPED_TRACE(TwigToString(pattern, dict));
    ExpectAgreesWithOracle(docs, pattern, MatchSemantics::kOrdered, dict);
  }
  EXPECT_GT(checked, 20);
}

TEST_F(PrixE2eTest, RandomizedAgreementThroughCatalogReopen) {
  // The same agreement property over indexes that went to disk and came
  // back: saved, the environment reopened with a cold pool, and reopened
  // through the catalog, so every leaf is decoded from its page bytes.
  TagDictionary dict;
  Random rng(7007);
  RandomDocOptions doc_opts;
  doc_opts.max_nodes = 30;
  std::vector<Document> docs = RandomCollection(rng, 60, &dict, doc_opts);
  BuildIndexes(docs);
  ASSERT_TRUE(rp_->Save(&db_.db(), "rp").ok());
  ASSERT_TRUE(ep_->Save(&db_.db(), "ep").ok());
  rp_.reset();
  ep_.reset();
  ASSERT_TRUE(db_.Reopen().ok());
  auto rp = PrixIndex::Open(&db_.db(), "rp");
  auto ep = PrixIndex::Open(&db_.db(), "ep");
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();
  ASSERT_TRUE(ep.ok()) << ep.status().ToString();
  rp_ = std::move(*rp);
  ep_ = std::move(*ep);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Document& doc = docs[rng.Uniform(docs.size())];
    TwigPattern pattern = RandomTwig(rng, doc, &dict);
    if (pattern.num_nodes() < 2) continue;
    ++checked;
    SCOPED_TRACE(TwigToString(pattern, dict));
    ExpectAgreesWithOracle(docs, pattern, MatchSemantics::kOrdered, dict);
  }
  EXPECT_GT(checked, 15);
}

TEST_F(PrixE2eTest, RandomizedAgreementWildcardQueries) {
  TagDictionary dict;
  Random rng(2002);
  RandomDocOptions doc_opts;
  doc_opts.max_nodes = 25;
  doc_opts.alphabet = 5;
  std::vector<Document> docs = RandomCollection(rng, 40, &dict, doc_opts);
  BuildIndexes(docs);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Document& doc = docs[rng.Uniform(docs.size())];
    RandomTwigOptions twig_opts;
    twig_opts.descendant_prob = 0.5;
    twig_opts.star_prob = 0.15;
    TwigPattern pattern = RandomTwig(rng, doc, &dict, twig_opts);
    if (pattern.num_nodes() < 2) continue;
    EffectiveTwig twig = EffectiveTwig::Build(pattern);
    if (twig.num_nodes() < 2) continue;
    ++checked;
    SCOPED_TRACE(TwigToString(pattern, dict));
    ExpectAgreesWithOracle(docs, pattern, MatchSemantics::kOrdered, dict);
  }
  EXPECT_GT(checked, 15);
}

TEST_F(PrixE2eTest, RandomizedAgreementUnordered) {
  TagDictionary dict;
  Random rng(3003);
  RandomDocOptions doc_opts;
  doc_opts.max_nodes = 20;
  std::vector<Document> docs = RandomCollection(rng, 30, &dict, doc_opts);
  BuildIndexes(docs);
  int checked = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const Document& doc = docs[rng.Uniform(docs.size())];
    RandomTwigOptions twig_opts;
    twig_opts.max_nodes = 5;
    TwigPattern pattern = RandomTwig(rng, doc, &dict, twig_opts);
    if (pattern.num_nodes() < 2 || pattern.num_nodes() > 5) continue;
    ++checked;
    SCOPED_TRACE(TwigToString(pattern, dict));
    ExpectAgreesWithOracle(docs, pattern,
                           MatchSemantics::kUnorderedInjective, dict);
  }
  EXPECT_GT(checked, 8);
}

TEST_F(PrixE2eTest, InsertedDocumentsGiveSameAnswers) {
  // Bulk-build half the collection, exact-labeled, then insert the rest one
  // at a time: the insert labeler (DynamicTrie) relabels and spreads the
  // ranges, and both indexes must still answer like the oracle.
  TagDictionary dict;
  Random rng(4004);
  std::vector<Document> docs = RandomCollection(rng, 40, &dict);
  const std::vector<Document> half(docs.begin(), docs.begin() + 20);
  BuildIndexes(half);
  ASSERT_TRUE(rp_->Save(&db_.db(), "rp").ok());
  ASSERT_TRUE(ep_->Save(&db_.db(), "ep").ok());
  for (size_t d = half.size(); d < docs.size(); ++d) {
    for (const char* name : {"rp", "ep"}) {
      auto id = db_->InsertDocument(name, docs[d]);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_EQ(*id, d);
    }
  }
  auto rp = PrixIndex::Open(&db_.db(), "rp");
  auto ep = PrixIndex::Open(&db_.db(), "ep");
  ASSERT_TRUE(rp.ok() && ep.ok());
  rp_ = std::move(*rp);
  ep_ = std::move(*ep);
  for (int trial = 0; trial < 20; ++trial) {
    const Document& doc = docs[rng.Uniform(docs.size())];
    TwigPattern pattern = RandomTwig(rng, doc, &dict);
    if (pattern.num_nodes() < 2) continue;
    SCOPED_TRACE(TwigToString(pattern, dict));
    ExpectAgreesWithOracle(docs, pattern, MatchSemantics::kOrdered, dict);
  }
}

TEST_F(PrixE2eTest, BackwardProbesFromSameLabelNestingMatchTheOracle) {
  // Same-label nesting makes a query depth probe backward: once an outer
  // tag0 has driven the next depth's cursor through its whole scope, the
  // tag0 nested inside it probes that depth again from a smaller key. The
  // hand-written documents nest tag0 directly; the random chains over two
  // labels add enough trie nodes for multi-leaf trees, where a backward
  // probe leaves the cursor's leaf and descends from the root.
  TagDictionary dict;
  std::vector<Document> docs;
  for (const char* sexp : {"(tag0 (tag0 (tag1) (tag0 (tag1))))",
                           "(tag0 (tag0 (tag0 (tag1)) (tag1)) (tag1))",
                           "(tag0 (tag1 (tag0 (tag1 (tag0)))))"}) {
    docs.push_back(DocFromSexp(sexp, static_cast<DocId>(docs.size()), &dict));
  }
  Random rng(6006);
  RandomDocOptions deep;
  deep.max_nodes = 24;
  deep.alphabet = 2;
  deep.value_leaf_prob = 0.1;
  deep.deep_bias = 0.9;
  while (docs.size() < 400) {
    docs.push_back(RandomDocument(rng, static_cast<DocId>(docs.size()), &dict,
                                  deep));
  }
  BuildIndexes(docs);
  ASSERT_GE(ep_->symbol_index().height(), 2u) << "want a multi-leaf tree";
  for (const char* xpath :
       {"//tag0//tag0//tag1", "//tag0/tag0/tag1", "//tag0//tag0//tag0",
        "//tag0[./tag0]//tag1", "//tag0//tag1//tag0", "//tag0/tag0//tag0"}) {
    SCOPED_TRACE(xpath);
    auto pattern = ParseXPath(xpath, &dict);
    ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();
    ExpectAgreesWithOracle(docs, *pattern, MatchSemantics::kOrdered, dict);
  }
  RandomTwigOptions twig_opts;
  twig_opts.descendant_prob = 0.5;
  for (int trial = 0; trial < 20; ++trial) {
    TwigPattern pattern =
        RandomTwig(rng, docs[rng.Uniform(docs.size())], &dict, twig_opts);
    if (pattern.num_nodes() < 2) continue;
    SCOPED_TRACE(TwigToString(pattern, dict));
    ExpectAgreesWithOracle(docs, pattern, MatchSemantics::kOrdered, dict);
  }
}

TEST_F(PrixE2eTest, QueryWithUnknownLabelMatchesNothing) {
  TagDictionary dict;
  std::vector<Document> docs;
  docs.push_back(DocFromSexp("(a (b))", 0, &dict));
  BuildIndexes(docs);
  QueryProcessor qp(db_.db(), rp_.get(), ep_.get());
  auto pattern = ParseXPath("//a/zzz", &dict);
  ASSERT_TRUE(pattern.ok());
  auto result = qp.Execute(*pattern);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->matches.empty());
}

TEST_F(PrixE2eTest, StandardSemanticsRejected) {
  TagDictionary dict;
  std::vector<Document> docs;
  docs.push_back(DocFromSexp("(a (b))", 0, &dict));
  BuildIndexes(docs);
  QueryProcessor qp(db_.db(), rp_.get(), ep_.get());
  auto pattern = ParseXPath("//a/b", &dict);
  QueryOptions options;
  options.semantics = MatchSemantics::kStandard;
  EXPECT_FALSE(qp.Execute(*pattern, options).ok());
}

TEST_F(PrixE2eTest, SoundWildcardFilterCatchesSameSubtreeNesting) {
  // Two multi-node '//' branches whose only embedding nests inside ONE
  // child subtree of the common parent: the paper-style full-twig filter
  // misses it (no monotone subsequence witness); the sound spine filter
  // does not (DESIGN.md Sec. 5).
  TagDictionary dict;
  std::vector<Document> docs;
  docs.push_back(DocFromSexp("(a (z (b (c)) (d (e))))", 0, &dict));
  BuildIndexes(docs);
  QueryProcessor qp(db_.db(), rp_.get(), ep_.get());
  auto pattern = ParseXPath("//a[.//b/c][.//d/e]", &dict);
  ASSERT_TRUE(pattern.ok());
  QueryOptions sound;
  auto r1 = qp.Execute(*pattern, sound);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->matches.size(), 1u);
  QueryOptions paper;
  paper.wildcard_filter = QueryOptions::WildcardFilter::kFullTwig;
  auto r2 = qp.Execute(*pattern, paper);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->matches.empty())
      << "full-twig filtering unexpectedly found the nested embedding; "
         "update DESIGN.md if the matcher became complete";
}

TEST_F(PrixE2eTest, MaxGapPruningOnlyRemovesWork) {
  TagDictionary dict;
  Random rng(5005);
  std::vector<Document> docs = RandomCollection(rng, 50, &dict);
  BuildIndexes(docs);
  QueryProcessor qp(db_.db(), rp_.get(), ep_.get());
  for (int trial = 0; trial < 15; ++trial) {
    TwigPattern pattern =
        RandomTwig(rng, docs[rng.Uniform(docs.size())], &dict);
    if (pattern.num_nodes() < 2) continue;
    QueryOptions with, without;
    without.use_maxgap = false;
    auto r1 = qp.Execute(pattern, with);
    auto r2 = qp.Execute(pattern, without);
    ASSERT_TRUE(r1.ok() && r2.ok());
    EXPECT_EQ(SortedMatches(r1->matches), SortedMatches(r2->matches));
    EXPECT_LE(r1->stats.matcher.nodes_scanned + r1->stats.refine.candidates,
              r2->stats.matcher.nodes_scanned + r2->stats.refine.candidates);
  }
}

TEST_F(PrixE2eTest, ValueAnchorSkipsAuthorPathsWithoutTheYear) {
  // A two-value twig on the most frequent author: depth 0 scans every
  // trie node of that author, and the anchor on the year keeps only those
  // whose subtree holds the year, so most of them issue no range query.
  datagen::DblpConfig config;
  config.num_records = 3000;
  DocumentCollection coll = datagen::GenerateDblp(config);
  const std::vector<Document>& docs = coll.documents;
  TagDictionary& dict = coll.dictionary;
  BuildIndexes(docs);
  const LabelId author_tag = dict.Find("author");
  const LabelId year_tag = dict.Find("year");
  const LabelId article_tag = dict.Find("article");
  auto value_of = [](const Document& doc, NodeId element) {
    return doc.label(doc.children(element)[0]);
  };
  std::map<LabelId, size_t> frequency;
  for (const Document& doc : docs) {
    for (NodeId c : doc.children(doc.root())) {
      if (doc.label(c) == author_tag) ++frequency[value_of(doc, c)];
    }
  }
  const LabelId author =
      std::max_element(frequency.begin(), frequency.end(),
                       [](const auto& a, const auto& b) {
                         return a.second < b.second;
                       })->first;
  LabelId year = kInvalidLabel;
  for (const Document& doc : docs) {
    if (doc.label(doc.root()) != article_tag) continue;
    bool by_author = false;
    for (NodeId c : doc.children(doc.root())) {
      by_author |= doc.label(c) == author_tag && value_of(doc, c) == author;
      if (by_author && doc.label(c) == year_tag) year = value_of(doc, c);
    }
    if (year != kInvalidLabel) break;
  }
  ASSERT_NE(year, kInvalidLabel);
  auto pattern = ParseXPath("//article[./author=\"" + dict.Name(author) +
                                "\"][./year=\"" + dict.Name(year) + "\"]",
                            &dict);
  ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();
  ExpectAgreesWithOracle(docs, *pattern, MatchSemantics::kOrdered, dict);

  uint64_t author_nodes = 0;
  PrixIndex::SymbolTree::Iterator it(ep_->symbol_index());
  ASSERT_TRUE(it.Reseek(SymbolKey{author, 0, 0}).ok());
  while (it.Valid() && it.key().label == author) {
    ++author_nodes;
    ASSERT_TRUE(it.Next().ok());
  }
  QueryProcessor qp(db_.db(), rp_.get(), ep_.get());
  auto result = qp.Execute(*pattern);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->stats.used_extended_index);
  EXPECT_FALSE(result->docs.empty());
  EXPECT_GT(result->stats.matcher.pruned_by_anchor, 0u);
  EXPECT_LT(result->stats.matcher.range_queries, author_nodes)
      << dict.Name(author) << " has " << author_nodes << " trie nodes";
}

TEST_F(PrixE2eTest, AnchorOnATagNamedValueKeepsBothEnds) {
  // A value equal to a tag name: every position of the EP sequence of
  // //b[./b][.//b="b"] is the label b, and depth 0's anchor is the value at
  // position 2. On (b (=x)) the one b node is a trie leaf, so its LeftPos
  // equals its RightPos, and a generalized descent may repeat a position:
  // all five positions land on that node. The anchor must search
  // [left, right], closed at both ends, to keep the occurrence that the
  // unanchored descent emits (refinement then rejects it).
  TagDictionary dict;
  std::vector<Document> docs;
  docs.push_back(DocFromSexp("(b (=x))", 0, &dict));
  docs.push_back(DocFromSexp("(b (b) (c (b (=b))))", 1, &dict));
  BuildIndexes(docs);
  auto pattern = ParseXPath("//b[./b][.//b=\"b\"]", &dict);
  ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();
  ExpectAgreesWithOracle(docs, *pattern, MatchSemantics::kOrdered, dict);

  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  ASSERT_TRUE(twig.NeedsGeneralizedMatching());
  auto qseq = BuildQuerySequence(twig, /*extended=*/true);
  ASSERT_TRUE(qseq.ok());
  ASSERT_EQ(qseq->is_value, (std::vector<bool>{false, false, true, false,
                                               false}));
  MatcherStats anchored_stats, plain_stats;
  auto anchored = ListOccurrences(*ep_, *qseq, /*use_maxgap=*/true,
                                  /*generalized=*/true, &anchored_stats);
  auto plain = ListOccurrences(*ep_, WithoutValueAnchors(*qseq),
                               /*use_maxgap=*/true, /*generalized=*/true,
                               &plain_stats);
  ASSERT_TRUE(anchored.ok() && plain.ok());
  EXPECT_EQ(*anchored, *plain);
  const Occurrence coincident{{0}, {2, 2, 2, 2, 2}};
  EXPECT_NE(std::find(plain->begin(), plain->end(), coincident), plain->end());
}

}  // namespace
}  // namespace prix
