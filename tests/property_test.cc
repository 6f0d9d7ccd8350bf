// Parameterized property sweeps across modules: each suite runs one
// invariant over a grid of seeds / shapes (gtest TEST_P).

#include <gtest/gtest.h>

#include <cstdlib>

#include "naive/naive_matcher.h"
#include "prix/prix_index.h"
#include "prix/query_processor.h"
#include "prufer/prufer.h"
#include "query/twig_prufer.h"
#include "testutil/occurrences.h"
#include "testutil/temp_db.h"
#include "testutil/tree_gen.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace prix {
namespace {

using testutil::ListOccurrences;
using testutil::RandomCollection;
using testutil::RandomDocOptions;
using testutil::RandomDocument;
using testutil::RandomTwig;
using testutil::RandomTwigOptions;
using testutil::WithoutValueAnchors;

// ---------------------------------------------------------------- Prüfer

struct TreeShape {
  uint64_t seed;
  size_t max_nodes;
  double deep_bias;  // 1.0 = chains, 0.0 = stars
};

class PruferPropertyTest : public ::testing::TestWithParam<TreeShape> {};

TEST_P(PruferPropertyTest, SimulationMatchesLemma1) {
  TagDictionary dict;
  Random rng(GetParam().seed);
  RandomDocOptions opts;
  opts.max_nodes = GetParam().max_nodes;
  opts.deep_bias = GetParam().deep_bias;
  for (int trial = 0; trial < 40; ++trial) {
    Document doc = RandomDocument(rng, 0, &dict, opts);
    EXPECT_EQ(BuildPruferSequences(doc), BuildPruferSequencesBySimulation(doc));
  }
}

TEST_P(PruferPropertyTest, ReconstructionIsInverse) {
  TagDictionary dict;
  Random rng(GetParam().seed ^ 0xabcdef);
  RandomDocOptions opts;
  opts.max_nodes = GetParam().max_nodes;
  opts.deep_bias = GetParam().deep_bias;
  for (int trial = 0; trial < 40; ++trial) {
    Document doc = RandomDocument(rng, 0, &dict, opts);
    PruferSequences seq = BuildPruferSequences(doc);
    auto leaves = CollectLeaves(doc);
    auto rebuilt = ReconstructTree(seq, leaves);
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ(BuildPruferSequences(*rebuilt), seq);
  }
}

TEST_P(PruferPropertyTest, ExtendedSequencesContainEveryLabelOccurrence) {
  TagDictionary dict;
  Random rng(GetParam().seed ^ 0x1234);
  RandomDocOptions opts;
  opts.max_nodes = GetParam().max_nodes;
  opts.deep_bias = GetParam().deep_bias;
  for (int trial = 0; trial < 20; ++trial) {
    Document doc = RandomDocument(rng, 0, &dict, opts);
    Document ext = ExtendWithDummyLeaves(doc, kDummyLabel);
    PruferSequences seq = BuildPruferSequences(ext);
    // Multiset equality: every non-root original node contributes its
    // parent's label once; extended sequences additionally record every
    // original node's own label exactly once (via its first deletion).
    std::multiset<LabelId> in_seq(seq.lps.begin(), seq.lps.end());
    std::multiset<LabelId> expected;
    for (NodeId v = 0; v < doc.num_nodes(); ++v) {
      size_t copies = doc.children(v).size() + (doc.is_leaf(v) ? 1 : 0);
      for (size_t i = 0; i < copies; ++i) expected.insert(doc.label(v));
    }
    EXPECT_EQ(in_seq, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PruferPropertyTest,
    ::testing::Values(TreeShape{1, 8, 0.5}, TreeShape{2, 40, 0.5},
                      TreeShape{3, 40, 0.95}, TreeShape{4, 40, 0.05},
                      TreeShape{5, 200, 0.5}, TreeShape{6, 200, 0.9}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.max_nodes) + "_bias" +
             std::to_string(static_cast<int>(info.param.deep_bias * 100));
    });

// ---------------------------------------------------------------- XML

class XmlRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

/// XML cannot represent two ADJACENT text children distinctly — they merge
/// into one character-data region on reparse. Canonicalize by concatenating
/// runs of adjacent value children (matching an unindented writer).
Document MergeAdjacentValues(const Document& doc, TagDictionary* dict) {
  Document out(doc.doc_id());
  struct Frame {
    NodeId src;
    NodeId dst;
    size_t child = 0;
  };
  std::vector<Frame> stack;
  stack.push_back(
      Frame{doc.root(), out.AddRoot(doc.label(doc.root()), doc.kind(doc.root()))});
  while (!stack.empty()) {
    Frame& f = stack.back();
    const auto& kids = doc.children(f.src);
    if (f.child >= kids.size()) {
      stack.pop_back();
      continue;
    }
    NodeId c = kids[f.child];
    if (doc.kind(c) == NodeKind::kValue) {
      std::string text = dict->Name(doc.label(c));
      ++f.child;
      while (f.child < kids.size() &&
             doc.kind(kids[f.child]) == NodeKind::kValue) {
        text += dict->Name(doc.label(kids[f.child]));
        ++f.child;
      }
      out.AddChild(f.dst, dict->Intern(text), NodeKind::kValue);
    } else {
      NodeId copied = out.AddChild(f.dst, doc.label(c), doc.kind(c));
      ++f.child;
      stack.push_back(Frame{c, copied});
    }
  }
  return out;
}

TEST_P(XmlRoundTripTest, WriteParseRoundTrip) {
  TagDictionary dict;
  Random rng(GetParam());
  RandomDocOptions opts;
  opts.max_nodes = 60;
  for (int trial = 0; trial < 25; ++trial) {
    Document doc = RandomDocument(rng, 7, &dict, opts);
    XmlWriteOptions write_opts;
    write_opts.indent = false;
    std::string xml = WriteXml(doc, dict, write_opts);
    auto reparsed = ParseXml(xml, &dict);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << xml;
    Document expected = MergeAdjacentValues(doc, &dict);
    // Compare as Prüfer sequences + leaves (stable under arena renumbering).
    EXPECT_EQ(BuildPruferSequences(*reparsed), BuildPruferSequences(expected))
        << xml;
    EXPECT_EQ(CollectLeaves(*reparsed), CollectLeaves(expected));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripTest,
                         ::testing::Values(11, 22, 33, 44));

// ------------------------------------------------------ end-to-end PRIX

struct E2eParam {
  uint64_t seed;
  double descendant_prob;
  double star_prob;
};

class PrixAgreementTest : public ::testing::TestWithParam<E2eParam> {
 protected:
  testutil::TempDb db_;
  std::unique_ptr<PrixIndex> rp_;
  std::unique_ptr<PrixIndex> ep_;
};

TEST_P(PrixAgreementTest, MatchesOracleUnderAllConfigurations) {
  const E2eParam& param = GetParam();
  TagDictionary dict;
  Random rng(param.seed);
  RandomDocOptions doc_opts;
  doc_opts.max_nodes = 24;
  doc_opts.alphabet = 5;
  std::vector<Document> docs = RandomCollection(rng, 35, &dict, doc_opts);

  PrixIndexOptions ep_opts;
  ep_opts.extended = true;
  auto rp = PrixIndex::Build(docs, db_.pool(), PrixIndexOptions{});
  auto ep = PrixIndex::Build(docs, db_.pool(), ep_opts);
  ASSERT_TRUE(rp.ok() && ep.ok());
  rp_ = std::move(*rp);
  ep_ = std::move(*ep);
  QueryProcessor qp(db_.db(), rp_.get(), ep_.get());

  int checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    RandomTwigOptions twig_opts;
    twig_opts.descendant_prob = param.descendant_prob;
    twig_opts.star_prob = param.star_prob;
    TwigPattern pattern =
        RandomTwig(rng, docs[rng.Uniform(docs.size())], &dict, twig_opts);
    if (pattern.num_nodes() < 2) continue;
    ++checked;
    SCOPED_TRACE(TwigToString(pattern, dict));
    EffectiveTwig twig = EffectiveTwig::Build(pattern);
    auto expected = NaiveMatchCollection(docs, twig, MatchSemantics::kOrdered);
    std::sort(expected.begin(), expected.end());
    bool trailing_star = false;
    for (uint32_t e = 0; e < twig.num_nodes(); ++e) {
      trailing_star |= twig.is_star(e);
    }
    for (auto choice : {QueryOptions::IndexChoice::kAuto,
                        QueryOptions::IndexChoice::kRegular,
                        QueryOptions::IndexChoice::kExtended}) {
      if (trailing_star && choice == QueryOptions::IndexChoice::kExtended) {
        continue;
      }
      QueryOptions options;
      options.index = choice;
      auto result = qp.Execute(pattern, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      auto got = result->matches;
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << "index choice "
                               << static_cast<int>(choice);
    }
  }
  EXPECT_GT(checked, 8);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, PrixAgreementTest,
    ::testing::Values(E2eParam{101, 0.0, 0.0}, E2eParam{102, 0.0, 0.0},
                      E2eParam{103, 0.4, 0.0}, E2eParam{104, 0.4, 0.2},
                      E2eParam{105, 0.8, 0.1}, E2eParam{106, 0.4, 0.2}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_desc" +
             std::to_string(static_cast<int>(info.param.descendant_prob *
                                             100)) +
             "_star" +
             std::to_string(static_cast<int>(info.param.star_prob * 100));
    });

// ------------------------------------------------- value-anchored descent

/// Carves a twig with `num_values` value leaves out of `doc`: a random
/// element with that many value descendants is the root, the chosen values
/// are leaves, and their parents and the root are kept. Each other node on
/// their root paths is dropped with `descendant_prob`, which makes the edge
/// below it '//', and a kept '/' edge becomes '//' with half that chance.
/// The twig keeps document order. Returns an empty pattern when `doc` has
/// no such element.
TwigPattern ValueTwig(Random& rng, const Document& doc, size_t num_values,
                      double descendant_prob) {
  std::vector<std::vector<NodeId>> values_below(doc.num_nodes());
  for (NodeId v = 0; v < doc.num_nodes(); ++v) {
    if (doc.kind(v) != NodeKind::kValue) continue;
    for (NodeId a = doc.parent(v);; a = doc.parent(a)) {
      values_below[a].push_back(v);
      if (a == doc.root()) break;
    }
  }
  std::vector<NodeId> roots;
  for (NodeId v = 0; v < doc.num_nodes(); ++v) {
    if (values_below[v].size() >= num_values) roots.push_back(v);
  }
  TwigPattern twig;
  if (roots.empty()) return twig;
  const NodeId root = roots[rng.Uniform(roots.size())];
  std::vector<NodeId> pool = values_below[root];
  std::vector<bool> keep(doc.num_nodes(), false);
  keep[root] = true;
  for (size_t k = 0; k < num_values; ++k) {
    std::swap(pool[k], pool[k + rng.Uniform(pool.size() - k)]);
    const NodeId value = pool[k];
    keep[value] = true;
    keep[doc.parent(value)] = true;
    for (NodeId a = doc.parent(value); a != root; a = doc.parent(a)) {
      keep[a] = keep[a] || !rng.Bernoulli(descendant_prob);
    }
  }
  // Preorder walk; `up` is the twig node of the nearest kept ancestor.
  struct Frame {
    NodeId node;
    uint32_t up;
  };
  std::vector<Frame> stack;
  auto push_children = [&](NodeId node, uint32_t up) {
    const auto& kids = doc.children(node);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back(Frame{*it, up});
    }
  };
  push_children(root, twig.AddRoot(doc.label(root), Axis::kDescendant));
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    uint32_t up = f.up;
    if (keep[f.node]) {
      const bool child_edge = keep[doc.parent(f.node)] &&
                              !rng.Bernoulli(descendant_prob / 2);
      up = twig.AddChild(f.up, doc.label(f.node),
                         child_edge ? Axis::kChild : Axis::kDescendant,
                         /*is_star=*/false,
                         doc.kind(f.node) == NodeKind::kValue);
    }
    push_children(f.node, up);
  }
  return twig;
}

struct AnchorParam {
  uint64_t seed;
  double descendant_prob;
  bool shared_names;  ///< values and tags draw from one set of labels
};

class ValueAnchorTest : public ::testing::TestWithParam<AnchorParam> {
 protected:
  testutil::TempDb db_;
};

/// Twigs with two or three value leaves over a small value alphabet, so
/// that values repeat and nest: PRIX agrees with the oracle, and the
/// anchored descent emits exactly the occurrences of the unanchored one.
TEST_P(ValueAnchorTest, AnchorsOnlySkipDeadSubtrees) {
  const AnchorParam& param = GetParam();
  TagDictionary dict;
  Random rng(param.seed);
  RandomDocOptions doc_opts;
  doc_opts.max_nodes = 30;
  doc_opts.alphabet = 5;
  doc_opts.value_alphabet = 3;
  doc_opts.value_leaf_prob = 0.4;
  doc_opts.deep_bias = 0.6;
  if (param.shared_names) doc_opts.value_prefix = "tag";
  std::vector<Document> docs = RandomCollection(rng, 40, &dict, doc_opts);

  PrixIndexOptions ep_opts;
  ep_opts.extended = true;
  auto rp = PrixIndex::Build(docs, db_.pool(), PrixIndexOptions{});
  auto ep = PrixIndex::Build(docs, db_.pool(), ep_opts);
  ASSERT_TRUE(rp.ok() && ep.ok());
  QueryProcessor qp(db_.db(), rp->get(), ep->get());

  int checked = 0;
  uint64_t pruned_by_anchor = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Document& doc = docs[rng.Uniform(docs.size())];
    TwigPattern pattern =
        ValueTwig(rng, doc, 2 + rng.Uniform(2), param.descendant_prob);
    if (pattern.empty()) continue;
    ++checked;
    SCOPED_TRACE(TwigToString(pattern, dict));
    EffectiveTwig twig = EffectiveTwig::Build(pattern);
    auto expected = NaiveMatchCollection(docs, twig, MatchSemantics::kOrdered);
    std::sort(expected.begin(), expected.end());
    for (auto choice : {QueryOptions::IndexChoice::kAuto,
                        QueryOptions::IndexChoice::kExtended}) {
      QueryOptions options;
      options.index = choice;
      auto result = qp.Execute(pattern, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      auto got = result->matches;
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << "index choice " << static_cast<int>(choice);
      pruned_by_anchor += result->stats.matcher.pruned_by_anchor;
    }
    // The whole twig's sequence, whatever filter Execute chose for it.
    auto qseq = BuildQuerySequence(twig, /*extended=*/true);
    ASSERT_TRUE(qseq.ok()) << qseq.status().ToString();
    const bool generalized = twig.NeedsGeneralizedMatching();
    MatcherStats anchored_stats, plain_stats;
    auto anchored = ListOccurrences(**ep, *qseq, generalized, &anchored_stats);
    auto plain = ListOccurrences(**ep, WithoutValueAnchors(*qseq), generalized,
                                 &plain_stats);
    ASSERT_TRUE(anchored.ok() && plain.ok());
    EXPECT_EQ(*anchored, *plain);
    EXPECT_EQ(plain_stats.pruned_by_anchor, 0u);
    EXPECT_LE(anchored_stats.range_queries, plain_stats.range_queries);
    pruned_by_anchor += anchored_stats.pruned_by_anchor;
  }
  EXPECT_GT(checked, 30);
  EXPECT_GT(pruned_by_anchor, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, ValueAnchorTest,
    ::testing::Values(AnchorParam{201, 0.0, false}, AnchorParam{202, 0.0, true},
                      AnchorParam{203, 0.4, true}, AnchorParam{204, 0.4, false},
                      AnchorParam{205, 0.7, false},
                      AnchorParam{206, 0.7, true}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_desc" +
             std::to_string(static_cast<int>(info.param.descendant_prob *
                                             100)) +
             (info.param.shared_names ? "_shared" : "_apart");
    });

}  // namespace
}  // namespace prix
