#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "query/twig_pattern.h"
#include "query/twig_prufer.h"
#include "query/xpath_parser.h"
#include "testutil/mutate.h"
#include "xml/document.h"
#include "xml/tag_dictionary.h"

namespace prix {
namespace {

TEST(XPathParserTest, SimplePath) {
  TagDictionary dict;
  auto twig = ParseXPath("//a/b/c", &dict);
  ASSERT_TRUE(twig.ok()) << twig.status().ToString();
  ASSERT_EQ(twig->num_nodes(), 3u);
  EXPECT_EQ(dict.Name(twig->node(0).label), "a");
  EXPECT_EQ(twig->node(0).axis, Axis::kDescendant);
  EXPECT_EQ(twig->node(1).axis, Axis::kChild);
  EXPECT_EQ(twig->node(1).parent, 0u);
  EXPECT_EQ(twig->node(2).parent, 1u);
}

TEST(XPathParserTest, PaperQ1) {
  TagDictionary dict;
  auto twig = ParseXPath(
      R"(//inproceedings[./author="Jim Gray"][./year="1990"])", &dict);
  ASSERT_TRUE(twig.ok()) << twig.status().ToString();
  // inproceedings, author, "Jim Gray", year, "1990"
  ASSERT_EQ(twig->num_nodes(), 5u);
  const auto& root = twig->node(0);
  ASSERT_EQ(root.children.size(), 2u);
  const auto& author = twig->node(root.children[0]);
  EXPECT_EQ(dict.Name(author.label), "author");
  ASSERT_EQ(author.children.size(), 1u);
  const auto& gray = twig->node(author.children[0]);
  EXPECT_TRUE(gray.is_value);
  EXPECT_EQ(dict.Name(gray.label), "Jim Gray");
  EXPECT_TRUE(twig->HasValue());
  EXPECT_FALSE(twig->HasWildcard());
}

TEST(XPathParserTest, PaperQ3TextPredicate) {
  TagDictionary dict;
  auto twig = ParseXPath(R"(//title[text()="Semantic Analysis Patterns"])",
                         &dict);
  ASSERT_TRUE(twig.ok()) << twig.status().ToString();
  ASSERT_EQ(twig->num_nodes(), 2u);
  EXPECT_TRUE(twig->node(1).is_value);
  EXPECT_EQ(dict.Name(twig->node(1).label), "Semantic Analysis Patterns");
}

TEST(XPathParserTest, PaperQ6MixedAxes) {
  TagDictionary dict;
  auto twig = ParseXPath(
      R"(//Entry[./Org="Piroplasmida"][.//Author]//from)", &dict);
  ASSERT_TRUE(twig.ok()) << twig.status().ToString();
  ASSERT_EQ(twig->num_nodes(), 5u);
  const auto& root = twig->node(0);
  ASSERT_EQ(root.children.size(), 3u);
  EXPECT_EQ(twig->node(root.children[1]).axis, Axis::kDescendant);
  EXPECT_EQ(dict.Name(twig->node(root.children[1]).label), "Author");
  EXPECT_EQ(dict.Name(twig->node(root.children[2]).label), "from");
  EXPECT_EQ(twig->node(root.children[2]).axis, Axis::kDescendant);
  EXPECT_TRUE(twig->HasWildcard());
}

TEST(XPathParserTest, PaperQ7DoubleDescendant) {
  TagDictionary dict;
  auto twig = ParseXPath("//S//NP/SYM", &dict);
  ASSERT_TRUE(twig.ok());
  ASSERT_EQ(twig->num_nodes(), 3u);
  EXPECT_EQ(twig->node(1).axis, Axis::kDescendant);
  EXPECT_EQ(twig->node(2).axis, Axis::kChild);
}

TEST(XPathParserTest, StarAndRootAnchor) {
  TagDictionary dict;
  auto twig = ParseXPath("/dblp/*/title", &dict);
  ASSERT_TRUE(twig.ok());
  EXPECT_EQ(twig->node(0).axis, Axis::kChild);  // exact anchor
  EXPECT_TRUE(twig->node(1).is_star);
  EXPECT_TRUE(twig->HasWildcard());
}

TEST(XPathParserTest, AttributeNameTest) {
  TagDictionary dict;
  auto twig = ParseXPath(R"(//www[./@href="x"])", &dict);
  ASSERT_TRUE(twig.ok());
  EXPECT_EQ(dict.Name(twig->node(1).label), "@href");
}

TEST(XPathParserTest, Errors) {
  TagDictionary dict;
  EXPECT_FALSE(ParseXPath("", &dict).ok());
  EXPECT_FALSE(ParseXPath("a/b", &dict).ok());      // missing leading axis
  EXPECT_FALSE(ParseXPath("//a[", &dict).ok());     // unterminated predicate
  EXPECT_FALSE(ParseXPath("//a[./b=\"x]", &dict).ok());  // bad string
  EXPECT_FALSE(ParseXPath("//a[b]", &dict).ok());   // predicate must start .
}

TEST(XPathParserTest, WhitespaceInsidePredicates) {
  TagDictionary dict;
  auto spaced = ParseXPath(
      R"(//inproceedings[ ./author = "Jim Gray" ][ ./year = "1990" ])", &dict);
  ASSERT_TRUE(spaced.ok()) << spaced.status().ToString();
  auto tight = ParseXPath(
      R"(//inproceedings[./author="Jim Gray"][./year="1990"])", &dict);
  ASSERT_TRUE(tight.ok());
  // Whitespace must not change the parsed twig.
  ASSERT_EQ(spaced->num_nodes(), tight->num_nodes());
  for (uint32_t i = 0; i < spaced->num_nodes(); ++i) {
    EXPECT_EQ(spaced->node(i).label, tight->node(i).label) << "node " << i;
    EXPECT_EQ(spaced->node(i).axis, tight->node(i).axis) << "node " << i;
    EXPECT_EQ(spaced->node(i).is_value, tight->node(i).is_value)
        << "node " << i;
  }
  // Quoted values keep their whitespace verbatim.
  bool saw_value = false;
  for (uint32_t i = 0; i < spaced->num_nodes(); ++i) {
    if (dict.Name(spaced->node(i).label) == "Jim Gray") saw_value = true;
  }
  EXPECT_TRUE(saw_value);
}

TEST(XPathParserTest, WhitespaceAroundStepsAndTextPredicate) {
  TagDictionary dict;
  auto twig = ParseXPath("  //a / b [ text() = \"v\" ]  ", &dict);
  ASSERT_TRUE(twig.ok()) << twig.status().ToString();
  ASSERT_EQ(twig->num_nodes(), 3u);
  EXPECT_EQ(dict.Name(twig->node(0).label), "a");
  EXPECT_EQ(dict.Name(twig->node(1).label), "b");
  EXPECT_TRUE(twig->node(2).is_value);
  EXPECT_EQ(dict.Name(twig->node(2).label), "v");
}

TEST(XPathParserTest, SingleQuotedLiterals) {
  TagDictionary dict;
  auto twig = ParseXPath(R"(//inproceedings[./author='Jim "JG" Gray'])",
                         &dict);
  ASSERT_TRUE(twig.ok()) << twig.status().ToString();
  ASSERT_EQ(twig->num_nodes(), 3u);
  EXPECT_TRUE(twig->node(2).is_value);
  // Double quotes inside a single-quoted literal are plain characters.
  EXPECT_EQ(dict.Name(twig->node(2).label), "Jim \"JG\" Gray");

  auto text_pred = ParseXPath("//title[text()='Semantic']", &dict);
  ASSERT_TRUE(text_pred.ok()) << text_pred.status().ToString();
  EXPECT_EQ(dict.Name(text_pred->node(1).label), "Semantic");
}

TEST(XPathParserTest, ErrorsReportOffendingOffset) {
  TagDictionary dict;
  // "b" at offset 4 starts a predicate without '.' or 'text()'.
  auto no_dot = ParseXPath("//a[b]", &dict);
  ASSERT_FALSE(no_dot.ok());
  EXPECT_NE(no_dot.status().ToString().find("at offset 4"), std::string::npos)
      << no_dot.status().ToString();
  // The unterminated string is reported at its opening quote (offset 8),
  // not at end-of-input.
  auto unterminated = ParseXPath("//a[./b=\"x]", &dict);
  ASSERT_FALSE(unterminated.ok());
  EXPECT_NE(unterminated.status().ToString().find("unterminated string"),
            std::string::npos);
  EXPECT_NE(unterminated.status().ToString().find("at offset 8"),
            std::string::npos)
      << unterminated.status().ToString();
  // Mismatched quote styles do not terminate each other.
  EXPECT_FALSE(ParseXPath("//a[./b='x\"]", &dict).ok());
  // After skipping leading whitespace, the axis error points at 'a'.
  auto no_axis = ParseXPath("  a/b", &dict);
  ASSERT_FALSE(no_axis.ok());
  EXPECT_NE(no_axis.status().ToString().find("at offset 2"),
            std::string::npos)
      << no_axis.status().ToString();
}

TEST(XPathParserTest, NestingBeyondDocumentDepthIsRefused) {
  // "//a" and `levels` nested "[./a" predicates. 100,000 levels (500 KB,
  // one kQuery frame) overflowed an 8 MB stack when the parser recursed per
  // level; a twig deeper than any accepted document is now refused.
  auto nested = [](size_t levels) {
    std::string xpath = "//a";
    for (size_t i = 0; i < levels; ++i) xpath += "[./a";
    return xpath + std::string(levels, ']');
  };
  TagDictionary dict;
  auto at_limit = ParseXPath(nested(kMaxDocumentDepth), &dict);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_EQ(at_limit->num_nodes(), kMaxDocumentDepth + 1u);
  for (size_t levels : {size_t{kMaxDocumentDepth} + 1, size_t{100000}}) {
    auto deeper = ParseXPath(nested(levels), &dict);
    ASSERT_FALSE(deeper.ok()) << levels;
    EXPECT_EQ(deeper.status().code(), StatusCode::kParseError);
    EXPECT_NE(deeper.status().ToString().find("nested deeper than"),
              std::string::npos)
        << deeper.status().ToString().substr(0, 200);
    // The message quotes a window around the offset, not the whole query.
    EXPECT_LT(deeper.status().ToString().size(), 256u)
        << deeper.status().ToString().substr(0, 200);
  }
}

TEST(XPathParserTest, MutatedQueriesParseOrFailWithATypedStatus) {
  // Seeded byte-mutation sweep over the grammar's constructs (both axes,
  // '*', nested and chained predicates, both quote styles, text()): every
  // mutant parses to a well-formed twig — node 0 the only root, every
  // other node a child of an earlier one, values only at leaves — or fails
  // with ParseError.
  const char* seeds[] = {
      "//A[./B[./C]]/D[./E[./F]]",
      "/dblp/inproceedings[./author=\"Jim Gray\"][./year='1990']//title",
      "//a//*[.//b/c][.//d/e]",
      "//title[text()='Semantic']",
      "  //S[ ./NP/* ]//VP[./PP[./NN]]  ",
  };
  Random rng(20261018);
  size_t parsed = 0, refused = 0;
  for (const char* seed : seeds) {
    for (int m = 0; m < 4000; ++m) {
      const std::string text =
          testutil::MutateBytes(rng, seed, "/[].=*'\" ()text");
      TagDictionary dict;
      auto twig = ParseXPath(text, &dict);
      if (!twig.ok()) {
        ++refused;
        ASSERT_EQ(twig.status().code(), StatusCode::kParseError)
            << twig.status().ToString() << " for " << text;
        ASSERT_FALSE(twig.status().message().empty());
        continue;
      }
      ++parsed;
      ASSERT_GT(twig->num_nodes(), 0u) << text;
      ASSERT_EQ(twig->node(0).parent, TwigPattern::kNoParent) << text;
      for (uint32_t id = 1; id < twig->num_nodes(); ++id) {
        const TwigPattern::Node& node = twig->node(id);
        ASSERT_LT(node.parent, id) << text;
        ASSERT_FALSE(twig->node(node.parent).is_value) << text;
      }
    }
  }
  // Both outcomes must occur, or the sweep tests nothing.
  EXPECT_GT(parsed, 500u);
  EXPECT_GT(refused, 500u);
}

TEST(EffectiveTwigTest, PlainChildQueryIsExact) {
  TagDictionary dict;
  auto pattern = ParseXPath("//a/b[./c]", &dict);
  ASSERT_TRUE(pattern.ok());
  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  EXPECT_EQ(twig.num_nodes(), 3u);
  EXPECT_FALSE(twig.NeedsGeneralizedMatching());
  EXPECT_EQ(twig.root_anchor(), (EdgeSpec{0, false}));
}

TEST(EffectiveTwigTest, StarFoldsIntoEdge) {
  TagDictionary dict;
  auto pattern = ParseXPath("//a/*/c", &dict);
  ASSERT_TRUE(pattern.ok());
  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  // a and c remain; the edge requires exactly 2 hops.
  ASSERT_EQ(twig.num_nodes(), 2u);
  EXPECT_EQ(dict.Name(twig.node(1).label), "c");
  EXPECT_EQ(twig.node(1).edge, (EdgeSpec{2, true}));
  EXPECT_TRUE(twig.NeedsGeneralizedMatching());
}

TEST(EffectiveTwigTest, DescendantStarCombination) {
  TagDictionary dict;
  auto pattern = ParseXPath("//a//*/c", &dict);
  ASSERT_TRUE(pattern.ok());
  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  ASSERT_EQ(twig.num_nodes(), 2u);
  EXPECT_EQ(twig.node(1).edge, (EdgeSpec{2, false}));
}

TEST(EffectiveTwigTest, TrailingStarKeptAsNode) {
  TagDictionary dict;
  auto pattern = ParseXPath("//a/*", &dict);
  ASSERT_TRUE(pattern.ok());
  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  ASSERT_EQ(twig.num_nodes(), 2u);
  EXPECT_TRUE(twig.is_star(1));
}

TEST(EffectiveTwigTest, ExactAnchorDetected) {
  TagDictionary dict;
  auto pattern = ParseXPath("/dblp/article", &dict);
  ASSERT_TRUE(pattern.ok());
  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  EXPECT_EQ(twig.root_anchor(), (EdgeSpec{0, true}));
  EXPECT_TRUE(twig.NeedsGeneralizedMatching());
}

TEST(EffectiveTwigTest, PostorderOverBranches) {
  TagDictionary dict;
  auto pattern = ParseXPath("//a[./b][./c]/d", &dict);
  ASSERT_TRUE(pattern.ok());
  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  auto post = twig.ComputePostorder();
  // children order: b, c, d; postorder: b=1 c=2 d=3 a=4.
  EXPECT_EQ(post[twig.root()], 4u);
  auto inv = twig.PostorderInverse();
  EXPECT_EQ(dict.Name(twig.node(inv[1]).label), "b");
  EXPECT_EQ(dict.Name(twig.node(inv[3]).label), "d");
}

TEST(QuerySequenceTest, MatchesPaperExample2) {
  // Q of Figure 2(b): A with branches B(C) and D(E(F)).
  TagDictionary dict;
  auto pattern = ParseXPath("//A[./B[./C]]/D[./E[./F]]", &dict);
  ASSERT_TRUE(pattern.ok());
  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  auto qseq = BuildQuerySequence(twig, /*extended=*/false);
  ASSERT_TRUE(qseq.ok()) << qseq.status().ToString();
  std::vector<std::string> lps;
  for (LabelId l : qseq->lps) lps.push_back(dict.Name(l));
  EXPECT_EQ(lps, (std::vector<std::string>{"B", "A", "E", "D", "A"}));
  EXPECT_EQ(qseq->nps, (std::vector<uint32_t>{2, 6, 4, 5, 6}));
  // RP leaves: C (pos 1) and F (pos 3), as listed in Example 6.
  ASSERT_EQ(qseq->rp_leaves.size(), 2u);
  EXPECT_EQ(qseq->rp_leaves[0].position, 1u);
  EXPECT_EQ(dict.Name(qseq->rp_leaves[0].label), "C");
  EXPECT_EQ(qseq->rp_leaves[1].position, 3u);
  EXPECT_EQ(dict.Name(qseq->rp_leaves[1].label), "F");
}

TEST(QuerySequenceTest, ExtendedSequenceCoversAllLabels) {
  TagDictionary dict;
  auto pattern = ParseXPath("//a/b[./c]", &dict);
  ASSERT_TRUE(pattern.ok());
  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  auto qseq = BuildQuerySequence(twig, /*extended=*/true);
  ASSERT_TRUE(qseq.ok());
  // Extended tree: a(b(c(dummy))): 4 nodes, LPS = c b a.
  EXPECT_EQ(qseq->num_nodes, 4u);
  std::vector<std::string> lps;
  for (LabelId l : qseq->lps) lps.push_back(dict.Name(l));
  EXPECT_EQ(lps, (std::vector<std::string>{"c", "b", "a"}));
  EXPECT_TRUE(qseq->rp_leaves.empty());
}

TEST(QuerySequenceTest, ExtendedRejectsTrailingStar) {
  TagDictionary dict;
  auto pattern = ParseXPath("//a/*", &dict);
  ASSERT_TRUE(pattern.ok());
  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  EXPECT_FALSE(BuildQuerySequence(twig, /*extended=*/true).ok());
}

TEST(QuerySequenceTest, PruneRulesForBranchingQuery) {
  TagDictionary dict;
  auto pattern = ParseXPath("//a[./b][./c]", &dict);
  ASSERT_TRUE(pattern.ok());
  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  auto qseq = BuildQuerySequence(twig, false);
  ASSERT_TRUE(qseq.ok());
  // LPS = a a; positions 1,2 share the parent a.
  ASSERT_EQ(qseq->prune.size(), 2u);
  EXPECT_EQ(qseq->prune[1].kind, GapPruneRule::kSameParent);
  EXPECT_EQ(dict.Name(qseq->prune[1].label), "a");
}

TEST(QuerySequenceTest, PruneRuleChildEdge) {
  TagDictionary dict;
  auto pattern = ParseXPath("//a/b/c", &dict);
  ASSERT_TRUE(pattern.ok());
  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  auto qseq = BuildQuerySequence(twig, false);
  ASSERT_TRUE(qseq.ok());
  // LPS = b a: deletion 2 is node b itself -> child-edge rule on label b.
  ASSERT_EQ(qseq->prune.size(), 2u);
  EXPECT_EQ(qseq->prune[1].kind, GapPruneRule::kChildEdge);
  EXPECT_EQ(dict.Name(qseq->prune[1].label), "b");
}

TEST(QuerySequenceTest, NoChildEdgeRuleThroughDescendant) {
  TagDictionary dict;
  auto pattern = ParseXPath("//a//b/c", &dict);
  ASSERT_TRUE(pattern.ok());
  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  auto qseq = BuildQuerySequence(twig, false);
  ASSERT_TRUE(qseq.ok());
  EXPECT_EQ(qseq->prune[1].kind, GapPruneRule::kNone);
}

TEST(QuerySequenceTest, PruneRuleSemanticsMatchThePerNodeDefinitions) {
  // Hand-computed decisions for each rule after a node at level 10,
  // including the unsigned wrap (level < prev) that always prunes.
  const uint32_t prev = 10;
  const std::vector<uint32_t> levels = {10, 11, 12, 13, 14, 9, 5, 100};
  auto keeps = [&](GapPruneRule::Kind kind, uint32_t bound, bool gen) {
    const GapPruneRule rule{kind, kInvalidLabel};
    std::vector<bool> keep;
    for (uint32_t level : levels) {
      keep.push_back(!rule.Prunes(level, prev, bound, gen));
    }
    return keep;
  };
  using K = std::vector<bool>;
  // kSameParent, bound 2: keep gap <= 2 (levels 10..12); wraps prune.
  EXPECT_EQ(keeps(GapPruneRule::kSameParent, 2, false),
            (K{true, true, true, false, false, false, false, false}));
  // kChildEdge, bound 2: keep gap <= 3.
  EXPECT_EQ(keeps(GapPruneRule::kChildEdge, 2, false),
            (K{true, true, true, true, false, false, false, false}));
  // kAncestor, bound 3: prune gap >= 3, keep gap <= 2.
  EXPECT_EQ(keeps(GapPruneRule::kAncestor, 3, false),
            (K{true, true, true, false, false, false, false, false}));
  // kAncestor, bound 0: prunes everything...
  EXPECT_EQ(keeps(GapPruneRule::kAncestor, 0, false), K(levels.size(), false));
  // ...except the zero-gap node under generalized search.
  EXPECT_EQ(keeps(GapPruneRule::kAncestor, 0, true),
            (K{true, false, false, false, false, false, false, false}));
  // kNone keeps all.
  EXPECT_EQ(keeps(GapPruneRule::kNone, 0, false), K(levels.size(), true));
}

TEST(ArrangementsTest, TwoBranchesGiveTwoArrangements) {
  TagDictionary dict;
  auto pattern = ParseXPath("//a[./b][./c]", &dict);
  ASSERT_TRUE(pattern.ok());
  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  auto arr = EnumerateArrangements(twig, 100);
  ASSERT_TRUE(arr.ok());
  EXPECT_EQ(arr->size(), 2u);
}

TEST(ArrangementsTest, IdenticalBranchesDeduplicated) {
  TagDictionary dict;
  auto pattern = ParseXPath("//a[./b][./b]", &dict);
  ASSERT_TRUE(pattern.ok());
  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  auto arr = EnumerateArrangements(twig, 100);
  ASSERT_TRUE(arr.ok());
  EXPECT_EQ(arr->size(), 1u);
}

TEST(ArrangementsTest, LimitEnforced) {
  TagDictionary dict;
  // 8 distinct branches -> 8! = 40320 permutations.
  auto pattern = ParseXPath(
      "//a[./b][./c][./d][./e][./f][./g][./h][./i]", &dict);
  ASSERT_TRUE(pattern.ok());
  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  EXPECT_FALSE(EnumerateArrangements(twig, 1000).ok());
  auto arr = EnumerateArrangements(twig, 50000);
  ASSERT_TRUE(arr.ok());
  EXPECT_EQ(arr->size(), 40320u);
}

TEST(ArrangementsTest, NodeIdsStableAcrossArrangements) {
  TagDictionary dict;
  auto pattern = ParseXPath("//a[./b][./c]", &dict);
  ASSERT_TRUE(pattern.ok());
  EffectiveTwig twig = EffectiveTwig::Build(*pattern);
  auto arr = EnumerateArrangements(twig, 100);
  ASSERT_TRUE(arr.ok());
  for (const EffectiveTwig& a : *arr) {
    EXPECT_EQ(a.node(1).label, twig.node(1).label);
    EXPECT_EQ(a.node(2).label, twig.node(2).label);
  }
}

TEST(TwigToStringTest, Renders) {
  TagDictionary dict;
  auto pattern = ParseXPath("//a[./b=\"x\"]//c", &dict);
  ASSERT_TRUE(pattern.ok());
  std::string s = TwigToString(*pattern, dict);
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("x"), std::string::npos);
}

}  // namespace
}  // namespace prix
