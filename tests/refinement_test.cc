#include "prix/refinement.h"

#include <gtest/gtest.h>

#include "prufer/prufer.h"
#include "testutil/tree_gen.h"

namespace prix {
namespace {

using testutil::DocFromSexp;

/// Figure 2(a) as a RefinableDoc.
RefinableDoc Figure2Doc(TagDictionary* dict) {
  Document t = DocFromSexp(
      "(A (H) (B (C (D)) (C (D) (E))) (C (G)) (D (E (G) (F) (F))))", 0, dict);
  StoredDoc stored;
  stored.seq = BuildPruferSequences(t);
  stored.leaves = CollectLeaves(t);
  return RefinableDoc::Make(std::move(stored), /*extended=*/false);
}

TEST(RefinableDocTest, LabelTableRecoversEveryNode) {
  TagDictionary dict;
  RefinableDoc doc = Figure2Doc(&dict);
  ASSERT_EQ(doc.num_nodes(), 15u);
  EXPECT_EQ(dict.Name(doc.label_of[15]), "A");
  EXPECT_EQ(dict.Name(doc.label_of[7]), "B");
  EXPECT_EQ(dict.Name(doc.label_of[3]), "C");   // internal, via LPS/NPS
  EXPECT_EQ(dict.Name(doc.label_of[2]), "D");   // leaf, via leaf list
  EXPECT_EQ(dict.Name(doc.label_of[12]), "F");
  for (uint32_t v = 1; v <= 15; ++v) {
    EXPECT_NE(doc.label_of[v], kInvalidLabel) << "node " << v;
  }
}

TEST(RefinementTest, PaperExample3ConnectednessRejectsSA) {
  // S_A = C B C E D at positions (2,3,8,10,13): N_A = 3 7 9 13 14.
  // The last occurrence of 7 is not followed by NPS[7] = 15 -> disconnected.
  TagDictionary dict;
  RefinableDoc doc = Figure2Doc(&dict);
  EXPECT_FALSE(
      CheckConnectedness(doc, {2, 3, 8, 10, 13}, /*generalized=*/false));
}

TEST(RefinementTest, PaperExample3ConnectednessAcceptsSB) {
  // S_B = C B A C A E D A at positions (2,3,7,8,9,11,13,14):
  // N_B = 3 7 15 9 15 13 14 15 forms a tree.
  TagDictionary dict;
  RefinableDoc doc = Figure2Doc(&dict);
  EXPECT_TRUE(CheckConnectedness(doc, {2, 3, 7, 8, 9, 11, 13, 14},
                                 /*generalized=*/false));
}

TEST(RefinementTest, GeneralizedConnectednessFollowsParentChain) {
  // Example 7: LPS(Q) = C A matches at positions (2, 7): N = (3, 15).
  // Exact connectedness fails (NPS[3] = 7, not 15) but the parent chain
  // 3 -> 7 -> 15 reaches 15.
  TagDictionary dict;
  RefinableDoc doc = Figure2Doc(&dict);
  EXPECT_FALSE(CheckConnectedness(doc, {2, 7}, /*generalized=*/false));
  EXPECT_TRUE(CheckConnectedness(doc, {2, 7}, /*generalized=*/true));
}

QuerySequence FakeQuery(std::vector<uint32_t> nps) {
  QuerySequence q;
  q.nps = std::move(nps);
  q.num_nodes = static_cast<uint32_t>(q.nps.size()) + 1;
  q.lps.resize(q.nps.size());
  return q;
}

TEST(RefinementTest, PaperExample4GapConsistency) {
  // S1 = B A E E A at positions (6,7,10,11,14): N_S1 = 7 15 13 13 15.
  // Query numbers N_S2 = 2 7 6 6 7 are gap consistent with S1.
  TagDictionary dict;
  RefinableDoc doc = Figure2Doc(&dict);
  QuerySequence q = FakeQuery({2, 7, 6, 6, 7});
  EXPECT_TRUE(CheckGapConsistency(doc, q, {6, 7, 10, 11, 14}));
}

TEST(RefinementTest, GapConsistencyRejectsLargerQueryGap) {
  // Query gap -8 against data gap -8 is fine; -9 is not.
  TagDictionary dict;
  RefinableDoc doc = Figure2Doc(&dict);
  // Data positions (6,7): N = 7, 15 -> gap -8.
  EXPECT_TRUE(CheckGapConsistency(doc, FakeQuery({2, 10}), {6, 7}));
  EXPECT_FALSE(CheckGapConsistency(doc, FakeQuery({2, 11}), {6, 7}));
}

TEST(RefinementTest, GapConsistencyRejectsSignFlip) {
  TagDictionary dict;
  RefinableDoc doc = Figure2Doc(&dict);
  // Data positions (10, 14): N = 13, 15 -> negative gap; query gap positive.
  EXPECT_FALSE(CheckGapConsistency(doc, FakeQuery({5, 3}), {10, 14}));
}

TEST(RefinementTest, GapConsistencyZeroMustMatch) {
  TagDictionary dict;
  RefinableDoc doc = Figure2Doc(&dict);
  // Data positions (10, 11): N = 13, 13 -> zero gap.
  EXPECT_TRUE(CheckGapConsistency(doc, FakeQuery({4, 4}), {10, 11}));
  EXPECT_FALSE(CheckGapConsistency(doc, FakeQuery({4, 5}), {10, 11}));
  // Non-zero data gap with zero query gap also fails.
  EXPECT_FALSE(CheckGapConsistency(doc, FakeQuery({4, 4}), {10, 14}));
}

TEST(RefinementTest, PaperExample5FrequencyConsistency) {
  TagDictionary dict;
  RefinableDoc doc = Figure2Doc(&dict);
  // S1 positions (6,7,10,11,14): N = 7 15 13 13 15; query 2 7 6 6 7 has the
  // same equality pattern.
  EXPECT_TRUE(
      CheckFrequencyConsistency(doc, FakeQuery({2, 7, 6, 6, 7}),
                                {6, 7, 10, 11, 14}));
  // Breaking one equality breaks consistency.
  EXPECT_FALSE(
      CheckFrequencyConsistency(doc, FakeQuery({2, 7, 6, 5, 7}),
                                {6, 7, 10, 11, 14}));
  EXPECT_FALSE(
      CheckFrequencyConsistency(doc, FakeQuery({2, 7, 6, 6, 6}),
                                {6, 7, 10, 11, 14}));
}

TEST(RefinementTest, ExtractImageMatchesExample6) {
  // Q = A[B[C]]/D[E[F]]; S at positions (3,7,11,13,14) maps C->3, B->7,
  // F->11, E->13, D->14, A->15 (Example 6).
  TagDictionary dict;
  RefinableDoc doc = Figure2Doc(&dict);
  QuerySequence q;
  q.num_nodes = 6;
  q.nps = {2, 6, 4, 5, 6};
  q.lps.resize(5);
  // Effective node ids a=0, b=1, c=2, d=3, e=4, f=5 with postorder
  // c=1 b=2 f=3 e=4 d=5 a=6.
  q.position_of_eff = {6, 2, 1, 5, 4, 3};
  std::vector<uint32_t> image =
      ExtractImage(doc, q, {3, 7, 11, 13, 14}, 6);
  EXPECT_EQ(image, (std::vector<uint32_t>{15, 7, 3, 14, 13, 11}));
}

TEST(RefinementTest, ExtendedDocBuildsOriginalArrays) {
  TagDictionary dict;
  Document doc = DocFromSexp("(a (b (c)) (d))", 0, &dict);
  Document ext = ExtendWithDummyLeaves(doc, kInvalidLabel - 1);
  StoredDoc stored;
  stored.seq = BuildPruferSequences(ext);
  RefinableDoc rdoc = RefinableDoc::Make(std::move(stored), true);
  std::vector<uint32_t> parent;
  std::vector<LabelId> label;
  uint32_t n = 0;
  BuildOriginalArrays(rdoc, true, &parent, &label, &n);
  ASSERT_EQ(n, 4u);
  // Original postorder: c=1 b=2 d=3 a=4.
  EXPECT_EQ(dict.Name(label[1]), "c");
  EXPECT_EQ(dict.Name(label[2]), "b");
  EXPECT_EQ(dict.Name(label[3]), "d");
  EXPECT_EQ(dict.Name(label[4]), "a");
  EXPECT_EQ(parent[1], 2u);
  EXPECT_EQ(parent[2], 4u);
  EXPECT_EQ(parent[3], 4u);
}

TEST(RefinementTest, RefineCandidateCountsPhases) {
  TagDictionary dict;
  RefinableDoc doc = Figure2Doc(&dict);
  RefineStats stats;
  // Example 2's occurrence: Q with NPS 2 6 4 5 6 at positions (6,7,11,13,14).
  QuerySequence q = FakeQuery({2, 6, 4, 5, 6});
  Result<bool> passed =
      RefineCandidate(doc, q, {6, 7, 11, 13, 14}, false, &stats);
  ASSERT_TRUE(passed.ok()) << passed.status().ToString();
  EXPECT_TRUE(*passed);
  EXPECT_EQ(stats.candidates, 1u);
  EXPECT_EQ(stats.passed, 1u);
  // A disconnected candidate is rejected and attributed to connectedness.
  QuerySequence q2 = FakeQuery({1, 2, 3, 4, 5});
  Result<bool> rejected =
      RefineCandidate(doc, q2, {2, 3, 8, 10, 13}, false, &stats);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_FALSE(*rejected);
  EXPECT_EQ(stats.failed_connectedness, 1u);
}

TEST(RefinementTest, OccurrencePastTheRecordIsCorruption) {
  // An empty record (the placeholder a lost document leaves) named by a
  // trie occurrence at positions (1, 2): the record has no LPS to index.
  RefinableDoc doc = RefinableDoc::Make(StoredDoc{}, /*extended=*/false);
  RefineStats stats;
  Result<bool> r =
      RefineCandidate(doc, FakeQuery({2, 3}), {1, 2}, false, &stats);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("0 node(s)"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("position 2"), std::string::npos)
      << r.status().ToString();
}

}  // namespace
}  // namespace prix
