#include "trie/trie_builder.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/random.h"
#include "trie/dynamic_trie.h"
#include "trie/range_labeler.h"

namespace prix {
namespace {

std::vector<std::vector<LabelId>> SampleSequences() {
  return {
      {1, 2, 3},
      {1, 2, 4},
      {1, 2, 3},  // duplicate path, second doc
      {1, 5},
      {6},
  };
}

SequenceTrie BuildSample() {
  SequenceTrie trie;
  auto seqs = SampleSequences();
  for (DocId d = 0; d < seqs.size(); ++d) trie.Insert(seqs[d], d);
  return trie;
}

/// The persisted node entries of an exact-labeled trie, as a bulk build
/// writes them (node ids ascend in insertion order; the root is virtual).
std::vector<DynTrieEntry> ExactEntries(const SequenceTrie& trie,
                                       const std::vector<RangeLabel>& labels) {
  std::vector<DynTrieEntry> ents;
  for (uint32_t v = 1; v < trie.num_nodes(); ++v) {
    ents.push_back(DynTrieEntry{trie.node(v).key, labels[v].left,
                                labels[v].right, trie.node(v).depth});
  }
  return ents;
}

TEST(SequenceTrieTest, SharedPrefixesShareNodes) {
  SequenceTrie trie = BuildSample();
  // root + {1,2,3,4,5,6} = 7 nodes.
  EXPECT_EQ(trie.num_nodes(), 7u);
  EXPECT_EQ(trie.MaxDepth(), 3u);
}

TEST(SequenceTrieTest, CountsAndEndDocs) {
  SequenceTrie trie = BuildSample();
  // Node for label 1 at depth 1 has 4 sequences through it.
  uint32_t n1 = trie.node(trie.root()).children.at(1);
  EXPECT_EQ(trie.node(n1).seqs_through, 4u);
  uint32_t n2 = trie.node(n1).children.at(2);
  uint32_t n3 = trie.node(n2).children.at(3);
  ASSERT_EQ(trie.node(n3).end_docs.size(), 2u);
  EXPECT_EQ(trie.node(n3).end_docs[0], 0u);
  EXPECT_EQ(trie.node(n3).end_docs[1], 2u);
}

TEST(SequenceTrieTest, SortedChildrenOrderedByKey) {
  SequenceTrie trie = BuildSample();
  auto kids = trie.SortedChildren(trie.root());
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(trie.node(kids[0]).key, 1u);
  EXPECT_EQ(trie.node(kids[1]).key, 6u);
  // 64-bit keys (ViST's (symbol << 32) | prefix) sort as 64-bit values.
  SequenceTrie wide;
  wide.Insert(std::vector<uint64_t>{(uint64_t{2} << 32) | 1}, 0);
  wide.Insert(std::vector<uint64_t>{(uint64_t{1} << 32) | 9}, 1);
  auto wide_kids = wide.SortedChildren(wide.root());
  ASSERT_EQ(wide_kids.size(), 2u);
  EXPECT_EQ(wide.node(wide_kids[0]).key, (uint64_t{1} << 32) | 9);
}

TEST(SequenceTrieTest, DepthEqualsSequencePosition) {
  SequenceTrie trie = BuildSample();
  uint32_t n1 = trie.node(trie.root()).children.at(1);
  uint32_t n2 = trie.node(n1).children.at(2);
  uint32_t n4 = trie.node(n2).children.at(4);
  EXPECT_EQ(trie.node(n1).depth, 1u);
  EXPECT_EQ(trie.node(n2).depth, 2u);
  EXPECT_EQ(trie.node(n4).depth, 3u);
}

TEST(RangeLabelerTest, ExactLabelsArePreorderRanksAndReInit) {
  SequenceTrie trie = BuildSample();
  auto labels = LabelTrieExact(trie);
  // Root covers every node; left is the preorder rank in key order.
  EXPECT_EQ(labels[trie.root()], (RangeLabel{1, trie.num_nodes()}));
  EXPECT_EQ(labels[1], (RangeLabel{2, 6}));  // key 1: {1,2,3,4,5}
  EXPECT_EQ(labels[6], (RangeLabel{7, 7}));  // key 6
  DynamicTrie mirror;
  EXPECT_TRUE(mirror
                  .Init(ExactEntries(trie, labels), labels[0].left,
                        labels[0].right)
                  .ok());
}

TEST(RangeLabelerTest, InitRefusesBrokenLabels) {
  SequenceTrie trie = BuildSample();
  auto labels = LabelTrieExact(trie);
  const RangeLabel root = labels[trie.root()];
  auto refused = [&](const std::vector<RangeLabel>& broken) {
    DynamicTrie mirror;
    Status st = mirror.Init(ExactEntries(trie, broken), root.left, root.right);
    return st.code() == StatusCode::kCorruption ? st.ToString() : std::string();
  };
  // Node ids follow insertion: 1 {1}, 2 {1,2}, 3 {1,2,3}, 4 {1,2,4}.
  auto escapes = labels;
  escapes[3].right = escapes[2].right + 1;  // leaves its parent's range
  EXPECT_NE(refused(escapes).find("escapes its parent"), std::string::npos);
  auto overlaps = labels;
  overlaps[3].right = overlaps[4].left;  // swallows its sibling
  EXPECT_NE(refused(overlaps).find("level"), std::string::npos);
  auto shared = labels;
  shared[4].left = shared[3].left;  // two nodes at one LeftPos
  EXPECT_NE(refused(shared).find("share one LeftPos"), std::string::npos);
  auto outside = labels;
  outside[6].right = root.right + 100;
  EXPECT_NE(refused(outside).find("root scope"), std::string::npos);
}

// ------------------------------------------------------------ DynamicTrie

/// An Ops that keeps the persisted image of a DynamicTrie — every node and
/// Docid entry its calls leave behind — and refuses any call that a
/// B+-tree would see as inserting a present key or deleting an absent one.
struct RecordingOps {
  std::map<uint64_t, DynTrieEntry> nodes;  ///< by LeftPos
  std::map<std::pair<uint64_t, uint32_t>, DocId> docs;
  uint64_t root_left = 0;
  uint64_t root_right = 0;

  Status InsertNode(uint64_t ckey, uint64_t left, uint64_t right,
                    uint32_t level) {
    if (!nodes.emplace(left, DynTrieEntry{ckey, left, right, level}).second) {
      return Status::Internal("node entry inserted twice");
    }
    return Status::OK();
  }
  Status DeleteNode(uint64_t ckey, uint64_t left) {
    auto it = nodes.find(left);
    if (it == nodes.end() || it->second.ckey != ckey) {
      return Status::Internal("deleting an absent node entry");
    }
    nodes.erase(it);
    return Status::OK();
  }
  Status InsertDoc(uint64_t left, uint32_t seq, DocId doc) {
    if (!docs.emplace(std::make_pair(left, seq), doc).second) {
      return Status::Internal("Docid entry inserted twice");
    }
    return Status::OK();
  }
  Status DeleteDoc(uint64_t left, uint32_t seq) {
    if (docs.erase(std::make_pair(left, seq)) != 1) {
      return Status::Internal("deleting an absent Docid entry");
    }
    return Status::OK();
  }
  void SetRootRange(uint64_t left, uint64_t right) {
    root_left = left;
    root_right = right;
  }
};

/// Root-to-node key path of every entry, recovered from range nesting
/// alone, mapped to the node's LeftPos. Entries must nest (Init checks).
std::map<std::vector<uint64_t>, uint64_t> PathsByNesting(
    const std::map<uint64_t, DynTrieEntry>& nodes) {
  std::map<std::vector<uint64_t>, uint64_t> paths;
  std::vector<uint64_t> open_rights;
  std::vector<uint64_t> path;
  for (const auto& [left, e] : nodes) {
    while (!open_rights.empty() && left > open_rights.back()) {
      open_rights.pop_back();
      path.pop_back();
    }
    open_rights.push_back(e.right);
    path.push_back(e.ckey);
    paths.emplace(path, left);
  }
  return paths;
}

/// Every root-to-node key path of `trie`.
std::set<std::vector<uint64_t>> TriePaths(const SequenceTrie& trie) {
  std::vector<std::vector<uint64_t>> by_id(trie.num_nodes());
  std::set<std::vector<uint64_t>> paths;
  for (uint32_t v = 1; v < trie.num_nodes(); ++v) {  // parents precede kids
    by_id[v] = by_id[trie.node(v).parent];
    by_id[v].push_back(trie.node(v).key);
    paths.insert(by_id[v]);
  }
  return paths;
}

struct DynParam {
  uint64_t seed;
  size_t alphabet;
  size_t max_length;
  bool packed;  ///< ViST-shaped keys: (symbol << 32) | prefix
};

class DynamicTrieGridTest : public ::testing::TestWithParam<DynParam> {
 protected:
  std::vector<std::vector<uint64_t>> Sequences() const {
    const DynParam& param = GetParam();
    Random rng(param.seed);
    std::vector<std::vector<uint64_t>> seqs(240);
    for (auto& seq : seqs) {
      seq.resize(1 + rng.Uniform(param.max_length));
      for (uint64_t& key : seq) {
        const uint64_t label = rng.Uniform(param.alphabet);
        key = param.packed ? (label << 32) | (label * 7 % 5) : label;
      }
    }
    return seqs;
  }

  /// Bulk-builds the first `bulk` sequences exact-labeled, inserts the rest
  /// one at a time through DynamicTrie, and checks the persisted image
  /// against a SequenceTrie of all of them.
  void BuildThenInsert(size_t bulk) {
    const std::vector<std::vector<uint64_t>> seqs = Sequences();
    SequenceTrie base;
    for (DocId d = 0; d < bulk; ++d) base.Insert(seqs[d], d);
    const std::vector<RangeLabel> labels = LabelTrieExact(base);

    RecordingOps ops;
    ops.SetRootRange(labels[0].left, labels[0].right);
    const std::vector<DynTrieEntry> bulk_ents = ExactEntries(base, labels);
    for (const DynTrieEntry& e : bulk_ents) ops.nodes.emplace(e.left, e);
    DynamicTrie trie;
    ASSERT_TRUE(trie.Init(bulk_ents, labels[0].left, labels[0].right).ok());
    uint32_t seq_no = 0;
    for (uint32_t v = 0; v < base.num_nodes(); ++v) {
      for (DocId d : base.node(v).end_docs) {
        ops.docs.emplace(std::make_pair(labels[v].left, seq_no), d);
        ASSERT_TRUE(trie.AddDocKey(d, labels[v].left, seq_no++).ok());
      }
    }

    for (DocId d = bulk; d < seqs.size(); ++d) {
      auto end_left = trie.InsertPath(seqs[d], ops);
      ASSERT_TRUE(end_left.ok()) << end_left.status().ToString();
      auto key = trie.InsertDocEntry(*end_left, d, ops);
      ASSERT_TRUE(key.ok()) << key.status().ToString();
    }
    SequenceTrie all;
    for (DocId d = 0; d < seqs.size(); ++d) all.Insert(seqs[d], d);
    // Exact labels leave no slack: the first new node relabels.
    ASSERT_GT(all.num_nodes(), base.num_nodes()) << "no insert adds a node";
    EXPECT_GE(trie.relabels(), 1u);
    EXPECT_EQ(ops.root_left, trie.root_left());
    EXPECT_EQ(ops.root_right, trie.root_right());

    // The recorded entries re-Init cleanly: containment, distinct LeftPos,
    // levels and sibling keys all hold.
    std::vector<DynTrieEntry> ents;
    for (const auto& [left, e] : ops.nodes) ents.push_back(e);
    DynamicTrie reopened;
    Status st = reopened.Init(ents, ops.root_left, ops.root_right);
    ASSERT_TRUE(st.ok()) << st.ToString();

    // The ranges nest exactly like a trie of the same sequences.
    const auto paths = PathsByNesting(ops.nodes);
    const std::set<std::vector<uint64_t>> expected = TriePaths(all);
    ASSERT_EQ(paths.size(), expected.size());
    for (const auto& [path, left] : paths) {
      EXPECT_TRUE(expected.count(path)) << "path of length " << path.size();
    }

    // Every document's Docid key sits at the end node of its sequence.
    ASSERT_EQ(ops.docs.size(), seqs.size());
    std::map<DocId, uint64_t> doc_left;
    for (const auto& [key, doc] : ops.docs) {
      EXPECT_TRUE(doc_left.emplace(doc, key.first).second) << "doc " << doc;
      EXPECT_TRUE(reopened.AddDocKey(doc, key.first, key.second).ok());
    }
    for (DocId d = 0; d < seqs.size(); ++d) {
      EXPECT_EQ(doc_left[d], paths.at(seqs[d])) << "doc " << d;
    }
  }
};

TEST_P(DynamicTrieGridTest, InsertsFromEmpty) { BuildThenInsert(0); }

TEST_P(DynamicTrieGridTest, InsertsAfterExactBulkBuildOfHalf) {
  BuildThenInsert(120);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, DynamicTrieGridTest,
    ::testing::Values(DynParam{1, 2, 10, false}, DynParam{2, 8, 12, false},
                      DynParam{3, 64, 6, false}, DynParam{4, 1000, 3, false},
                      DynParam{5, 4, 40, false}, DynParam{6, 300, 20, true}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_sigma" +
             std::to_string(info.param.alphabet) + "_len" +
             std::to_string(info.param.max_length) +
             (info.param.packed ? "_packed" : "");
    });

}  // namespace
}  // namespace prix
