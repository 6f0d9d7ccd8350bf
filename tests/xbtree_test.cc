#include "twigstack/xb_tree.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "testutil/temp_db.h"
#include "testutil/tree_gen.h"

namespace prix {
namespace {

using testutil::RandomCollection;
using testutil::RandomDocOptions;

class XbTreeTest : public ::testing::Test {
 protected:
  XbTreeTest() : db_(Database::Options{.pool_pages = 512}) {}

  /// Builds streams over a collection big enough for multi-level XB-trees.
  LabelId BuildBigStream(size_t num_docs) {
    TagDictionary dict;
    Random rng(8);
    RandomDocOptions opts;
    opts.max_nodes = 30;
    opts.alphabet = 3;  // few labels -> long streams
    std::vector<Document> docs = RandomCollection(rng, num_docs, &dict, opts);
    auto store = StreamStore::Build(docs, db_.pool());
    EXPECT_TRUE(store.ok());
    store_ = std::move(*store);
    return dict.Find("tag0");
  }

  testutil::TempDb db_;
  std::unique_ptr<StreamStore> store_;
};

TEST_F(XbTreeTest, FullDrilldownScanEqualsStream) {
  LabelId label = BuildBigStream(2000);
  const auto* info = store_->Find(label);
  ASSERT_NE(info, nullptr);
  ASSERT_GT(info->count, StreamStore::kEntriesPerPage);  // multi-page
  auto tree = XbTree::Build(store_.get(), info);
  ASSERT_TRUE(tree.ok());
  EXPECT_GE((*tree)->levels().size(), 1u);

  // Walking with EnsureElement+Advance must enumerate exactly the stream.
  XbCursor cursor(tree->get());
  ASSERT_TRUE(cursor.Init().ok());
  SimpleStreamCursor plain(store_.get(), info);
  ASSERT_TRUE(plain.Init().ok());
  size_t count = 0;
  while (!cursor.Eof()) {
    ASSERT_TRUE(cursor.EnsureElement().ok());
    ASSERT_FALSE(plain.Eof());
    EXPECT_EQ(cursor.Current().BeginKey(), plain.Current().BeginKey());
    EXPECT_EQ(cursor.Current().EndKey(), plain.Current().EndKey());
    ++count;
    ASSERT_TRUE(cursor.Advance().ok());
    ASSERT_TRUE(plain.Advance().ok());
  }
  EXPECT_TRUE(plain.Eof());
  EXPECT_EQ(count, info->count);
}

TEST_F(XbTreeTest, InternalEntriesBoundTheirSubtrees) {
  LabelId label = BuildBigStream(2000);
  const auto* info = store_->Find(label);
  auto tree = XbTree::Build(store_.get(), info);
  ASSERT_TRUE(tree.ok());
  // At the root level, L is the subtree minimum begin and R the maximum
  // end: stepping down via DrillDown must never leave [L, R].
  XbCursor cursor(tree->get());
  ASSERT_TRUE(cursor.Init().ok());
  while (!cursor.Eof() && !cursor.AtLeafLevel()) {
    uint64_t l = cursor.NextL();
    uint64_t r = cursor.NextR();
    ASSERT_TRUE(cursor.DrillDown().ok());
    EXPECT_GE(cursor.NextL(), l);
    EXPECT_LE(cursor.NextR(), r);
    EXPECT_EQ(cursor.NextL(), l)  // first child shares the begin key
        << "drilldown must preserve the next begin position";
  }
}

TEST_F(XbTreeTest, AdvanceAtInternalLevelSkipsWholeSubtrees) {
  LabelId label = BuildBigStream(2000);
  const auto* info = store_->Find(label);
  auto tree = XbTree::Build(store_.get(), info);
  ASSERT_TRUE(tree.ok());
  XbCursor cursor(tree->get());
  ASSERT_TRUE(cursor.Init().ok());
  ASSERT_FALSE(cursor.AtLeafLevel());
  uint64_t first_l = cursor.NextL();
  ASSERT_TRUE(cursor.Advance().ok());
  if (!cursor.Eof()) {
    // The next internal entry starts at least a full page of entries later.
    EXPECT_GT(cursor.NextL(), first_l);
  }
}

TEST_F(XbTreeTest, EmptyStream) {
  auto tree = XbTree::Build(nullptr, nullptr);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE((*tree)->empty());
  XbCursor cursor(tree->get());
  ASSERT_TRUE(cursor.Init().ok());
  EXPECT_TRUE(cursor.Eof());
  EXPECT_EQ(cursor.NextL(), kInfiniteKey);
}

TEST_F(XbTreeTest, SinglePageStreamHasNoInternalLevels) {
  TagDictionary dict;
  std::vector<Document> docs;
  Document doc(0);
  doc.AddRoot(dict.Intern("only"));
  docs.push_back(std::move(doc));
  auto store = StreamStore::Build(docs, db_.pool());
  ASSERT_TRUE(store.ok());
  store_ = std::move(*store);
  const auto* info = store_->Find(dict.Find("only"));
  ASSERT_NE(info, nullptr);
  auto tree = XbTree::Build(store_.get(), info);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE((*tree)->levels().empty());
  XbCursor cursor(tree->get());
  ASSERT_TRUE(cursor.Init().ok());
  EXPECT_TRUE(cursor.AtLeafLevel());
  EXPECT_FALSE(cursor.Eof());
  ASSERT_TRUE(cursor.Advance().ok());
  EXPECT_TRUE(cursor.Eof());
}

TEST_F(XbTreeTest, StreamStartingMidPageReadsTheSameEveryWay) {
  // "head" (100 entries) is packed first, so "body" (900 entries) starts at
  // slot 100 of the shared first page and runs over two page boundaries.
  TagDictionary dict;
  const LabelId head = dict.Intern("head");
  const LabelId body = dict.Intern("body");
  std::vector<Document> docs;
  for (DocId d = 0; d < 4; ++d) {
    Document doc(d);
    const LabelId label = d == 0 ? head : body;
    NodeId root = doc.AddRoot(label);
    for (int i = 0; i < (d == 0 ? 99 : 299); ++i) doc.AddChild(root, label);
    docs.push_back(std::move(doc));
  }
  auto store = StreamStore::Build(docs, db_.pool());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  store_ = std::move(*store);
  const auto* info = store_->Find(body);
  ASSERT_NE(info, nullptr);
  ASSERT_EQ(info->count, 900u);
  EXPECT_EQ(info->first_slot, 100u);
  ASSERT_EQ(info->pages.size(), 3u);
  EXPECT_EQ(info->pages[0], store_->Find(head)->pages[0]);
  EXPECT_EQ(store_->total_pages(), 3u);

  std::vector<ElementPos> expected;
  for (const Document& doc : docs) {
    std::vector<ElementPos> regions = ComputeRegions(doc);
    for (NodeId v = 0; v < doc.num_nodes(); ++v) {
      if (doc.label(v) == body) expected.push_back(regions[v]);
    }
  }
  auto same = [](const ElementPos& a, const ElementPos& b) {
    return a.doc == b.doc && a.left == b.left && a.right == b.right &&
           a.level == b.level && a.post == b.post;
  };
  for (uint32_t i = 0; i < info->count; ++i) {
    auto e = store_->ReadEntry(*info, i);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    ASSERT_TRUE(same(*e, expected[i])) << "ReadEntry " << i;
  }
  SimpleStreamCursor plain(store_.get(), info);
  ASSERT_TRUE(plain.Init().ok());
  for (const ElementPos& e : expected) {
    ASSERT_FALSE(plain.Eof());
    ASSERT_TRUE(same(plain.Current(), e));
    ASSERT_TRUE(plain.Advance().ok());
  }
  EXPECT_TRUE(plain.Eof());

  auto tree = XbTree::Build(store_.get(), info);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_EQ((*tree)->levels().size(), 1u);
  EXPECT_EQ((*tree)->levels()[0].entry_count, 3u);
  XbCursor cursor(tree->get());
  ASSERT_TRUE(cursor.Init().ok());
  // The root summarizes each page by its first begin key.
  EXPECT_EQ(cursor.NextL(), expected[0].BeginKey());
  size_t seen = 0;
  while (!cursor.Eof()) {
    ASSERT_TRUE(cursor.EnsureElement().ok());
    ASSERT_LT(seen, expected.size());
    ASSERT_TRUE(same(cursor.Current(), expected[seen])) << "XbCursor " << seen;
    ++seen;
    ASSERT_TRUE(cursor.Advance().ok());
  }
  EXPECT_EQ(seen, expected.size());
}

}  // namespace
}  // namespace prix
