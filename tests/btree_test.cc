#include "btree/btree.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common/random.h"
#include "testutil/temp_db.h"

namespace prix {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : db_(Database::Options{.pool_pages = 64}) {}
  BufferPool* pool() { return db_.pool(); }
  testutil::TempDb db_;
};

using IntTree = BPlusTree<uint64_t, uint64_t>;

TEST_F(BTreeTest, InsertAndGet) {
  auto tree = IntTree::Create(pool());
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(10, 100).ok());
  ASSERT_TRUE(tree->Insert(5, 50).ok());
  ASSERT_TRUE(tree->Insert(20, 200).ok());
  auto v = tree->Get(10);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 100u);
  EXPECT_TRUE(tree->Get(11).status().IsNotFound());
  EXPECT_EQ(tree->num_entries(), 3u);
}

TEST_F(BTreeTest, DuplicateKeyRejected) {
  auto tree = IntTree::Create(pool());
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(1, 1).ok());
  EXPECT_EQ(tree->Insert(1, 2).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(tree->num_entries(), 1u);
}

TEST_F(BTreeTest, ModelCheckRandomInsertions) {
  auto tree = IntTree::Create(pool());
  ASSERT_TRUE(tree.ok());
  std::map<uint64_t, uint64_t> model;
  Random rng(42);
  for (int i = 0; i < 20000; ++i) {
    uint64_t key = rng.Uniform(100000);
    if (model.emplace(key, i).second) {
      ASSERT_TRUE(tree->Insert(key, i).ok()) << "key " << key;
    } else {
      ASSERT_EQ(tree->Insert(key, i).code(), StatusCode::kAlreadyExists);
    }
  }
  EXPECT_EQ(tree->num_entries(), model.size());
  EXPECT_GT(tree->height(), 1u);  // forced splits
  // Point lookups.
  for (const auto& [k, v] : model) {
    auto got = tree->Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k;
    EXPECT_EQ(*got, v);
  }
  // Full ordered scan.
  auto it = tree->SeekToFirst();
  ASSERT_TRUE(it.ok());
  auto mit = model.begin();
  while (it->Valid()) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it->key(), mit->first);
    EXPECT_EQ(it->value(), mit->second);
    ++mit;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(mit, model.end());
}

TEST_F(BTreeTest, SequentialAscendingAndDescendingInsert) {
  for (bool ascending : {true, false}) {
    auto tree = IntTree::Create(pool());
    ASSERT_TRUE(tree.ok());
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
      uint64_t key = ascending ? i : n - 1 - i;
      ASSERT_TRUE(tree->Insert(key, key * 2).ok());
    }
    for (int i = 0; i < n; ++i) {
      auto v = tree->Get(i);
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(*v, static_cast<uint64_t>(i) * 2);
    }
  }
}

TEST_F(BTreeTest, SeekPositionsAtLowerBound) {
  auto tree = IntTree::Create(pool());
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 100; k += 10) {
    ASSERT_TRUE(tree->Insert(k, k).ok());
  }
  auto it = tree->Seek(35);
  ASSERT_TRUE(it.ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), 40u);
  auto it2 = tree->Seek(40);
  ASSERT_TRUE(it2.ok());
  EXPECT_EQ(it2->key(), 40u);
  auto it3 = tree->Seek(1000);
  ASSERT_TRUE(it3.ok());
  EXPECT_FALSE(it3->Valid());
}

TEST_F(BTreeTest, RangeScanAcrossLeaves) {
  auto tree = IntTree::Create(pool());
  ASSERT_TRUE(tree.ok());
  const uint64_t n = 10000;
  for (uint64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(tree->Insert(k * 3, k).ok());
  }
  auto it = tree->Seek(2999);
  ASSERT_TRUE(it.ok());
  uint64_t expected = 3000;  // first multiple of 3 >= 2999
  int count = 0;
  while (it->Valid() && it->key() <= 6000) {
    EXPECT_EQ(it->key(), expected);
    expected += 3;
    ++count;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(count, 1001);
}

TEST_F(BTreeTest, DeleteRemovesKeys) {
  auto tree = IntTree::Create(pool());
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(tree->Insert(k, k).ok());
  }
  for (uint64_t k = 0; k < 1000; k += 2) {
    ASSERT_TRUE(tree->Delete(k).ok());
  }
  EXPECT_TRUE(tree->Delete(0).IsNotFound());
  EXPECT_EQ(tree->num_entries(), 500u);
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(tree->Get(k).ok(), k % 2 == 1);
  }
  // Iteration sees only the odd keys.
  auto it = tree->SeekToFirst();
  ASSERT_TRUE(it.ok());
  uint64_t expected = 1;
  while (it->Valid()) {
    EXPECT_EQ(it->key(), expected);
    expected += 2;
    ASSERT_TRUE(it->Next().ok());
  }
}

TEST_F(BTreeTest, ReopenFromMetaPage) {
  PageId meta;
  {
    auto tree = IntTree::Create(pool());
    ASSERT_TRUE(tree.ok());
    meta = tree->meta_page_id();
    for (uint64_t k = 0; k < 3000; ++k) {
      ASSERT_TRUE(tree->Insert(k, k + 7).ok());
    }
    ASSERT_TRUE(pool()->FlushAll().ok());
  }
  ASSERT_TRUE(pool()->Clear().ok());
  auto reopened = IntTree::Open(pool(), meta);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->num_entries(), 3000u);
  auto v = reopened->Get(1234);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 1241u);
}

struct WideKey {
  uint64_t a;
  uint64_t b;
  char pad[48];

  friend bool operator<(const WideKey& x, const WideKey& y) {
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  }
};

TEST_F(BTreeTest, CompositeWideKeysForceDeepTree) {
  // 64-byte keys shrink fanout and force height > 2 quickly. The pad bytes
  // carry random data (the order ignores them) so that the delta-coded
  // leaves cannot squeeze them away and stay wide too.
  using WideTree = BPlusTree<WideKey, uint64_t>;
  auto tree = WideTree::Create(pool());
  ASSERT_TRUE(tree.ok());
  Random rng(9);
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> model;
  for (int i = 0; i < 30000; ++i) {
    WideKey k{rng.Uniform(1000), rng.Uniform(1000), {}};
    for (size_t w = 0; w < sizeof(k.pad); w += 8) {
      const uint64_t noise = rng.Next();
      std::memcpy(k.pad + w, &noise, 8);
    }
    if (model.emplace(std::make_pair(k.a, k.b), i).second) {
      ASSERT_TRUE(tree->Insert(k, i).ok());
    }
  }
  EXPECT_GE(tree->height(), 3u);
  for (const auto& [k, v] : model) {
    auto got = tree->Get(WideKey{k.first, k.second, {}});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  // Prefix range scan: all entries with a == 42, in b order.
  auto it = tree->Seek(WideKey{42, 0, {}});
  ASSERT_TRUE(it.ok());
  uint64_t prev_b = 0;
  bool first = true;
  size_t found = 0;
  while (it->Valid() && it->key().a == 42) {
    if (!first) EXPECT_GT(it->key().b, prev_b);
    prev_b = it->key().b;
    first = false;
    ++found;
    ASSERT_TRUE(it->Next().ok());
  }
  size_t expected = 0;
  for (const auto& [k, v] : model) expected += k.first == 42;
  EXPECT_EQ(found, expected);
}

TEST_F(BTreeTest, IteratorOnEmptyTree) {
  auto tree = IntTree::Create(pool());
  ASSERT_TRUE(tree.ok());
  auto it = tree->SeekToFirst();
  ASSERT_TRUE(it.ok());
  EXPECT_FALSE(it->Valid());
  auto it2 = tree->Seek(5);
  ASSERT_TRUE(it2.ok());
  EXPECT_FALSE(it2->Valid());
}

TEST_F(BTreeTest, NoPinLeaks) {
  auto tree = IntTree::Create(pool());
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(tree->Insert(k, k).ok());
  }
  {
    auto it = tree->Seek(100);
    ASSERT_TRUE(it.ok());
    for (int i = 0; i < 50 && it->Valid(); ++i) {
      ASSERT_TRUE(it->Next().ok());
    }
  }  // iterator dropped mid-scan
  // All pins must be released: Clear() succeeds only with zero pins.
  EXPECT_TRUE(pool()->Clear().ok());
}

}  // namespace
}  // namespace prix
