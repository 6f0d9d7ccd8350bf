// Tests for the delta-coded on-disk formats (DESIGN.md §5h): varint
// primitives, delta-coded B+-tree leaves with restart points (bulk-loaded
// and mutated) and the cursors that read them in place, block-coded
// document records and the varint record-store catalog. Every tree check
// runs against a naive oracle (a std::map or the source data), and the
// index checks against the naive twig matcher: the encoding changes the
// page bytes and nothing about what they mean.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/varint.h"
#include "naive/naive_matcher.h"
#include "prix/prix_index.h"
#include "prix/query_processor.h"
#include "storage/record_store.h"
#include "testutil/temp_db.h"
#include "testutil/tree_gen.h"
#include "vist/vist_index.h"
#include "vist/vist_query.h"

namespace prix {
namespace {

using testutil::RandomCollection;
using testutil::RandomDocOptions;
using testutil::RandomTwig;
using testutil::TempDb;

// --- varint primitives ----------------------------------------------------

TEST(VarintTest, RoundTripsBoundaryValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             (1ull << 63) - 1,
                             1ull << 63,
                             ~0ull};
  for (uint64_t v : values) {
    std::vector<char> buf;
    PutVarint64(&buf, v);
    EXPECT_LE(buf.size(), kMaxVarint64Bytes);
    const char* p = buf.data();
    uint64_t got = 1;
    ASSERT_TRUE(GetVarint64(&p, buf.data() + buf.size(), &got)) << v;
    EXPECT_EQ(got, v);
    EXPECT_EQ(p, buf.data() + buf.size()) << "decoder over/under-consumed";
  }
}

TEST(VarintTest, ZigzagIsAnInvolutionAndKeepsSmallMagnitudesSmall) {
  const int64_t values[] = {0, -1, 1, -2, 2, -64, 63, -65,
                            INT64_MIN, INT64_MAX};
  for (int64_t v : values) {
    EXPECT_EQ(ZigzagDecode64(ZigzagEncode64(v)), v);
  }
  // Small absolute values map to small codes (the point of zig-zag).
  EXPECT_EQ(ZigzagEncode64(0), 0u);
  EXPECT_EQ(ZigzagEncode64(-1), 1u);
  EXPECT_EQ(ZigzagEncode64(1), 2u);
  EXPECT_LT(ZigzagEncode64(-64), 128u);
}

TEST(VarintTest, RejectsTruncatedInput) {
  std::vector<char> buf;
  PutVarint64(&buf, 1ull << 40);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    const char* p = buf.data();
    uint64_t v;
    EXPECT_FALSE(GetVarint64(&p, buf.data() + cut, &v)) << "cut " << cut;
  }
}

TEST(VarintTest, RejectsOverlongAndOverflowingEncodings) {
  // Eleven continuation bytes: more than any uint64 needs.
  char overlong[11];
  std::memset(overlong, 0x80, 10);
  overlong[10] = 0x01;
  const char* p = overlong;
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&p, overlong + sizeof(overlong), &v));
  // Ten bytes whose final byte carries bits beyond the 64th.
  char toobig[10];
  std::memset(toobig, 0xff, 9);
  toobig[9] = 0x02;
  p = toobig;
  EXPECT_FALSE(GetVarint64(&p, toobig + sizeof(toobig), &v));
}

TEST(VarintTest, Varint32RejectsValuesAbove32Bits) {
  std::vector<char> buf;
  PutVarint64(&buf, 1ull << 32);
  const char* p = buf.data();
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&p, buf.data() + buf.size(), &v));
}

// --- delta-coded B+-tree ----------------------------------------------------

class CompressedBtreeTest : public ::testing::Test {
 protected:
  CompressedBtreeTest() : db_(Database::Options{.pool_pages = 64}) {}
  BufferPool* pool() { return db_.pool(); }
  TempDb db_;
};

using IntTree = BPlusTree<uint64_t, uint64_t>;
using Model = std::map<uint64_t, uint64_t>;
constexpr size_t kRestart = IntTree::RestartInterval();

/// Page id of `tree`'s root, read from its meta page.
PageId RootOf(BufferPool* pool, const IntTree& tree) {
  auto page = pool->FetchPage(tree.meta_page_id());
  EXPECT_TRUE(page.ok());
  IntTree::Meta meta;
  std::memcpy(&meta, (*page)->data(), sizeof(meta));
  pool->UnpinPage(tree.meta_page_id(), /*dirty=*/false);
  return meta.root;
}

/// Checks `tree` against `model` at every key, at every gap next to a key
/// and past both ends — so at both ends of every leaf, wherever the leaves
/// split: Get finds exactly the model's keys, Seek lands on the model's
/// lower bound and the next two entries agree (crossing leaf ends), and a
/// full scan matches.
void ExpectTreeMatchesModel(const IntTree& tree, const Model& model) {
  ASSERT_EQ(tree.num_entries(), model.size());
  std::vector<uint64_t> probes = {0, UINT64_MAX};
  for (const auto& entry : model) {
    if (entry.first > 0) probes.push_back(entry.first - 1);
    probes.push_back(entry.first);
    probes.push_back(entry.first + 1);
  }
  for (uint64_t probe : probes) {
    auto got = tree.Get(probe);
    auto want = model.find(probe);
    if (want == model.end()) {
      ASSERT_EQ(got.status().code(), StatusCode::kNotFound) << probe;
    } else {
      ASSERT_TRUE(got.ok()) << probe << ": " << got.status().ToString();
      ASSERT_EQ(*got, want->second) << probe;
    }
    auto it = tree.Seek(probe);
    ASSERT_TRUE(it.ok()) << it.status().ToString();
    auto mit = model.lower_bound(probe);
    for (int step = 0; step < 3; ++step, ++mit) {
      if (mit == model.end()) {
        ASSERT_FALSE(it->Valid()) << "seek " << probe << " step " << step;
        break;
      }
      ASSERT_TRUE(it->Valid()) << "seek " << probe << " step " << step;
      ASSERT_EQ(it->key(), mit->first) << "seek " << probe;
      ASSERT_EQ(it->value(), mit->second) << "seek " << probe;
      ASSERT_TRUE(it->Next().ok());
    }
  }
  auto it = tree.SeekToFirst();
  ASSERT_TRUE(it.ok());
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(it->Valid()) << "scan ended before " << k;
    ASSERT_EQ(it->key(), k);
    ASSERT_EQ(it->value(), v);
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_FALSE(it->Valid());
}

TEST_F(CompressedBtreeTest, ModelCheckInsertGetScanDelete) {
  auto tree = IntTree::Create(pool());
  ASSERT_TRUE(tree.ok());
  Model model;
  Random rng(321);
  for (int i = 0; i < 20000; ++i) {
    uint64_t key = rng.Uniform(100000);
    if (model.emplace(key, i).second) {
      ASSERT_TRUE(tree->Insert(key, i).ok()) << "key " << key;
    } else {
      ASSERT_EQ(tree->Insert(key, i).code(), StatusCode::kAlreadyExists);
    }
  }
  EXPECT_EQ(tree->num_entries(), model.size());
  for (const auto& [k, v] : model) {
    auto got = tree->Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k;
    EXPECT_EQ(*got, v);
  }
  // Delete every third key, then full ordered scan against the model.
  size_t idx = 0;
  for (auto it = model.begin(); it != model.end();) {
    if (idx++ % 3 == 0) {
      ASSERT_TRUE(tree->Delete(it->first).ok());
      it = model.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(tree->num_entries(), model.size());
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
  EXPECT_TRUE(pool()->Clear().ok());
}

TEST_F(CompressedBtreeTest, BulkLoadedTreesAnswerLikeTheModelAtEverySize) {
  // Sizes around the restart interval and a many-leaf tree. Keys are 3i+1,
  // so every key has a gap on both sides; values are scrambled 64-bit
  // words, so entries encode to anywhere between 3 and 12 bytes.
  const size_t many = 20000;
  for (size_t n : {size_t{0}, size_t{1}, kRestart - 1, kRestart,
                   kRestart + 1, 3 * kRestart + 5, many}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    std::vector<IntTree::Entry> entries;
    Model model;
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t value = (i * 0x9e3779b97f4a7c15ull) >> (i % 40);
      entries.push_back({3 * i + 1, value});
      model.emplace(3 * i + 1, value);
    }
    auto tree = IntTree::BulkLoad(pool(), entries);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    if (n == many) {
      EXPECT_GE(tree->height(), 2u) << "want several leaves";
    }
    ExpectTreeMatchesModel(*tree, model);

    // Mutations on bulk-loaded leaves, which sit at the insert limit: every
    // insert into a gap lands in a full leaf (and splits it), every delete
    // re-encodes within the headroom.
    Random rng(n + 17);
    for (uint64_t i = 0; i < n; i += 1 + rng.Uniform(4)) {
      const uint64_t gap = 3 * i + (rng.Uniform(2) == 0 ? 0 : 2);
      ASSERT_TRUE(tree->Insert(gap, ~gap).ok()) << gap;
      model.emplace(gap, ~gap);
      const uint64_t victim = 3 * i + 1;
      if (rng.Uniform(3) == 0 && model.erase(victim) == 1) {
        ASSERT_TRUE(tree->Delete(victim).ok()) << victim;
        EXPECT_EQ(tree->Delete(victim).code(), StatusCode::kNotFound);
      }
    }
    ExpectTreeMatchesModel(*tree, model);
  }
  EXPECT_TRUE(pool()->Clear().ok());
}

TEST_F(CompressedBtreeTest, BulkLoadRejectsUnsortedOrDuplicateKeys) {
  std::vector<IntTree::Entry> unsorted = {{1, 1}, {5, 5}, {3, 3}};
  EXPECT_EQ(IntTree::BulkLoad(pool(), unsorted).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<IntTree::Entry> duplicate = {{1, 1}, {2, 2}, {2, 3}};
  EXPECT_EQ(IntTree::BulkLoad(pool(), duplicate).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CompressedBtreeTest, DenseKeysPackSeveralTimesTheFixedStrideFanout) {
  // Sequential keys delta-code to ~2 bytes/entry; 16-byte fixed-stride
  // entries would need n * 16 / page bytes leaves.
  const uint64_t n = 20000;
  std::vector<IntTree::Entry> entries;
  for (uint64_t k = 0; k < n; ++k) entries.push_back({k, k});
  const uint64_t pages_before = pool()->disk()->num_pages();
  auto tree = IntTree::BulkLoad(pool(), entries);
  ASSERT_TRUE(tree.ok());
  const uint64_t packed_pages = pool()->disk()->num_pages() - pages_before;
  const uint64_t fixed_leaves = n * 16 / kPageUsable;
  EXPECT_LT(packed_pages * 3, fixed_leaves)
      << "delta tree used " << packed_pages << " pages";
}

TEST_F(CompressedBtreeTest, ReopenPreservesContents) {
  PageId meta;
  {
    auto tree = IntTree::Create(pool());
    ASSERT_TRUE(tree.ok());
    meta = tree->meta_page_id();
    for (uint64_t k = 0; k < 3000; ++k) {
      ASSERT_TRUE(tree->Insert(k * 7, k).ok());
    }
    ASSERT_TRUE(pool()->FlushAll().ok());
  }
  ASSERT_TRUE(pool()->Clear().ok());
  auto reopened = IntTree::Open(pool(), meta);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->num_entries(), 3000u);
  auto v = reopened->Get(7 * 1234);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 1234u);
}

/// Overwrites `len` bytes at `offset` of page `id` through the pool (the
/// page trailer is restamped on flush, so only the tree's checks see it).
void PatchPage(BufferPool* pool, PageId id, size_t offset, const void* bytes,
               size_t len) {
  auto page = pool->FetchPage(id);
  ASSERT_TRUE(page.ok());
  std::memcpy((*page)->data() + offset, bytes, len);
  pool->UnpinPage(id, /*dirty=*/true);
}

TEST_F(CompressedBtreeTest, WrongFormatByteIsCorruption) {
  std::vector<IntTree::Entry> entries;
  for (uint64_t k = 0; k < 20000; ++k) entries.push_back({k, k});
  auto tree = IntTree::BulkLoad(pool(), entries);
  ASSERT_TRUE(tree.ok());
  ASSERT_GE(tree->height(), 2u);
  const PageId root = RootOf(pool(), *tree);
  PageId leaf;  // the root's leftmost child (bytes 8..11 of an internal node)
  {
    auto page = pool()->FetchPage(root);
    ASSERT_TRUE(page.ok());
    std::memcpy(&leaf, (*page)->data() + 8, sizeof(leaf));
    pool()->UnpinPage(root, false);
  }
  // Byte 6 is the node format: 1 on leaves, 0 on internal nodes.
  for (uint8_t bad : {uint8_t{0}, uint8_t{2}, uint8_t{0xff}}) {
    PatchPage(pool(), leaf, 6, &bad, 1);
    EXPECT_EQ(tree->Get(0).status().code(), StatusCode::kCorruption) << +bad;
    EXPECT_EQ(tree->SeekToFirst().status().code(), StatusCode::kCorruption);
  }
  const uint8_t leaf_format = 1;
  PatchPage(pool(), leaf, 6, &leaf_format, 1);
  ASSERT_TRUE(tree->Get(0).ok());
  PatchPage(pool(), root, 6, &leaf_format, 1);
  EXPECT_EQ(tree->Get(0).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(tree->Seek(5).status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(pool()->Clear().ok());
}

TEST_F(CompressedBtreeTest, GarbledRestartOffsetIsCorruptionNeverAnOverread) {
  // One leaf of several restart groups. Layout (btree.h): stream length P
  // at bytes 12..13, restart count R at 14..15, stream at 16, and R uint16
  // restart offsets right after it.
  std::vector<IntTree::Entry> entries;
  Model model;
  for (uint64_t i = 0; i < 5 * kRestart + 3; ++i) {
    entries.push_back({i * 5, i * i});
    model.emplace(i * 5, i * i);
  }
  auto tree = IntTree::BulkLoad(pool(), entries);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->height(), 1u);
  const PageId leaf = RootOf(pool(), *tree);
  uint16_t plen, restarts;
  std::vector<uint16_t> offsets;
  {
    auto page = pool()->FetchPage(leaf);
    ASSERT_TRUE(page.ok());
    std::memcpy(&plen, (*page)->data() + 12, 2);
    std::memcpy(&restarts, (*page)->data() + 14, 2);
    offsets.resize(restarts);
    std::memcpy(offsets.data(), (*page)->data() + 16 + plen, 2 * restarts);
    pool()->UnpinPage(leaf, false);
  }
  ASSERT_EQ(restarts, 6u);
  ASSERT_EQ(offsets[0], 0u);
  const size_t slot = 16 + plen;  // byte offset of restart 0
  struct Garble {
    size_t r;
    uint16_t value;
    bool every_access;  // CheckNode refuses the page outright
  };
  const Garble garbles[] = {
      {2, 0xffff, true},                                 // past the page
      {2, plen, true},                                   // past the stream
      {2, offsets[1], true},                             // not rising
      {0, 1, true},                                      // first is not 0
      {2, static_cast<uint16_t>(offsets[2] + 1), false},  // mid-entry
      {2, static_cast<uint16_t>(offsets[2] - 1), false},  // mid-entry
      {5, static_cast<uint16_t>(offsets[5] + 1), false},  // last group
  };
  for (const Garble& g : garbles) {
    SCOPED_TRACE("restart " + std::to_string(g.r) + " := " +
                 std::to_string(g.value));
    PatchPage(pool(), leaf, slot + 2 * g.r, &g.value, 2);
    // A full scan must stop with Corruption.
    Status scan;
    auto it = tree->SeekToFirst();
    scan = it.status();
    while (scan.ok() && it->Valid()) scan = it->Next();
    EXPECT_EQ(scan.code(), StatusCode::kCorruption) << scan.ToString();
    // Point reads fail or answer right; never a wrong value.
    for (const auto& [k, v] : model) {
      auto got = tree->Get(k);
      if (g.every_access) {
        EXPECT_EQ(got.status().code(), StatusCode::kCorruption) << k;
      } else if (got.ok()) {
        EXPECT_EQ(*got, v) << k;
      }
      auto seek = tree->Seek(k);
      if (seek.ok() && seek->Valid() && seek->key() == k) {
        EXPECT_EQ(seek->value(), v) << k;
      } else if (g.every_access) {
        EXPECT_EQ(seek.status().code(), StatusCode::kCorruption) << k;
      }
    }
    PatchPage(pool(), leaf, slot + 2 * g.r, &offsets[g.r], 2);
  }
  ExpectTreeMatchesModel(*tree, model);
  EXPECT_TRUE(pool()->Clear().ok());
}

TEST_F(CompressedBtreeTest, DeleteReinsertAtTheInsertLimitHeadroomBoundary) {
  // The delete path re-encodes a leaf in place and may GROW the payload
  // (the successor re-deltas against a farther predecessor, or against
  // zero when it inherits a restart), which the insert-side fill limit
  // (LeafInsertLimit, one max-size entry of headroom below the page) must
  // absorb. Drive a leaf to the boundary: insert worst-case-wide entries
  // until the leaf splits, then rebuild with one entry fewer — a payload
  // within one encoded entry of the limit — and churn delete -> reinsert
  // through every position. Every round must re-encode in place (no
  // Internal status) and preserve the contents.
  auto wide_key = [](uint64_t i) {
    // ~2^41 spacing: 6-byte deltas, plus a low-bit wiggle so deltas differ.
    return i * (uint64_t{1} << 41) + (i * 0x9e3779b9u & 0xfffu);
  };
  const uint64_t wide_value = (uint64_t{1} << 62) + 12345;  // 9-byte varint

  // Find the split point: the first n whose insert allocates a new page.
  auto probe = IntTree::Create(pool());
  ASSERT_TRUE(probe.ok());
  uint64_t pages_before = pool()->disk()->num_pages();
  uint64_t n_split = 0;
  for (uint64_t i = 0; i < 4096; ++i) {
    ASSERT_TRUE(probe->Insert(wide_key(i), wide_value).ok());
    if (pool()->disk()->num_pages() != pages_before) {
      n_split = i + 1;
      break;
    }
  }
  ASSERT_GT(n_split, 4u) << "leaf never split; widen the keys";
  // Sanity: the leaf held enough wide entries that its payload was near
  // the fill limit when the split fired (each entry encodes to <= 25 B
  // plus a 2-byte restart offset per group).
  ASSERT_GT(n_split * 27, IntTree::LeafInsertLimit())
      << "split fired while the leaf was far from full";

  auto tree = IntTree::Create(pool());
  ASSERT_TRUE(tree.ok());
  const uint64_t n = n_split - 1;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree->Insert(wide_key(i), wide_value).ok());
  }
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree->Delete(wide_key(i)).ok()) << "position " << i;
    EXPECT_EQ(tree->Get(wide_key(i)).status().code(), StatusCode::kNotFound);
    ASSERT_TRUE(tree->Insert(wide_key(i), wide_value).ok())
        << "reinsert at position " << i;
  }
  // Also the double-delete shape: remove two adjacent entries (the
  // farthest re-delta), reinsert in reverse order.
  ASSERT_TRUE(tree->Delete(wide_key(1)).ok());
  ASSERT_TRUE(tree->Delete(wide_key(2)).ok());
  ASSERT_TRUE(tree->Insert(wide_key(2), wide_value).ok());
  ASSERT_TRUE(tree->Insert(wide_key(1), wide_value).ok());

  EXPECT_EQ(tree->num_entries(), n);
  auto it = tree->SeekToFirst();
  ASSERT_TRUE(it.ok());
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(it->Valid()) << "scan ended early at " << i;
    EXPECT_EQ(it->key(), wide_key(i));
    EXPECT_EQ(it->value(), wide_value);
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(pool()->Clear().ok());
}

// --- cursors: the recorded path, in-place groups, Reseek ------------------

/// A two-level tree's root: leaf j holds keys in [seps[j-1], seps[j]) and
/// is page children[j] (btree.h layout: count at bytes 4..5, leftmost
/// child at 8..11, (key, child) pairs of 12 bytes from byte 16).
struct RootLayout {
  PageId id = kInvalidPage;
  std::vector<uint64_t> seps;
  std::vector<PageId> children;
};

RootLayout ReadRoot(BufferPool* pool, const IntTree& tree) {
  RootLayout root;
  root.id = RootOf(pool, tree);
  auto page = pool->FetchPage(root.id);
  EXPECT_TRUE(page.ok());
  const char* data = (*page)->data();
  uint16_t count;
  std::memcpy(&count, data + 4, 2);
  PageId child;
  std::memcpy(&child, data + 8, sizeof(child));
  root.children.push_back(child);
  for (size_t j = 0; j < count; ++j) {
    uint64_t sep;
    std::memcpy(&sep, data + 16 + 12 * j, 8);
    std::memcpy(&child, data + 16 + 12 * j + 8, sizeof(child));
    root.seps.push_back(sep);
    root.children.push_back(child);
  }
  pool->UnpinPage(root.id, /*dirty=*/false);
  return root;
}

/// Bulk-loads keys 3i+1 (i < n) with scrambled values into `model` too.
Result<IntTree> BulkLoadSpaced(BufferPool* pool, uint64_t n, Model* model) {
  std::vector<IntTree::Entry> entries;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t value = (i * 0x9e3779b97f4a7c15ull) >> (i % 40);
    entries.push_back({3 * i + 1, value});
    model->emplace(3 * i + 1, value);
  }
  return IntTree::BulkLoad(pool, entries);
}

/// The cursor is at `want` (past the end when want == model.end()).
void ExpectCursorAt(const IntTree::Iterator& cursor, const Model& model,
                    Model::const_iterator want) {
  if (want == model.end()) {
    ASSERT_FALSE(cursor.Valid());
    return;
  }
  ASSERT_TRUE(cursor.Valid()) << "expected key " << want->first;
  ASSERT_EQ(cursor.key(), want->first);
  ASSERT_EQ(cursor.value(), want->second);
}

/// Drives one reused cursor through random Reseeks — forward by a few
/// keys, forward across leaves, backward, past the end — interleaved with
/// runs of Next across group and leaf boundaries. Every position must be
/// the model's, and every Reseek must land where a fresh Seek does.
void ExpectReseeksMatchModel(const IntTree& tree, const Model& model,
                             uint64_t seed) {
  Random rng(seed);
  const uint64_t max_key = model.empty() ? 0 : model.rbegin()->first;
  const uint64_t far = max_key / 3 + 1;
  IntTree::Iterator cursor(tree);
  auto pos = model.end();
  for (int op = 0; op < 3000; ++op) {
    const uint64_t here = pos == model.end() ? max_key : pos->first;
    uint64_t target;
    switch (rng.Uniform(5)) {
      case 0:
        for (uint64_t n = rng.Uniform(48); n > 0 && pos != model.end(); --n) {
          ASSERT_TRUE(cursor.Next().ok());
          ++pos;
          ASSERT_NO_FATAL_FAILURE(ExpectCursorAt(cursor, model, pos));
        }
        continue;
      case 1:
        target = here + rng.Uniform(8);
        break;
      case 2:
        target = here + rng.Uniform(far);
        break;
      case 3:
        target = here - std::min(here, rng.Uniform(far));
        break;
      default:
        target = max_key + 1 + rng.Uniform(4);
        break;
    }
    SCOPED_TRACE("op " + std::to_string(op) + ": reseek " +
                 std::to_string(target));
    ASSERT_TRUE(cursor.Reseek(target).ok());
    pos = model.lower_bound(target);
    ASSERT_NO_FATAL_FAILURE(ExpectCursorAt(cursor, model, pos));
    auto fresh = tree.Seek(target);
    ASSERT_TRUE(fresh.ok());
    ASSERT_EQ(fresh->Valid(), cursor.Valid());
    if (cursor.Valid()) {
      ASSERT_EQ(fresh->key(), cursor.key());
    }
  }
}

TEST_F(CompressedBtreeTest, ReseekLandsWhereSeekDoesAgainstTheModel) {
  {
    SCOPED_TRACE("empty tree");
    auto empty = IntTree::Create(pool());
    ASSERT_TRUE(empty.ok());
    ExpectReseeksMatchModel(*empty, Model{}, 1);
  }
  {
    SCOPED_TRACE("bulk-loaded: full leaves of many groups");
    Model model;
    auto tree = BulkLoadSpaced(pool(), 20000, &model);
    ASSERT_TRUE(tree.ok());
    ASSERT_GE(tree->height(), 2u);
    ExpectReseeksMatchModel(*tree, model, 2);
  }
  {
    SCOPED_TRACE("insert-built: split leaves, grown groups, deletes");
    auto tree = IntTree::Create(pool());
    ASSERT_TRUE(tree.ok());
    Model model;
    Random rng(3);
    for (int i = 0; i < 20000; ++i) {
      const uint64_t key = rng.Uniform(100000);
      if (model.emplace(key, i).second) {
        ASSERT_TRUE(tree->Insert(key, i).ok());
      }
    }
    for (auto it = model.begin(); it != model.end();) {
      if (rng.Uniform(4) == 0) {
        ASSERT_TRUE(tree->Delete(it->first).ok());
        it = model.erase(it);
      } else {
        ++it;
      }
    }
    ASSERT_GE(tree->height(), 2u);
    ExpectReseeksMatchModel(*tree, model, 4);
  }
  EXPECT_TRUE(pool()->Clear().ok()) << "a cursor leaked a pin";
}

TEST_F(CompressedBtreeTest, ReseekReentersTheLeafOnlyWhereARootDescentLands) {
  // Node charges show which path a Reseek took: the decoded group alone
  // (no node), the current leaf (one node) or a descent from the root
  // (root + leaf). Leaf j of the
  // bulk-loaded tree starts at key seps[j-1]; its entries are 3 apart and
  // its restart groups kRestart entries long.
  Model model;
  auto tree = BulkLoadSpaced(pool(), 20000, &model);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->height(), 2u);
  const RootLayout root = ReadRoot(pool(), *tree);
  ASSERT_GE(root.seps.size(), 4u);
  const uint64_t leaf3 = root.seps[2];
  const uint64_t leaf4 = root.seps[3];
  ASSERT_GE((leaf4 - leaf3) / 3, 4 * kRestart) << "want several groups";

  MetricsContext ctx;
  IntTree::Iterator cursor(*tree);
  auto reseek = [&](uint64_t key) {
    const uint64_t before = ctx.counters.btree_nodes;
    EXPECT_TRUE(cursor.Reseek(key).ok()) << key;
    ExpectCursorAt(cursor, model, model.lower_bound(key));
    return ctx.counters.btree_nodes - before;
  };
  auto next = [&]() {
    const uint64_t before = ctx.counters.btree_nodes;
    const uint64_t was = cursor.key();
    EXPECT_TRUE(cursor.Next().ok());
    ExpectCursorAt(cursor, model, model.upper_bound(was));
    return ctx.counters.btree_nodes - before;
  };

  EXPECT_EQ(reseek(leaf3 + 3 * (kRestart + 4)), 2u) << "fresh: from root";
  EXPECT_EQ(reseek(leaf3 + 3 * (2 * kRestart + 1)), 1u) << "later group";
  // A forward probe the decoded group still holds moves within it.
  EXPECT_EQ(reseek(leaf3 + 3 * (2 * kRestart + 2)), 0u) << "same group";
  const uint64_t group2_last = leaf3 + 3 * (3 * kRestart - 1);
  EXPECT_EQ(reseek(group2_last), 0u) << "the group's last entry";
  EXPECT_EQ(reseek(group2_last + 1), 1u) << "one key past the group";
  EXPECT_EQ(reseek(leaf3), 1u) << "backward within the leaf";
  // Just below the leaf's first key routes to leaf 2, which holds nothing
  // that large: root, leaf 2, then root again and leaf 3.
  EXPECT_EQ(reseek(leaf3 - 1), 4u) << "gap before the leaf";
  EXPECT_EQ(reseek(leaf4 + 3), 2u) << "forward into a later leaf";
  EXPECT_EQ(reseek(root.seps[0] + 3), 2u) << "backward into an earlier leaf";

  // Next is free inside a group, re-fetches the leaf for its next group,
  // and re-fetches the parent to cross into the next leaf.
  EXPECT_EQ(reseek(leaf3), 2u);
  for (size_t i = 1; i < kRestart; ++i) EXPECT_EQ(next(), 0u) << i;
  EXPECT_EQ(next(), 1u) << "into group 1";
  EXPECT_EQ(reseek(leaf4 - 3), 1u) << "the leaf's last entry";
  EXPECT_EQ(next(), 2u) << "into leaf 4";
  EXPECT_EQ(cursor.key(), leaf4);

  EXPECT_EQ(reseek(UINT64_MAX), 2u) << "past the end: root, last leaf";
  EXPECT_EQ(reseek(leaf3), 2u) << "from the end: root again";
  EXPECT_TRUE(pool()->Clear().ok()) << "a cursor leaked a pin";
}

TEST_F(CompressedBtreeTest, ReusedCursorOutlivesThePageCountButCyclesFail) {
  Model model;
  auto tree = BulkLoadSpaced(pool(), 60000, &model);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->height(), 2u);
  const RootLayout root = ReadRoot(pool(), *tree);
  const uint64_t pages = pool()->disk()->num_pages();

  // The cycle guard bounds one positioning, not the cursor's lifetime.
  IntTree::Iterator cursor(*tree);
  Random rng(5);
  for (uint64_t r = 0; r < 3 * pages + 10; ++r) {
    const uint64_t target = rng.Uniform(3 * 60000 + 3);
    ASSERT_TRUE(cursor.Reseek(target).ok()) << "reseek " << r;
    ASSERT_NO_FATAL_FAILURE(
        ExpectCursorAt(cursor, model, model.lower_bound(target)));
  }

  // A child pointer into its own node: the level check refuses it both on
  // a descent through it and on a Next that crosses into it.
  const size_t slot = 2;  // separator slot - 1 holds the child pointer
  const size_t child_at = 16 + 12 * (slot - 1) + 8;
  PatchPage(pool(), root.id, child_at, &root.id, sizeof(PageId));
  EXPECT_EQ(cursor.Reseek(root.seps[slot - 1]).code(),
            StatusCode::kCorruption);
  EXPECT_FALSE(cursor.Valid());
  ASSERT_TRUE(cursor.Reseek(root.seps[slot - 1] - 3).ok());
  EXPECT_EQ(cursor.Next().code(), StatusCode::kCorruption);
  EXPECT_FALSE(cursor.Valid());
  PatchPage(pool(), root.id, child_at, &root.children[slot], sizeof(PageId));
  ASSERT_TRUE(cursor.Reseek(root.seps[slot - 1]).ok());
  EXPECT_EQ(cursor.key(), root.seps[slot - 1]);

  // Every root slot naming one emptied leaf: each node on the walk passes
  // its checks, and only the per-positioning fetch bound ends it.
  ASSERT_GT(2 * root.children.size(), pages) << "need more leaves than that";
  const uint16_t zero = 0;
  for (size_t at : {4, 12, 14}) {  // count, stream length, restart count
    PatchPage(pool(), root.children[0], at, &zero, 2);
  }
  for (size_t j = 1; j < root.children.size(); ++j) {
    PatchPage(pool(), root.id, 16 + 12 * (j - 1) + 8, &root.children[0],
              sizeof(PageId));
  }
  auto scan = tree->SeekToFirst();
  EXPECT_EQ(scan.status().code(), StatusCode::kCorruption);
  EXPECT_NE(scan.status().ToString().find("does not terminate"),
            std::string::npos)
      << scan.status().ToString();
  EXPECT_EQ(cursor.Reseek(0).code(), StatusCode::kCorruption);
  EXPECT_TRUE(pool()->Clear().ok()) << "a cursor leaked a pin";
}

TEST_F(CompressedBtreeTest, LeafGarbledUnderACursorFailsAtItsNextGroup) {
  // One leaf of six restart groups. The cursor decodes group 0 and drops
  // its pin; the leaf is then garbled in one of four ways, so that the
  // re-fetch for group 1 must fail. Group 0's entries still come out
  // right, and nothing after them does.
  std::vector<IntTree::Entry> entries;
  Model model;
  for (uint64_t i = 0; i < 5 * kRestart + 3; ++i) {
    entries.push_back({i * 5, i * i});
    model.emplace(i * 5, i * i);
  }
  auto tree = IntTree::BulkLoad(pool(), entries);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->height(), 1u);
  const PageId leaf = RootOf(pool(), *tree);
  ASSERT_TRUE(pool()->FlushAll().ok());
  uint16_t plen, offsets[2];
  {
    auto page = pool()->FetchPage(leaf);
    ASSERT_TRUE(page.ok());
    std::memcpy(&plen, (*page)->data() + 12, 2);
    std::memcpy(offsets, (*page)->data() + 16 + plen, sizeof(offsets));
    pool()->UnpinPage(leaf, false);
  }
  std::vector<char> pristine(kPageSize);
  ASSERT_TRUE(pool()->disk()->ReadPage(leaf, pristine.data()).ok());

  auto garble_on_disk = [&] {
    // Bytes the page CRC no longer covers: the pool's re-read refuses them.
    ASSERT_TRUE(pool()->Clear().ok());
    std::vector<char> bytes = pristine;
    bytes[16 + offsets[1]] ^= 0x40;
    ASSERT_TRUE(pool()->disk()->WritePage(leaf, bytes.data()).ok());
  };
  auto garble_group = [&] {
    // Group 1's restart entry, key 80 coded against zero (zig-zag varint
    // a0 01), re-coded to key 64: a well-formed group whose keys rise, but
    // start below group 0's last key, 75.
    ASSERT_EQ(static_cast<uint8_t>(pristine[16 + offsets[1]]), 0xa0);
    ASSERT_EQ(static_cast<uint8_t>(pristine[16 + offsets[1] + 1]), 0x01);
    const uint8_t key64[] = {0x80, 0x01};
    PatchPage(pool(), leaf, 16 + offsets[1], key64, sizeof(key64));
  };
  auto garble_restart = [&] {
    // Restart 1 no longer rises past restart 0: CheckNode refuses the leaf.
    PatchPage(pool(), leaf, 16 + plen + 2, &offsets[0], 2);
  };
  auto garble_format = [&] {
    // Every entry still decodes; only CheckNode sees the wrong format byte.
    const uint8_t format = 2;
    PatchPage(pool(), leaf, 6, &format, 1);
  };
  for (const auto& garble : {std::function<void()>(garble_on_disk),
                             std::function<void()>(garble_group),
                             std::function<void()>(garble_restart),
                             std::function<void()>(garble_format)}) {
    auto cursor = tree->SeekToFirst();
    ASSERT_TRUE(cursor.ok());
    garble();
    auto want = model.begin();
    for (size_t i = 1; i < kRestart; ++i) {
      ASSERT_TRUE(cursor->Next().ok()) << i;
      ASSERT_NO_FATAL_FAILURE(ExpectCursorAt(*cursor, model, ++want));
    }
    EXPECT_EQ(cursor->Next().code(), StatusCode::kCorruption);
    EXPECT_FALSE(cursor->Valid());
    // Restore the leaf everywhere it may live, then check the whole tree.
    ASSERT_TRUE(pool()->Clear().ok());
    ASSERT_TRUE(pool()->disk()->WritePage(leaf, pristine.data()).ok());
    ExpectTreeMatchesModel(*tree, model);
  }
  EXPECT_TRUE(pool()->Clear().ok());
}

// --- record store catalog -------------------------------------------------

TEST_F(CompressedBtreeTest, RecordStoreCatalogRoundTrips) {
  RecordStore store(pool());
  Random rng(55);
  std::vector<std::vector<char>> records;
  for (int i = 0; i < 200; ++i) {
    std::vector<char> rec(rng.Uniform(300) + 1);
    for (auto& c : rec) c = static_cast<char>(rng.Next());
    auto id = store.Append(rec.data(), rec.size());
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(*id, static_cast<uint32_t>(i));
    records.push_back(std::move(rec));
  }
  std::vector<char> blob;
  store.SerializeTo(&blob);
  // Deltas + varints: far below the 4 + 12 bytes per record a fixed-width
  // catalog would take.
  EXPECT_LT(blob.size(), 12 * records.size());
  const char* p = blob.data();
  auto reopened =
      RecordStore::Deserialize(pool(), &p, blob.data() + blob.size());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(p, blob.data() + blob.size()) << "catalog not fully consumed";
  ASSERT_EQ(reopened->num_records(), records.size());
  EXPECT_EQ(reopened->total_bytes(), store.total_bytes());
  for (size_t i = 0; i < records.size(); ++i) {
    std::vector<char> out;
    ASSERT_TRUE(reopened->Load(i, &out).ok());
    EXPECT_EQ(out, records[i]) << "record " << i;
  }
}

TEST_F(CompressedBtreeTest, RecordStoreCatalogRejectsTruncation) {
  RecordStore store(pool());
  for (int i = 0; i < 50; ++i) {
    char buf[40] = {};
    ASSERT_TRUE(store.Append(buf, sizeof(buf)).ok());
  }
  std::vector<char> blob;
  store.SerializeTo(&blob);
  for (size_t cut = 0; cut < blob.size(); cut += 3) {
    const char* p = blob.data();
    auto r = RecordStore::Deserialize(pool(), &p, blob.data() + cut);
    EXPECT_FALSE(r.ok()) << "cut " << cut << " decoded successfully";
  }
}

// --- doc store ------------------------------------------------------------

TEST_F(CompressedBtreeTest, DocStoreRoundTripsTheSourceSequences) {
  Random rng(99);
  TagDictionary dict;
  RandomDocOptions doc_opts;
  doc_opts.max_nodes = 200;  // several NPS blocks per record
  std::vector<Document> docs = RandomCollection(rng, 25, &dict, doc_opts);
  DocStore store(pool());
  std::vector<PruferSequences> seqs;
  std::vector<std::vector<LeafEntry>> leaf_lists;
  uint64_t raw_bytes = 0;  // the same records as raw uint32 fields
  for (DocId d = 0; d < docs.size(); ++d) {
    seqs.push_back(BuildPruferSequences(docs[d]));
    leaf_lists.push_back(CollectLeaves(docs[d]));
    ASSERT_TRUE(store.Append(d, seqs.back(), leaf_lists.back()).ok());
    raw_bytes += 12 + 8 * (seqs.back().lps.size() + leaf_lists.back().size());
  }
  EXPECT_LT(store.total_bytes(), raw_bytes) << "records are not smaller";
  for (DocId d = 0; d < docs.size(); ++d) {
    auto got = store.Load(d);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->seq.lps, seqs[d].lps);
    EXPECT_EQ(got->seq.nps, seqs[d].nps);
    EXPECT_EQ(got->seq.num_nodes, seqs[d].num_nodes);
    EXPECT_EQ(got->seq.root_label, seqs[d].root_label);
    ASSERT_EQ(got->leaves.size(), leaf_lists[d].size());
    for (size_t i = 0; i < got->leaves.size(); ++i) {
      EXPECT_EQ(got->leaves[i].label, leaf_lists[d][i].label);
      EXPECT_EQ(got->leaves[i].postorder, leaf_lists[d][i].postorder);
    }
  }
  // Empty placeholder records (the salvage path) round-trip too.
  DocStore empties(pool());
  ASSERT_TRUE(empties.Append(0, PruferSequences{}, {}).ok());
  auto loaded = empties.Load(0);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->seq.lps.empty());
  EXPECT_TRUE(loaded->leaves.empty());
}

// --- end to end: PRIX and ViST answers == naive, through the catalog -----

TEST_F(CompressedBtreeTest, IndexAnswersMatchNaiveThroughTheCatalog) {
  Random rng(2026);
  TagDictionary dict;
  RandomDocOptions doc_opts;
  doc_opts.max_nodes = 48;
  std::vector<Document> docs = RandomCollection(rng, 40, &dict, doc_opts);

  auto rp = PrixIndex::Build(docs, pool(), PrixIndexOptions{});
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();
  ASSERT_TRUE((*rp)->Save(&db_.db(), "rp").ok());
  auto vist = VistIndex::Build(docs, pool());
  ASSERT_TRUE(vist.ok()) << vist.status().ToString();
  ASSERT_TRUE((*vist)->Save(&db_.db(), "v").ok());

  // Reopen through the catalog with a cold pool: every leaf is decoded
  // from its page bytes.
  ASSERT_TRUE(db_.Reopen().ok());
  auto rp2 = PrixIndex::Open(&db_.db(), "rp");
  auto vist2 = VistIndex::Open(&db_.db(), "v");
  ASSERT_TRUE(rp2.ok()) << rp2.status().ToString();
  ASSERT_TRUE(vist2.ok()) << vist2.status().ToString();

  QueryProcessor qp(db_.db(), rp2->get(), nullptr);
  VistQueryProcessor vqp(vist2->get());
  size_t tried = 0;
  for (int i = 0; i < 30 && tried < 12; ++i) {
    TwigPattern pattern =
        RandomTwig(rng, docs[rng.Uniform(docs.size())], &dict);
    if (pattern.num_nodes() < 2) continue;
    ++tried;
    EffectiveTwig twig = EffectiveTwig::Build(pattern);
    auto oracle = NaiveMatchCollection(docs, twig, MatchSemantics::kOrdered);
    std::sort(oracle.begin(), oracle.end());
    auto a = qp.Execute(pattern);
    auto b = vqp.Execute(pattern);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    auto am = a->matches;
    auto bm = b->matches;
    std::sort(am.begin(), am.end());
    std::sort(bm.begin(), bm.end());
    EXPECT_EQ(am, oracle) << "PRIX diverges from naive, query " << i;
    EXPECT_EQ(bm, oracle) << "ViST diverges from naive, query " << i;
  }
  EXPECT_GE(tried, 5u);
}

}  // namespace
}  // namespace prix
