// Micro-benchmarks (google-benchmark) for the substrates: Prüfer
// transformation, B+-tree operations and cursors, and buffer-pool access
// paths.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "common/random.h"
#include "datagen/swissprot_gen.h"
#include "datagen/treebank_gen.h"
#include "db/database.h"
#include "prix/prix_index.h"
#include "prufer/prufer.h"
#include "storage/buffer_pool.h"

namespace prix {
namespace {

// ---- Prüfer ----

Document MakeTree(size_t n) {
  TagDictionary dict;
  Random rng(7);
  Document doc(0);
  std::vector<NodeId> nodes = {doc.AddRoot(0)};
  while (doc.num_nodes() < n) {
    nodes.push_back(
        doc.AddChild(nodes[rng.Uniform(nodes.size())],
                     static_cast<LabelId>(rng.Uniform(32))));
  }
  return doc;
}

void BM_PruferBuildLemma1(benchmark::State& state) {
  Document doc = MakeTree(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPruferSequences(doc));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PruferBuildLemma1)->Arg(100)->Arg(1000)->Arg(10000);

void BM_PruferBuildSimulation(benchmark::State& state) {
  Document doc = MakeTree(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPruferSequencesBySimulation(doc));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PruferBuildSimulation)->Arg(100)->Arg(1000)->Arg(10000);

void BM_PruferReconstruct(benchmark::State& state) {
  Document doc = MakeTree(state.range(0));
  PruferSequences seq = BuildPruferSequences(doc);
  auto leaves = CollectLeaves(doc);
  for (auto _ : state) {
    auto rebuilt = ReconstructTree(seq, leaves);
    benchmark::DoNotOptimize(rebuilt);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PruferReconstruct)->Arg(1000)->Arg(10000);

// ---- B+-tree ----

struct BtreeFixtureState {
  std::string dir;
  std::unique_ptr<Database> db;
  BufferPool* pool;

  explicit BtreeFixtureState(size_t pool_pages = 4096) {
    char tmpl[] = "/tmp/prix_microbench_XXXXXX";
    PRIX_CHECK(mkdtemp(tmpl) != nullptr);
    dir = tmpl;
    auto opened =
        Database::Create(dir + "/db.prix", {.pool_pages = pool_pages});
    PRIX_CHECK(opened.ok());
    db = std::move(*opened);
    pool = db->pool();
  }
  ~BtreeFixtureState() {
    db.reset();
    std::string cmd = "rm -rf " + dir;
    if (std::system(cmd.c_str()) != 0) {
    }
  }
};

void BM_BtreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    BtreeFixtureState fx;
    auto tree = BPlusTree<uint64_t, uint64_t>::Create(fx.pool);
    PRIX_CHECK(tree.ok());
    Random rng(3);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      (void)tree->Insert(rng.Next(), i);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BtreeInsert)->Arg(10000)->Arg(100000);

void BM_BtreeGet(benchmark::State& state) {
  BtreeFixtureState fx;
  auto tree = BPlusTree<uint64_t, uint64_t>::Create(fx.pool);
  PRIX_CHECK(tree.ok());
  Random rng(3);
  std::vector<uint64_t> keys;
  for (int i = 0; i < state.range(0); ++i) {
    uint64_t k = rng.Next();
    if (tree->Insert(k, i).ok()) keys.push_back(k);
  }
  size_t i = 0;
  for (auto _ : state) {
    auto v = tree->Get(keys[i++ % keys.size()]);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeGet)->Arg(100000);

void BM_BtreeScan(benchmark::State& state) {
  BtreeFixtureState fx;
  auto tree = BPlusTree<uint64_t, uint64_t>::Create(fx.pool);
  PRIX_CHECK(tree.ok());
  for (uint64_t k = 0; k < 100000; ++k) {
    PRIX_CHECK(tree->Insert(k, k).ok());
  }
  for (auto _ : state) {
    auto it = tree->SeekToFirst();
    PRIX_CHECK(it.ok());
    uint64_t sum = 0;
    while (it->Valid()) {
      sum += it->value();
      PRIX_CHECK(it->Next().ok());
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_BtreeScan);

// ---- B+-tree cursors over a real Trie-Symbol tree ----

/// SWISSPROT's EP Trie-Symbol tree (6,000 entries), built once into a pool
/// larger than the file so every probe is warm, with its keys in order.
struct SymbolTreeFixture {
  BtreeFixtureState fx;
  std::unique_ptr<PrixIndex> index;
  std::vector<SymbolKey> keys;

  SymbolTreeFixture() {
    datagen::SwissprotConfig config;
    config.num_entries = 6000;
    DocumentCollection coll = datagen::GenerateSwissprot(config);
    PrixIndexOptions options;
    options.extended = true;
    auto built = PrixIndex::Build(coll.documents, fx.pool, options);
    PRIX_CHECK(built.ok());
    index = std::move(*built);
    auto it = index->symbol_index().SeekToFirst();
    PRIX_CHECK(it.ok());
    while (it->Valid()) {
      keys.push_back(it->key());
      PRIX_CHECK(it->Next().ok());
    }
  }

  static SymbolTreeFixture& Get() {
    static SymbolTreeFixture fixture;
    return fixture;
  }
};

/// A fresh Seek to a random key, then three Next: what a range query of
/// Algorithm 1 cost before its cursors were reused.
void BM_BtreeSeekNext(benchmark::State& state) {
  SymbolTreeFixture& f = SymbolTreeFixture::Get();
  Random rng(11);
  for (auto _ : state) {
    auto it = f.index->symbol_index().Seek(f.keys[rng.Uniform(f.keys.size())]);
    PRIX_CHECK(it.ok());
    for (int i = 0; i < 3 && it->Valid(); ++i) PRIX_CHECK(it->Next().ok());
    benchmark::DoNotOptimize(it->Valid());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeSeekNext);

/// One reused cursor repositioned by Reseek: cross_leaf:0 walks the keys
/// in order three at a time, so nearly every probe stays in the cursor's
/// leaf; cross_leaf:1 visits them shuffled, so nearly every probe descends
/// from the root.
void BM_BtreeReseek(benchmark::State& state) {
  SymbolTreeFixture& f = SymbolTreeFixture::Get();
  std::vector<SymbolKey> probes = f.keys;
  size_t step = 3;
  if (state.range(0) == 1) {
    Random rng(13);
    for (size_t i = probes.size(); i > 1; --i) {
      std::swap(probes[i - 1], probes[rng.Uniform(i)]);
    }
    step = 1;
  }
  PrixIndex::SymbolTree::Iterator cursor(f.index->symbol_index());
  size_t i = 0;
  for (auto _ : state) {
    PRIX_CHECK(cursor.Reseek(probes[i]).ok());
    benchmark::DoNotOptimize(cursor.Valid());
    i = (i + step) % probes.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeReseek)->ArgName("cross_leaf")->Arg(0)->Arg(1);

// ---- Buffer pool ----

void BM_BufferPoolHit(benchmark::State& state) {
  BtreeFixtureState fx;
  auto page = fx.pool->NewPage();
  PRIX_CHECK(page.ok());
  PageId id = (*page)->page_id();
  fx.pool->UnpinPage(id, true);
  for (auto _ : state) {
    auto p = fx.pool->FetchPage(id);
    benchmark::DoNotOptimize(p);
    fx.pool->UnpinPage(id, false);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolHit);

void BM_BufferPoolMissEvict(benchmark::State& state) {
  // Working set twice the pool size: every fetch misses and evicts.
  BtreeFixtureState fx(/*pool_pages=*/64);
  std::vector<PageId> ids;
  for (int i = 0; i < 128; ++i) {
    auto page = fx.pool->NewPage();
    PRIX_CHECK(page.ok());
    ids.push_back((*page)->page_id());
    fx.pool->UnpinPage(ids.back(), true);
  }
  size_t i = 0;
  for (auto _ : state) {
    PageId id = ids[(i += 65) % ids.size()];
    auto p = fx.pool->FetchPage(id);
    benchmark::DoNotOptimize(p);
    fx.pool->UnpinPage(id, false);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolMissEvict);

// ---- Whole-dataset transformation throughput ----

void BM_TransformTreebank(benchmark::State& state) {
  datagen::TreebankConfig config;
  config.num_sentences = 500;
  DocumentCollection coll = datagen::GenerateTreebank(config);
  for (auto _ : state) {
    uint64_t total = 0;
    for (const Document& doc : coll.documents) {
      total += BuildPruferSequences(doc).lps.size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * coll.TotalNodes());
}
BENCHMARK(BM_TransformTreebank);

}  // namespace
}  // namespace prix

BENCHMARK_MAIN();
