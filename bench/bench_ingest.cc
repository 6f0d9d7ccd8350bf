// Online-ingest benchmark (DESIGN.md §5i): insert throughput into a live
// PRIX index, alone and under concurrent snapshot readers, plus the reader
// latency those readers observe while the writer churns. Two phases over a
// DBLP-analog collection:
//
//   1. solo ingest  - one writer inserts the second half of the collection
//                     document by document, no readers. Reports docs/sec
//                     and the per-insert latency distribution.
//   2. contended    - the writer re-ingests at the same rate while reader
//                     threads run the Table-3 DBLP query mix through
//                     ExecuteXPathBatch in a closed loop. Reports
//                     both sides: insert throughput under readers and the
//                     readers' per-batch p50/p95 — the number that shows
//                     whether snapshot isolation keeps readers off the
//                     writer's lock path.
//   3. tri solo     - same solo ingest against a database where ViST,
//                     TwigStack streams, and the XB-forest are co-resident
//                     (DESIGN.md §5k), so every commit carries four
//                     engines. The docs/sec delta against phase 1 is the
//                     price of keeping every engine live.
//   4. tri contended- tri-engine ingest under a PRIX snapshot reader plus a
//                     derived-engine reader that runs ViST and TwigStackXB
//                     batches through ExecuteXPathBatch; reports
//                     per-engine reader p50/p95, which include each
//                     engine's one open per committed generation.
//
// Every phase also reports the database file's size in pages; a phase that
// grows it past kMaxDbBytes stops the bench with exit 1 rather than fill
// the disk. Emits BENCH_ingest.json. PRIX_BENCH_SCALE scales the
// collection.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "prix/engine.h"

using namespace prix;
using namespace prix::bench;

namespace {

constexpr const char* kReaderQueries[] = {kQ1, kQ2, kQ3};
constexpr size_t kReaderThreads = 2;
/// Ceiling on the database file; IngestRange fails once a commit passes it.
constexpr uint64_t kMaxDbBytes = uint64_t{2} << 30;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct IngestPhase {
  size_t docs = 0;
  double seconds = 0;
  double docs_per_sec = 0;
  uint64_t insert_p50_us = 0;
  uint64_t insert_p95_us = 0;
  uint64_t insert_max_us = 0;
  uint32_t db_pages = 0;  ///< database file size after the phase
};

// Inserts documents [begin, end) of `coll` one commit at a time, failing
// with ResourceExhausted once the file passes kMaxDbBytes.
Status IngestRange(Database* db, const DocumentCollection& coll, size_t begin,
                   size_t end, MetricHistogram* latency, IngestPhase* out) {
  double t0 = Now();
  for (size_t i = begin; i < end; ++i) {
    double s = Now();
    auto id = db->InsertDocument("rp", coll.documents[i]);
    if (!id.ok()) return id.status();
    latency->Record(static_cast<uint64_t>((Now() - s) * 1e6));
    const uint32_t pages = db->disk()->num_pages();
    if (uint64_t{pages} * kPageSize > kMaxDbBytes) {
      return Status::ResourceExhausted(
          "database file reached " + std::to_string(pages) + " pages (" +
          std::to_string((uint64_t{pages} * kPageSize) >> 20) +
          " MiB) after " + std::to_string(i + 1 - begin) +
          " inserts, past the " + std::to_string(kMaxDbBytes >> 20) +
          " MiB limit");
    }
  }
  out->db_pages = db->disk()->num_pages();
  out->docs = end - begin;
  out->seconds = Now() - t0;
  out->docs_per_sec = out->docs / out->seconds;
  out->insert_p50_us = latency->Percentile(0.5);
  out->insert_p95_us = latency->Percentile(0.95);
  out->insert_max_us = latency->max();
  return Status::OK();
}

void PrintPhase(const char* label, const IngestPhase& p) {
  std::printf("  %-17s %6zu docs in %7.3fs = %8.1f docs/s (p50 %lu us, "
              "p95 %lu us); file %u pages (%lu MiB)\n",
              label, p.docs, p.seconds, p.docs_per_sec,
              (unsigned long)p.insert_p50_us, (unsigned long)p.insert_p95_us,
              p.db_pages,
              (unsigned long)((uint64_t{p.db_pages} * kPageSize) >> 20));
}

}  // namespace

int main() {
  const double scale = ScaleFromEnv({"DBLP"});
  DocumentCollection coll = MakeDataset("DBLP", scale);
  const size_t total = coll.documents.size();
  const size_t seed_count = total / 2;
  std::printf("Online ingest bench: DBLP analog, %zu docs (%zu seed + %zu "
              "ingested)\n",
              total, seed_count, total - seed_count);

  char dir[] = "/tmp/prix_bench_ingest_XXXXXX";
  if (mkdtemp(dir) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  // Removes the directory with everything in it, oplog sidecars included,
  // on every exit path, after the databases declared below have closed.
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() { std::filesystem::remove_all(dir); }
  } const cleanup{dir};
  const std::string path = std::string(dir) + "/ingest.prix";
  auto db = Database::Create(path, Database::Options{.pool_pages = 2000});
  if (!db.ok()) {
    std::fprintf(stderr, "create: %s\n", db.status().ToString().c_str());
    return 1;
  }

  // Seed: bulk-build the first half, exact-labeled as `prix index` does;
  // the first insert grows the root scope and relabels once.
  std::vector<Document> seed(coll.documents.begin(),
                             coll.documents.begin() + seed_count);
  auto index = PrixIndex::Build(seed, (*db)->pool(), PrixIndexOptions{});
  if (!index.ok() || !(*index)->Save(db->get(), "rp").ok()) {
    std::fprintf(stderr, "seed build failed\n");
    return 1;
  }

  // Phase 1: solo ingest of the third quarter.
  const size_t solo_end = seed_count + (total - seed_count) / 2;
  MetricHistogram solo_latency;
  IngestPhase solo;
  if (Status st =
          IngestRange(db->get(), coll, seed_count, solo_end, &solo_latency,
                      &solo);
      !st.ok()) {
    std::fprintf(stderr, "solo ingest: %s\n", st.ToString().c_str());
    return 1;
  }
  PrintPhase("solo ingest:", solo);

  // Phase 2: ingest the final quarter under concurrent snapshot readers.
  const std::vector<std::string> mix(kReaderQueries, kReaderQueries + 3);
  MetricHistogram reader_latency;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batches{0};
  std::atomic<bool> reader_failed{false};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaderThreads; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        double s = Now();
        auto batch = ExecuteXPathBatch(db->get(), EngineKind::kPrix,
                                       {.ep = ""}, mix, &coll.dictionary);
        if (!batch.ok()) {
          std::fprintf(stderr, "reader batch: %s\n",
                       batch.status().ToString().c_str());
          reader_failed.store(true);
          return;
        }
        reader_latency.Record(static_cast<uint64_t>((Now() - s) * 1e6));
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  MetricHistogram contended_latency;
  IngestPhase contended;
  Status st = IngestRange(db->get(), coll, solo_end, total,
                          &contended_latency, &contended);
  stop.store(true);
  for (auto& t : readers) t.join();
  if (!st.ok() || reader_failed.load()) {
    std::fprintf(stderr, "contended ingest: %s\n", st.ToString().c_str());
    return 1;
  }
  PrintPhase("contended ingest:", contended);
  std::printf("  readers:          %6lu batches of %zu queries, p50 %lu us, "
              "p95 %lu us, max %lu us\n",
              (unsigned long)batches.load(), mix.size(),
              (unsigned long)reader_latency.Percentile(0.5),
              (unsigned long)reader_latency.Percentile(0.95),
              (unsigned long)reader_latency.max());

  if (Status close = (*db)->Close(); !close.ok()) {
    std::fprintf(stderr, "close: %s\n", close.ToString().c_str());
    return 1;
  }
  std::remove(path.c_str());

  // Phases 3/4: the same ingest with co-resident ViST + TwigStack + XB
  // engines riding every commit.
  const std::string tri_path = std::string(dir) + "/tri.prix";
  auto tdb = Database::Create(tri_path, Database::Options{.pool_pages = 2000});
  if (!tdb.ok()) {
    std::fprintf(stderr, "tri create: %s\n", tdb.status().ToString().c_str());
    return 1;
  }
  {
    auto tri_index = PrixIndex::Build(seed, (*tdb)->pool(), PrixIndexOptions{});
    if (!tri_index.ok() || !(*tri_index)->Save(tdb->get(), "rp").ok()) {
      std::fprintf(stderr, "tri seed build failed\n");
      return 1;
    }
    auto vist = VistIndex::Build(seed, (*tdb)->pool(), nullptr);
    if (!vist.ok() || !(*vist)->Save(tdb->get(), "v").ok()) {
      std::fprintf(stderr, "tri vist build failed\n");
      return 1;
    }
    auto streams = StreamStore::Build(seed, (*tdb)->pool());
    if (!streams.ok() || !(*streams)->Save(tdb->get(), "ts").ok()) {
      std::fprintf(stderr, "tri stream build failed\n");
      return 1;
    }
    auto forest = XbForest::Build(streams->get());
    if (!forest.ok() || !(*forest)->Save(tdb->get(), "xb").ok()) {
      std::fprintf(stderr, "tri forest build failed\n");
      return 1;
    }
  }

  MetricHistogram tri_solo_latency;
  IngestPhase tri_solo;
  if (Status st2 = IngestRange(tdb->get(), coll, seed_count, solo_end,
                               &tri_solo_latency, &tri_solo);
      !st2.ok()) {
    std::fprintf(stderr, "tri solo ingest: %s\n", st2.ToString().c_str());
    return 1;
  }
  PrintPhase("tri solo ingest:", tri_solo);
  std::printf("  %-17s x%.2f slower than prix-only\n", "",
              solo.docs_per_sec / tri_solo.docs_per_sec);

  // Structural members of the mix only: the derived readers measure
  // snapshot/page contention, and value-predicate handling differs per
  // engine.
  const std::vector<std::string> derived_mix = {
      kQ2, "//inproceedings/title", "//www//url"};
  std::atomic<bool> tri_stop{false};
  std::atomic<uint64_t> tri_batches{0};
  std::atomic<bool> tri_failed{false};
  MetricHistogram tri_prix_latency, vist_latency, twigstack_latency;
  std::thread tri_prix_reader([&] {
    while (!tri_stop.load(std::memory_order_relaxed)) {
      double s = Now();
      auto batch = ExecuteXPathBatch(tdb->get(), EngineKind::kPrix,
                                     {.ep = ""}, mix, &coll.dictionary);
      if (!batch.ok()) {
        std::fprintf(stderr, "tri prix reader: %s\n",
                     batch.status().ToString().c_str());
        tri_failed.store(true);
        return;
      }
      tri_prix_latency.Record(static_cast<uint64_t>((Now() - s) * 1e6));
      tri_batches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread derived_reader([&] {
    while (!tri_stop.load(std::memory_order_relaxed)) {
      for (auto [kind, latency] :
           {std::pair{EngineKind::kVist, &vist_latency},
            std::pair{EngineKind::kTwigStackXB, &twigstack_latency}}) {
        double s = Now();
        auto batch = ExecuteXPathBatch(tdb->get(), kind, {}, derived_mix,
                                       &coll.dictionary);
        if (!batch.ok()) {
          std::fprintf(stderr, "%s reader: %s\n", EngineKindName(kind),
                       batch.status().ToString().c_str());
          tri_failed.store(true);
          return;
        }
        latency->Record(static_cast<uint64_t>((Now() - s) * 1e6));
      }
      tri_batches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  MetricHistogram tri_contended_latency;
  IngestPhase tri_contended;
  Status tri_st = IngestRange(tdb->get(), coll, solo_end, total,
                              &tri_contended_latency, &tri_contended);
  tri_stop.store(true);
  tri_prix_reader.join();
  derived_reader.join();
  if (!tri_st.ok() || tri_failed.load()) {
    std::fprintf(stderr, "tri contended ingest: %s\n",
                 tri_st.ToString().c_str());
    return 1;
  }
  PrintPhase("tri contended:", tri_contended);
  std::printf("  tri readers:      %6lu batches; prix p95 %lu us, vist p95 "
              "%lu us, twigstackxb p95 %lu us\n",
              (unsigned long)tri_batches.load(),
              (unsigned long)tri_prix_latency.Percentile(0.95),
              (unsigned long)vist_latency.Percentile(0.95),
              (unsigned long)twigstack_latency.Percentile(0.95));

  if (Status close = (*tdb)->Close(); !close.ok()) {
    std::fprintf(stderr, "tri close: %s\n", close.ToString().c_str());
    return 1;
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("ingest");
  w.Key("scale").Double(scale);
  w.Key("total_docs").UInt(total);
  w.Key("seed_docs").UInt(seed_count);
  auto phase = [&](const char* name, const IngestPhase& p) {
    w.Key(name).BeginObject();
    w.Key("docs").UInt(p.docs);
    w.Key("seconds").Double(p.seconds);
    w.Key("docs_per_sec").Double(p.docs_per_sec);
    w.Key("insert_p50_us").UInt(p.insert_p50_us);
    w.Key("insert_p95_us").UInt(p.insert_p95_us);
    w.Key("insert_max_us").UInt(p.insert_max_us);
    w.Key("db_pages").UInt(p.db_pages);
    w.EndObject();
  };
  phase("solo", solo);
  phase("contended", contended);
  w.Key("readers").BeginObject();
  w.Key("threads").UInt(kReaderThreads);
  w.Key("queries_per_batch").UInt(mix.size());
  w.Key("batches").UInt(batches.load());
  w.Key("batch_p50_us").UInt(reader_latency.Percentile(0.5));
  w.Key("batch_p95_us").UInt(reader_latency.Percentile(0.95));
  w.Key("batch_max_us").UInt(reader_latency.max());
  w.EndObject();
  phase("tri_solo", tri_solo);
  phase("tri_contended", tri_contended);
  w.Key("tri_readers").BeginObject();
  w.Key("queries_per_batch").UInt(derived_mix.size());
  w.Key("batches").UInt(tri_batches.load());
  w.Key("prix_batch_p50_us").UInt(tri_prix_latency.Percentile(0.5));
  w.Key("prix_batch_p95_us").UInt(tri_prix_latency.Percentile(0.95));
  w.Key("vist_batch_p50_us").UInt(vist_latency.Percentile(0.5));
  w.Key("vist_batch_p95_us").UInt(vist_latency.Percentile(0.95));
  w.Key("twigstackxb_batch_p50_us").UInt(twigstack_latency.Percentile(0.5));
  w.Key("twigstackxb_batch_p95_us").UInt(twigstack_latency.Percentile(0.95));
  w.EndObject();
  w.EndObject();
  if (Status st = WriteJsonFile("BENCH_ingest.json", w.Take()); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_ingest.json\n");
  return 0;
}
