// Replication benchmark (DESIGN.md §5l): one leader, one read-only
// follower over loopback, DBLP-analog workload. Four phases:
//
//   1. bootstrap    - a fresh follower joins: full snapshot ship (the
//                     seed build's index-publish barrier is not
//                     replayable) plus stream-to-tip. Reports seconds.
//   2. catch-up     - the follower is stopped while the leader commits a
//                     burst, then reconnects and replays the backlog from
//                     its durable cursor. Reports records/sec — the
//                     recovery speed after a follower outage.
//   3. steady state - the follower streams while the leader commits one
//                     document at a time. Reports replication lag per
//                     commit, both in generations (sampled right after
//                     the leader's commit) and in milliseconds until the
//                     follower has applied that commit (p50/p95).
//   4. replay reads - snapshot readers run the Table-3 DBLP mix against
//                     the follower WHILE it replays a leader burst.
//                     Reports the readers' batch p50/p95 — what a client
//                     pointed at a catching-up follower actually sees.
//
// Emits BENCH_replication.json (rows + build info + metrics registry).
// PRIX_BENCH_SCALE scales the collection.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "prix/engine.h"
#include "repl/client.h"
#include "repl/sender.h"

using namespace prix;
using namespace prix::bench;

namespace {

constexpr const char* kReaderQueries[] = {kQ1, kQ2, kQ3};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool WaitApplied(ReplClient* client, uint64_t target, double timeout_s) {
  double deadline = Now() + timeout_s;
  while (Now() < deadline) {
    if (client->stats().applied_gen >= target) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::fprintf(stderr, "follower stuck at gen %llu of %llu: %s\n",
               (unsigned long long)client->stats().applied_gen,
               (unsigned long long)target,
               client->last_error().ToString().c_str());
  return false;
}

}  // namespace

int main() {
  const double scale = ScaleFromEnv({"DBLP"});
  DocumentCollection coll = MakeDataset("DBLP", scale);
  const size_t total = coll.documents.size();
  const size_t seed_count = total / 2;
  const size_t burst = (total - seed_count) / 3;
  if (burst == 0) {
    std::fprintf(stderr, "collection too small (%zu docs)\n", total);
    return 1;
  }
  std::printf("Replication bench: DBLP analog, %zu docs (%zu seed, 3 "
              "bursts of %zu)\n",
              total, seed_count, burst);

  char dir[] = "/tmp/prix_bench_repl_XXXXXX";
  if (mkdtemp(dir) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const std::string leader_path = std::string(dir) + "/leader.prix";
  const std::string follower_path = std::string(dir) + "/follower.prix";

  BenchReport report("replication", scale);

  auto leader = Database::Create(leader_path,
                                 Database::Options{.pool_pages = 2000});
  if (!leader.ok()) {
    std::fprintf(stderr, "create: %s\n", leader.status().ToString().c_str());
    return 1;
  }
  std::vector<Document> seed(coll.documents.begin(),
                             coll.documents.begin() + seed_count);
  auto index = PrixIndex::Build(seed, (*leader)->pool(), PrixIndexOptions{});
  if (!index.ok() || !(*index)->Save(leader->get(), "rp").ok()) {
    std::fprintf(stderr, "seed build failed\n");
    return 1;
  }

  auto sender = ReplSender::Start(leader->get(), {});
  if (!sender.ok()) {
    std::fprintf(stderr, "sender: %s\n", sender.status().ToString().c_str());
    return 1;
  }

  std::unique_ptr<Database> follower;
  {
    auto db = Database::Create(follower_path,
                               Database::Options{.pool_pages = 2000});
    if (!db.ok()) {
      std::fprintf(stderr, "follower create failed\n");
      return 1;
    }
    follower = std::move(*db);
  }
  ReplClientOptions copts;
  copts.port = (*sender)->port();
  copts.db_path = follower_path;
  copts.backoff_base_ms = 5;
  copts.backoff_cap_ms = 100;
  auto swap = [&](const std::string& tmp, uint64_t gen,
                  uint32_t manifest) -> Result<Database*> {
    follower->Abandon();
    follower.reset();
    PRIX_RETURN_NOT_OK(InstallSnapshotFile(tmp, follower_path));
    PRIX_ASSIGN_OR_RETURN(
        follower, Database::Open(follower_path,
                                 Database::Options{.pool_pages = 2000}));
    follower->StageReplCursor(gen, manifest);
    PRIX_RETURN_NOT_OK(follower->CommitBatch({}, {}));
    return follower.get();
  };

  // Phase 1: fresh-follower bootstrap (snapshot ship + stream to tip).
  double t0 = Now();
  auto client = ReplClient::Start(follower.get(), copts, swap);
  if (!client.ok()) {
    std::fprintf(stderr, "client: %s\n", client.status().ToString().c_str());
    return 1;
  }
  if (!WaitApplied(client->get(), (*leader)->catalog_generation(), 60)) {
    return 1;
  }
  double bootstrap_s = Now() - t0;
  uint64_t bootstrap_snapshots = (*client)->stats().snapshots_installed;
  std::printf("  bootstrap:    %.3fs (%llu snapshot)\n", bootstrap_s,
              (unsigned long long)bootstrap_snapshots);
  {
    JsonWriter w;
    w.BeginObject();
    w.Key("phase").String("bootstrap");
    w.Key("seconds").Double(bootstrap_s);
    w.Key("snapshots").UInt(bootstrap_snapshots);
    w.EndObject();
    report.AddRawRow(w.Take());
  }

  // Phase 2: catch-up after an outage. Stop the follower, commit a burst
  // on the leader, reconnect, replay from the durable cursor.
  client->reset();
  size_t at = seed_count;
  for (size_t i = 0; i < burst; ++i, ++at) {
    auto id = (*leader)->InsertDocument("rp", coll.documents[at]);
    if (!id.ok()) {
      std::fprintf(stderr, "insert: %s\n", id.status().ToString().c_str());
      return 1;
    }
  }
  uint64_t backlog_from = follower->repl_cursor().first;
  uint64_t backlog_to = (*leader)->catalog_generation();
  t0 = Now();
  client = ReplClient::Start(follower.get(), copts, swap);
  if (!client.ok() || !WaitApplied(client->get(), backlog_to, 120)) {
    return 1;
  }
  double catchup_s = Now() - t0;
  uint64_t backlog = backlog_to - backlog_from;
  std::printf("  catch-up:     %llu records in %.3fs = %.1f records/s\n",
              (unsigned long long)backlog, catchup_s, backlog / catchup_s);
  if ((*client)->stats().snapshots_installed > 0) {
    std::fprintf(stderr, "catch-up fell back to a snapshot; records/s "
                         "would be meaningless\n");
    return 1;
  }
  {
    JsonWriter w;
    w.BeginObject();
    w.Key("phase").String("catchup");
    w.Key("records").UInt(backlog);
    w.Key("seconds").Double(catchup_s);
    w.Key("records_per_sec").Double(backlog / catchup_s);
    w.EndObject();
    report.AddRawRow(w.Take());
  }

  // Phase 3: steady-state lag, one commit at a time.
  MetricHistogram lag_us, lag_gens;
  for (size_t i = 0; i < burst; ++i, ++at) {
    auto id = (*leader)->InsertDocument("rp", coll.documents[at]);
    if (!id.ok()) return 1;
    uint64_t target = (*leader)->catalog_generation();
    double s = Now();
    lag_gens.Record(target - (*client)->stats().applied_gen);
    if (!WaitApplied(client->get(), target, 30)) return 1;
    lag_us.Record(static_cast<uint64_t>((Now() - s) * 1e6));
  }
  std::printf("  steady state: %zu commits; lag p50 %.3f ms, p95 %.3f ms; "
              "%llu gens max behind\n",
              (size_t)burst, lag_us.Percentile(0.5) / 1e3,
              lag_us.Percentile(0.95) / 1e3,
              (unsigned long long)lag_gens.max());
  {
    JsonWriter w;
    w.BeginObject();
    w.Key("phase").String("steady_state");
    w.Key("commits").UInt(burst);
    w.Key("lag_ms_p50").Double(lag_us.Percentile(0.5) / 1e3);
    w.Key("lag_ms_p95").Double(lag_us.Percentile(0.95) / 1e3);
    w.Key("lag_ms_max").Double(lag_us.max() / 1e3);
    w.Key("lag_gens_p50").UInt(lag_gens.Percentile(0.5));
    w.Key("lag_gens_p95").UInt(lag_gens.Percentile(0.95));
    w.Key("lag_gens_max").UInt(lag_gens.max());
    w.EndObject();
    report.AddRawRow(w.Take());
  }

  // Phase 4: snapshot readers against the follower while it replays a
  // leader burst at full speed.
  const std::vector<std::string> mix(kReaderQueries, kReaderQueries + 3);
  MetricHistogram reader_latency;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batches{0};
  std::atomic<bool> reader_failed{false};
  Database* follower_db = follower.get();
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      double s = Now();
      auto batch = ExecuteXPathBatch(follower_db, EngineKind::kPrix,
                                     {.ep = ""}, mix, &coll.dictionary);
      if (!batch.ok()) {
        std::fprintf(stderr, "follower reader: %s\n",
                     batch.status().ToString().c_str());
        reader_failed.store(true);
        return;
      }
      reader_latency.Record(static_cast<uint64_t>((Now() - s) * 1e6));
      batches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  t0 = Now();
  uint64_t replay_from = (*leader)->catalog_generation();
  for (; at < total; ++at) {
    auto id = (*leader)->InsertDocument("rp", coll.documents[at]);
    if (!id.ok()) return 1;
  }
  bool caught = WaitApplied(client->get(), (*leader)->catalog_generation(),
                            120);
  double replay_s = Now() - t0;
  stop.store(true);
  reader.join();
  if (!caught || reader_failed.load()) return 1;
  uint64_t replayed = (*leader)->catalog_generation() - replay_from;
  std::printf("  replay reads: %llu records replayed in %.3fs under %llu "
              "reader batches; batch p50 %lu us, p95 %lu us\n",
              (unsigned long long)replayed, replay_s,
              (unsigned long long)batches.load(),
              (unsigned long)reader_latency.Percentile(0.5),
              (unsigned long)reader_latency.Percentile(0.95));
  {
    JsonWriter w;
    w.BeginObject();
    w.Key("phase").String("replay_reads");
    w.Key("records").UInt(replayed);
    w.Key("seconds").Double(replay_s);
    w.Key("records_per_sec").Double(replayed / replay_s);
    w.Key("reader_batches").UInt(batches.load());
    w.Key("queries_per_batch").UInt(mix.size());
    w.Key("batch_p50_us").UInt(reader_latency.Percentile(0.5));
    w.Key("batch_p95_us").UInt(reader_latency.Percentile(0.95));
    w.Key("batch_max_us").UInt(reader_latency.max());
    w.EndObject();
    report.AddRawRow(w.Take());
  }

  // Teardown: repl threads first, then the databases they point into.
  client->reset();
  (*sender)->Stop();
  if (!follower->Close().ok() || !(*leader)->Close().ok()) {
    std::fprintf(stderr, "close failed\n");
    return 1;
  }
  std::string cleanup = "rm -rf " + std::string(dir);
  if (std::system(cleanup.c_str()) != 0) {
    std::fprintf(stderr, "cleanup failed\n");
  }

  if (Status st = report.Write(); !st.ok()) {
    std::fprintf(stderr, "report: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
