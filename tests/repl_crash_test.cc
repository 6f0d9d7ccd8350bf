// Replication crash matrix (DESIGN.md §5l), in the style of
// ingest_crash_test.cc: the leader reruns its workload crashing at every
// oplog write and sync point — the oplog append is fsync-ordered BEFORE
// the catalog header flips, so after any crash the recovered log must
// cover exactly the committed history and a follower bootstrapped from
// the survivor must reconverge to oracle-identical answers. Then the
// follower side: replay crashes at every write point of ITS database
// file; the durable cursor (staged into the same commit as the applied
// state) must let a recovered follower resume mid-stream and finish with
// answers identical to the leader's.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "prix/prix_index.h"
#include "prix/query_processor.h"
#include "repl/apply.h"
#include "repl/client.h"
#include "storage/fault_injector.h"
#include "storage/oplog.h"
#include "testutil/tree_gen.h"
#include "xml/tag_dictionary.h"

namespace prix {
namespace {

using testutil::DocFromSexp;

const char* const kInsertSexps[] = {
    "(book (editor (name)) (title) (year))",
    "(article (editor (name)) (journal))",
    "(book (author (name) (name)) (title) (year) (isbn))",
};
const char* const kQueries[] = {"//author/name", "//book[./year]",
                                "//editor"};

class ReplCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/prix_repl_crash_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::string cmd = "rm -rf " + dir_;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  static Database::Options LeaderOptions(FaultInjector* oplog_inj) {
    Database::Options opts;
    opts.pool_pages = 64;
    opts.oplog_fault_injector = oplog_inj;
    return opts;
  }

  // Leader workload: create -> build+save rp -> 3 inserts -> close, with
  // the injector on the OPLOG file. Returns the last generation committed
  // with an OK status (0 = even Create failed).
  uint64_t RunLeaderUntilCrash(const std::string& path, FaultInjector* inj) {
    auto db = Database::Create(path, LeaderOptions(inj));
    if (!db.ok()) return 0;
    uint64_t last_ok = (*db)->catalog_generation();

    std::vector<Document> seed;
    seed.push_back(DocFromSexp("(book (author (name)) (title))", 0, &dict_));
    seed.push_back(DocFromSexp("(article (author (name)))", 1, &dict_));
    auto index = PrixIndex::Build(seed, (*db)->pool(), PrixIndexOptions{});
    Status st = index.ok() ? (*index)->Save(db->get(), "rp") : index.status();
    if (!st.ok()) {
      (*db)->Abandon();
      return last_ok;
    }
    last_ok = (*db)->catalog_generation();

    for (size_t i = 0; i < 3; ++i) {
      Document doc =
          DocFromSexp(kInsertSexps[i], static_cast<DocId>(2 + i), &dict_);
      auto inserted = (*db)->InsertDocument("rp", doc);
      if (!inserted.ok()) {
        (*db)->Abandon();
        return last_ok;
      }
      last_ok = (*db)->catalog_generation();
    }
    st = (*db)->Close();
    if (!st.ok()) {
      (*db)->Abandon();
      return last_ok;
    }
    return last_ok + 1;
  }

  // After a leader crash: reopen cleanly and check the oplog invariant the
  // replication layer depends on — the recovered chain ends exactly at the
  // recovered catalog generation, with a verifiable manifest at every
  // covered generation.
  void CheckLeaderRecovery(const std::string& path, uint64_t last_ok) {
    auto db = Database::Open(path, Database::Options{.pool_pages = 64});
    if (!db.ok()) {
      EXPECT_EQ(last_ok, 0u) << "committed generation " << last_ok
                             << " lost: " << db.status().ToString();
      return;
    }
    uint64_t gen = (*db)->catalog_generation();
    EXPECT_TRUE(gen == last_ok || gen == last_ok + 1)
        << "recovered generation " << gen << ", last committed " << last_ok;
    OpLog* log = (*db)->oplog();
    EXPECT_EQ(log->last_gen(), gen)
        << "oplog tail must track the recovered catalog";
    uint32_t prev = log->base_manifest();
    for (uint64_t g = log->base_gen() + 1; g <= log->last_gen(); ++g) {
      auto rec = log->RecordAt(g);
      ASSERT_TRUE(rec.ok()) << "gen " << g << ": "
                            << rec.status().ToString();
      EXPECT_EQ(rec->manifest,
                OpLog::ChainManifest(prev, g, rec->kind,
                                     rec->payload.data(),
                                     rec->payload.size()));
      prev = rec->manifest;
    }
    // The recovered leader still queries (no committed document lost).
    if ((*db)->HasIndex("rp")) {
      auto index = PrixIndex::Open(db->get(), "rp");
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      QueryProcessor qp(**db, index->get(), nullptr);
      for (const char* q : kQueries) {
        auto result = qp.ExecuteXPath(q, &dict_);
        EXPECT_TRUE(result.ok()) << q << ": " << result.status().ToString();
      }
    }
    ASSERT_TRUE((*db)->Close().ok());
  }

  std::vector<DocId> Query(Database* db, const std::string& xpath) {
    auto index = PrixIndex::Open(db, "rp");
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    if (!index.ok()) return {};
    QueryProcessor qp(*db, index->get(), nullptr);
    auto result = qp.ExecuteXPath(xpath, &dict_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->docs : std::vector<DocId>{};
  }

  TagDictionary dict_;
  std::string dir_;
};

TEST_F(ReplCrashTest, LeaderCrashAtEveryOplogWritePoint) {
  FaultInjector counting;
  uint64_t gen = RunLeaderUntilCrash(dir_ + "/reference.prix", &counting);
  ASSERT_GT(gen, 0u);
  ASSERT_FALSE(counting.crashed());
  uint64_t total = counting.op_count(FaultInjector::Op::kWrite) +
                   counting.op_count(FaultInjector::Op::kExtend);
  ASSERT_GE(total, 6u) << "one append per commit: create, save, 3 inserts, "
                          "close";

  for (uint64_t k = 1; k <= total; ++k) {
    SCOPED_TRACE("oplog write " + std::to_string(k));
    const std::string path = dir_ + "/w" + std::to_string(k) + ".prix";
    FaultInjector inj(0xc2b2ae35u + k);
    inj.CrashAtWrite(k);
    uint64_t last_ok = RunLeaderUntilCrash(path, &inj);
    ASSERT_TRUE(inj.crashed()) << "crash point " << k << " never fired";
    ASSERT_NO_FATAL_FAILURE(CheckLeaderRecovery(path, last_ok));
  }
}

TEST_F(ReplCrashTest, LeaderCrashAtEveryOplogSyncPoint) {
  FaultInjector counting;
  uint64_t gen = RunLeaderUntilCrash(dir_ + "/reference.prix", &counting);
  ASSERT_GT(gen, 0u);
  uint64_t total = counting.op_count(FaultInjector::Op::kSync);
  ASSERT_GE(total, 6u);

  for (uint64_t k = 1; k <= total; ++k) {
    SCOPED_TRACE("oplog sync " + std::to_string(k));
    const std::string path = dir_ + "/s" + std::to_string(k) + ".prix";
    FaultInjector inj(0x27d4eb2fu + k);
    inj.CrashAtSync(k);
    uint64_t last_ok = RunLeaderUntilCrash(path, &inj);
    ASSERT_TRUE(inj.crashed()) << "crash point " << k << " never fired";
    ASSERT_NO_FATAL_FAILURE(CheckLeaderRecovery(path, last_ok));
  }
}

// ---- follower replay crash sweep --------------------------------------

class FollowerReplayCrashTest : public ReplCrashTest {
 protected:
  // Builds the leader (no faults), snapshots it right after the index
  // publish (the point a real follower bootstraps at), then keeps
  // inserting. The follower replays the leader's post-snapshot records.
  void BuildLeaderAndBootstrap() {
    leader_path_ = dir_ + "/leader.prix";
    follower_seed_path_ = dir_ + "/follower_seed.prix";
    auto db = Database::Create(leader_path_,
                               Database::Options{.pool_pages = 64});
    ASSERT_TRUE(db.ok());
    std::vector<Document> seed;
    seed.push_back(DocFromSexp("(book (author (name)) (title))", 0, &dict_));
    seed.push_back(DocFromSexp("(article (author (name)))", 1, &dict_));
    auto index = PrixIndex::Build(seed, (*db)->pool(), PrixIndexOptions{});
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE((*index)->Save(db->get(), "rp").ok());
    ASSERT_TRUE((*db)->Close().ok());

    // The bootstrap snapshot: a byte copy of the leader file at the
    // post-publish generation (what a snapshot ship delivers).
    std::string cmd = "cp " + leader_path_ + " " + follower_seed_path_;
    ASSERT_EQ(std::system(cmd.c_str()), 0);

    auto reopened = Database::Open(leader_path_,
                                   Database::Options{.pool_pages = 64});
    ASSERT_TRUE(reopened.ok());
    snapshot_gen_ = 0;  // set below: generation the copy was taken at
    leader_ = std::move(*reopened);
    // Reopen committed one more generation than the copy holds? No: Open
    // does not commit. The copy is at the same generation the leader
    // reopened at.
    snapshot_gen_ = leader_->catalog_generation();
    for (size_t i = 0; i < 3; ++i) {
      Document doc =
          DocFromSexp(kInsertSexps[i], static_cast<DocId>(2 + i), &dict_);
      auto inserted = leader_->InsertDocument("rp", doc);
      ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    }
  }

  // Replays leader records (from..] into the follower db until one fails
  // (crash injection) or the stream is exhausted. Returns the status of
  // the first failure.
  Status ReplayInto(Database* fdb) {
    OpLog* log = leader_->oplog();
    uint64_t cursor = fdb->repl_cursor().first;
    while (cursor < log->last_gen()) {
      auto rec = log->RecordAt(cursor + 1);
      if (!rec.ok()) return rec.status();
      fdb->StageReplCursor(rec->gen, rec->manifest);
      Status st = ApplyOpRecord(fdb, static_cast<uint8_t>(rec->kind),
                                rec->payload, {});
      if (!st.ok()) return st;
      cursor = rec->gen;
    }
    return Status::OK();
  }

  std::string leader_path_, follower_seed_path_;
  std::unique_ptr<Database> leader_;
  uint64_t snapshot_gen_ = 0;
};

TEST_F(FollowerReplayCrashTest, CrashAtEveryReplayWritePointResumes) {
  BuildLeaderAndBootstrap();
  std::vector<DocId> expect[3];
  for (int q = 0; q < 3; ++q) expect[q] = Query(leader_.get(), kQueries[q]);

  // Reference replay to count the follower's write points.
  uint64_t total = 0;
  {
    std::string path = dir_ + "/follower_ref.prix";
    std::string cmd = "cp " + follower_seed_path_ + " " + path;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    FaultInjector counting;
    Database::Options opts;
    opts.pool_pages = 64;
    opts.fault_injector = &counting;
    auto fdb = Database::Open(path, opts);
    ASSERT_TRUE(fdb.ok());
    (*fdb)->StageReplCursor(
        snapshot_gen_,
        leader_->oplog()->ManifestAt(snapshot_gen_).ValueOrDie());
    ASSERT_TRUE((*fdb)->CommitBatch({}, {}).ok());
    ASSERT_TRUE(ReplayInto(fdb->get()).ok());
    for (int q = 0; q < 3; ++q) {
      EXPECT_EQ(Query(fdb->get(), kQueries[q]), expect[q]) << kQueries[q];
    }
    // Count before Close: its extra commit is a write point the crash legs
    // (which Abandon after replay) never reach.
    total = counting.op_count(FaultInjector::Op::kWrite) +
            counting.op_count(FaultInjector::Op::kExtend);
    ASSERT_TRUE((*fdb)->Close().ok());
    ASSERT_GE(total, 10u) << "the replay sweep must have real coverage";
  }

  for (uint64_t k = 1; k <= total; ++k) {
    SCOPED_TRACE("replay write " + std::to_string(k));
    std::string path = dir_ + "/follower_w" + std::to_string(k) + ".prix";
    std::string cmd = "cp " + follower_seed_path_ + " " + path;
    ASSERT_EQ(std::system(cmd.c_str()), 0);

    // Crash leg: open with the injector, persist the bootstrap cursor,
    // replay until the crash fires.
    {
      FaultInjector inj(0x9e3779b9u + k);
      inj.CrashAtWrite(k);
      Database::Options opts;
      opts.pool_pages = 64;
      opts.fault_injector = &inj;
      auto fdb = Database::Open(path, opts);
      if (fdb.ok()) {
        (*fdb)->StageReplCursor(
            snapshot_gen_,
            leader_->oplog()->ManifestAt(snapshot_gen_).ValueOrDie());
        if ((*fdb)->CommitBatch({}, {}).ok()) {
          (void)ReplayInto(fdb->get());
        }
        (*fdb)->Abandon();
      }
      ASSERT_TRUE(inj.crashed()) << "crash point " << k << " never fired";
    }

    // Recovery leg: reopen cleanly, resume from the durable cursor, and
    // the finished follower must answer exactly like the leader.
    {
      auto fdb = Database::Open(path, Database::Options{.pool_pages = 64});
      ASSERT_TRUE(fdb.ok()) << fdb.status().ToString();
      uint64_t cursor = (*fdb)->repl_cursor().first;
      if (cursor == 0) {
        // Crashed before the bootstrap cursor committed: a real follower
        // would re-request the snapshot. Re-stage and replay everything.
        (*fdb)->StageReplCursor(
            snapshot_gen_,
            leader_->oplog()->ManifestAt(snapshot_gen_).ValueOrDie());
        ASSERT_TRUE((*fdb)->CommitBatch({}, {}).ok());
      } else {
        // The durable cursor must sit on the leader's manifest chain.
        auto manifest = leader_->oplog()->ManifestAt(cursor);
        ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
        EXPECT_EQ((*fdb)->repl_cursor().second, *manifest);
      }
      Status st = ReplayInto(fdb->get());
      ASSERT_TRUE(st.ok()) << st.ToString();
      for (int q = 0; q < 3; ++q) {
        EXPECT_EQ(Query(fdb->get(), kQueries[q]), expect[q]) << kQueries[q];
      }
      ASSERT_TRUE((*fdb)->Close().ok());
    }
  }
}

}  // namespace
}  // namespace prix
