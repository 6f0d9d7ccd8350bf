// Replication layer tests (DESIGN.md §5l): the durable oplog's recovery
// contract (torn tails trimmed, gaps rebased, manifest chain stable across
// reopen), the repl wire frames against hostile bytes, record replay
// through ApplyOpRecord, the snapshot low-water bound on free-list reuse,
// and full in-process leader->follower convergence — fresh bootstrap via
// snapshot, live record streaming, divergence detection and resync, leader
// restart, and seeded link-fault schedules (drop, short transfer, garbled
// record) that must always reconverge.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "db/op_codec.h"
#include "prix/prix_index.h"
#include "prix/query_processor.h"
#include "repl/apply.h"
#include "repl/client.h"
#include "repl/sender.h"
#include "serve/wire.h"
#include "storage/oplog.h"
#include "storage/record_store.h"
#include "testutil/temp_db.h"
#include "testutil/tree_gen.h"
#include "xml/tag_dictionary.h"

namespace prix {
namespace {

using testutil::DocFromSexp;
using testutil::TempDb;

std::vector<char> Bytes(const std::string& s) {
  return std::vector<char>(s.begin(), s.end());
}

// ---- OpLog unit tests -------------------------------------------------

class OpLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/prix_oplog_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    path_ = dir_ + "/test.oplog";
  }
  void TearDown() override {
    std::string cmd = "rm -rf " + dir_;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  // Appends gens 1..n with distinct kinds/payloads; returns the manifests.
  std::vector<uint32_t> AppendChain(OpLog* log, uint64_t n) {
    std::vector<uint32_t> manifests;
    for (uint64_t g = 1; g <= n; ++g) {
      OpKind kind = static_cast<OpKind>(g % 4);  // rotate kNoop..kDelete
      std::vector<char> payload = Bytes("payload-" + std::to_string(g));
      EXPECT_TRUE(log->Append(g, kind, payload).ok());
      manifests.push_back(log->last_manifest());
    }
    return manifests;
  }

  std::string dir_, path_;
};

TEST_F(OpLogTest, AppendReadBackAndManifestChain) {
  OpLog log;
  ASSERT_TRUE(log.Open(path_, 0, true).ok());
  EXPECT_EQ(log.base_gen(), 0u);
  EXPECT_EQ(log.last_gen(), 0u);
  EXPECT_EQ(log.record_count(), 0u);

  std::vector<uint32_t> manifests = AppendChain(&log, 5);
  EXPECT_EQ(log.last_gen(), 5u);
  EXPECT_EQ(log.record_count(), 5u);

  // The chain rule is recomputable record by record — this is exactly what
  // the replication client does before applying a shipped record.
  uint32_t prev = log.base_manifest();
  for (uint64_t g = 1; g <= 5; ++g) {
    auto rec = log.RecordAt(g);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->gen, g);
    EXPECT_EQ(rec->payload, Bytes("payload-" + std::to_string(g)));
    uint32_t expect = OpLog::ChainManifest(prev, g, rec->kind,
                                           rec->payload.data(),
                                           rec->payload.size());
    EXPECT_EQ(rec->manifest, expect);
    EXPECT_EQ(rec->manifest, manifests[g - 1]);
    auto at = log.ManifestAt(g);
    ASSERT_TRUE(at.ok());
    EXPECT_EQ(*at, expect);
    prev = rec->manifest;
  }

  // Range contract: ManifestAt covers [base, last], RecordAt (base, last].
  EXPECT_TRUE(log.ManifestAt(0).ok());
  EXPECT_EQ(log.ManifestAt(6).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(log.RecordAt(0).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(log.RecordAt(6).status().code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(log.Close().ok());
}

TEST_F(OpLogTest, ReopenRecoversTheChain) {
  uint32_t tail = 0;
  {
    OpLog log;
    ASSERT_TRUE(log.Open(path_, 0, true).ok());
    AppendChain(&log, 4);
    tail = log.last_manifest();
    ASSERT_TRUE(log.Close().ok());
  }
  OpLog log;
  ASSERT_TRUE(log.Open(path_, 4, false).ok());
  EXPECT_EQ(log.base_gen(), 0u);
  EXPECT_EQ(log.last_gen(), 4u);
  EXPECT_EQ(log.last_manifest(), tail);
  EXPECT_EQ(log.record_count(), 4u);
  ASSERT_TRUE(log.Close().ok());
}

TEST_F(OpLogTest, TornTailIsTrimmedNotFatal) {
  {
    OpLog log;
    ASSERT_TRUE(log.Open(path_, 0, true).ok());
    AppendChain(&log, 3);
    ASSERT_TRUE(log.Close().ok());
  }
  // Keep the pristine 3-record file in memory so each cut starts clean.
  std::vector<char> pristine;
  {
    int fd = ::open(path_.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    struct stat st;
    ASSERT_EQ(::fstat(fd, &st), 0);
    pristine.resize(static_cast<size_t>(st.st_size));
    ASSERT_EQ(::pread(fd, pristine.data(), pristine.size(), 0),
              static_cast<ssize_t>(pristine.size()));
    ::close(fd);
  }
  // Tear the last record at every byte boundary — the crash-mid-append
  // shape: the header never flipped to gen 3, so recovery runs with
  // committed_gen 2 and must keep exactly the two whole records.
  for (size_t cut = pristine.size() - 1; cut > pristine.size() - 20; --cut) {
    int fd = ::open(path_.c_str(), O_WRONLY | O_TRUNC);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::pwrite(fd, pristine.data(), cut, 0),
              static_cast<ssize_t>(cut));
    ::close(fd);
    OpLog log;
    ASSERT_TRUE(log.Open(path_, 2, false).ok());
    EXPECT_EQ(log.last_gen(), 2u) << "cut at " << cut;
    EXPECT_EQ(log.record_count(), 2u);
    // The log still appends cleanly after recovery.
    ASSERT_TRUE(log.Append(3, OpKind::kNoop, {}).ok());
    EXPECT_EQ(log.last_gen(), 3u);
    ASSERT_TRUE(log.Close().ok());
  }
}

TEST_F(OpLogTest, MidChainCorruptionRebasesAtCommitted) {
  {
    OpLog log;
    ASSERT_TRUE(log.Open(path_, 0, true).ok());
    AppendChain(&log, 3);
    ASSERT_TRUE(log.Close().ok());
  }
  // Flip one byte inside the SECOND record (header is 24 bytes, each
  // record is 8 framing + 13 fixed + 9 payload = 30): the chain now stops
  // at gen 1, cannot reach the committed generation 3, and must rebase —
  // empty chain based at 3, which a follower repairs by snapshot resync.
  int fd = ::open(path_.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  char b;
  ASSERT_EQ(::pread(fd, &b, 1, 60), 1);
  b ^= 0x01;
  ASSERT_EQ(::pwrite(fd, &b, 1, 60), 1);
  ::close(fd);

  OpLog log;
  ASSERT_TRUE(log.Open(path_, 3, false).ok());
  EXPECT_EQ(log.base_gen(), 3u);
  EXPECT_EQ(log.last_gen(), 3u);
  EXPECT_EQ(log.record_count(), 0u);
  ASSERT_TRUE(log.Close().ok());
}

TEST_F(OpLogTest, GapRebasesAtCommittedGeneration) {
  // A fresh log opened for a database already at gen 7 (pre-oplog file, or
  // a follower that just installed a snapshot): empty chain based at 7.
  OpLog log;
  ASSERT_TRUE(log.Open(path_, 7, false).ok());
  EXPECT_EQ(log.base_gen(), 7u);
  EXPECT_EQ(log.last_gen(), 7u);
  EXPECT_EQ(log.record_count(), 0u);
  ASSERT_TRUE(log.Append(8, OpKind::kNoop, {}).ok());
  EXPECT_EQ(log.last_gen(), 8u);
  ASSERT_TRUE(log.Close().ok());

  // A chain that cannot reach the committed generation (log stayed at 8,
  // database moved to 12) also rebases: history before 12 is snapshot-only.
  OpLog behind;
  ASSERT_TRUE(behind.Open(path_, 12, false).ok());
  EXPECT_EQ(behind.base_gen(), 12u);
  EXPECT_EQ(behind.record_count(), 0u);
  ASSERT_TRUE(behind.Close().ok());
}

TEST_F(OpLogTest, TruncateToDropsSuffix) {
  OpLog log;
  ASSERT_TRUE(log.Open(path_, 0, true).ok());
  AppendChain(&log, 5);
  ASSERT_TRUE(log.TruncateTo(3).ok());
  EXPECT_EQ(log.last_gen(), 3u);
  EXPECT_EQ(log.RecordAt(4).status().code(), StatusCode::kOutOfRange);
  // Appends continue from the new tail with a consistent chain.
  uint32_t prev = log.last_manifest();
  ASSERT_TRUE(log.Append(4, OpKind::kInsert, Bytes("x")).ok());
  EXPECT_EQ(log.last_manifest(),
            OpLog::ChainManifest(prev, 4, OpKind::kInsert, "x", 1));
  ASSERT_TRUE(log.Close().ok());
}

TEST_F(OpLogTest, OversizedPayloadRefused) {
  OpLog log;
  ASSERT_TRUE(log.Open(path_, 0, true).ok());
  std::vector<char> huge(OpLog::kMaxPayload + 1, 'x');
  EXPECT_FALSE(log.Append(1, OpKind::kInsert, huge).ok());
  EXPECT_EQ(log.last_gen(), 0u);
  ASSERT_TRUE(log.Close().ok());
}

// ---- Database <-> oplog integration -----------------------------------

class DbOpLogTest : public ::testing::Test {
 protected:
  DbOpLogTest() : db_(Database::Options{.pool_pages = 128}) {}

  void Seed() {
    std::vector<Document> docs;
    docs.push_back(DocFromSexp("(book (author (name)) (title))", 0, &dict_));
    docs.push_back(DocFromSexp("(article (author (name)))", 1, &dict_));
    auto index = PrixIndex::Build(docs, db_.pool(), PrixIndexOptions{});
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    ASSERT_TRUE((*index)->Save(&db_.db(), "rp").ok());
  }

  TagDictionary dict_;
  TempDb db_;
};

TEST_F(DbOpLogTest, EveryCommitAppendsExactlyOneRecord) {
  Seed();
  OpLog* log = db_->oplog();
  // Create committed gen 1 (kNoop), Save published gen 2 (kBarrier).
  EXPECT_EQ(log->last_gen(), db_->catalog_generation());
  ASSERT_TRUE(log->RecordAt(1).ok());
  EXPECT_EQ(log->RecordAt(1)->kind, OpKind::kNoop);
  EXPECT_EQ(log->RecordAt(2)->kind, OpKind::kBarrier);

  Document d2 = DocFromSexp("(book (editor (name)) (year))", 2, &dict_);
  auto ins = db_->InsertDocument("rp", d2);
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(log->RecordAt(log->last_gen())->kind, OpKind::kInsert);

  Document d3 = DocFromSexp("(book (editor (name)) (isbn))", 3, &dict_);
  auto upd = db_->UpdateDocument("rp", *ins, d3);
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(log->RecordAt(log->last_gen())->kind, OpKind::kUpdate);

  ASSERT_TRUE(db_->DeleteDocument("rp", *upd).ok());
  EXPECT_EQ(log->RecordAt(log->last_gen())->kind, OpKind::kDelete);
  EXPECT_EQ(log->last_gen(), db_->catalog_generation());

  // The insert payload replays: it names the index, the assigned DocId,
  // and carries the document itself.
  for (uint64_t g = 1; g <= log->last_gen(); ++g) {
    auto rec = log->RecordAt(g);
    ASSERT_TRUE(rec.ok());
    if (rec->kind != OpKind::kInsert) continue;
    auto op = DecodeInsertOp(rec->payload);
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    EXPECT_EQ(op->index, "rp");
    EXPECT_EQ(op->doc_id, *ins);
  }
}

TEST_F(DbOpLogTest, ChainSurvivesReopenAndStaysAligned) {
  Seed();
  uint64_t gen = db_->catalog_generation();
  uint32_t tail = db_->oplog()->last_manifest();
  ASSERT_TRUE(db_.Reopen().ok());
  // Close commits once more; the reopened log must cover it too.
  EXPECT_EQ(db_->catalog_generation(), gen + 1);
  EXPECT_EQ(db_->oplog()->last_gen(), gen + 1);
  EXPECT_EQ(db_->oplog()->ManifestAt(gen).ValueOrDie(), tail);
}

TEST_F(DbOpLogTest, ReplCursorPersistsThroughCommitAndReopen) {
  EXPECT_EQ(db_->repl_cursor(), (std::pair<uint64_t, uint32_t>{0, 0}));
  db_->StageReplCursor(42, 0xfeedface);
  ASSERT_TRUE(db_->CommitBatch({}, {}).ok());
  EXPECT_EQ(db_->repl_cursor(),
            (std::pair<uint64_t, uint32_t>{42, 0xfeedface}));
  ASSERT_TRUE(db_.Reopen().ok());
  EXPECT_EQ(db_->repl_cursor(),
            (std::pair<uint64_t, uint32_t>{42, 0xfeedface}));
}

TEST_F(DbOpLogTest, DeletedSidecarRebasesOnReopen) {
  Seed();
  std::string sidecar = OpLog::PathFor(db_.path());
  ASSERT_TRUE(db_.CloseHandle().ok());
  ASSERT_EQ(::unlink(sidecar.c_str()), 0);
  auto db = Database::Open(db_.path());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->oplog()->base_gen(), (*db)->catalog_generation());
  EXPECT_EQ((*db)->oplog()->record_count(), 0u);
  // The database still works: commits append to the rebased log.
  ASSERT_TRUE((*db)->CommitBatch({}, {}).ok());
  EXPECT_EQ((*db)->oplog()->record_count(), 1u);
  ASSERT_TRUE((*db)->Close().ok());
}

// Satellite: a snapshot ship in progress bounds free-list reuse exactly
// like a pinned snapshot generation.
TEST_F(DbOpLogTest, ReplLowWaterBlocksFreeListReuse) {
  // Retire a freshly allocated page at the current generation.
  auto page = db_->AllocatePage();
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(db_->CommitBatch({}, {*page}).ok());
  uint64_t freed_at = db_->catalog_generation();
  ASSERT_EQ(db_->free_page_count(), 1u);

  // A ship pinned BELOW the freeing generation blocks reuse: the streamed
  // file's catalog can still reach that page.
  db_->SetReplLowWater(freed_at - 1);
  auto blocked = db_->AllocatePage();
  ASSERT_TRUE(blocked.ok());
  EXPECT_NE(*blocked, *page);
  EXPECT_EQ(db_->free_page_count(), 1u);

  // Lifting the bound (EndFileSnapshot) makes the page reusable again.
  db_->SetReplLowWater(Database::kNoReplLowWater);
  auto reused = db_->AllocatePage();
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(*reused, *page);

  // BeginFileSnapshot installs the bound itself: pages freed AFTER the
  // snapshot generation stay out of reach until the ship finishes (the
  // streamed gen-g catalog can still point at them), while the snapshot
  // itself never blocks pages that were already free at gen g.
  auto snap = db_->BeginFileSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_TRUE(db_->CommitBatch({}, {*reused, *blocked}).ok());
  auto during = db_->AllocatePage();
  ASSERT_TRUE(during.ok());
  EXPECT_NE(*during, *reused);
  EXPECT_NE(*during, *blocked);
  db_->EndFileSnapshot();
  auto after = db_->AllocatePage();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(*after == *reused || *after == *blocked);
}

// ---- repl wire frames --------------------------------------------------

Frame DecodeOne(const std::vector<char>& wire) {
  FrameDecoder dec;
  dec.Feed(wire.data(), wire.size());
  auto frame = dec.Next();
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_TRUE(frame->has_value());
  EXPECT_EQ(dec.buffered(), 0u);
  return std::move(**frame);
}

TEST(ReplWireTest, HelloRoundtrip) {
  ReplHello h;
  h.cursor_gen = 0x1122334455667788ull;
  h.cursor_manifest = 0xdeadbeef;
  h.want_snapshot = 1;
  auto got = DecodeReplHello(DecodeOne(EncodeReplHello(h)));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->cursor_gen, h.cursor_gen);
  EXPECT_EQ(got->cursor_manifest, h.cursor_manifest);
  EXPECT_EQ(got->want_snapshot, 1);
}

TEST(ReplWireTest, RecordRoundtrip) {
  ReplRecordFrame r;
  r.gen = 9;
  r.manifest = 0xabad1dea;
  r.op_kind = static_cast<uint8_t>(OpKind::kInsert);
  r.leader_gen = 12;
  r.payload = Bytes("the payload");
  auto got = DecodeReplRecord(DecodeOne(EncodeReplRecord(r)));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->gen, r.gen);
  EXPECT_EQ(got->manifest, r.manifest);
  EXPECT_EQ(got->op_kind, r.op_kind);
  EXPECT_EQ(got->leader_gen, r.leader_gen);
  EXPECT_EQ(got->payload, r.payload);
}

TEST(ReplWireTest, SnapshotRoundtrip) {
  ReplSnapshotFrame s;
  s.snapshot_gen = 44;
  s.manifest = 0x01020304;
  s.seq = 7;
  s.last = 1;
  s.chunk = Bytes("chunk bytes");
  auto got = DecodeReplSnapshot(DecodeOne(EncodeReplSnapshot(s)));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->snapshot_gen, s.snapshot_gen);
  EXPECT_EQ(got->manifest, s.manifest);
  EXPECT_EQ(got->seq, s.seq);
  EXPECT_EQ(got->last, 1);
  EXPECT_EQ(got->chunk, s.chunk);
}

TEST(ReplWireTest, AckRoundtripAndEmptyPayloads) {
  ReplAck a;
  a.applied_gen = 77;
  a.manifest = 0x55aa55aa;
  auto got = DecodeReplAck(DecodeOne(EncodeReplAck(a)));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->applied_gen, 77u);
  EXPECT_EQ(got->manifest, 0x55aa55aaU);

  ReplRecordFrame r;  // a kNoop ships with an empty payload
  auto rec = DecodeReplRecord(DecodeOne(EncodeReplRecord(r)));
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->payload.empty());
  ReplSnapshotFrame s;  // the final snapshot frame may carry no bytes
  s.last = 1;
  auto snap = DecodeReplSnapshot(DecodeOne(EncodeReplSnapshot(s)));
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(snap->chunk.empty());
}

// Every truncation of every repl frame must decode to a typed error (or a
// "need more bytes" at the framing layer) — never a crash or a wild read.
TEST(ReplWireTest, HostileTruncationSweep) {
  ReplHello h;
  h.want_snapshot = 1;
  ReplRecordFrame r;
  r.payload = Bytes("abcdef");
  ReplSnapshotFrame s;
  s.chunk = Bytes("0123456789");
  ReplAck a;
  const std::vector<std::vector<char>> wires = {
      EncodeReplHello(h), EncodeReplRecord(r), EncodeReplSnapshot(s),
      EncodeReplAck(a)};
  for (const auto& wire : wires) {
    for (size_t cut = 5; cut < wire.size(); ++cut) {
      // Rewrite the length prefix to match the truncated body so the frame
      // layer accepts it and the typed decoder sees the short payload.
      std::vector<char> t(wire.begin(), wire.begin() + cut);
      uint32_t body = static_cast<uint32_t>(cut - 4);
      std::memcpy(t.data(), &body, 4);
      FrameDecoder dec;
      dec.Feed(t.data(), t.size());
      auto frame = dec.Next();
      if (!frame.ok() || !frame->has_value()) continue;  // framing caught it
      Frame f = std::move(**frame);
      Status st = Status::OK();
      switch (f.type) {
        case FrameType::kReplHello:
          st = DecodeReplHello(f).status();
          break;
        case FrameType::kReplRecord:
          st = DecodeReplRecord(f).status();
          break;
        case FrameType::kReplSnapshot:
          st = DecodeReplSnapshot(f).status();
          break;
        case FrameType::kReplAck:
          st = DecodeReplAck(f).status();
          break;
        default:
          break;
      }
      EXPECT_FALSE(st.ok()) << "cut=" << cut << " type="
                            << static_cast<int>(f.type);
    }
  }
  // A declared length over the repl frames' own payloads but under the cap
  // still yields a short-field error, not an allocation of the claimed size.
  std::vector<char> lying = EncodeReplAck(a);
  uint32_t big = 64;
  std::memcpy(lying.data(), &big, 4);
  lying.resize(4 + big, '\0');
  lying[4] = static_cast<char>(FrameType::kReplAck);
  FrameDecoder dec;
  dec.Feed(lying.data(), lying.size());
  auto frame = dec.Next();
  ASSERT_TRUE(frame.ok() && frame->has_value());
  EXPECT_FALSE(DecodeReplAck(**frame).ok());
}

// ---- ApplyOpRecord -----------------------------------------------------

class ApplyTest : public ::testing::Test {
 protected:
  ApplyTest() : db_(Database::Options{.pool_pages = 128}) {}

  void SeedRp() {
    std::vector<Document> docs;
    docs.push_back(DocFromSexp("(book (author (name)))", 0, &dict_));
    auto index = PrixIndex::Build(docs, db_.pool(), PrixIndexOptions{});
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE((*index)->Save(&db_.db(), "rp").ok());
  }

  TagDictionary dict_;
  TempDb db_;
};

TEST_F(ApplyTest, InsertReplaysAndDocIdMismatchDiverges) {
  SeedRp();
  Document doc = DocFromSexp("(book (editor (name)) (year))", 1, &dict_);
  auto payload = EncodeInsertOp("rp", 1, doc);
  ASSERT_TRUE(ApplyOpRecord(&db_.db(),
                            static_cast<uint8_t>(OpKind::kInsert), payload,
                            {})
                  .ok());
  // Replaying a record whose leader-assigned DocId cannot match is
  // divergence, not a local fault.
  Document doc2 = DocFromSexp("(book (title))", 9, &dict_);
  auto bad = EncodeInsertOp("rp", 9, doc2);
  Status st = ApplyOpRecord(&db_.db(),
                            static_cast<uint8_t>(OpKind::kInsert), bad, {});
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
}

TEST_F(ApplyTest, DeleteOfMissingDocDiverges) {
  SeedRp();
  auto payload = EncodeDeleteOp("rp", 55);
  Status st = ApplyOpRecord(&db_.db(),
                            static_cast<uint8_t>(OpKind::kDelete), payload,
                            {});
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
}

TEST_F(ApplyTest, PutBlobReplaysAndFiresHook) {
  std::string hook_name;
  std::vector<char> hook_blob;
  ApplyHooks hooks;
  hooks.on_blob = [&](const std::string& name,
                      const std::vector<char>& blob) {
    hook_name = name;
    hook_blob = blob;
  };
  std::vector<char> blob = Bytes("dictionary bytes");
  auto payload = EncodePutBlobOp("tags", {}, blob);
  ASSERT_TRUE(ApplyOpRecord(&db_.db(),
                            static_cast<uint8_t>(OpKind::kPutBlob), payload,
                            hooks)
                  .ok());
  EXPECT_EQ(hook_name, "tags");
  EXPECT_EQ(hook_blob, blob);
  auto entry = db_->GetIndex("tags");
  ASSERT_TRUE(entry.ok());
  std::vector<char> readback;
  ASSERT_TRUE(ReadBlob(db_.pool(), entry->root, &readback).ok());
  EXPECT_EQ(readback, blob);
}

TEST_F(ApplyTest, BarrierAndUnknownKindsDiverge) {
  Status barrier = ApplyOpRecord(
      &db_.db(), static_cast<uint8_t>(OpKind::kBarrier),
      EncodeNameOp("rp"), {});
  EXPECT_TRUE(barrier.IsFailedPrecondition()) << barrier.ToString();
  Status unknown = ApplyOpRecord(&db_.db(), 200, {}, {});
  EXPECT_TRUE(unknown.IsFailedPrecondition()) << unknown.ToString();
  // Malformed payload bytes are a decode error, not a crash.
  Status garbage = ApplyOpRecord(
      &db_.db(), static_cast<uint8_t>(OpKind::kInsert), Bytes("xx"), {});
  EXPECT_FALSE(garbage.ok());
}

// ---- end-to-end leader -> follower ------------------------------------

class ReplE2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/prix_repl_e2e_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    client_.reset();  // stop the repl thread before the databases go away
    sender_.reset();
    follower_.reset();
    leader_.reset();
    std::string cmd = "rm -rf " + dir_;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  void StartLeader(size_t seed_docs = 2) {
    leader_path_ = dir_ + "/leader.prix";
    auto db = Database::Create(leader_path_,
                               Database::Options{.pool_pages = 128});
    ASSERT_TRUE(db.ok());
    leader_ = std::move(*db);
    std::vector<Document> docs;
    for (size_t i = 0; i < seed_docs; ++i) {
      docs.push_back(DocFromSexp("(book (author (name)) (title))",
                                 static_cast<DocId>(i), &dict_));
    }
    next_doc_ = static_cast<uint32_t>(seed_docs);
    auto index = PrixIndex::Build(docs, leader_->pool(), PrixIndexOptions{});
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE((*index)->Save(leader_.get(), "rp").ok());
  }

  void StartSender(ReplSenderOptions opts = {}) {
    auto sender = ReplSender::Start(leader_.get(), opts);
    ASSERT_TRUE(sender.ok()) << sender.status().ToString();
    sender_ = std::move(*sender);
  }

  void StartFollower(ReplClientOptions opts = {}) {
    follower_path_ = dir_ + "/follower.prix";
    if (follower_ == nullptr) {
      auto db = Database::Create(follower_path_,
                                 Database::Options{.pool_pages = 128});
      ASSERT_TRUE(db.ok());
      follower_ = std::move(*db);
    }
    opts.port = sender_->port();
    opts.db_path = follower_path_;
    opts.seed = 0x5eed;
    opts.backoff_base_ms = 5;
    opts.backoff_cap_ms = 50;
    auto client = ReplClient::Start(
        follower_.get(), opts,
        [this](const std::string& tmp, uint64_t gen,
               uint32_t manifest) -> Result<Database*> {
          follower_->Abandon();
          follower_.reset();
          PRIX_RETURN_NOT_OK(InstallSnapshotFile(tmp, follower_path_));
          PRIX_ASSIGN_OR_RETURN(
              follower_,
              Database::Open(follower_path_,
                             Database::Options{.pool_pages = 128}));
          follower_->StageReplCursor(gen, manifest);
          PRIX_RETURN_NOT_OK(follower_->CommitBatch({}, {}));
          return follower_.get();
        });
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(*client);
  }

  // Inserts one more document on the leader; returns its DocId.
  uint32_t LeaderInsert() {
    Document doc = DocFromSexp("(book (editor (name)) (year))",
                               static_cast<DocId>(next_doc_), &dict_);
    auto id = leader_->InsertDocument("rp", doc);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    ++next_doc_;
    return id.ok() ? *id : 0;
  }

  bool WaitCaughtUp(int timeout_ms = 10'000) {
    uint64_t target = leader_->catalog_generation();
    for (int waited = 0; waited < timeout_ms; waited += 10) {
      if (client_->stats().applied_gen >= target) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "follower stuck at gen "
                  << client_->stats().applied_gen << " of " << target
                  << "; last error: "
                  << client_->last_error().ToString();
    return false;
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

  // The convergence oracle: leader and follower answer identically.
  void ExpectIdenticalAnswers() {
    for (const char* q : {"//author/name", "//book[./year]", "//editor"}) {
      EXPECT_EQ(Query(leader_.get(), q), Query(client_->db(), q)) << q;
    }
  }

  TagDictionary dict_;
  std::string dir_, leader_path_, follower_path_;
  std::unique_ptr<Database> leader_, follower_;
  std::unique_ptr<ReplSender> sender_;
  std::unique_ptr<ReplClient> client_;
  uint32_t next_doc_ = 0;
};

TEST_F(ReplE2ETest, FreshFollowerBootstrapsViaSnapshotThenStreams) {
  StartLeader();
  LeaderInsert();
  StartSender();
  StartFollower();
  ASSERT_TRUE(WaitCaughtUp());
  // The leader's history contains a kBarrier (the index build), so a
  // follower replaying from gen 1 MUST have taken the snapshot path.
  EXPECT_GE(client_->stats().snapshots_installed, 1u);
  ExpectIdenticalAnswers();

  // Live streaming after bootstrap: records only, no further snapshots.
  uint64_t snaps = client_->stats().snapshots_installed;
  for (int i = 0; i < 3; ++i) LeaderInsert();
  ASSERT_TRUE(WaitCaughtUp());
  EXPECT_EQ(client_->stats().snapshots_installed, snaps);
  EXPECT_GE(client_->stats().records_applied, 3u);
  ExpectIdenticalAnswers();

  // The follower's durable cursor matches the leader's manifest chain.
  auto cursor = client_->db()->repl_cursor();
  EXPECT_EQ(cursor.first, leader_->catalog_generation());
  EXPECT_EQ(cursor.second,
            leader_->oplog()->ManifestAt(cursor.first).ValueOrDie());
}

TEST_F(ReplE2ETest, CaughtUpFollowerIdlesWithoutReconnectChurn) {
  StartLeader();
  StartSender();
  ReplClientOptions opts;
  opts.io_timeout_ms = 50;  // force several benign idle cycles
  StartFollower(opts);
  ASSERT_TRUE(WaitCaughtUp());
  uint64_t reconnects = client_->stats().reconnects;
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  // Idle read timeouts with no bytes buffered are benign, not reconnects.
  EXPECT_EQ(client_->stats().reconnects, reconnects);
  // And the link still works after idling.
  LeaderInsert();
  ASSERT_TRUE(WaitCaughtUp());
  ExpectIdenticalAnswers();
}

TEST_F(ReplE2ETest, ForgedCursorManifestTriggersResync) {
  StartLeader();
  for (int i = 0; i < 2; ++i) LeaderInsert();
  StartSender();
  // A follower claiming a leader generation with the WRONG manifest has a
  // foreign history: the leader must detect it and ship a snapshot.
  follower_path_ = dir_ + "/follower.prix";
  auto db = Database::Create(follower_path_,
                             Database::Options{.pool_pages = 128});
  ASSERT_TRUE(db.ok());
  follower_ = std::move(*db);
  follower_->StageReplCursor(2, 0xbadc0de);
  ASSERT_TRUE(follower_->CommitBatch({}, {}).ok());
  StartFollower();
  ASSERT_TRUE(WaitCaughtUp());
  EXPECT_GE(client_->stats().snapshots_installed, 1u);
  EXPECT_GE(client_->stats().divergences +
                sender_->stats().divergences,
            1u);
  ExpectIdenticalAnswers();
}

TEST_F(ReplE2ETest, CursorAheadOfLeaderTriggersResync) {
  StartLeader();
  StartSender();
  follower_path_ = dir_ + "/follower.prix";
  auto db = Database::Create(follower_path_,
                             Database::Options{.pool_pages = 128});
  ASSERT_TRUE(db.ok());
  follower_ = std::move(*db);
  // Claims a future generation (e.g. it followed a leader whose disk was
  // rolled back): outside the oplog tail, typed OutOfRange, snapshot.
  follower_->StageReplCursor(1000, 0x1234);
  ASSERT_TRUE(follower_->CommitBatch({}, {}).ok());
  StartFollower();
  // The bogus cursor (1000) dwarfs the leader's generation, so a plain
  // catch-up wait would pass vacuously — wait for the resync itself.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (client_->stats().snapshots_installed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(client_->stats().snapshots_installed, 1u)
      << client_->last_error().ToString();
  ASSERT_TRUE(WaitCaughtUp());
  ExpectIdenticalAnswers();
}

TEST_F(ReplE2ETest, FollowerSurvivesLeaderRestart) {
  StartLeader();
  StartSender();
  StartFollower();
  ASSERT_TRUE(WaitCaughtUp());
  uint16_t port = sender_->port();

  // Leader goes away mid-session; the follower retries with backoff.
  sender_->Stop();
  sender_.reset();
  LeaderInsert();
  LeaderInsert();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  ReplSenderOptions opts;
  opts.port = port;  // same endpoint, as a restarted prix serve would bind
  StartSender(opts);
  ASSERT_TRUE(WaitCaughtUp());
  EXPECT_GE(client_->stats().reconnects, 1u);
  ExpectIdenticalAnswers();
}

TEST_F(ReplE2ETest, FollowerRestartResumesFromDurableCursor) {
  StartLeader();
  StartSender();
  StartFollower();
  ASSERT_TRUE(WaitCaughtUp());

  // Tear the whole client down (as a process exit would) and restart it
  // over the SAME database files: the persisted cursor must let it resume
  // with records only — no snapshot, no divergence.
  client_.reset();
  ASSERT_TRUE(follower_->Close().ok());
  follower_.reset();
  for (int i = 0; i < 2; ++i) LeaderInsert();
  auto reopened = Database::Open(follower_path_,
                                 Database::Options{.pool_pages = 128});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  follower_ = std::move(*reopened);
  StartFollower();
  ASSERT_TRUE(WaitCaughtUp());
  EXPECT_EQ(client_->stats().snapshots_installed, 0u);
  EXPECT_EQ(client_->stats().divergences, 0u);
  ExpectIdenticalAnswers();
}

struct LinkFaultCase {
  const char* name;
  LinkFaultSchedule faults;
};

class ReplLinkFaultTest : public ReplE2ETest,
                          public ::testing::WithParamInterface<LinkFaultCase> {
};

// Each schedule injects exactly one fault somewhere in the bootstrap or
// stream (frame indices count every frame the sender emits, typed errors
// and snapshot chunks included). Whatever it hits — a record (garble must
// be caught by the manifest chain, never applied), a snapshot chunk, or
// the link itself — the follower must reconverge to identical answers.
TEST_P(ReplLinkFaultTest, ReconvergesAfterFault) {
  StartLeader();
  LeaderInsert();
  ReplSenderOptions opts;
  opts.faults = GetParam().faults;
  StartSender(opts);
  StartFollower();
  ASSERT_TRUE(WaitCaughtUp(20'000));
  for (int i = 0; i < 2; ++i) LeaderInsert();
  ASSERT_TRUE(WaitCaughtUp(20'000));
  ExpectIdenticalAnswers();
  auto cursor = client_->db()->repl_cursor();
  EXPECT_EQ(cursor.second,
            leader_->oplog()->ManifestAt(cursor.first).ValueOrDie());
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ReplLinkFaultTest,
    ::testing::Values(
        LinkFaultCase{"drop2", {.drop_after_frames = 2}},
        LinkFaultCase{"drop4", {.drop_after_frames = 4}},
        LinkFaultCase{"garble2", {.garble_frame = 2}},
        LinkFaultCase{"garble3", {.garble_frame = 3}},
        LinkFaultCase{"short3", {.short_frame = 3}},
        LinkFaultCase{"short1", {.short_frame = 1}}),
    [](const ::testing::TestParamInfo<LinkFaultCase>& info) {
      return info.param.name;
    });

TEST_F(ReplE2ETest, FollowerLimitRefusesWithTypedError) {
  StartLeader();
  ReplSenderOptions opts;
  opts.max_followers = 1;
  StartSender(opts);
  StartFollower();
  ASSERT_TRUE(WaitCaughtUp());

  // A second follower is refused (typed ResourceExhausted) but the first
  // keeps streaming.
  std::string second_path = dir_ + "/second.prix";
  auto second_db = Database::Create(second_path,
                                    Database::Options{.pool_pages = 128});
  ASSERT_TRUE(second_db.ok());
  ReplClientOptions copts;
  copts.port = sender_->port();
  copts.db_path = second_path;
  copts.seed = 7;
  copts.backoff_base_ms = 5;
  copts.backoff_cap_ms = 50;
  std::unique_ptr<Database> second_holder = std::move(*second_db);
  auto second = ReplClient::Start(
      second_holder.get(), copts,
      [&](const std::string&, uint64_t, uint32_t) -> Result<Database*> {
        return Status::Unavailable("no swap in this test");
      });
  ASSERT_TRUE(second.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ((*second)->stats().snapshots_installed, 0u);
  LeaderInsert();
  ASSERT_TRUE(WaitCaughtUp());
  (*second)->Stop();
  second->reset();
  ASSERT_TRUE(second_holder->Close().ok());
}

}  // namespace
}  // namespace prix
