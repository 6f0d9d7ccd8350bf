// Unit coverage for the serving layer's pieces in isolation (DESIGN.md
// §5j): the wire codec against hostile bytes, the Zambezi query-file
// parser, cooperative deadlines, admission control's shed policy, the
// generation-keyed result cache, and Server::Start's option checks. The
// end-to-end server/replay proof lives in serve_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/macros.h"
#include "common/queryfile.h"
#include "common/random.h"
#include "prix/prix_index.h"
#include "serve/admission.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "testutil/temp_db.h"
#include "testutil/tree_gen.h"

namespace prix {
namespace {

// ---- wire codec round trips -------------------------------------------

Result<Frame> DecodeOne(const std::vector<char>& bytes) {
  FrameDecoder dec;
  dec.Feed(bytes.data(), bytes.size());
  auto got = dec.Next();
  PRIX_RETURN_NOT_OK(got.status());
  if (!got->has_value()) return Status::InvalidArgument("incomplete frame");
  return std::move(**got);
}

TEST(WireCodec, QueryRoundTrip) {
  QueryRequest req;
  req.request_id = 0xDEADBEEFCAFE0001ull;
  req.timeout_ms = 250;
  req.xpaths = {"//article/author", "//a[./b]//c", ""};
  auto frame = DecodeOne(EncodeQuery(req));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, FrameType::kQuery);
  auto back = DecodeQuery(*frame);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->request_id, req.request_id);
  EXPECT_EQ(back->timeout_ms, req.timeout_ms);
  EXPECT_EQ(back->xpaths, req.xpaths);
}

TEST(WireCodec, ResultRoundTrip) {
  QueryResponse resp;
  resp.request_id = 7;
  resp.generation = 42;
  resp.cached = true;
  resp.docs = {{1, 2, 3}, {}, {0xFFFFFFFFu}};
  auto frame = DecodeOne(EncodeResult(resp));
  ASSERT_TRUE(frame.ok());
  auto back = DecodeResult(*frame);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->request_id, resp.request_id);
  EXPECT_EQ(back->generation, resp.generation);
  EXPECT_EQ(back->cached, resp.cached);
  EXPECT_EQ(back->docs, resp.docs);
}

TEST(WireCodec, ErrorAndShedRoundTrip) {
  ErrorResponse err;
  err.request_id = 9;
  err.status_code = static_cast<uint32_t>(StatusCode::kDeadlineExceeded);
  err.message = "deadline exceeded executing '//a//b'";
  auto eframe = DecodeOne(EncodeError(err));
  ASSERT_TRUE(eframe.ok());
  auto eback = DecodeError(*eframe);
  ASSERT_TRUE(eback.ok());
  EXPECT_EQ(eback->status_code, err.status_code);
  EXPECT_EQ(eback->message, err.message);
  EXPECT_EQ(PeekRequestId(*eframe), 9u);

  ShedResponse shed;
  shed.request_id = 11;
  shed.retry_after_ms = 40;
  shed.message = "admission queue full";
  auto sframe = DecodeOne(EncodeShed(shed));
  ASSERT_TRUE(sframe.ok());
  auto sback = DecodeShed(*sframe);
  ASSERT_TRUE(sback.ok());
  EXPECT_EQ(sback->retry_after_ms, 40u);
  EXPECT_EQ(PeekRequestId(*sframe), 11u);
}

TEST(WireCodec, ResultPayloadBytesMatchesEncoder) {
  QueryResponse resp;
  resp.request_id = 5;
  resp.generation = 2;
  resp.docs = {{1, 2, 3}, {}, {9}};
  // EncodeResult's output is header (4) + type byte (1) + payload.
  EXPECT_EQ(EncodeResult(resp).size(), 4 + 1 + ResultPayloadBytes(resp));
  QueryResponse empty;
  EXPECT_EQ(EncodeResult(empty).size(), 4 + 1 + ResultPayloadBytes(empty));
}

TEST(WireCodec, OversizedMessagesAreTruncatedNotFatal) {
  // A Status message can embed client-controlled text (e.g. the xpath a
  // DeadlineExceeded names) approaching kMaxFrameBody; the encoders must
  // truncate it into a valid frame, not trip AppendFrame's size invariant.
  ErrorResponse err;
  err.request_id = 21;
  err.status_code = static_cast<uint32_t>(StatusCode::kDeadlineExceeded);
  err.message = std::string(kMaxFrameBody - 64, 'x');
  auto eframe = DecodeOne(EncodeError(err));
  ASSERT_TRUE(eframe.ok()) << eframe.status().ToString();
  auto eback = DecodeError(*eframe);
  ASSERT_TRUE(eback.ok()) << eback.status().ToString();
  EXPECT_EQ(eback->request_id, 21u);
  EXPECT_LE(eback->message.size(), kMaxWireMessageBytes + 32);
  EXPECT_NE(eback->message.find("[truncated]"), std::string::npos);
  EXPECT_EQ(eback->message.compare(0, kMaxWireMessageBytes,
                                   err.message, 0, kMaxWireMessageBytes),
            0);

  ShedResponse shed;
  shed.request_id = 22;
  shed.message = std::string(2 * kMaxWireMessageBytes, 'y');
  auto sframe = DecodeOne(EncodeShed(shed));
  ASSERT_TRUE(sframe.ok());
  auto sback = DecodeShed(*sframe);
  ASSERT_TRUE(sback.ok());
  EXPECT_LE(sback->message.size(), kMaxWireMessageBytes + 32);

  // At the cap exactly: untouched.
  err.message = std::string(kMaxWireMessageBytes, 'z');
  auto exact = DecodeError(*DecodeOne(EncodeError(err)));
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->message, err.message);
}

TEST(WireCodec, PipelinedFramesDecodeInOrder) {
  std::vector<char> stream;
  for (uint64_t id = 1; id <= 3; ++id) {
    QueryRequest req;
    req.request_id = id;
    req.xpaths = {"//q" + std::to_string(id)};
    std::vector<char> one = EncodeQuery(req);
    stream.insert(stream.end(), one.begin(), one.end());
  }
  FrameDecoder dec;
  dec.Feed(stream.data(), stream.size());
  for (uint64_t id = 1; id <= 3; ++id) {
    auto got = dec.Next();
    ASSERT_TRUE(got.ok() && got->has_value());
    auto req = DecodeQuery(**got);
    ASSERT_TRUE(req.ok());
    EXPECT_EQ(req->request_id, id);
  }
  auto done = dec.Next();
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(done->has_value());
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(WireCodec, ByteAtATimeFeedingDecodes) {
  QueryRequest req;
  req.request_id = 77;
  req.xpaths = {"//slow/drip"};
  std::vector<char> bytes = EncodeQuery(req);
  FrameDecoder dec;
  for (size_t i = 0; i < bytes.size(); ++i) {
    auto got = dec.Next();
    ASSERT_TRUE(got.ok());
    ASSERT_FALSE(got->has_value()) << "frame complete early at byte " << i;
    dec.Feed(&bytes[i], 1);
  }
  auto got = dec.Next();
  ASSERT_TRUE(got.ok() && got->has_value());
  EXPECT_EQ(PeekRequestId(**got), 77u);
}

// ---- hostile input ----------------------------------------------------

TEST(WireHostile, OversizedLengthPrefixRejectedBeforeBuffering) {
  std::vector<char> bytes(4);
  uint32_t huge = static_cast<uint32_t>(kMaxFrameBody + 1);
  std::memcpy(bytes.data(), &huge, 4);
  FrameDecoder dec;
  dec.Feed(bytes.data(), bytes.size());
  auto got = dec.Next();
  EXPECT_TRUE(got.status().IsInvalidArgument()) << got.status().ToString();
  // The rejection fires on the 4-byte header alone — the decoder never
  // waits for (or allocates) the claimed megabytes.
}

TEST(WireHostile, ZeroLengthAndUnknownTypeRejected) {
  std::vector<char> zero(4, 0);
  FrameDecoder d1;
  d1.Feed(zero.data(), zero.size());
  EXPECT_TRUE(d1.Next().status().IsInvalidArgument());

  std::vector<char> unknown(5, 0);
  unknown[0] = 2;        // body_len = 2
  unknown[4] = 99;       // type byte nobody speaks
  FrameDecoder d2;
  d2.Feed(unknown.data(), unknown.size());
  EXPECT_TRUE(d2.Next().status().IsInvalidArgument());
}

TEST(WireHostile, HugeCountFieldRejectedWithoutAllocation) {
  // A syntactically valid frame whose payload claims 2^32-1 xpaths backed
  // by 4 actual bytes. The decoder must refuse on the count-vs-remaining
  // check, not reserve gigabytes.
  std::vector<char> payload;
  for (int i = 0; i < 8; ++i) payload.push_back(0);   // request_id
  for (int i = 0; i < 4; ++i) payload.push_back(0);   // timeout_ms
  for (int i = 0; i < 4; ++i) payload.push_back('\xFF');  // count
  payload.push_back('x');
  std::vector<char> bytes;
  AppendFrame(&bytes, FrameType::kQuery, payload);
  auto frame = DecodeOne(bytes);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(DecodeQuery(*frame).status().IsInvalidArgument());
}

TEST(WireHostile, TrailingBytesAfterPayloadRejected) {
  QueryRequest req;
  req.request_id = 5;
  req.xpaths = {"//a"};
  std::vector<char> bytes = EncodeQuery(req);
  // Splice two junk bytes into the body and patch the length prefix.
  bytes.push_back('!');
  bytes.push_back('!');
  uint32_t body_len;
  std::memcpy(&body_len, bytes.data(), 4);
  body_len += 2;
  std::memcpy(bytes.data(), &body_len, 4);
  auto frame = DecodeOne(bytes);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(DecodeQuery(*frame).status().IsInvalidArgument());
}

TEST(WireHostile, SeededAdversarialSweepNeverCrashes) {
  // 2000 trials: take a valid two-frame stream, then truncate it, flip
  // bytes in it, or prepend garbage, and feed it in random-sized chunks.
  // The decoder must always yield frames, ask for more bytes, or fail with
  // a typed error — never crash, hang, or buffer unboundedly (ASan/UBSan
  // runs of this test are wired into CI).
  Random rng(0x5EED5EED);
  for (int trial = 0; trial < 2000; ++trial) {
    QueryRequest req;
    req.request_id = rng.Next();
    req.timeout_ms = static_cast<uint32_t>(rng.Uniform(1000));
    size_t nq = rng.Uniform(4);
    for (size_t i = 0; i < nq; ++i) {
      req.xpaths.push_back(std::string(rng.Uniform(40), 'a' + trial % 26));
    }
    std::vector<char> stream = EncodeQuery(req);
    QueryResponse resp;
    resp.request_id = rng.Next();
    resp.docs.push_back({static_cast<uint32_t>(rng.Uniform(100))});
    std::vector<char> second = EncodeResult(resp);
    stream.insert(stream.end(), second.begin(), second.end());

    switch (trial % 4) {
      case 0:  // truncate
        stream.resize(rng.Uniform(stream.size() + 1));
        break;
      case 1: {  // flip a byte
        if (!stream.empty()) {
          stream[rng.Uniform(stream.size())] ^=
              static_cast<char>(1 + rng.Uniform(255));
        }
        break;
      }
      case 2: {  // prepend garbage
        std::vector<char> junk(rng.Uniform(16));
        for (char& c : junk) c = static_cast<char>(rng.Next());
        stream.insert(stream.begin(), junk.begin(), junk.end());
        break;
      }
      case 3:  // leave valid (pipelined-decode control group)
        break;
    }

    FrameDecoder dec;
    size_t fed = 0;
    bool dead = false;
    int frames = 0;
    while (!dead) {
      auto got = dec.Next();
      if (!got.ok()) {
        EXPECT_TRUE(got.status().IsInvalidArgument())
            << got.status().ToString();
        dead = true;  // poisoned stream: a real server drops the connection
        break;
      }
      if (got->has_value()) {
        ++frames;
        // A structurally decoded frame may still have a hostile payload;
        // the typed decoder must also refuse gracefully.
        if ((*got)->type == FrameType::kQuery) {
          (void)DecodeQuery(**got);
        } else if ((*got)->type == FrameType::kResult) {
          (void)DecodeResult(**got);
        }
        continue;
      }
      if (fed >= stream.size()) break;  // needs more bytes we don't have
      size_t chunk = 1 + rng.Uniform(64);
      chunk = std::min(chunk, stream.size() - fed);
      dec.Feed(stream.data() + fed, chunk);
      fed += chunk;
    }
    EXPECT_LE(dec.buffered(), kMaxFrameBody + 64u);
    if (trial % 4 == 3) {
      EXPECT_EQ(frames, 2) << "valid stream must fully decode";
    }
  }
}

// ---- query file parser ------------------------------------------------

TEST(QueryFile, ParsesZambeziFormat) {
  const std::string text =
      "3\n"
      "1 16 //article/author\n"
      "2 23 //a[./b=\"two words\"]//c\n"
      "17 0 \n";
  auto entries = ParseQueryFile(text);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].id, 1u);
  EXPECT_EQ((*entries)[0].text, "//article/author");
  EXPECT_EQ((*entries)[1].text, "//a[./b=\"two words\"]//c");
  EXPECT_EQ((*entries)[2].id, 17u);
  EXPECT_EQ((*entries)[2].text, "");
}

TEST(QueryFile, FormatParsesBackExactly) {
  std::vector<QueryFileEntry> entries;
  entries.push_back({1, "//article/author"});
  entries.push_back({9, "spaces inside are fine"});
  std::string text = FormatQueryFile(entries);
  auto back = ParseQueryFile(text);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].text, entries[0].text);
  EXPECT_EQ((*back)[1].text, entries[1].text);
  EXPECT_EQ(FormatQueryFile(*back), text);
}

TEST(QueryFile, MalformedLinesReportLineAndOffset) {
  // Wrong byte length: the declared 18 spans past the query text's newline.
  auto r1 = ParseQueryFile("1\n1 18 //article/author\n2 3 //b\n");
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().ToString().find("line 2"), std::string::npos)
      << r1.status().ToString();
  EXPECT_NE(r1.status().ToString().find("offset"), std::string::npos);

  // Non-numeric id.
  auto r2 = ParseQueryFile("1\nxyz 3 //a\n");
  ASSERT_FALSE(r2.ok());
  EXPECT_TRUE(r2.status().IsParseError());

  // Count disagrees with the number of lines.
  auto r3 = ParseQueryFile("2\n1 3 //a\n");
  EXPECT_FALSE(r3.ok());
}

// ---- deadlines --------------------------------------------------------

TEST(DeadlineTest, ExpiryAndCancellation) {
  Deadline none;
  EXPECT_FALSE(none.has_expiry());
  EXPECT_TRUE(none.Check().ok());
  EXPECT_EQ(none.remaining_us(), UINT64_MAX);

  Deadline expired = Deadline::AfterMillis(0);
  EXPECT_TRUE(expired.expired());
  EXPECT_TRUE(expired.Check().IsDeadlineExceeded());

  Deadline future = Deadline::AfterMillis(60'000);
  EXPECT_TRUE(future.Check().ok());
  future.Cancel();
  // Cancellation beats expiry and works without one.
  EXPECT_TRUE(future.Check().IsCancelled());
  Deadline both = Deadline::AfterMillis(0);
  both.Cancel();
  EXPECT_TRUE(both.Check().IsCancelled());
}

TEST(DeadlineTest, ScopedInstallAndNesting) {
  EXPECT_TRUE(CheckDeadline().ok());
  EXPECT_EQ(CurrentDeadline(), nullptr);
  Deadline outer = Deadline::AfterMillis(60'000);
  {
    ScopedDeadline s1(&outer);
    EXPECT_EQ(CurrentDeadline(), &outer);
    EXPECT_TRUE(CheckDeadline().ok());
    Deadline inner = Deadline::AfterMillis(0);
    {
      ScopedDeadline s2(&inner);
      EXPECT_EQ(CurrentDeadline(), &inner);
      EXPECT_TRUE(CheckDeadline().IsDeadlineExceeded());
      // Installing nullptr is a no-op scope, not a reset.
      ScopedDeadline s3(nullptr);
      EXPECT_EQ(CurrentDeadline(), &inner);
    }
    EXPECT_EQ(CurrentDeadline(), &outer);
  }
  EXPECT_EQ(CurrentDeadline(), nullptr);
}

TEST(DeadlineTest, CancelFromAnotherThreadIsObserved) {
  Deadline d = Deadline::AfterMillis(60'000);
  std::thread t([&d] { d.Cancel(); });
  t.join();
  EXPECT_TRUE(d.Check().IsCancelled());
}

// ---- admission control ------------------------------------------------

TEST(AdmissionTest, GrantsUpToMaxExecutingWithoutQueueing) {
  AdmissionController ac({.max_executing = 2, .max_queued = 4});
  uint32_t retry = 0;
  EXPECT_TRUE(ac.Admit(nullptr, &retry).ok());
  EXPECT_TRUE(ac.Admit(nullptr, &retry).ok());
  EXPECT_EQ(ac.executing(), 2u);
  EXPECT_EQ(ac.queued(), 0u);
  ac.Release(1000);
  ac.Release(1000);
  EXPECT_EQ(ac.executing(), 0u);
  EXPECT_EQ(ac.admitted_total(), 2u);
}

TEST(AdmissionTest, FullQueueShedsWithRetryHint) {
  AdmissionController ac({.max_executing = 1, .max_queued = 1});
  uint32_t retry = 0;
  ASSERT_TRUE(ac.Admit(nullptr, &retry).ok());

  // Second request queues (blocks); wait for it to land in the queue.
  std::atomic<bool> queued_done{false};
  std::thread waiter([&ac, &queued_done] {
    uint32_t r = 0;
    EXPECT_TRUE(ac.Admit(nullptr, &r).ok());
    ac.Release(1000);
    queued_done.store(true);
  });
  while (ac.queued() == 0) std::this_thread::yield();

  // Third request overflows the queue: typed shed, nonzero backoff hint.
  Status shed = ac.Admit(nullptr, &retry);
  EXPECT_TRUE(shed.IsResourceExhausted()) << shed.ToString();
  EXPECT_GT(retry, 0u);
  EXPECT_EQ(ac.shed_total(), 1u);

  ac.Release(1000);  // frees the slot; the queued waiter runs
  waiter.join();
  EXPECT_TRUE(queued_done.load());
}

TEST(AdmissionTest, UnmeetableDeadlineShedsOnArrival) {
  AdmissionController ac({.max_executing = 1, .max_queued = 8,
                          .initial_service_us = 50'000});
  uint32_t retry = 0;
  ASSERT_TRUE(ac.Admit(nullptr, &retry).ok());
  // Predicted wait is ~one EWMA service time (50ms); a request with 1ms of
  // budget left would die in the queue, so it is shed immediately instead.
  Deadline tight = Deadline::AfterMillis(1);
  Status s = ac.Admit(&tight, &retry);
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  // A roomy deadline queues fine (released via drain below).
  ac.Release(1000);
  Deadline roomy = Deadline::AfterMillis(60'000);
  EXPECT_TRUE(ac.Admit(&roomy, &retry).ok());
  ac.Release(1000);
}

TEST(AdmissionTest, DeadlineExpiryWhileQueuedIsErrorNotShed) {
  AdmissionController ac({.max_executing = 1, .max_queued = 8,
                          .initial_service_us = 10});
  uint32_t retry = 0;
  ASSERT_TRUE(ac.Admit(nullptr, &retry).ok());
  // Queue a request whose deadline will expire while it waits. (The tiny
  // EWMA seed keeps the predicted wait below 60ms so it queues instead of
  // shedding on arrival.)
  std::thread waiter([&ac] {
    Deadline d = Deadline::AfterMillis(60);
    uint32_t r = 0;
    Status s = ac.Admit(&d, &r);
    EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
    EXPECT_NE(s.ToString().find("queued"), std::string::npos)
        << "error should say the deadline died in the admission queue";
  });
  waiter.join();
  EXPECT_EQ(ac.queued(), 0u) << "expired waiter must leave the queue";
  ac.Release(1000);
}

TEST(AdmissionTest, CancellationWhileQueuedIsObserved) {
  AdmissionController ac({.max_executing = 1, .max_queued = 8,
                          .initial_service_us = 10});
  uint32_t retry = 0;
  ASSERT_TRUE(ac.Admit(nullptr, &retry).ok());
  Deadline d = Deadline::AfterMillis(60'000);
  std::thread waiter([&ac, &d] {
    uint32_t r = 0;
    Status s = ac.Admit(&d, &r);
    EXPECT_TRUE(s.IsCancelled()) << s.ToString();
  });
  while (ac.queued() == 0) std::this_thread::yield();
  d.Cancel();
  waiter.join();
  ac.Release(1000);
}

TEST(AdmissionTest, DrainShedsQueueAndRefusesNewWork) {
  AdmissionController ac({.max_executing = 1, .max_queued = 8});
  uint32_t retry = 0;
  ASSERT_TRUE(ac.Admit(nullptr, &retry).ok());
  std::thread waiter([&ac] {
    uint32_t r = 0;
    Status s = ac.Admit(nullptr, &r);
    EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  });
  while (ac.queued() == 0) std::this_thread::yield();
  ac.BeginDrain();
  waiter.join();
  EXPECT_TRUE(ac.Admit(nullptr, &retry).IsUnavailable());
  // In-flight work still finishes and releases normally.
  ac.Release(1000);
  EXPECT_EQ(ac.executing(), 0u);
}

TEST(AdmissionTest, EwmaTracksServiceTime) {
  AdmissionController ac({.max_executing = 1, .max_queued = 8,
                          .initial_service_us = 10'000});
  EXPECT_EQ(ac.ewma_service_us(), 10'000u);
  uint32_t retry = 0;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ac.Admit(nullptr, &retry).ok());
    ac.Release(100'000);
  }
  // alpha = 1/4: twenty samples of 100ms pull the estimate almost there.
  EXPECT_GT(ac.ewma_service_us(), 90'000u);
}

TEST(AdmissionTest, ZeroSeedFallsBackToConservativeEstimate) {
  // initial_service_us = 0 means "unknown", not "instant": an EWMA of 0
  // would predict zero queue wait and admit requests with microseconds of
  // deadline left straight into the queue to die there.
  AdmissionController ac({.max_executing = 1, .max_queued = 8,
                          .initial_service_us = 0});
  EXPECT_EQ(ac.ewma_service_us(), AdmissionController::kConservativeServiceUs);
  // The conservative seed sheds an unmeetable deadline on arrival, exactly
  // like an explicit seed of the same magnitude would.
  uint32_t retry = 0;
  ASSERT_TRUE(ac.Admit(nullptr, &retry).ok());
  Deadline tight = Deadline::AfterMillis(1);
  EXPECT_TRUE(ac.Admit(&tight, &retry).IsResourceExhausted());
  ac.Release(1000);
}

TEST(AdmissionTest, FirstSampleReplacesTheSeedOutright) {
  AdmissionController ac({.max_executing = 1, .max_queued = 8,
                          .initial_service_us = 10'000});
  uint32_t retry = 0;
  // The first real sample REPLACES the synthetic seed (no blend): a seed
  // orders of magnitude off would otherwise linger for many releases.
  ASSERT_TRUE(ac.Admit(nullptr, &retry).ok());
  ac.Release(200'000);
  EXPECT_EQ(ac.ewma_service_us(), 200'000u);
  // From the second sample on, the normal alpha = 1/4 blend applies.
  ASSERT_TRUE(ac.Admit(nullptr, &retry).ok());
  ac.Release(100'000);
  EXPECT_EQ(ac.ewma_service_us(), 175'000u);
}

TEST(AdmissionTest, ZeroDurationSamplesNeverZeroTheEstimate) {
  AdmissionController ac({.max_executing = 1, .max_queued = 8,
                          .initial_service_us = 0});
  uint32_t retry = 0;
  // Sub-microsecond requests clamp to 1us — the estimate stays positive so
  // the predicted-wait arithmetic never degenerates to "free".
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ac.Admit(nullptr, &retry).ok());
    ac.Release(0);
  }
  EXPECT_GE(ac.ewma_service_us(), 1u);
}

// ---- result cache -----------------------------------------------------

TEST(ResultCacheTest, HitRequiresIndexGenerationAndXPath) {
  ResultCache cache(1 << 20);
  cache.Insert("rp", 5, "//a", {1, 2, 3});
  std::vector<uint32_t> docs;
  EXPECT_TRUE(cache.Lookup("rp", 5, "//a", &docs));
  EXPECT_EQ(docs, (std::vector<uint32_t>{1, 2, 3}));
  // Any key component changing is a miss — a new catalog generation
  // invalidates every cached answer without touching the cache.
  EXPECT_FALSE(cache.Lookup("rp", 6, "//a", &docs));
  EXPECT_FALSE(cache.Lookup("ep", 5, "//a", &docs));
  EXPECT_FALSE(cache.Lookup("rp", 5, "//b", &docs));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(ResultCacheTest, InsertOverwritesAndLruEvicts) {
  // Budget sized to hold roughly two entries (each weighs ~110 bytes:
  // key + docs + fixed overhead).
  ResultCache cache(250);
  cache.Insert("rp", 1, "//a", {1});
  cache.Insert("rp", 1, "//a", {1, 2});  // overwrite, not duplicate
  EXPECT_EQ(cache.entries(), 1u);
  std::vector<uint32_t> docs;
  ASSERT_TRUE(cache.Lookup("rp", 1, "//a", &docs));
  EXPECT_EQ(docs.size(), 2u);

  cache.Insert("rp", 1, "//b", {3});
  // Touch //a so //b is the LRU victim when //c arrives.
  ASSERT_TRUE(cache.Lookup("rp", 1, "//a", &docs));
  cache.Insert("rp", 1, "//c", {4});
  EXPECT_TRUE(cache.Lookup("rp", 1, "//a", &docs));
  EXPECT_FALSE(cache.Lookup("rp", 1, "//b", &docs)) << "LRU entry evicted";
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.bytes(), 250u) << "memory stays within budget";
}

TEST(ResultCacheTest, ZeroBudgetDisablesAndOversizedEntryNotCached) {
  ResultCache off(0);
  off.Insert("rp", 1, "//a", {1});
  std::vector<uint32_t> docs;
  EXPECT_FALSE(off.Lookup("rp", 1, "//a", &docs));
  EXPECT_EQ(off.entries(), 0u);

  ResultCache tiny(64);
  tiny.Insert("rp", 1, "//huge", std::vector<uint32_t>(1000, 7));
  EXPECT_EQ(tiny.entries(), 0u) << "entry larger than the whole budget";
  EXPECT_LE(tiny.bytes(), 64u);
}

// ---- server options -----------------------------------------------------

TEST(ServerStartTest, ZeroExecuteSlotsIsRefused) {
  testutil::TempDb db;
  TagDictionary dict;
  std::vector<Document> docs = {testutil::DocFromSexp("(a (b))", 0, &dict)};
  auto index = PrixIndex::Build(docs, db.pool(), PrixIndexOptions{});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_TRUE((*index)->Save(&db.db(), "rp").ok());

  // Requests run on their connection threads only once admitted, so zero
  // slots would admit nothing and queue every request until its deadline.
  ServerOptions options;
  options.admission.max_executing = 0;
  auto refused = Server::Start(&db.db(), &dict, options);
  ASSERT_TRUE(refused.status().IsInvalidArgument())
      << refused.status().ToString();
  EXPECT_NE(refused.status().ToString().find("max_executing"),
            std::string::npos)
      << refused.status().ToString();

  options.admission.max_executing = 1;
  auto started = Server::Start(&db.db(), &dict, options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  (*started)->Stop();
  EXPECT_TRUE((*started)->Join().ok());
}

}  // namespace
}  // namespace prix
