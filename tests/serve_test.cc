// End-to-end proof of the serving layer (DESIGN.md §5j): a real Server on
// a loopback socket, driven by raw frames and by the replay client.
// Covers the full request lifecycle (decode -> cache -> admission ->
// snapshot execution -> typed response), overload shedding under a
// saturating replay, deadline enforcement over the wire, disconnect
// cancellation via the watchdog, the slowloris guard, hostile bytes
// against a live socket, and the concurrent-ingest generation oracle:
// every response's generation must be one the database actually committed.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/queryfile.h"
#include "prix/prix_index.h"
#include "prix/query_processor.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "testutil/temp_db.h"
#include "testutil/tree_gen.h"

namespace prix {
namespace {

using testutil::DocFromSexp;
using testutil::TempDb;

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() : db_(Database::Options{.pool_pages = 256}) {}

  // Seeds "rp" over `sexps`.
  void Seed(const std::vector<std::string>& sexps) {
    std::vector<Document> docs;
    DocId id = 0;
    for (const std::string& s : sexps) {
      docs.push_back(DocFromSexp(s, id++, &dict_));
    }
    auto index = PrixIndex::Build(docs, db_.pool(), PrixIndexOptions{});
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    ASSERT_TRUE((*index)->Save(&db_.db(), "rp").ok());
  }

  std::unique_ptr<Server> StartServer(ServerOptions options = {}) {
    options.rp_name = "rp";
    auto server = Server::Start(&db_.db(), &dict_, options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return server.ok() ? std::move(*server) : nullptr;
  }

  static int Connect(uint16_t port) {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)),
        0)
        << std::strerror(errno);
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
  }

  // One request/response exchange on an already open connection.
  static Result<Frame> Exchange(int fd, FrameDecoder* dec,
                                const std::vector<char>& request) {
    PRIX_RETURN_NOT_OK(WriteAll(fd, request));
    auto got = ReadFrame(fd, dec, /*idle_timeout_ms=*/30'000);
    PRIX_RETURN_NOT_OK(got.status());
    if (!got->has_value()) {
      return Status::Unavailable("server closed the connection");
    }
    return std::move(**got);
  }

  // The oracle: matching DocIds via a direct single-threaded execution.
  std::vector<uint32_t> Oracle(const std::string& xpath) {
    auto index = PrixIndex::Open(&db_.db(), "rp");
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    QueryProcessor qp(db_.db(), index->get(), nullptr);
    auto result = qp.ExecuteXPath(xpath, &dict_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<uint32_t> docs;
    if (result.ok()) docs.assign(result->docs.begin(), result->docs.end());
    return docs;
  }

  TagDictionary dict_;
  TempDb db_;
};

TEST_F(ServeTest, QueryRoundTripMatchesOracleAndCaches) {
  Seed({"(book (author (name)) (title))", "(article (author (name)))",
        "(book (editor (name)))"});
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.set_enabled(true);
  reg.Reset();
  auto server = StartServer();
  ASSERT_NE(server, nullptr);

  int fd = Connect(server->port());
  FrameDecoder dec;
  QueryRequest req;
  req.request_id = 1;
  req.xpaths = {"//book/author", "//author/name", "//nosuch"};
  auto frame = Exchange(fd, &dec, EncodeQuery(req));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, FrameType::kResult);
  auto resp = DecodeResult(*frame);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->request_id, 1u);
  EXPECT_FALSE(resp->cached);
  EXPECT_EQ(resp->generation, db_.db().catalog_generation());
  ASSERT_EQ(resp->docs.size(), 3u);
  EXPECT_EQ(resp->docs[0], Oracle("//book/author"));
  EXPECT_EQ(resp->docs[1], Oracle("//author/name"));
  EXPECT_TRUE(resp->docs[2].empty());

  // Same batch again: answered from the generation-keyed cache.
  req.request_id = 2;
  frame = Exchange(fd, &dec, EncodeQuery(req));
  ASSERT_TRUE(frame.ok());
  resp = DecodeResult(*frame);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->cached);
  EXPECT_EQ(resp->docs[0], Oracle("//book/author"));
  EXPECT_GT(server->cache().hits(), 0u);

  // More distinct misses at the same generation reuse the index the first
  // miss opened: one open per generation, not per request.
  for (const char* xpath : {"//book/title", "//editor/name"}) {
    QueryRequest miss;
    miss.request_id = 3;
    miss.xpaths = {xpath};
    frame = Exchange(fd, &dec, EncodeQuery(miss));
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    resp = DecodeResult(*frame);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_FALSE(resp->cached) << xpath;
    EXPECT_EQ(resp->docs[0], Oracle(xpath));
  }
  EXPECT_EQ(reg.counter("prix.db.index_opens").value(), 1u);
  reg.set_enabled(false);

  // Ping still works on the same connection.
  std::vector<char> ping;
  AppendFrame(&ping, FrameType::kPing, {'h', 'i'});
  frame = Exchange(fd, &dec, ping);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kPong);
  EXPECT_EQ(frame->payload, (std::vector<char>{'h', 'i'}));
  ::close(fd);
  server->Stop();
  EXPECT_TRUE(server->Join().ok());
}

TEST_F(ServeTest, BatchHoldsOneSlotAndAnswersLikeSingleQueries) {
  Seed({"(book (author (name)) (title))", "(article (author (name)))",
        "(book (editor (name)))"});
  ServerOptions options;
  options.admission = {1, 64, 8, 10'000};
  options.cache_bytes = 0;  // every request executes
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);

  // Samples the execute-slot count for as long as the test sends requests.
  std::atomic<bool> sampling{true};
  std::atomic<size_t> most_executing{0};
  std::thread sampler([&] {
    while (sampling.load()) {
      size_t now = server->admission().executing();
      if (now > most_executing.load()) most_executing.store(now);
      std::this_thread::yield();
    }
  });

  int fd = Connect(server->port());
  FrameDecoder dec;
  QueryRequest req;
  req.request_id = 30;
  // The third XPath names only tags no document has: it parses (interning
  // them) and answers nothing.
  req.xpaths = {"//book/author", "//author/name", "//nosuch//neither",
                "//book//name", "//article/author"};
  auto frame = Exchange(fd, &dec, EncodeQuery(req));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, FrameType::kResult);
  auto batch = DecodeResult(*frame);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->generation, db_.db().catalog_generation());
  ASSERT_EQ(batch->docs.size(), req.xpaths.size());
  EXPECT_TRUE(batch->docs[2].empty());

  for (size_t i = 0; i < req.xpaths.size(); ++i) {
    QueryRequest single;
    single.request_id = 31 + i;
    single.xpaths = {req.xpaths[i]};
    frame = Exchange(fd, &dec, EncodeQuery(single));
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->type, FrameType::kResult);
    auto one = DecodeResult(*frame);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    EXPECT_FALSE(one->cached);
    EXPECT_EQ(one->generation, batch->generation);
    ASSERT_EQ(one->docs.size(), 1u);
    EXPECT_EQ(batch->docs[i], one->docs[0]) << req.xpaths[i];
    EXPECT_EQ(batch->docs[i], Oracle(req.xpaths[i])) << req.xpaths[i];
  }
  sampling.store(false);
  sampler.join();
  // The batch held one execute slot and no request ever ran beside it.
  EXPECT_LE(most_executing.load(), 1u);
  EXPECT_EQ(server->admission().admitted_total(), 1 + req.xpaths.size());
  ::close(fd);
  server->Stop();
  EXPECT_TRUE(server->Join().ok());
}

TEST_F(ServeTest, MalformedFrameGetsTypedErrorThenDisconnect) {
  Seed({"(a (b))"});
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  int fd = Connect(server->port());
  // An oversized length prefix: hostile bytes straight at the live socket.
  std::vector<char> evil(4);
  uint32_t huge = (2u << 20);
  std::memcpy(evil.data(), &huge, 4);
  ASSERT_TRUE(WriteAll(fd, evil).ok());
  FrameDecoder dec;
  auto got = ReadFrame(fd, &dec, 10'000);
  ASSERT_TRUE(got.ok() && got->has_value()) << got.status().ToString();
  EXPECT_EQ((*got)->type, FrameType::kError);
  auto err = DecodeError(**got);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->status_code,
            static_cast<uint32_t>(StatusCode::kInvalidArgument));
  // After the typed error the server hangs up (framing cannot resync).
  auto eof = ReadFrame(fd, &dec, 10'000);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());
  ::close(fd);

  // A garbage payload inside a well-framed kQuery also errors, typed.
  fd = Connect(server->port());
  FrameDecoder dec2;
  std::vector<char> bad;
  AppendFrame(&bad, FrameType::kQuery, {'x', 'y', 'z'});
  auto frame = Exchange(fd, &dec2, bad);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kError);
  ::close(fd);

  // And the server is still perfectly healthy for the next client.
  fd = Connect(server->port());
  FrameDecoder dec3;
  QueryRequest req;
  req.request_id = 3;
  req.xpaths = {"//a/b"};
  frame = Exchange(fd, &dec3, EncodeQuery(req));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kResult);
  ::close(fd);
}

TEST_F(ServeTest, WireDeadlineProducesTypedDeadlineExceeded) {
  // A batch big enough that 1ms cannot possibly cover it on any machine:
  // the per-request deadline spans the whole batch, and the engine
  // checkpoints turn it into a typed error, not a hung request.
  std::vector<std::string> sexps;
  for (int i = 0; i < 60; ++i) {
    sexps.push_back("(book (author (name) (affil)) (title) (year))");
  }
  Seed(sexps);
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  int fd = Connect(server->port());
  FrameDecoder dec;
  QueryRequest req;
  req.request_id = 4;
  req.timeout_ms = 1;
  for (int i = 0; i < 300; ++i) req.xpaths.push_back("//book//name");
  auto frame = Exchange(fd, &dec, EncodeQuery(req));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, FrameType::kError) << "1ms for 300 queries";
  auto err = DecodeError(*frame);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->status_code,
            static_cast<uint32_t>(StatusCode::kDeadlineExceeded))
      << err->message;
  EXPECT_EQ(err->request_id, 4u);

  // The connection survives a deadline error; a sane request completes.
  QueryRequest ok_req;
  ok_req.request_id = 5;
  ok_req.xpaths = {"//book/title"};
  frame = Exchange(fd, &dec, EncodeQuery(ok_req));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kResult);
  ::close(fd);
}

TEST_F(ServeTest, DisconnectMidRequestCancelsExecution) {
  std::vector<std::string> sexps;
  for (int i = 0; i < 60; ++i) {
    sexps.push_back("(book (author (name) (affil)) (title) (year))");
  }
  Seed(sexps);
  ServerOptions options;
  options.cache_bytes = 0;  // no cache: every request really executes
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);

  // Send a heavy batch and slam the connection shut. The watchdog notices
  // the dead peer and cancels the request's deadline; the engine aborts at
  // a checkpoint instead of running the whole batch for nobody.
  int fd = Connect(server->port());
  QueryRequest req;
  req.request_id = 6;
  for (int i = 0; i < 2000; ++i) req.xpaths.push_back("//book//name");
  ASSERT_TRUE(WriteAll(fd, EncodeQuery(req)).ok());
  ::close(fd);

  // The abandoned request must release its execute slot promptly — well
  // under the time 2000 queries would take to run to completion.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server->admission().executing() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server->admission().executing(), 0u);

  // Server healthy afterward.
  fd = Connect(server->port());
  FrameDecoder dec;
  QueryRequest ok_req;
  ok_req.request_id = 7;
  ok_req.xpaths = {"//book/title"};
  auto frame = Exchange(fd, &dec, EncodeQuery(ok_req));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kResult);
  ::close(fd);
}

TEST_F(ServeTest, SlowlorisConnectionDroppedWithTypedError) {
  Seed({"(a (b))"});
  ServerOptions options;
  options.idle_timeout_ms = 100;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);
  int fd = Connect(server->port());
  // Three bytes of a length prefix, then silence: the classic slowloris.
  std::vector<char> drip = {1, 0, 0};
  ASSERT_TRUE(WriteAll(fd, drip).ok());
  FrameDecoder dec;
  auto got = ReadFrame(fd, &dec, 10'000);
  ASSERT_TRUE(got.ok() && got->has_value())
      << "server should reply before hanging up: " << got.status().ToString();
  EXPECT_EQ((*got)->type, FrameType::kError);
  auto err = DecodeError(**got);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->status_code,
            static_cast<uint32_t>(StatusCode::kDeadlineExceeded))
      << err->message;
  ::close(fd);
}

TEST_F(ServeTest, IdleConnectionReapedAndCounted) {
  Seed({"(a (b))"});
  ServerOptions options;
  options.idle_conn_timeout_ms = 150;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.set_enabled(true);
  reg.Reset();

  // A client that keeps talking inside the window stays connected across
  // many windows' worth of wall clock.
  int busy = Connect(server->port());
  FrameDecoder busy_dec;
  for (int i = 0; i < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    std::vector<char> ping;
    AppendFrame(&ping, FrameType::kPing, {'u', 'p'});
    auto pong = Exchange(busy, &busy_dec, ping);
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_EQ(pong->type, FrameType::kPong);
  }

  // A connected-but-silent client (no bytes at all, so the slowloris
  // clock never starts) is reaped with a typed DeadlineExceeded and
  // counted in prix.serve.conns_reaped.
  int idle = Connect(server->port());
  FrameDecoder dec;
  auto got = ReadFrame(idle, &dec, /*idle_timeout_ms=*/10'000);
  ASSERT_TRUE(got.ok() && got->has_value())
      << "reaper should answer before hanging up: " << got.status().ToString();
  EXPECT_EQ((*got)->type, FrameType::kError);
  auto err = DecodeError(**got);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->status_code,
            static_cast<uint32_t>(StatusCode::kDeadlineExceeded))
      << err->message;
  EXPECT_GE(reg.counter("prix.serve.conns_reaped").value(), 1u);
  ::close(idle);
  ::close(busy);
  reg.set_enabled(false);
}

TEST_F(ServeTest, OversizedResultIsTypedErrorNotACrash) {
  Seed({"(a (b))"});
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  int fd = Connect(server->port());
  FrameDecoder dec;

  // Prime the cache so the oversized batch below is answered from the
  // cache-probe path instead of executing 140k queries.
  QueryRequest prime;
  prime.request_id = 30;
  prime.xpaths = {"//a"};
  auto frame = Exchange(fd, &dec, EncodeQuery(prime));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, FrameType::kResult);
  auto primed = DecodeResult(*frame);
  ASSERT_TRUE(primed.ok());
  ASSERT_EQ(primed->docs.size(), 1u);
  ASSERT_FALSE(primed->docs[0].empty()) << "//a must match the seeded doc";

  // 140k copies of a matching xpath fit the 1 MiB request cap (20 + 7n
  // bytes) but their result payload (21 + 8n bytes) does not: before the
  // fix this PRIX_CHECK-aborted the whole server inside AppendFrame.
  QueryRequest req;
  req.request_id = 31;
  req.xpaths.assign(140'000, "//a");
  ASSERT_LE(EncodeQuery(req).size(), kMaxFrameBody + 4);
  frame = Exchange(fd, &dec, EncodeQuery(req));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, FrameType::kError) << "oversized result must be typed";
  auto err = DecodeError(*frame);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->request_id, 31u);
  EXPECT_EQ(err->status_code,
            static_cast<uint32_t>(StatusCode::kResourceExhausted))
      << err->message;
  EXPECT_NE(err->message.find("frame limit"), std::string::npos)
      << err->message;

  // The server survived and the connection still answers sane requests.
  QueryRequest ok_req;
  ok_req.request_id = 32;
  ok_req.xpaths = {"//a/b"};
  frame = Exchange(fd, &dec, EncodeQuery(ok_req));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kResult);
  ::close(fd);
}

TEST_F(ServeTest, SlowlorisDripFeedCannotHoldAFrameOpen) {
  Seed({"(a (b))"});
  ServerOptions options;
  options.idle_timeout_ms = 150;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);
  int fd = Connect(server->port());

  // A well-formed header declaring a 1000-byte kQuery body, then one
  // payload byte every 25 ms — each recv makes "progress", so a per-byte
  // idle clock would never fire (the frame would complete after ~25 s of
  // occupying the connection thread). The per-frame clock must cut the
  // connection off near idle_timeout_ms regardless.
  std::vector<char> header = {static_cast<char>(0xe8), 0x03, 0x00, 0x00,
                              static_cast<char>(FrameType::kQuery)};
  ASSERT_TRUE(WriteAll(fd, header).ok());
  std::atomic<bool> stop_drip{false};
  std::thread dripper([fd, &stop_drip] {
    const char byte = 0;
    while (!stop_drip.load()) {
      if (::send(fd, &byte, 1, MSG_NOSIGNAL) < 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  });
  auto start = std::chrono::steady_clock::now();
  FrameDecoder dec;
  auto got = ReadFrame(fd, &dec, 10'000);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  stop_drip.store(true);
  dripper.join();
  ASSERT_TRUE(got.ok() && got->has_value())
      << "server should reply before hanging up: " << got.status().ToString();
  EXPECT_EQ((*got)->type, FrameType::kError);
  auto err = DecodeError(**got);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->status_code,
            static_cast<uint32_t>(StatusCode::kDeadlineExceeded))
      << err->message;
  // Generous bound (CI jitter), but far below "forever".
  EXPECT_LT(elapsed.count(), 5'000);
  ::close(fd);
}

TEST_F(ServeTest, ConnectionCapRefusesTypedWithoutNewThreads) {
  Seed({"(a (b))"});
  ServerOptions options;
  options.max_connections = 1;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);

  int fd1 = Connect(server->port());
  FrameDecoder dec1;
  QueryRequest req;
  req.request_id = 40;
  req.xpaths = {"//a/b"};
  auto frame = Exchange(fd1, &dec1, EncodeQuery(req));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kResult);

  // With fd1 still open, a second connection is refused at the door with a
  // typed ResourceExhausted, then closed.
  int fd2 = Connect(server->port());
  FrameDecoder dec2;
  auto refused = ReadFrame(fd2, &dec2, 10'000);
  ASSERT_TRUE(refused.ok() && refused->has_value())
      << refused.status().ToString();
  EXPECT_EQ((*refused)->type, FrameType::kError);
  auto err = DecodeError(**refused);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->status_code,
            static_cast<uint32_t>(StatusCode::kResourceExhausted))
      << err->message;
  EXPECT_NE(err->message.find("connection limit"), std::string::npos);
  auto eof = ReadFrame(fd2, &dec2, 10'000);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());
  ::close(fd2);

  // The admitted connection is unaffected.
  req.request_id = 41;
  frame = Exchange(fd1, &dec1, EncodeQuery(req));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kResult);

  // Closing it frees the slot for the next client (after the accept loop
  // reaps the finished connection).
  ::close(fd1);
  bool admitted = false;
  for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
    int fd3 = Connect(server->port());
    FrameDecoder dec3;
    req.request_id = 42;
    auto again = Exchange(fd3, &dec3, EncodeQuery(req));
    admitted = again.ok() && again->type == FrameType::kResult;
    ::close(fd3);
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(admitted) << "slot never freed after the old client left";
}

TEST_F(ServeTest, ReplaySaturationShedsTypedAndBounded) {
  Seed({"(book (author (name)) (title))", "(article (author (name)))"});
  ServerOptions options;
  // One execute slot and a two-deep queue: 8 connections hammering it are
  // 4x past what admission will hold, so the overflow must shed on arrival
  // (admission keys are per connection, so the per-client cap of 2 never
  // binds a one-request-at-a-time connection — queue-full is what fires).
  // Caching off so nothing short-circuits.
  options.admission = {1, 2, 2, 10'000};
  options.cache_bytes = 0;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);

  std::vector<QueryFileEntry> queries;
  queries.push_back({1, "//book/author"});
  queries.push_back({2, "//author/name"});
  queries.push_back({3, "//article//name"});
  queries.push_back({4, "//book/title"});

  // Queries take microseconds, so eight connections need not overlap by
  // themselves. The test holds the one execute slot (under a client id no
  // connection gets) until the server has shed something, so the first
  // requests queue, the overflow sheds on arrival, and then everything
  // drains through the slot.
  AdmissionController& slots = server->admission_for_testing();
  constexpr uint64_t kHolder = ~uint64_t{0};
  ASSERT_TRUE(slots.Admit(kHolder, nullptr, nullptr).ok());
  std::thread releaser([&slots] {
    // The guard only turns a broken server into a failed test, not a hang.
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::seconds(60);
    while (slots.shed_total() == 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    slots.Release(kHolder, /*service_us=*/0);
  });

  ReplayOptions ropts;
  ropts.port = server->port();
  ropts.connections = 8;
  ropts.passes = 40;
  ropts.max_retries = 2;
  ropts.backoff_cap_ms = 4;  // keep the retry storm hot on purpose
  ReplayReport report;
  Status s = RunReplay(ropts, queries, &report);
  releaser.join();
  ASSERT_TRUE(s.ok()) << s.ToString();

  // Overload became typed SHED responses, not errors, hangs, or growth:
  // some requests got through, some were shed, nothing was dropped on the
  // floor without an answer, and the admission queue never exceeded its
  // bound (asserted structurally: shed_total on the server side).
  EXPECT_GT(report.ok, 0u);
  EXPECT_GT(report.shed, 0u) << "8 connections into cap 2 must shed";
  EXPECT_EQ(report.errors, 0u);
  // 4 queries dealt round-robin over 8 connections x 40 passes, batch size
  // 1: 160 logical requests, each of which must end as exactly one of
  // answered / gave-up-after-retries — nothing dropped silently.
  EXPECT_EQ(report.ok + report.gave_up, ropts.passes * queries.size());
  EXPECT_LE(server->admission().queued(), 2u);
  EXPECT_GT(server->admission().shed_total(), 0u);
  server->Stop();
  EXPECT_TRUE(server->Join().ok());
}

TEST_F(ServeTest, DrainRefusesNewWorkTyped) {
  Seed({"(a (b))"});
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  int fd = Connect(server->port());
  server->BeginDrain();
  FrameDecoder dec;
  QueryRequest req;
  req.request_id = 8;
  req.xpaths = {"//a/b"};
  // The in-flight connection gets one typed answer (shed with Unavailable)
  // before the server hangs up on it.
  auto frame = Exchange(fd, &dec, EncodeQuery(req));
  if (frame.ok()) {
    EXPECT_EQ(frame->type, FrameType::kShed);
    auto shed = DecodeShed(*frame);
    ASSERT_TRUE(shed.ok());
    EXPECT_NE(shed->message.find("drain"), std::string::npos)
        << shed->message;
  } else {
    // Raced the drain: the read loop saw draining_ first and hung up.
    EXPECT_TRUE(frame.status().IsUnavailable()) << frame.status().ToString();
  }
  ::close(fd);
  EXPECT_TRUE(server->Join().ok());
  EXPECT_TRUE(server->admission().queued() == 0u);
}

TEST_F(ServeTest, ConcurrentIngestEveryResponseMatchesACommittedGeneration) {
  Seed({"(book (author (name)) (title))"});
  ServerOptions options;
  options.admission.max_executing = 2;
  options.cache_bytes = 1 << 20;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);

  // Writer: insert documents one commit at a time, recording every
  // generation the catalog ever published.
  std::set<uint64_t> committed;
  committed.insert(db_.db().catalog_generation());
  std::atomic<bool> writer_done{false};
  std::thread writer([this, &committed, &writer_done] {
    for (int i = 0; i < 12; ++i) {
      Document doc = DocFromSexp("(book (author (name)) (title))",
                                 /*doc_id=*/0, &dict_);
      auto id = db_.db().InsertDocument("rp", doc);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      committed.insert(db_.db().catalog_generation());
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    writer_done.store(true);
  });

  // Readers: replay against the server while the writer commits.
  std::vector<QueryFileEntry> queries;
  queries.push_back({1, "//book/author"});
  queries.push_back({2, "//author/name"});
  ReplayOptions ropts;
  ropts.port = server->port();
  ropts.connections = 2;
  ropts.passes = 60;
  ReplayReport report;
  Status s = RunReplay(ropts, queries, &report);
  writer.join();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(report.ok, 0u);
  EXPECT_EQ(report.errors, 0u);

  // The oracle: every generation a response carried is one the writer (or
  // the seed) actually committed — a response can never observe a torn or
  // intermediate state — and each connection saw generations move only
  // forward.
  for (uint64_t gen : report.generations) {
    EXPECT_TRUE(committed.count(gen) > 0)
        << "response claimed uncommitted generation " << gen;
  }
  EXPECT_TRUE(report.generations_monotonic);
  EXPECT_TRUE(writer_done.load());
  server->Stop();
  EXPECT_TRUE(server->Join().ok());
}

}  // namespace
}  // namespace prix
