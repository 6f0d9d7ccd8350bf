// prix — command-line front end to the PRIX index.
//
//   prix index <db-file> <xml-file>...    build RP+EP indexes over the
//                                         record children of each file's
//                                         root element, plus the co-resident
//                                         baseline engines (ViST "v",
//                                         TwigStack streams "ts", XB-forest
//                                         "xb") over the same collection
//   prix query [--trace] [--metrics] [--timeout-ms N] [--engine E]
//              <db-file> <xpath>...
//                                         run twig queries against a
//                                         previously built database;
//                                         --engine picks prix (default),
//                                         vist, twigstack, twigstackxb, or
//                                         all (every engine answers and the
//                                         doc sets must agree); exits 1 if
//                                         any query fails to parse, an
//                                         engine fails, or the engines
//                                         diverge; --trace prints each
//                                         query's exact I/O counters,
//                                         PRIX's descent counters and the
//                                         phase breakdown, --metrics dumps
//                                         the process-wide MetricsRegistry
//                                         as JSON afterward; --timeout-ms
//                                         gives each query a deadline,
//                                         whichever engines answer it
//   prix insert <db-file> <xml-file>...   parse each file into records and
//                                         insert them into the live rp+ep
//                                         indexes (one commit per record
//                                         per index); each commit also
//                                         carries the co-resident v/ts/xb
//                                         engines; concurrent readers on
//                                         snapshots are unaffected until
//                                         each commit lands
//   prix delete <db-file> <docid>...      tombstone documents in rp+ep (and
//                                         the co-resident engines); their
//                                         DocStore records remain until a
//                                         rebuild but no query returns them
//   prix serve <db-file> [--port N] [--rp NAME] [--ep NAME]
//              [--cache-mb N] [--max-queued N]
//              [--max-executing N] [--default-timeout-ms N]
//              [--idle-timeout-ms N] [--idle-conn-timeout-ms N]
//              [--max-connections N]
//              [--replicate-port N] [--follow HOST:PORT]
//              [--ingest XML [--ingest-interval-ms N]]
//                                         serve queries over TCP (loopback)
//                                         with admission control, per-
//                                         request deadlines, and a
//                                         generation-keyed result cache;
//                                         each connection thread runs its
//                                         own admitted requests, at most
//                                         --max-executing (default 4, at
//                                         least 1) at once;
//                                         SIGTERM/SIGINT drain gracefully;
//                                         --replicate-port additionally
//                                         streams committed generations to
//                                         followers (the leader role);
//                                         --follow makes this node a read-
//                                         only follower replaying from the
//                                         given leader — it serves queries
//                                         at its last committed generation,
//                                         and a fresh/diverged follower
//                                         resyncs from a full snapshot
//                                         automatically
//   prix repl-status <db-file>            print a node's replication cursor
//                                         and oplog extent without touching
//                                         the file (no commit, no
//                                         generation bump)
//   prix bench-serve --port N --queries FILE [--host H] [--connections N]
//              [--passes N] [--batch N] [--timeout-ms N] [--qps X]
//              [--retries N] [--seed N] [--out FILE]
//                                         replay a Zambezi-format query
//                                         file against a running server and
//                                         write p50/p95/p99 latencies to
//                                         BENCH_serve.json
//   prix stats  <db-file>                 print index statistics
//   prix verify [--salvage] <db-file> [<out-file>]
//                                         scrub every page's CRC and walk
//                                         every index structurally,
//                                         reporting page id / index name /
//                                         node path per fault; --salvage
//                                         additionally reconstructs the
//                                         surviving documents from the PRIX
//                                         document stores and rebuilds
//                                         every index from them into
//                                         <out-file> (default
//                                         <db-file>.salvaged)
//
// Everything lives in one database file: the RP and EP indexes are catalog
// entries named "rp" and "ep", and the tag dictionary (which must survive
// restarts for queries to resolve tag names) is a blob entry named "tags".

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <mutex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/build_info.h"
#include "common/deadline.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/queryfile.h"
#include "db/database.h"
#include "prix/engine.h"
#include "prix/prix_index.h"
#include "query/xpath_parser.h"
#include "repl/client.h"
#include "repl/sender.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "storage/oplog.h"
#include "storage/record_store.h"
#include "twigstack/position_stream.h"
#include "twigstack/twig_stack.h"
#include "verify/verifier.h"
#include "vist/vist_index.h"
#include "xml/xml_parser.h"

namespace prix {
namespace {

constexpr uint32_t kTagsBlobMagic = 0x54414753;  // "TAGS"

int Fail(const std::string& message) {
  std::fprintf(stderr, "prix: %s\n", message.c_str());
  return 1;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Status SaveDictionary(Database* db, const TagDictionary& dict) {
  std::vector<char> blob;
  PutU32(&blob, kTagsBlobMagic);
  PutU32(&blob, static_cast<uint32_t>(dict.size()));
  for (LabelId id = 0; id < dict.size(); ++id) {
    const std::string& name = dict.Name(id);
    PutU32(&blob, static_cast<uint32_t>(name.size()));
    blob.insert(blob.end(), name.begin(), name.end());
  }
  PRIX_ASSIGN_OR_RETURN(PageId first, WriteBlob(db->pool(), blob));
  Database::IndexEntry entry;
  entry.name = "tags";
  entry.kind = Database::IndexKind::kBlob;
  entry.root = first;
  return db->PutIndex(entry);
}

Status LoadDictionary(Database* db, TagDictionary* dict) {
  PRIX_ASSIGN_OR_RETURN(Database::IndexEntry entry, db->GetIndex("tags"));
  if (entry.kind != Database::IndexKind::kBlob) {
    return Status::Corruption("'tags' catalog entry is not a blob");
  }
  std::vector<char> blob;
  PRIX_RETURN_NOT_OK(ReadBlob(db->pool(), entry.root, &blob));
  size_t off = 0;
  auto need = [&](size_t bytes) -> Status {
    if (blob.size() - off < bytes) {
      return Status::Corruption("tag dictionary blob truncated");
    }
    return Status::OK();
  };
  PRIX_RETURN_NOT_OK(need(8));
  if (GetU32(blob.data()) != kTagsBlobMagic) {
    return Status::Corruption("bad tag dictionary magic");
  }
  uint32_t labels = GetU32(blob.data() + 4);
  off = 8;
  for (uint32_t i = 0; i < labels; ++i) {
    PRIX_RETURN_NOT_OK(need(4));
    uint32_t len = GetU32(blob.data() + off);
    off += 4;
    PRIX_RETURN_NOT_OK(need(len));
    LabelId id = dict->Intern(std::string(blob.data() + off, len));
    off += len;
    if (id != i) return Status::Corruption("tag dictionary label order");
  }
  return Status::OK();
}

int CmdIndex(const std::string& path, int argc, char** argv) {
  DocumentCollection coll;
  for (int i = 0; i < argc; ++i) {
    auto text = ReadFile(argv[i]);
    if (!text.ok()) return Fail(text.status().ToString());
    auto doc = ParseXml(*text, &coll.dictionary);
    if (!doc.ok()) {
      return Fail(std::string(argv[i]) + ": " + doc.status().ToString());
    }
    // Each child of the file's root element becomes one document — how the
    // paper turns the monolithic DBLP file into its collection.
    std::vector<Document> records = SplitIntoRecords(*doc);
    if (records.empty()) {
      doc->set_doc_id(static_cast<DocId>(coll.documents.size()));
      coll.documents.push_back(std::move(*doc));
      continue;
    }
    for (Document& record : records) {
      record.set_doc_id(static_cast<DocId>(coll.documents.size()));
      coll.documents.push_back(std::move(record));
    }
  }
  std::printf("Parsed %zu documents (%zu nodes, %zu distinct labels).\n",
              coll.documents.size(), coll.TotalNodes(),
              coll.dictionary.size());

  auto db = Database::Create(path);
  if (!db.ok()) return Fail(db.status().ToString());
  // Pages each index took, as file growth across its build (and, for v, ts
  // and xb, its save) — the same deltas perfbench reports as space.*_pages.
  uint64_t mark = (*db)->disk()->num_pages();
  auto grown = [&] {
    const uint64_t now = (*db)->disk()->num_pages();
    const uint64_t delta = now - mark;
    mark = now;
    return (unsigned long long)delta;
  };
  PrixIndexBuildStats rp_stats, ep_stats;
  PrixIndexOptions rp_opts;
  auto rp = PrixIndex::Build(coll.documents, (*db)->pool(), rp_opts,
                             &rp_stats);
  if (!rp.ok()) return Fail(rp.status().ToString());
  const auto rp_pages = grown();
  PrixIndexOptions ep_opts;
  ep_opts.extended = true;
  auto ep =
      PrixIndex::Build(coll.documents, (*db)->pool(), ep_opts, &ep_stats);
  if (!ep.ok()) return Fail(ep.status().ToString());
  const auto ep_pages = grown();
  if (auto s = (*rp)->Save(db->get(), "rp"); !s.ok()) {
    return Fail(s.ToString());
  }
  if (auto s = (*ep)->Save(db->get(), "ep"); !s.ok()) {
    return Fail(s.ToString());
  }
  // Co-resident baseline engines over the same collection: ViST ("v") and
  // TwigStack streams + XB-forest ("ts"/"xb"). Online ingest carries all of
  // them in the same commit as rp/ep (DESIGN.md §5k), so they stay
  // answer-identical at every generation.
  grown();  // the rp/ep catalogs are not counted, as in perfbench
  auto vist = VistIndex::Build(coll.documents, (*db)->pool());
  if (!vist.ok()) return Fail(vist.status().ToString());
  if (auto s = (*vist)->Save(db->get(), "v"); !s.ok()) {
    return Fail(s.ToString());
  }
  const auto v_pages = grown();
  auto streams = StreamStore::Build(coll.documents, (*db)->pool());
  if (!streams.ok()) return Fail(streams.status().ToString());
  if (auto s = (*streams)->Save(db->get(), "ts"); !s.ok()) {
    return Fail(s.ToString());
  }
  const auto ts_pages = grown();
  auto forest = XbForest::Build(streams->get());
  if (!forest.ok()) return Fail(forest.status().ToString());
  if (auto s = (*forest)->Save(db->get(), "xb"); !s.ok()) {
    return Fail(s.ToString());
  }
  const auto xb_pages = grown();
  if (auto s = SaveDictionary(db->get(), coll.dictionary); !s.ok()) {
    return Fail(s.ToString());
  }
  if (auto s = (*db)->Close(); !s.ok()) return Fail(s.ToString());
  std::printf(
      "Indexed: RP trie %llu nodes (%llu B+-tree entries), EP trie %llu "
      "nodes; database %s.\n"
      "Pages: rp %llu, ep %llu, v %llu, ts %llu, xb %llu.\n",
      (unsigned long long)rp_stats.trie_nodes,
      (unsigned long long)rp_stats.symbol_entries,
      (unsigned long long)ep_stats.trie_nodes, path.c_str(), rp_pages,
      ep_pages, v_pages, ts_pages, xb_pages);
  return 0;
}

int CmdInsert(const std::string& path, int argc, char** argv) {
  auto db = Database::Open(path);
  if (!db.ok()) return Fail(db.status().ToString());
  TagDictionary dict;
  if (auto s = LoadDictionary(db->get(), &dict); !s.ok()) {
    return Fail(s.ToString());
  }
  size_t inserted = 0;
  for (int i = 0; i < argc; ++i) {
    auto text = ReadFile(argv[i]);
    if (!text.ok()) return Fail(text.status().ToString());
    auto doc = ParseXml(*text, &dict);
    if (!doc.ok()) {
      return Fail(std::string(argv[i]) + ": " + doc.status().ToString());
    }
    std::vector<Document> records = SplitIntoRecords(*doc);
    if (records.empty()) records.push_back(std::move(*doc));
    for (const Document& record : records) {
      // Both indexes cover the same collection, so the assigned DocIds must
      // stay in lockstep; a mismatch means the database was built unevenly.
      auto rp_id = (*db)->InsertDocument("rp", record);
      if (!rp_id.ok()) return Fail(rp_id.status().ToString());
      auto ep_id = (*db)->InsertDocument("ep", record);
      if (!ep_id.ok()) return Fail(ep_id.status().ToString());
      if (*rp_id != *ep_id) {
        return Fail("rp/ep DocId divergence: " + std::to_string(*rp_id) +
                    " vs " + std::to_string(*ep_id));
      }
      std::printf("doc%u <- %s\n", *rp_id, argv[i]);
      ++inserted;
    }
  }
  // New tags may have been interned while parsing; re-persist the dictionary
  // so queries after a restart can resolve them.
  if (auto s = SaveDictionary(db->get(), dict); !s.ok()) {
    return Fail(s.ToString());
  }
  if (auto s = (*db)->Close(); !s.ok()) return Fail(s.ToString());
  std::printf("Inserted %zu document(s) into %s (generation now spans rp+ep "
              "commits).\n",
              inserted, path.c_str());
  return 0;
}

int CmdDelete(const std::string& path, int argc, char** argv) {
  auto db = Database::Open(path);
  if (!db.ok()) return Fail(db.status().ToString());
  for (int i = 0; i < argc; ++i) {
    char* end = nullptr;
    unsigned long parsed = std::strtoul(argv[i], &end, 10);
    if (end == argv[i] || *end != '\0') {
      return Fail(std::string("not a DocId: ") + argv[i]);
    }
    uint32_t doc = static_cast<uint32_t>(parsed);
    if (auto s = (*db)->DeleteDocument("rp", doc); !s.ok()) {
      return Fail("deleting doc" + std::to_string(doc) + " from rp: " +
                  s.ToString());
    }
    if (auto s = (*db)->DeleteDocument("ep", doc); !s.ok()) {
      return Fail("deleting doc" + std::to_string(doc) + " from ep: " +
                  s.ToString());
    }
    std::printf("doc%u deleted\n", doc);
  }
  if (auto s = (*db)->Close(); !s.ok()) return Fail(s.ToString());
  return 0;
}

int CmdQuery(const std::string& path, int argc, char** argv, bool trace,
             bool metrics, uint32_t timeout_ms, const std::string& engine) {
  auto db = Database::Open(path);
  if (!db.ok()) return Fail(db.status().ToString());
  TagDictionary dict;
  if (auto s = LoadDictionary(db->get(), &dict); !s.ok()) {
    return Fail(s.ToString());
  }
  if (metrics) {
    MetricsRegistry::Global().set_enabled(true);
    MetricsRegistry::Global().Reset();
  }
  // `all` runs every engine on each query, and their doc sets must agree.
  std::vector<EngineKind> kinds;
  for (EngineKind kind : kAllEngineKinds) {
    if (engine == "all" || engine == EngineKindName(kind)) {
      kinds.push_back(kind);
    }
  }
  const bool compare = kinds.size() > 1;
  const Engines engines(db->get(), (*db)->OpenSnapshot());
  bool failed = false;
  for (int i = 0; i < argc; ++i) {
    // Each query gets its own deadline, which every engine that answers it
    // installs: --timeout-ms bounds one query, not the whole invocation,
    // so a slow second query still gets its full budget after a fast one.
    Deadline deadline = timeout_ms > 0 ? Deadline::AfterMillis(timeout_ms)
                                       : Deadline();
    QueryOptions qopts;
    if (timeout_ms > 0) qopts.deadline = &deadline;
    MetricsContext mctx(/*collect_trace=*/trace);
    std::printf("%s\n", argv[i]);
    Result<TwigPattern> pattern = [&] {
      TraceSpan span("parse");
      return ParseXPath(argv[i], &dict);
    }();
    if (!pattern.ok()) {
      std::printf("  error: %s\n", pattern.status().ToString().c_str());
      failed = true;
      continue;
    }
    std::vector<DocId> reference;
    bool ok = true;  // every engine answered, and all alike
    for (EngineKind kind : kinds) {
      auto result = engines.Execute(kind, *pattern, qopts);
      const bool first = kind == kinds.front();
      if (!result.ok()) {
        const std::string error = result.status().ToString();
        if (compare) {
          std::printf("%s[%s] error: %s", first ? "  " : "\n  ",
                      EngineKindName(kind), error.c_str());
        } else {
          std::printf("  error: %s\n", error.c_str());
        }
        ok = false;
        continue;
      }
      if (compare) {
        std::printf(first ? "  [%s] %zu document(s)" : " [%s] %zu",
                    EngineKindName(kind), result->docs.size());
        if (first) reference = result->docs;
        ok &= result->docs == reference;
        continue;
      }
      std::printf("  %zu match(es) in %zu document(s), %llu pages read",
                  result->matches.size(), result->docs.size(),
                  (unsigned long long)result->stats.pages_read);
      size_t shown = 0;
      for (DocId d : result->docs) {
        if (shown++ == 10) {
          std::printf(" ...");
          break;
        }
        std::printf("%s doc%u", shown == 1 ? ":" : "", d);
      }
      std::printf("\n");
      if (trace) {
        const QueryStats& s = result->stats;
        std::printf(
            "  io: %llu pool hits, %llu misses, %llu reads, %llu writes, "
            "%llu btree nodes\n",
            (unsigned long long)s.pool_hits,
            (unsigned long long)s.pool_misses,
            (unsigned long long)s.pages_read,
            (unsigned long long)s.pages_written,
            (unsigned long long)s.btree_nodes);
        if (kind == EngineKind::kPrix) {
          std::printf(
              "  descent: %llu range queries, %llu trie nodes scanned, "
              "%llu pruned by maxgap, %llu pruned by anchor, "
              "%llu occurrences, %llu docs loaded, "
              "%llu refinement candidates, %llu passed\n",
              (unsigned long long)s.matcher.range_queries,
              (unsigned long long)s.matcher.nodes_scanned,
              (unsigned long long)s.matcher.pruned_by_maxgap,
              (unsigned long long)s.matcher.pruned_by_anchor,
              (unsigned long long)s.matcher.occurrences,
              (unsigned long long)s.docs_loaded,
              (unsigned long long)s.refine.candidates,
              (unsigned long long)s.refine.passed);
        }
        std::printf("%s", RenderTrace(mctx.trace()).c_str());
      }
    }
    if (compare) std::printf("%s\n", ok ? "  (all agree)" : "  DIVERGENCE");
    failed |= !ok;
  }
  if (metrics) {
    std::printf("%s\n", MetricsRegistry::Global().ToJson().c_str());
  }
  return failed ? 1 : 0;
}

// --- prix serve / prix bench-serve ------------------------------------------

volatile std::sig_atomic_t g_shutdown_requested = 0;
void HandleShutdownSignal(int) { g_shutdown_requested = 1; }

/// Parses the value of a `--flag value` pair; returns false (after printing
/// the failure) on a malformed number.
bool ParseUintValue(const char* flag, const char* text, uint64_t* out) {
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    Fail(std::string(flag) + " needs an unsigned integer, got '" + text +
         "'");
    return false;
  }
  *out = parsed;
  return true;
}

int CmdServe(int argc, char** argv) {
  std::string path;
  ServerOptions options;
  options.rp_name = "rp";
  uint64_t cache_mb = 16;
  bool ep_explicit = false;
  bool replicate = false;
  uint16_t replicate_port = 0;
  std::string follow_addr;
  std::string ingest_path;
  uint64_t ingest_interval_ms = 100;
  for (int i = 0; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    uint64_t n = 0;
    if (flag.rfind("--", 0) != 0) {
      if (!path.empty()) return Fail("serve takes one database path");
      path = flag;
    } else if (flag == "--port") {
      const char* v = value();
      if (v == nullptr || !ParseUintValue("--port", v, &n)) return 1;
      options.port = static_cast<uint16_t>(n);
    } else if (flag == "--rp") {
      const char* v = value();
      if (v == nullptr) return Fail("--rp needs an index name");
      options.rp_name = v;
    } else if (flag == "--ep") {
      const char* v = value();
      if (v == nullptr) return Fail("--ep needs an index name");
      options.ep_name = v;
      ep_explicit = true;
    } else if (flag == "--cache-mb") {
      const char* v = value();
      if (v == nullptr || !ParseUintValue("--cache-mb", v, &n)) return 1;
      cache_mb = n;
    } else if (flag == "--max-queued") {
      const char* v = value();
      if (v == nullptr || !ParseUintValue("--max-queued", v, &n)) return 1;
      options.admission.max_queued = n;
    } else if (flag == "--max-executing") {
      const char* v = value();
      if (v == nullptr || !ParseUintValue("--max-executing", v, &n)) {
        return 1;
      }
      if (n == 0) return Fail("--max-executing must be at least 1");
      options.admission.max_executing = n;
    } else if (flag == "--default-timeout-ms") {
      const char* v = value();
      if (v == nullptr ||
          !ParseUintValue("--default-timeout-ms", v, &n)) {
        return 1;
      }
      options.default_timeout_ms = static_cast<uint32_t>(n);
    } else if (flag == "--idle-timeout-ms") {
      const char* v = value();
      if (v == nullptr || !ParseUintValue("--idle-timeout-ms", v, &n)) {
        return 1;
      }
      options.idle_timeout_ms = static_cast<uint32_t>(n);
    } else if (flag == "--max-connections") {
      const char* v = value();
      if (v == nullptr || !ParseUintValue("--max-connections", v, &n)) {
        return 1;
      }
      options.max_connections = n;
    } else if (flag == "--idle-conn-timeout-ms") {
      const char* v = value();
      if (v == nullptr || !ParseUintValue("--idle-conn-timeout-ms", v, &n)) {
        return 1;
      }
      options.idle_conn_timeout_ms = static_cast<uint32_t>(n);
    } else if (flag == "--replicate-port") {
      const char* v = value();
      if (v == nullptr || !ParseUintValue("--replicate-port", v, &n)) {
        return 1;
      }
      replicate = true;
      replicate_port = static_cast<uint16_t>(n);
    } else if (flag == "--follow") {
      const char* v = value();
      if (v == nullptr) return Fail("--follow needs a leader host:port");
      follow_addr = v;
    } else if (flag == "--ingest") {
      const char* v = value();
      if (v == nullptr) return Fail("--ingest needs an XML file path");
      ingest_path = v;
    } else if (flag == "--ingest-interval-ms") {
      const char* v = value();
      if (v == nullptr ||
          !ParseUintValue("--ingest-interval-ms", v, &n)) {
        return 1;
      }
      ingest_interval_ms = n;
    } else {
      return Fail("unknown serve flag: " + flag);
    }
  }
  if (path.empty()) return Fail("serve needs a database path");
  if (replicate && !follow_addr.empty()) {
    return Fail("--replicate-port and --follow are mutually exclusive "
                "(a node is a leader or a follower, not both)");
  }
  options.cache_bytes = cache_mb << 20;
  const bool follow = !follow_addr.empty();
  std::string follow_host = "127.0.0.1";
  uint16_t follow_port = 0;
  if (follow) {
    size_t colon = follow_addr.find_last_of(':');
    std::string port_text =
        colon == std::string::npos ? follow_addr
                                   : follow_addr.substr(colon + 1);
    if (colon != std::string::npos && colon > 0) {
      follow_host = follow_addr.substr(0, colon);
    }
    uint64_t n = 0;
    if (!ParseUintValue("--follow", port_text.c_str(), &n) || n == 0 ||
        n > 65535) {
      return Fail("--follow needs a leader host:port, got '" + follow_addr +
                  "'");
    }
    follow_port = static_cast<uint16_t>(n);
  }

  // A fresh follower may start from nothing: create an empty database and
  // let the first snapshot (or record stream) populate it. Leaders must
  // already have one.
  std::unique_ptr<Database> db;
  if (follow && ::access(path.c_str(), F_OK) != 0) {
    auto created = Database::Create(path);
    if (!created.ok()) return Fail(created.status().ToString());
    db = std::move(*created);
    std::printf("prix serve: created empty follower database %s\n",
                path.c_str());
  } else {
    auto opened = Database::Open(path);
    if (!opened.ok()) return Fail(opened.status().ToString());
    db = std::move(*opened);
  }
  TagDictionary dict;
  if (auto s = LoadDictionary(db.get(), &dict); !s.ok()) {
    // A follower that has not caught up yet has no dictionary; it arrives
    // with the snapshot (or the replicated "tags" blob).
    if (!follow) return Fail(s.ToString());
  }

  // --ingest: a driver thread inserting this file's records one commit at
  // a time while serving — how the replication check exercises a live
  // leader under concurrent inserts. Parse (and persist any new tags) up
  // front: the dictionary is shared with query threads once the server
  // starts, so it must stop changing now.
  std::vector<Document> ingest_records;
  if (!ingest_path.empty()) {
    if (follow) return Fail("--ingest on a follower (it is read-only)");
    auto text = ReadFile(ingest_path);
    if (!text.ok()) return Fail(text.status().ToString());
    auto doc = ParseXml(*text, &dict);
    if (!doc.ok()) {
      return Fail(ingest_path + ": " + doc.status().ToString());
    }
    ingest_records = SplitIntoRecords(*doc);
    if (ingest_records.empty()) ingest_records.push_back(std::move(*doc));
    if (auto s = SaveDictionary(db.get(), dict); !s.ok()) {
      return Fail(s.ToString());
    }
  }

  // `state_mu` guards db/dict/server against the replication thread's
  // snapshot swap (which tears all three down and rebuilds them).
  std::mutex state_mu;
  std::unique_ptr<Server> server;
  auto start_server_locked = [&]() -> Status {
    // Default the extended index to "ep" when the catalog has one; --ep
    // overrides, and a database built without an EP index just serves RP.
    if (!ep_explicit) {
      options.ep_name = db->GetIndex("ep").ok() ? "ep" : "";
    }
    PRIX_ASSIGN_OR_RETURN(server, Server::Start(db.get(), &dict, options));
    // Pin the (possibly kernel-assigned) port so a snapshot swap restarts
    // the server on the same one — clients reconnect, not rediscover.
    options.port = server->port();
    std::printf("prix serve: listening on port %u (db %s, rp '%s'%s%s)\n",
                server->port(), path.c_str(), options.rp_name.c_str(),
                options.ep_name.empty() ? "" : ", ep '",
                options.ep_name.empty() ? ""
                                        : (options.ep_name + "'").c_str());
    std::fflush(stdout);
    return Status::OK();
  };
  {
    std::lock_guard<std::mutex> lock(state_mu);
    if (auto s = start_server_locked(); !s.ok()) {
      if (!follow) return Fail(s.ToString());
      // No PRIX index yet (fresh follower): serve once the snapshot lands.
      std::printf("prix serve: not serving yet (%s); waiting for catch-up\n",
                  s.ToString().c_str());
      std::fflush(stdout);
    }
  }

  std::unique_ptr<ReplSender> sender;
  if (replicate) {
    ReplSenderOptions sopt;
    sopt.port = replicate_port;
    auto started = ReplSender::Start(db.get(), sopt);
    if (!started.ok()) return Fail(started.status().ToString());
    sender = std::move(*started);
    std::printf("prix serve: replicating on port %u\n", sender->port());
    std::fflush(stdout);
  }

  std::unique_ptr<ReplClient> repl;
  if (follow) {
    ReplClientOptions copt;
    copt.host = follow_host;
    copt.port = follow_port;
    copt.db_path = path;
    SnapshotSwapFn swap = [&](const std::string& tmp, uint64_t gen,
                              uint32_t manifest) -> Result<Database*> {
      std::lock_guard<std::mutex> lock(state_mu);
      if (server) {
        server->Stop();
        (void)server->Join();
        server.reset();
      }
      db->Abandon();  // its file was just superseded; nothing to sync
      db.reset();
      PRIX_RETURN_NOT_OK(InstallSnapshotFile(tmp, path));
      auto reopened = Database::Open(path);
      if (!reopened.ok()) return reopened.status();
      db = std::move(*reopened);
      // Persist the cursor the snapshot corresponds to; until this commit
      // lands a restart re-syncs from scratch, which is safe.
      db->StageReplCursor(gen, manifest);
      PRIX_RETURN_NOT_OK(db->CommitBatch({}, {}));
      dict = TagDictionary();
      if (auto s = LoadDictionary(db.get(), &dict); !s.ok()) {
        std::printf("prix serve: snapshot carries no tag dictionary (%s)\n",
                    s.ToString().c_str());
      }
      std::printf("prix serve: installed leader snapshot (leader gen %llu)\n",
                  (unsigned long long)gen);
      if (auto s = start_server_locked(); !s.ok()) {
        std::printf("prix serve: still not serving (%s)\n",
                    s.ToString().c_str());
      }
      std::fflush(stdout);
      return db.get();
    };
    auto started = ReplClient::Start(db.get(), copt, std::move(swap));
    if (!started.ok()) return Fail(started.status().ToString());
    repl = std::move(*started);
    std::printf("prix serve: following %s:%u\n", follow_host.c_str(),
                follow_port);
    std::fflush(stdout);
  }

  std::atomic<bool> ingest_stop{false};
  std::thread ingest_thread;
  if (!ingest_records.empty()) {
    std::printf("prix serve: ingesting %zu record(s) from %s every %llu ms\n",
                ingest_records.size(), ingest_path.c_str(),
                (unsigned long long)ingest_interval_ms);
    std::fflush(stdout);
    ingest_thread = std::thread([&] {
      size_t done = 0;
      for (const Document& record : ingest_records) {
        if (ingest_stop.load(std::memory_order_acquire)) break;
        auto rp_id = db->InsertDocument("rp", record);
        if (!rp_id.ok()) {
          std::printf("prix serve: ingest stopped: %s\n",
                      rp_id.status().ToString().c_str());
          break;
        }
        auto ep_id = db->InsertDocument("ep", record);
        if (!ep_id.ok()) {
          std::printf("prix serve: ingest stopped: %s\n",
                      ep_id.status().ToString().c_str());
          break;
        }
        ++done;
        uint64_t remaining = ingest_interval_ms;
        while (remaining > 0 &&
               !ingest_stop.load(std::memory_order_acquire)) {
          uint64_t step = remaining < 20 ? remaining : 20;
          std::this_thread::sleep_for(std::chrono::milliseconds(step));
          remaining -= step;
        }
      }
      std::printf("prix serve: ingest finished (%zu record(s))\n", done);
      std::fflush(stdout);
    });
  }

  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);
  // Once a second, log replication progress — but only when it changed, so
  // a caught-up pair is silent and a wedged one says why.
  std::string last_note;
  int ticks = 0;
  while (g_shutdown_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (++ticks % 20 != 0) continue;
    std::string note;
    char buf[512];
    if (repl) {
      ReplClient::Stats rs = repl->stats();
      Status err = repl->last_error();
      std::snprintf(buf, sizeof(buf),
                    "follow: applied gen %llu of leader gen %llu "
                    "(%llu records, %llu snapshots, %llu reconnects)%s%s",
                    (unsigned long long)rs.applied_gen,
                    (unsigned long long)rs.leader_gen,
                    (unsigned long long)rs.records_applied,
                    (unsigned long long)rs.snapshots_installed,
                    (unsigned long long)rs.reconnects,
                    err.ok() ? "" : " last error: ",
                    err.ok() ? "" : err.ToString().c_str());
      note = buf;
    } else if (sender) {
      ReplSender::Stats ss = sender->stats();
      std::snprintf(buf, sizeof(buf),
                    "replicate: %llu follower(s), %llu records, "
                    "%llu snapshots, %llu divergences%s%s",
                    (unsigned long long)ss.followers,
                    (unsigned long long)ss.records_sent,
                    (unsigned long long)ss.snapshots_sent,
                    (unsigned long long)ss.divergences,
                    ss.last_conn_error.empty() ? "" : " last conn: ",
                    ss.last_conn_error.c_str());
      note = buf;
    }
    if (!note.empty() && note != last_note) {
      std::printf("prix serve: %s\n", note.c_str());
      std::fflush(stdout);
      last_note = note;
    }
  }
  ingest_stop.store(true, std::memory_order_release);
  if (ingest_thread.joinable()) ingest_thread.join();
  if (repl) {
    ReplClient::Stats rs = repl->stats();
    repl->Stop();
    std::printf("prix serve: replication stopped at leader gen %llu "
                "(%llu records, %llu snapshots, %llu reconnects)\n",
                (unsigned long long)rs.applied_gen,
                (unsigned long long)rs.records_applied,
                (unsigned long long)rs.snapshots_installed,
                (unsigned long long)rs.reconnects);
  }
  if (sender) sender->Stop();
  std::lock_guard<std::mutex> lock(state_mu);
  if (server) {
    std::printf("prix serve: draining (%llu requests served)\n",
                (unsigned long long)server->requests_served());
    std::fflush(stdout);
    server->BeginDrain();
    if (auto s = server->Join(); !s.ok()) return Fail(s.ToString());
    server.reset();
  }
  if (auto s = db->Close(); !s.ok()) return Fail(s.ToString());
  std::printf("prix serve: exited cleanly\n");
  return 0;
}

int CmdReplStatus(const std::string& path) {
  auto opened = Database::Open(path);
  if (!opened.ok()) return Fail(opened.status().ToString());
  std::unique_ptr<Database> db = std::move(*opened);
  std::pair<uint64_t, uint32_t> cursor = db->repl_cursor();
  OpLog* log = db->oplog();
  std::printf("database:     %s\n", path.c_str());
  std::printf("generation:   %llu\n",
              (unsigned long long)db->catalog_generation());
  std::printf("repl cursor:  leader gen %llu, manifest %08x%s\n",
              (unsigned long long)cursor.first, cursor.second,
              cursor.first == 0 && cursor.second == 0
                  ? " (never followed a leader)"
                  : "");
  std::printf("oplog:        gens (%llu, %llu], %zu record(s), "
              "tail manifest %08x\n",
              (unsigned long long)log->base_gen(),
              (unsigned long long)log->last_gen(), log->record_count(),
              log->last_manifest());
  // Peek only: Close() would commit, bumping the generation of a node we
  // are merely inspecting (and racing a serving process on the same file).
  db->Abandon();
  return 0;
}

int CmdBenchServe(int argc, char** argv) {
  ReplayOptions options;
  std::string queries_path;
  std::string out_path = "BENCH_serve.json";
  for (int i = 0; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    uint64_t n = 0;
    if (flag == "--host") {
      const char* v = value();
      if (v == nullptr) return Fail("--host needs a value");
      options.host = v;
    } else if (flag == "--port") {
      const char* v = value();
      if (v == nullptr || !ParseUintValue("--port", v, &n)) return 1;
      options.port = static_cast<uint16_t>(n);
    } else if (flag == "--queries") {
      const char* v = value();
      if (v == nullptr) return Fail("--queries needs a file path");
      queries_path = v;
    } else if (flag == "--connections") {
      const char* v = value();
      if (v == nullptr || !ParseUintValue("--connections", v, &n)) return 1;
      options.connections = n;
    } else if (flag == "--passes") {
      const char* v = value();
      if (v == nullptr || !ParseUintValue("--passes", v, &n)) return 1;
      options.passes = n;
    } else if (flag == "--batch") {
      const char* v = value();
      if (v == nullptr || !ParseUintValue("--batch", v, &n)) return 1;
      options.batch_size = n;
    } else if (flag == "--timeout-ms") {
      const char* v = value();
      if (v == nullptr || !ParseUintValue("--timeout-ms", v, &n)) return 1;
      options.timeout_ms = static_cast<uint32_t>(n);
    } else if (flag == "--qps") {
      const char* v = value();
      if (v == nullptr) return Fail("--qps needs a value");
      options.open_loop_qps = std::strtod(v, nullptr);
    } else if (flag == "--retries") {
      const char* v = value();
      if (v == nullptr || !ParseUintValue("--retries", v, &n)) return 1;
      options.max_retries = n;
    } else if (flag == "--seed") {
      const char* v = value();
      if (v == nullptr || !ParseUintValue("--seed", v, &n)) return 1;
      options.seed = n;
    } else if (flag == "--out") {
      const char* v = value();
      if (v == nullptr) return Fail("--out needs a file path");
      out_path = v;
    } else {
      return Fail("unknown bench-serve flag: " + flag);
    }
  }
  if (options.port == 0) return Fail("bench-serve needs --port");
  if (queries_path.empty()) return Fail("bench-serve needs --queries");

  auto queries = LoadQueryFile(queries_path);
  if (!queries.ok()) return Fail(queries.status().ToString());

  uint64_t start_us = Deadline::NowMicros();
  ReplayReport report;
  if (auto s = RunReplay(options, *queries, &report); !s.ok()) {
    return Fail(s.ToString());
  }
  uint64_t wall_us = Deadline::NowMicros() - start_us;

  uint64_t p50 = LatencyPercentileUs(&report.latencies_us, 0.5);
  uint64_t p95 = LatencyPercentileUs(&report.latencies_us, 0.95);
  uint64_t p99 = LatencyPercentileUs(&report.latencies_us, 0.99);
  uint64_t sum = 0;
  for (uint64_t v : report.latencies_us) sum += v;
  uint64_t mean =
      report.latencies_us.empty() ? 0 : sum / report.latencies_us.size();

  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("serve");
  AppendBuildInfoJson(&w);
  w.Key("host").String(options.host);
  w.Key("port").UInt(options.port);
  w.Key("queries").UInt(queries->size());
  w.Key("connections").UInt(options.connections);
  w.Key("passes").UInt(options.passes);
  w.Key("batch_size").UInt(options.batch_size);
  w.Key("timeout_ms").UInt(options.timeout_ms);
  w.Key("open_loop_qps").Double(options.open_loop_qps);
  w.Key("max_retries").UInt(options.max_retries);
  w.Key("seed").UInt(options.seed);
  w.Key("wall_us").UInt(wall_us);
  w.Key("requests").UInt(report.requests);
  w.Key("ok").UInt(report.ok);
  w.Key("cached").UInt(report.cached);
  w.Key("shed").UInt(report.shed);
  w.Key("retries").UInt(report.retries);
  w.Key("gave_up").UInt(report.gave_up);
  w.Key("errors").UInt(report.errors);
  w.Key("deadline_errors").UInt(report.deadline_errors);
  w.Key("docs").UInt(report.docs);
  w.Key("p50_us").UInt(p50);
  w.Key("p95_us").UInt(p95);
  w.Key("p99_us").UInt(p99);
  w.Key("mean_us").UInt(mean);
  w.Key("generations").BeginArray();
  for (uint64_t g : report.generations) w.UInt(g);
  w.EndArray();
  w.Key("generations_monotonic").Bool(report.generations_monotonic);
  w.EndObject();
  std::string json = w.Take();
  if (auto s = ValidateJson(json); !s.ok()) {
    return Fail("internal: bench JSON invalid: " + s.ToString());
  }
  std::ofstream out(out_path, std::ios::trunc);
  if (!out) return Fail("cannot write " + out_path);
  out << json << "\n";
  out.close();

  std::printf(
      "bench-serve: %llu ok (%llu cached), %llu shed, %llu retries, %llu "
      "gave up, %llu errors (%llu deadline)\n",
      (unsigned long long)report.ok, (unsigned long long)report.cached,
      (unsigned long long)report.shed, (unsigned long long)report.retries,
      (unsigned long long)report.gave_up, (unsigned long long)report.errors,
      (unsigned long long)report.deadline_errors);
  std::printf("  latency us: p50 %llu, p95 %llu, p99 %llu, mean %llu\n",
              (unsigned long long)p50, (unsigned long long)p95,
              (unsigned long long)p99, (unsigned long long)mean);
  std::printf("  generations seen:");
  for (uint64_t g : report.generations) {
    std::printf(" %llu", (unsigned long long)g);
  }
  std::printf(" (%s)\n",
              report.generations_monotonic ? "monotonic per connection"
                                           : "NON-MONOTONIC");
  std::printf("  report: %s\n", out_path.c_str());
  return 0;
}

int CmdStats(const std::string& path) {
  auto db = Database::Open(path, Database::Options{.pool_pages = 256});
  if (!db.ok()) return Fail(db.status().ToString());
  TagDictionary dict;
  if (auto s = LoadDictionary(db->get(), &dict); !s.ok()) {
    return Fail(s.ToString());
  }
  auto rp = PrixIndex::Open(db->get(), "rp");
  auto ep = PrixIndex::Open(db->get(), "ep");
  if (!rp.ok() || !ep.ok()) return Fail("opening indexes failed");
  std::printf("database:        %s\n", path.c_str());
  std::printf("pages:           %u (%u KB)\n", (*db)->disk()->num_pages(),
              (*db)->disk()->num_pages() * 8);
  std::printf("catalog:         generation %llu,",
              (unsigned long long)(*db)->catalog_generation());
  for (const auto& entry : (*db)->ListIndexes()) {
    std::printf(" %s", entry.name.c_str());
  }
  std::printf("\n");
  std::printf("documents:       %zu (%zu live, %zu tombstoned)\n",
              (*rp)->num_docs(), (*rp)->num_live_docs(),
              (*rp)->tombstones().size());
  std::printf("free list:       %zu page(s)\n", (*db)->free_page_count());
  std::printf("labels:          %zu\n", dict.size());
  std::printf("RP symbol tree:  %llu entries, height %u\n",
              (unsigned long long)(*rp)->symbol_index().num_entries(),
              (*rp)->symbol_index().height());
  std::printf("EP symbol tree:  %llu entries, height %u\n",
              (unsigned long long)(*ep)->symbol_index().num_entries(),
              (*ep)->symbol_index().height());
  std::printf("doc store:       %llu pages (RP), %llu pages (EP)\n",
              (unsigned long long)(*rp)->docs().num_pages(),
              (unsigned long long)(*ep)->docs().num_pages());
  return 0;
}

void PrintIssues(const VerifyReport& report) {
  for (const VerifyIssue& issue : report.issues) {
    std::string where;
    if (!issue.index.empty()) where = "index '" + issue.index + "' ";
    if (issue.page != kInvalidPage) {
      where += "page " + std::to_string(issue.page) + " ";
    }
    std::printf("  FAULT %s(%s): %s\n", where.c_str(), issue.context.c_str(),
                issue.message.c_str());
  }
}

int CmdVerify(const std::string& path, bool salvage,
              const std::string& salvage_out) {
  VerifyReport scrub;
  if (auto s = ScrubPages(path, &scrub); !s.ok()) return Fail(s.ToString());
  std::printf("scrub: %llu pages scanned, %llu bad\n",
              (unsigned long long)scrub.pages_scanned,
              (unsigned long long)scrub.pages_bad);
  PrintIssues(scrub);

  VerifyReport walk;
  if (auto s = VerifyDatabase(path, &walk); !s.ok()) {
    return Fail(s.ToString());
  }
  std::printf("structure: %llu indexes checked, %llu with faults\n",
              (unsigned long long)walk.indexes_checked,
              (unsigned long long)walk.indexes_bad);
  PrintIssues(walk);
  for (const IndexDocStats& ds : walk.doc_stats) {
    std::printf("  index '%s': %llu live document(s), %llu dead "
                "(tombstoned, DocStore record unreclaimed)\n",
                ds.index.c_str(), (unsigned long long)ds.live_docs,
                (unsigned long long)ds.dead_docs);
  }
  if (walk.free_pages > 0) {
    std::printf("  free list: %llu page(s) awaiting reuse\n",
                (unsigned long long)walk.free_pages);
  }

  bool clean = scrub.clean() && walk.clean();
  std::printf("%s: %s\n", path.c_str(), clean ? "clean" : "CORRUPT");

  if (salvage) {
    SalvageReport sr;
    if (auto s = SalvageDatabase(path, salvage_out, &sr); !s.ok()) {
      return Fail(s.ToString());
    }
    std::printf("salvage: %zu index(es) rebuilt into %s from %llu "
                "document(s), %zu lost\n",
                sr.rebuilt.size(), salvage_out.c_str(),
                (unsigned long long)sr.documents, sr.lost.size());
    for (const std::string& name : sr.rebuilt) {
      std::printf("  rebuilt: %s\n", name.c_str());
    }
    for (const std::string& name : sr.dropped) {
      std::printf("  dropped: %s\n", name.c_str());
    }
  }
  return clean ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("%s\n", BuildInfoLine().c_str());
    return 0;
  }
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: prix index <db> <xml>...\n"
                 "       prix insert <db> <xml>...\n"
                 "       prix delete <db> <docid>...\n"
                 "       prix query [--trace] [--metrics] [--timeout-ms N] "
                 "[--engine prix|vist|twigstack|twigstackxb|all] "
                 "<db> <xpath>...\n"
                 "       prix serve <db> [--port N] [--max-executing N] "
                 "[--replicate-port N] [--follow HOST:PORT] ...\n"
                 "       prix repl-status <db>\n"
                 "       prix bench-serve --port N --queries FILE ...\n"
                 "       prix stats <db>\n"
                 "       prix verify [--salvage] <db> [<out>]\n"
                 "       prix --version\n");
    return 2;
  }
  std::string cmd = argv[1];
  // serve and bench-serve take `--flag value` pairs, which the shared flag
  // loop below cannot express; they parse their own argument lists.
  if (cmd == "serve") return CmdServe(argc - 2, argv + 2);
  if (cmd == "bench-serve") return CmdBenchServe(argc - 2, argv + 2);
  if (cmd == "repl-status") return CmdReplStatus(argv[2]);
  // Flags sit between the command and the database path.
  bool trace = false;
  bool metrics = false;
  bool salvage = false;
  uint64_t timeout_ms = 0;
  std::string engine = "prix";
  int arg = 2;
  while (arg < argc && std::strncmp(argv[arg], "--", 2) == 0) {
    if (std::strcmp(argv[arg], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[arg], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[arg], "--salvage") == 0) {
      salvage = true;
    } else if (std::strcmp(argv[arg], "--timeout-ms") == 0 &&
               arg + 1 < argc) {
      if (!ParseUintValue("--timeout-ms", argv[arg + 1], &timeout_ms)) {
        return 1;
      }
      ++arg;
    } else if (std::strcmp(argv[arg], "--engine") == 0 && arg + 1 < argc) {
      engine = argv[arg + 1];
      if (engine != "prix" && engine != "vist" && engine != "twigstack" &&
          engine != "twigstackxb" && engine != "all") {
        return Fail("--engine takes prix|vist|twigstack|twigstackxb|all, "
                    "got '" + engine + "'");
      }
      ++arg;
    } else {
      return Fail(std::string("unknown flag: ") + argv[arg]);
    }
    ++arg;
  }
  if (arg >= argc) return Fail("missing database path");
  std::string path = argv[arg++];
  if (cmd == "index" && arg < argc) {
    return CmdIndex(path, argc - arg, argv + arg);
  }
  if (cmd == "insert" && arg < argc) {
    return CmdInsert(path, argc - arg, argv + arg);
  }
  if (cmd == "delete" && arg < argc) {
    return CmdDelete(path, argc - arg, argv + arg);
  }
  if (cmd == "query" && arg < argc) {
    return CmdQuery(path, argc - arg, argv + arg, trace, metrics,
                    static_cast<uint32_t>(timeout_ms), engine);
  }
  if (cmd == "stats") return CmdStats(path);
  if (cmd == "verify") {
    std::string out = arg < argc ? argv[arg] : path + ".salvaged";
    return CmdVerify(path, salvage, out);
  }
  return Fail("unknown command or missing arguments: " + cmd);
}

}  // namespace
}  // namespace prix

int main(int argc, char** argv) { return prix::Main(argc, argv); }
