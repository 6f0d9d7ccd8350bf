// The process that holds a database, for the parts of a workload that call
// the program's modules in-process: the cold client, the traced build and
// stream, and the write probe. `perfbench_driver` runs it as
// `perfbench_driver hold ...` and checks what it writes to --out.
//
// --out lines (space separated):
//   R <request> <latency_us, 3 decimals> <generation> <cached> <ndocs>
//     <doc>...
//   Q <request> <pages_read> <pool_hits> <pool_misses> <btree_nodes>
//     <match_us> <refine_us> <verify_us> <range_queries> <trie_nodes>
//     <pruned> <candidates> <passed> <docs_loaded>
//   W <op> <rp_us> <ep_us> <pages_written> <oplog_bytes> <file_pages>
//   S <name> <value>
// and, with tracing, <out>.spans holds one span per line:
//   <name> <start_us> <end_us> <parent> <request>
// where <parent> is the line number (from 0) of the parent span, or -1.

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/queryfile.h"
#include "corpus.h"
#include "db/database.h"
#include "harness.h"
#include "prix/prix_index.h"
#include "prix/query_processor.h"
#include "prix/snapshot_view.h"
#include "query/xpath_parser.h"
#include "serve/result_cache.h"
#include "serve/wire.h"
#include "storage/record_store.h"
#include "twigstack/position_stream.h"
#include "twigstack/twig_stack.h"
#include "vist/vist_index.h"
#include "xml/xml_parser.h"

namespace perfbench {
namespace {

using prix::Database;

template <typename T>
T Must(prix::Result<T> r, const char* what) {
  if (!r.ok()) {
    throw std::runtime_error(std::string(what) + ": " + r.status().ToString());
  }
  return std::move(*r);
}

void Must(const prix::Status& s, const char* what) {
  if (!s.ok()) {
    throw std::runtime_error(std::string(what) + ": " + s.ToString());
  }
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The tag dictionary blob, in the format `prix index` writes: u32 magic
// "TAGS", u32 count, count x (u32 len, bytes).
constexpr uint32_t kTagsMagic = 0x54414753;

void SaveDictionary(Database* db, const prix::TagDictionary& dict) {
  std::vector<char> blob;
  prix::PutU32(&blob, kTagsMagic);
  prix::PutU32(&blob, static_cast<uint32_t>(dict.size()));
  for (prix::LabelId id = 0; id < dict.size(); ++id) {
    const std::string& name = dict.Name(id);
    prix::PutU32(&blob, static_cast<uint32_t>(name.size()));
    blob.insert(blob.end(), name.begin(), name.end());
  }
  Database::IndexEntry entry;
  entry.name = "tags";
  entry.kind = Database::IndexKind::kBlob;
  entry.root = Must(prix::WriteBlob(db->pool(), blob), "tags blob");
  Must(db->PutIndex(entry), "tags entry");
}

void LoadDictionary(Database* db, prix::TagDictionary* dict) {
  Database::IndexEntry entry = Must(db->GetIndex("tags"), "tags entry");
  std::vector<char> blob;
  Must(prix::ReadBlob(db->pool(), entry.root, &blob), "tags blob");
  size_t off = 8;
  if (blob.size() < off || prix::GetU32(blob.data()) != kTagsMagic) {
    throw std::runtime_error("bad tags blob");
  }
  uint32_t count = prix::GetU32(blob.data() + 4);
  for (uint32_t i = 0; i < count; ++i) {
    if (blob.size() - off < 4) throw std::runtime_error("tags blob truncated");
    uint32_t len = prix::GetU32(blob.data() + off);
    off += 4;
    if (blob.size() - off < len) {
      throw std::runtime_error("tags blob truncated");
    }
    dict->Intern(std::string_view(blob.data() + off, len));
    off += len;
  }
}

/// Spans of one thread, kept in memory until the process writes them out.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t start_us, end_us;
    int64_t parent;
    uint64_t request;
  };
  /// RAII span; a no-op when the tracer is null.
  class Scope {
   public:
    Scope(Tracer* t, const char* name, uint64_t request) : t_(t) {
      if (t_ == nullptr) return;
      index_ = t_->spans_.size();
      t_->spans_.push_back({name, NowUs(), 0, t_->open_, request});
      t_->open_ = static_cast<int64_t>(index_);
    }
    ~Scope() {
      if (t_ == nullptr) return;
      t_->spans_[index_].end_us = NowUs();
      t_->open_ = t_->spans_[index_].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    size_t index_ = 0;
  };
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int64_t open_ = -1;
};

void WriteSpans(const std::string& path, const std::vector<Tracer>& tracers) {
  std::ofstream out(path, std::ios::trunc);
  int64_t base = 0;
  for (const Tracer& t : tracers) {
    for (const Tracer::Span& s : t.spans()) {
      out << s.name << ' ' << s.start_us << ' ' << s.end_us << ' '
          << (s.parent < 0 ? -1 : s.parent + base) << ' ' << s.request
          << '\n';
    }
    base += static_cast<int64_t>(t.spans().size());
  }
}

/// What each thread accumulates as text lines for --out.
struct Lines {
  std::mutex mu;
  std::vector<std::string> lines;
  void Add(std::string line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(std::move(line));
  }
};

std::string ReadLine(uint64_t request, uint64_t latency_ns, uint64_t gen,
                     bool cached, const std::vector<uint32_t>& docs) {
  char us[32];
  std::snprintf(us, sizeof(us), "%.3f", double(latency_ns) / 1000.0);
  std::string line = "R " + std::to_string(request) + " " + us + " " +
                     std::to_string(gen) +
                     " " + (cached ? "1" : "0") + " " +
                     std::to_string(docs.size());
  for (uint32_t d : docs) line += " " + std::to_string(d);
  return line;
}

std::string StatsLine(uint64_t request, const prix::QueryStats& s) {
  std::ostringstream o;
  o << "Q " << request << ' ' << s.pages_read << ' ' << s.pool_hits << ' '
    << s.pool_misses << ' ' << s.btree_nodes << ' ' << s.match_us << ' '
    << s.refine_us << ' ' << s.verify_us << ' ' << s.matcher.range_queries
    << ' ' << s.matcher.nodes_scanned << ' ' << s.matcher.pruned_by_maxgap
    << ' ' << s.refine.candidates << ' ' << s.refine.passed << ' '
    << s.docs_loaded;
  return o.str();
}

std::vector<uint32_t> ToU32(const std::vector<prix::DocId>& docs) {
  return std::vector<uint32_t>(docs.begin(), docs.end());
}

/// The write probe: applies `plan` in order, each write on rp and then ep
/// as `prix insert` does, logging one W line per user-level write.
void RunWriter(Database* db, const std::vector<WriteOp>& plan,
               const std::vector<prix::Document>& records, Lines* out) {
  const std::string oplog = db->path() + ".oplog";
  for (size_t i = 0; i < plan.size(); ++i) {
    const WriteOp& op = plan[i];
    uint64_t log_before = FileBytes(oplog);
    uint32_t pages_before = db->disk()->num_pages();
    prix::MetricsContext ctx;
    uint64_t us[2] = {0, 0};
    const char* names[2] = {"rp", "ep"};
    for (int k = 0; k < 2; ++k) {
      uint64_t t0 = NowUs();
      if (op.kind == WriteOp::kDelete) {
        Must(db->DeleteDocument(names[k], op.target), "delete");
      } else {
        const prix::Document& rec = records.at(op.record);
        uint32_t id =
            op.kind == WriteOp::kInsert
                ? Must(db->InsertDocument(names[k], rec), "insert")
                : Must(db->UpdateDocument(names[k], op.target, rec), "update");
        if (id != op.id) {
          throw std::runtime_error("write assigned DocId " +
                                   std::to_string(id) + ", plan expected " +
                                   std::to_string(op.id));
        }
      }
      us[k] = NowUs() - t0;
    }
    std::ostringstream line;
    line << "W " << i << ' ' << us[0] << ' ' << us[1] << ' '
         << ctx.counters.physical_writes << ' '
         << FileBytes(oplog) - log_before << ' '
         << db->disk()->num_pages() - pages_before;
    out->Add(line.str());
  }
}

struct Options {
  std::string db, build, write, cold, read, out;
  uint64_t plan_seed = 0, plan_ops = 0, base_docs = 0;
  size_t readers = 0;
  uint64_t cache_mb = 16;
  bool trace = false;
};

/// `prix index`'s build, step for step, with spans and per-engine pages.
void Build(const Options& o, Lines* lines, Tracer* tr) {
  Tracer::Scope setup(tr, "setup", 0);
  prix::DocumentCollection coll;
  {
    Tracer::Scope s(tr, "build.xml_parse", 0);
    std::string text = ReadAll(o.build);
    prix::Document doc = Must(prix::ParseXml(text, &coll.dictionary), "parse");
    coll.documents = prix::SplitIntoRecords(doc);
    for (size_t i = 0; i < coll.documents.size(); ++i) {
      coll.documents[i].set_doc_id(static_cast<prix::DocId>(i));
    }
  }
  std::unique_ptr<Database> db = Must(Database::Create(o.db), "create");
  auto pages = [&] { return static_cast<uint64_t>(db->disk()->num_pages()); };
  auto space = [&](const char* name, uint64_t before) {
    lines->Add(std::string("S ") + name + " " +
               std::to_string(pages() - before));
  };
  std::unique_ptr<prix::PrixIndex> rp, ep;
  {
    Tracer::Scope s(tr, "build.prix", 0);
    uint64_t before = pages();
    prix::PrixIndexOptions rp_opts;
    rp = Must(prix::PrixIndex::Build(coll.documents, db->pool(), rp_opts),
              "rp build");
    space("space.rp_pages", before);
    before = pages();
    prix::PrixIndexOptions ep_opts;
    ep_opts.extended = true;
    ep = Must(prix::PrixIndex::Build(coll.documents, db->pool(), ep_opts),
              "ep build");
    space("space.ep_pages", before);
  }
  {
    Tracer::Scope s(tr, "build.save", 0);
    Must(rp->Save(db.get(), "rp"), "rp save");
    Must(ep->Save(db.get(), "ep"), "ep save");
  }
  {
    Tracer::Scope s(tr, "build.vist", 0);
    uint64_t before = pages();
    auto vist = Must(prix::VistIndex::Build(coll.documents, db->pool()),
                     "vist build");
    Must(vist->Save(db.get(), "v"), "vist save");
    space("space.vist_pages", before);
  }
  {
    Tracer::Scope s(tr, "build.twigstack", 0);
    uint64_t before = pages();
    auto streams = Must(prix::StreamStore::Build(coll.documents, db->pool()),
                        "stream build");
    Must(streams->Save(db.get(), "ts"), "stream save");
    space("space.ts_pages", before);
    before = pages();
    auto forest = Must(prix::XbForest::Build(streams.get(), coll.dictionary),
                       "forest build");
    Must(forest->Save(db.get(), "xb"), "forest save");
    space("space.xb_pages", before);
  }
  {
    Tracer::Scope s(tr, "build.save", 0);
    SaveDictionary(db.get(), coll.dictionary);
    Must(db->Close(), "close");
  }
}

/// The cold client: every request clears the pool first, as the paper's
/// measurement does, then parses and executes on indexes opened once.
/// ColdStart zeroes the pool counters, so the pool statistics of the run
/// are summed query by query into `pool`.
void RunCold(Database* db, prix::TagDictionary* dict,
             const std::vector<prix::QueryFileEntry>& stream, Lines* lines,
             Tracer* tr, prix::BufferPoolStats* pool) {
  auto rp = Must(prix::PrixIndex::Open(db, "rp"), "open rp");
  auto ep = Must(prix::PrixIndex::Open(db, "ep"), "open ep");
  prix::QueryProcessor qp(*db, rp.get(), ep.get());
  for (size_t i = 0; i < stream.size(); ++i) {
    Tracer::Scope request(tr, "request", i);
    {
      Tracer::Scope s(tr, "storage.cold_start", i);
      Must(db->ColdStart(), "cold start");
    }
    uint64_t t0 = NowNs();
    std::optional<prix::TwigPattern> pattern;
    {
      Tracer::Scope s(tr, "query.parse", i);
      pattern = Must(prix::ParseXPath(stream[i].text, dict), "parse");
    }
    std::optional<prix::QueryResult> result;
    {
      Tracer::Scope s(tr, "prix.execute", i);
      result = Must(qp.Execute(*pattern), "execute");
    }
    uint64_t latency = NowNs() - t0;
    prix::BufferPoolStats q = db->pool()->stats();
    pool->hits += q.hits;
    pool->misses += q.misses;
    pool->physical_reads += q.physical_reads;
    pool->evictions += q.evictions;
    pool->lock_waits += q.lock_waits;
    lines->Add(ReadLine(i, latency, db->catalog_generation(), false,
                        ToU32(result->docs)));
    lines->Add(StatsLine(i, result->stats));
  }
}

/// One request down the server's path, as public calls in the server's
/// order: query decode, cache probe at the committed generation, and on a
/// miss snapshot open (rp and ep), parse and Execute; then result encode
/// and decode. Admission, the QueryDriver's thread hand-off and the socket
/// are left out: they are what `serve.unattributed_us` measures.
void TracedRequest(Database* db, prix::TagDictionary* dict,
                   prix::ResultCache* cache, uint64_t i,
                   const std::string& xpath, Lines* lines, Tracer* tr) {
  Tracer::Scope request(tr, "request", i);
  uint64_t t0 = NowNs();
  std::vector<char> frame;
  {
    Tracer::Scope s(tr, "wire.encode_query", i);
    prix::QueryRequest req;
    req.request_id = i;
    req.xpaths = {xpath};
    frame = prix::EncodeQuery(req);
  }
  prix::QueryRequest req;
  {
    Tracer::Scope s(tr, "wire.decode_query", i);
    prix::FrameDecoder dec;
    dec.Feed(frame.data(), frame.size());
    auto next = Must(dec.Next(), "frame");
    if (!next.has_value()) throw std::runtime_error("short frame");
    req = Must(prix::DecodeQuery(*next), "decode query");
  }
  prix::QueryResponse resp;
  resp.request_id = i;
  resp.docs.resize(1);
  bool hit = false;
  {
    Tracer::Scope s(tr, "serve.cache_probe", i);
    resp.generation = db->catalog_generation();
    hit = cache->Lookup("rp", resp.generation, req.xpaths[0], &resp.docs[0]);
  }
  resp.cached = hit;
  if (!hit) {
    std::shared_ptr<const prix::Snapshot> snap;
    std::optional<prix::SnapshotView> rp, ep;
    {
      Tracer::Scope s(tr, "db.snapshot_open", i);
      snap = db->OpenSnapshot();
      rp.emplace(Must(prix::SnapshotView::OpenAt(db, snap, "rp"), "rp view"));
      ep.emplace(Must(prix::SnapshotView::OpenAt(db, snap, "ep"), "ep view"));
    }
    std::optional<prix::TwigPattern> pattern;
    {
      Tracer::Scope s(tr, "query.parse", i);
      pattern = Must(prix::ParseXPath(req.xpaths[0], dict), "parse");
    }
    std::optional<prix::QueryResult> result;
    {
      Tracer::Scope s(tr, "prix.execute", i);
      prix::QueryProcessor qp(*db, rp->index(), ep->index());
      result = Must(qp.Execute(*pattern), "execute");
    }
    resp.generation = snap->generation();
    resp.docs[0] = ToU32(result->docs);
    cache->Insert("rp", resp.generation, req.xpaths[0], resp.docs[0]);
    lines->Add(StatsLine(i, result->stats));
  }
  std::vector<char> reply;
  {
    Tracer::Scope s(tr, "wire.encode_result", i);
    reply = prix::EncodeResult(resp);
  }
  prix::QueryResponse decoded;
  {
    Tracer::Scope s(tr, "wire.decode_result", i);
    prix::FrameDecoder dec;
    dec.Feed(reply.data(), reply.size());
    auto next = Must(dec.Next(), "frame");
    if (!next.has_value()) throw std::runtime_error("short frame");
    decoded = Must(prix::DecodeResult(*next), "decode result");
  }
  lines->Add(ReadLine(i, NowNs() - t0, decoded.generation, decoded.cached,
                      decoded.docs.at(0)));
}

void PoolStats(const prix::BufferPoolStats& after,
               const prix::BufferPoolStats& before, Lines* lines) {
  lines->Add("S pool.hits " + std::to_string(after.hits - before.hits));
  lines->Add("S pool.misses " + std::to_string(after.misses - before.misses));
  lines->Add("S pool.physical_reads " +
             std::to_string(after.physical_reads - before.physical_reads));
  lines->Add("S pool.evictions " +
             std::to_string(after.evictions - before.evictions));
  lines->Add("S pool.lock_waits " +
             std::to_string(after.lock_waits - before.lock_waits));
}

void Run(const Options& o) {
  Lines lines;
  if (!o.build.empty()) {
    std::vector<Tracer> tracers(1);
    Build(o, &lines, &tracers[0]);
    WriteSpans(o.out + ".spans", tracers);
    std::ofstream out(o.out, std::ios::trunc);
    for (const std::string& l : lines.lines) out << l << '\n';
    return;
  }
  uint64_t open_start = NowUs();
  std::unique_ptr<Database> db = Must(Database::Open(o.db), "open");
  prix::TagDictionary dict;
  LoadDictionary(db.get(), &dict);
  lines.Add("S open_us " + std::to_string(NowUs() - open_start));
  std::vector<Tracer> tracers(std::max<size_t>(1, o.readers));
  if (!o.write.empty()) {
    prix::Document doc =
        Must(prix::ParseXml(ReadAll(o.write), &dict), "parse writes");
    std::vector<prix::Document> records = prix::SplitIntoRecords(doc);
    auto& reg = prix::MetricsRegistry::Global();
    reg.set_enabled(true);
    try {
      RunWriter(db.get(), PlanWrites(o.plan_seed, o.plan_ops, o.base_docs),
                records, &lines);
    } catch (const std::exception& e) {
      // perfbench_driver counts the writes that have no W line as failed.
      std::fprintf(stderr, "hold: write probe: %s\n", e.what());
    }
    lines.Add("S db.pages_reused " +
              std::to_string(reg.counter("prix.db.pages_reused").value()));
    lines.Add("S db.pages_freed " +
              std::to_string(reg.counter("prix.db.pages_freed").value()));
  } else if (!o.cold.empty()) {
    auto stream = Must(prix::LoadQueryFile(o.cold), "queries");
    prix::BufferPoolStats pool;
    double t0 = Now();
    RunCold(db.get(), &dict, stream, &lines, o.trace ? &tracers[0] : nullptr,
            &pool);
    lines.Add("S read_s " + std::to_string(Now() - t0));
    PoolStats(pool, prix::BufferPoolStats{}, &lines);
  } else if (!o.read.empty()) {
    auto stream = Must(prix::LoadQueryFile(o.read), "queries");
    prix::ResultCache cache(o.cache_mb << 20);
    prix::BufferPoolStats before = db->pool()->stats();
    std::atomic<size_t> cursor{0};
    std::vector<std::string> errors(o.readers);
    double t0 = Now();
    std::vector<std::thread> readers;
    for (size_t r = 0; r < o.readers; ++r) {
      readers.emplace_back([&, r] {
        try {
          for (size_t i; (i = cursor.fetch_add(1)) < stream.size();) {
            TracedRequest(db.get(), &dict, &cache, i, stream[i].text, &lines,
                          &tracers[r]);
          }
        } catch (const std::exception& e) {
          errors[r] = e.what();
        }
      });
    }
    for (auto& t : readers) t.join();
    lines.Add("S read_s " + std::to_string(Now() - t0));
    for (const std::string& e : errors) {
      if (!e.empty()) throw std::runtime_error("reader: " + e);
    }
    PoolStats(db->pool()->stats(), before, &lines);
    lines.Add("S cache.hits " + std::to_string(cache.hits()));
    lines.Add("S cache.misses " + std::to_string(cache.misses()));
  } else {
    throw std::runtime_error("hold needs --build, --write, --cold or --read");
  }
  Must(db->Close(), "close");
  if (o.trace || !o.read.empty()) WriteSpans(o.out + ".spans", tracers);
  std::ofstream out(o.out, std::ios::trunc);
  for (const std::string& l : lines.lines) out << l << '\n';
  if (!out) throw std::runtime_error("cannot write " + o.out);
}

}  // namespace

int HoldMain(int argc, char** argv) {
  Options o;
  for (int i = 0; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--db") o.db = value();
    else if (flag == "--build") o.build = value();
    else if (flag == "--write") o.write = value();
    else if (flag == "--plan-seed") o.plan_seed = std::stoull(value());
    else if (flag == "--plan-ops") o.plan_ops = std::stoull(value());
    else if (flag == "--base-docs") o.base_docs = std::stoull(value());
    else if (flag == "--cold") o.cold = value();
    else if (flag == "--read") o.read = value();
    else if (flag == "--readers") o.readers = std::stoull(value());
    else if (flag == "--cache-mb") o.cache_mb = std::stoull(value());
    else if (flag == "--out") o.out = value();
    else if (flag == "--trace") o.trace = true;
    else throw std::runtime_error("unknown hold flag " + flag);
  }
  if (o.db.empty() || o.out.empty()) {
    throw std::runtime_error("hold needs --db and --out");
  }
  Run(o);
  return 0;
}

}  // namespace perfbench
