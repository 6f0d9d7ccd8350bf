#include "corpus.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "datagen/dblp_gen.h"
#include "datagen/swissprot_gen.h"
#include "datagen/treebank_gen.h"
#include "naive/naive_matcher.h"
#include "query/xpath_parser.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace perfbench {

using prix::Document;
using prix::NodeId;
using prix::NodeKind;
using prix::Random;

uint64_t AppendCorpusFile(Dataset dataset, size_t records, uint64_t gen_seed,
                          bool planted, const std::string& xml_path,
                          Corpus* corpus) {
  prix::DocumentCollection gen;
  const char* root = "";
  switch (dataset) {
    case Dataset::kDblp: {
      prix::datagen::DblpConfig config;
      config.num_records = records;
      config.seed = gen_seed;
      if (!planted) {
        config.q1_matches = config.q2_matches = config.q3_matches = 0;
        config.jim_gray_decoys = 0;
      }
      gen = prix::datagen::GenerateDblp(config);
      root = "dblp";
      break;
    }
    case Dataset::kSwissprot: {
      prix::datagen::SwissprotConfig config;
      config.num_entries = records;
      config.seed = gen_seed;
      if (!planted) {
        config.q4_matches = config.q5_matches = config.q6_matches = 0;
        config.piro_decoys = config.q5_decoys = 0;
      }
      gen = prix::datagen::GenerateSwissprot(config);
      root = "root";
      break;
    }
    case Dataset::kTreebank: {
      prix::datagen::TreebankConfig config;
      config.num_sentences = records;
      config.seed = gen_seed;
      if (!planted) {
        config.q7_matches = config.q8_matches = config.q9_matches = 0;
        config.q8_decoys = 0;
      }
      gen = prix::datagen::GenerateTreebank(config);
      root = "FILE";
      break;
    }
  }
  std::string text = std::string("<") + root + ">\n";
  std::vector<uint64_t> bytes;
  prix::XmlWriteOptions compact;
  compact.indent = false;
  for (const Document& doc : gen.documents) {
    std::string record = prix::WriteXml(doc, gen.dictionary, compact);
    bytes.push_back(record.size());
    text += record;
    text += '\n';
  }
  text += std::string("</") + root + ">\n";
  {
    std::ofstream out(xml_path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out) throw std::runtime_error("cannot write " + xml_path);
  }
  auto parsed = prix::ParseXml(text, &corpus->dict);
  if (!parsed.ok()) {
    throw std::runtime_error(xml_path + ": " + parsed.status().ToString());
  }
  std::vector<Document> split = prix::SplitIntoRecords(*parsed);
  if (split.size() != bytes.size()) {
    throw std::runtime_error(xml_path + ": record count changed on reparse");
  }
  for (size_t i = 0; i < split.size(); ++i) {
    split[i].set_doc_id(static_cast<prix::DocId>(corpus->docs.size()));
    corpus->docs.push_back(std::move(split[i]));
    corpus->doc_bytes.push_back(bytes[i]);
  }
  return text.size();
}

void CopyDictionary(const prix::TagDictionary& from, prix::TagDictionary* to) {
  for (prix::LabelId id = 0; id < from.size(); ++id) to->Intern(from.Name(id));
}

namespace {

/// Preorder intervals: node v's subtree is [pre[v], end[v]).
struct Intervals {
  std::vector<uint32_t> pre, end;
  explicit Intervals(const Document& doc)
      : pre(doc.num_nodes()), end(doc.num_nodes()) {
    uint32_t next = 0;
    std::vector<std::pair<NodeId, size_t>> stack{{doc.root(), 0}};
    pre[doc.root()] = next++;
    while (!stack.empty()) {
      auto& [v, i] = stack.back();
      if (i < doc.children(v).size()) {
        NodeId c = doc.children(v)[i++];
        pre[c] = next++;
        stack.push_back({c, 0});
      } else {
        end[v] = next;
        stack.pop_back();
      }
    }
  }
  bool Contains(NodeId a, NodeId b) const {  // b in subtree(a), b != a
    return pre[a] < pre[b] && pre[b] < end[a];
  }
};

/// A twig read off one document: twig node i is document node `node[i]`.
struct Twig {
  std::vector<NodeId> node;
  std::vector<int> parent;       ///< twig parent, -1 for the root
  std::vector<bool> descendant;  ///< '//' edge from the twig parent
};

class TwigSampler {
 public:
  TwigSampler(const Document& doc, const prix::TagDictionary& dict,
              Random* rng)
      : doc_(doc), dict_(dict), rng_(rng), iv_(doc) {}

  /// Starts a twig at `anchor`.
  void Start(NodeId anchor) {
    twig_ = Twig{};
    twig_.node.push_back(anchor);
    twig_.parent.push_back(-1);
    twig_.descendant.push_back(true);
  }
  size_t size() const { return twig_.node.size(); }
  NodeId node(int t) const { return twig_.node[t]; }

  /// From now on only nodes after `v` in document order may be added.
  void RequireAfter(NodeId v) { after_ = v; }


  /// Tries to add `w` under twig node `t`. Keeps the twig an induced copy
  /// of the document's ancestor order: `w` must lie below node t and be
  /// unrelated to every twig node that is not an ancestor-or-self of t.
  bool Add(int t, NodeId w, bool descendant) {
    NodeId p = twig_.node[t];
    if (!iv_.Contains(p, w) || Named(w).empty()) return false;
    if (after_ && iv_.pre[w] <= iv_.pre[*after_]) return false;
    std::vector<bool> anc(size(), false);
    for (int a = t; a >= 0; a = twig_.parent[a]) anc[a] = true;
    for (size_t x = 0; x < size(); ++x) {
      NodeId n = twig_.node[x];
      if (n == w) return false;
      if (anc[x]) continue;
      if (iv_.Contains(n, w) || iv_.Contains(w, n)) return false;
    }
    if (doc_.kind(w) == NodeKind::kValue) {
      // A value renders as `="v"` on its element, which then takes no other
      // branch; the element must be the value's parent.
      if (doc_.parent(w) != p || HasChildren(t)) return false;
      descendant = false;
    } else if (HasValueChild(t)) {
      return false;
    }
    twig_.node.push_back(w);
    twig_.parent.push_back(t);
    twig_.descendant.push_back(descendant || doc_.parent(w) != p);
    return true;
  }

  /// A random node below `v`: a child, then each further level with
  /// probability `deeper`.
  NodeId RandomBelow(NodeId v, double deeper) {
    NodeId w = v;
    do {
      const auto& kids = doc_.children(w);
      if (kids.empty()) break;
      w = kids[rng_->Uniform(kids.size())];
    } while (rng_->Bernoulli(deeper));
    return w;
  }

  std::string Render() const {
    return "//" + Step(0);
  }

 private:
  std::string Named(NodeId v) const {
    const std::string& name = dict_.Name(doc_.label(v));
    if (doc_.kind(v) == NodeKind::kElement && !name.empty() && name[0] == '@') {
      return {};  // attributes are skipped to keep the XPath subset plain
    }
    return name;
  }
  bool HasChildren(int t) const {
    for (int p : twig_.parent) {
      if (p == t) return true;
    }
    return false;
  }
  bool HasValueChild(int t) const {
    for (size_t i = 0; i < size(); ++i) {
      if (twig_.parent[i] == t &&
          doc_.kind(twig_.node[i]) == NodeKind::kValue) {
        return true;
      }
    }
    return false;
  }
  std::vector<int> ChildrenInDocOrder(int t) const {
    std::vector<int> kids;
    for (size_t i = 0; i < size(); ++i) {
      if (twig_.parent[i] == t) kids.push_back(static_cast<int>(i));
    }
    std::sort(kids.begin(), kids.end(), [&](int a, int b) {
      return iv_.pre[twig_.node[a]] < iv_.pre[twig_.node[b]];
    });
    return kids;
  }
  static std::string Quote(const std::string& v) {
    char q = v.find('"') == std::string::npos ? '"' : '\'';
    return q + v + q;
  }
  /// NAME followed by one predicate per twig child, in document order.
  std::string Step(int t) const {
    std::string out = Named(twig_.node[t]);
    for (int c : ChildrenInDocOrder(t)) {
      if (doc_.kind(twig_.node[c]) == NodeKind::kValue) {
        out += "[text()=" + Quote(Named(twig_.node[c])) + "]";
      } else {
        out += "[" + Pred(c) + "]";
      }
    }
    return out;
  }
  std::string Pred(int c) const {
    std::string axis = twig_.descendant[c] ? ".//" : "./";
    std::vector<int> kids = ChildrenInDocOrder(c);
    if (kids.size() == 1 &&
        doc_.kind(twig_.node[kids[0]]) == NodeKind::kValue) {
      return axis + Named(twig_.node[c]) + "=" +
             Quote(Named(twig_.node[kids[0]]));
    }
    return axis + Step(c);
  }

  const Document& doc_;
  const prix::TagDictionary& dict_;
  Random* rng_;
  Intervals iv_;
  Twig twig_;
  std::optional<NodeId> after_;
};

/// Element children of the record root that carry exactly one value.
std::vector<NodeId> ValueFields(const Document& doc,
                                const prix::TagDictionary& dict,
                                const std::set<std::string>& names) {
  std::vector<NodeId> out;
  for (NodeId c : doc.children(doc.root())) {
    const auto& kids = doc.children(c);
    if (kids.size() == 1 && doc.kind(kids[0]) == NodeKind::kValue &&
        names.count(dict.Name(doc.label(c))) != 0) {
      out.push_back(c);
    }
  }
  return out;
}

std::string SampleDblp(const Document& doc, const prix::TagDictionary& dict,
                       Random* rng) {
  TwigSampler s(doc, dict, rng);
  s.Start(doc.root());
  std::vector<NodeId> authors = ValueFields(doc, dict, {"author", "editor"});
  std::vector<NodeId> years = ValueFields(doc, dict, {"year"});
  std::vector<NodeId> titles = ValueFields(doc, dict, {"title"});
  std::vector<NodeId> venues = ValueFields(doc, dict, {"journal", "booktitle"});
  auto add_field = [&](const std::vector<NodeId>& fields) {
    if (fields.empty()) return false;
    NodeId f = fields[rng->Uniform(fields.size())];
    int t = static_cast<int>(s.size());
    return s.Add(0, f, false) && s.Add(t, doc.children(f)[0], false);
  };
  double r = rng->NextDouble();
  bool ok = true;
  if (r < 0.4) {
    ok = add_field(authors);
  } else if (r < 0.7) {
    ok = add_field(authors) && add_field(years);
  } else if (r < 0.9) {
    ok = add_field(titles);
  } else {
    ok = add_field(venues) && add_field(years);
  }
  return ok ? s.Render() : std::string();
}

/// Grows the twig in `s` to `target` nodes. Each step hangs a random node
/// (element or value) from below a random twig node; at most one edge in
/// all is '//' (NaiveMatch enumerates every embedding, and that count grows
/// fast with '//' edges), and a direct child takes '//' with probability
/// 0.3 while that budget lasts. Returns whether a value was added.
bool Grow(const Document& doc, TwigSampler* s, size_t target, Random* rng) {
  bool has_value = false, desc = false;
  for (int attempt = 0; attempt < 64 && s->size() < target; ++attempt) {
    int t = static_cast<int>(rng->Uniform(s->size()));
    NodeId w = s->RandomBelow(s->node(t), desc ? 0.0 : 0.5);
    bool is_value = doc.kind(w) == NodeKind::kValue;
    bool edge_desc = doc.parent(w) != s->node(t) ||
                     (!desc && !is_value && rng->Bernoulli(0.3));
    if (s->Add(t, w, edge_desc)) {
      desc |= edge_desc;
      has_value |= is_value;
    }
  }
  return has_value;
}

/// Starts `s` with the chain from `anchor` down to the value leaf `site`:
/// '/' steps, or with probability 1/2 (when the chain is longer than one
/// element) a single '//' edge from the anchor to the value's element.
/// Returns false when the chain cannot be expressed.
bool StartChain(const Document& doc, TwigSampler* s, NodeId anchor,
                NodeId site, Random* rng) {
  std::vector<NodeId> path{site};
  while (path.back() != anchor) path.push_back(doc.parent(path.back()));
  s->Start(anchor);
  if (path.size() > 3 && rng->Bernoulli(0.5)) {
    return s->Add(0, path[1], true) && s->Add(1, site, false);
  }
  for (size_t i = path.size() - 1; i-- > 0;) {
    if (!s->Add(static_cast<int>(s->size() - 1), path[i], false)) return false;
  }
  return true;
}

/// An Entry twig of 2-5 nodes: the chain to one value of the entry, then
/// branches (values allowed) that come after that value in document order.
/// A branch before the value makes the ordered Prüfer sequence start with
/// labels every entry carries, and such twigs took 0.1-0.4 s each with a
/// cold pool at the commit that introduced this benchmark, against about
/// 1 ms for the rest; a few of them would decide a run's throughput.
std::string SampleSwissprot(const Document& doc,
                            const prix::TagDictionary& dict, Random* rng) {
  NodeId site = static_cast<NodeId>(rng->Uniform(doc.num_nodes()));
  if (doc.kind(site) != NodeKind::kValue) return {};
  TwigSampler s(doc, dict, rng);
  if (!StartChain(doc, &s, doc.root(), site, rng)) return {};
  size_t target = std::max<size_t>(s.size(), 2 + rng->Uniform(4));
  s.RequireAfter(site);
  Grow(doc, &s, target, rng);
  return s.size() == target ? s.Render() : std::string();
}

/// A twig of 3-6 nodes read off a chain to one value leaf of `doc`: the
/// twig root is 2-4 levels above the value and reaches its element by a '/'
/// chain or one '//' edge. Branches are valued preterminals (`[./DT="v"]`)
/// hung off chain elements. Every structural branch without a value is left
/// out: at the commit that introduced this benchmark, PRIX's range descent
/// over this recursive data takes 0.1-28 s on twigs such as
/// //PP[./IN="v"][./NP[.//NP[./PP]]] and 0.6-42 s on value-free twigs over
/// the common tags (ROADMAP item 3), which no run could afford, while these
/// twigs take tens to hundreds of microseconds on the EP index.
std::string SampleTreebank(const Document& doc,
                           const prix::TagDictionary& dict, Random* rng) {
  NodeId site = static_cast<NodeId>(rng->Uniform(doc.num_nodes()));
  if (doc.kind(site) != NodeKind::kValue) return {};
  std::vector<NodeId> path{site, doc.parent(site)};
  for (size_t up = 1 + rng->Uniform(3); up > 0 && path.back() != doc.root();
       --up) {
    path.push_back(doc.parent(path.back()));
  }
  if (path.size() < 3) return {};
  TwigSampler s(doc, dict, rng);
  if (!StartChain(doc, &s, path.back(), site, rng)) return {};
  size_t target = std::max<size_t>(s.size(), 3 + rng->Uniform(4));
  for (int attempt = 0; attempt < 16 && s.size() + 2 <= target; ++attempt) {
    int t = static_cast<int>(rng->Uniform(s.size()));
    const auto& kids = doc.children(s.node(t));
    if (kids.empty()) continue;
    NodeId p = kids[rng->Uniform(kids.size())];
    const auto& leaf = doc.children(p);
    if (leaf.size() != 1 || doc.kind(leaf[0]) != NodeKind::kValue) continue;
    int at = static_cast<int>(s.size());
    if (s.Add(t, p, false) && !s.Add(at, leaf[0], false)) return {};
  }
  return s.size() >= 3 ? s.Render() : std::string();
}

}  // namespace

std::vector<std::string> SampleTwigs(Dataset dataset, const Corpus& corpus,
                                     size_t num_docs, size_t count,
                                     Random* rng) {
  std::set<std::string> seen;
  std::vector<std::string> out;
  size_t guard = 0;
  while (out.size() < count) {
    if (++guard > count * 200 + 1000) {
      throw std::runtime_error("twig sampler cannot find enough twigs");
    }
    const Document& doc = corpus.docs[rng->Uniform(num_docs)];
    std::string xpath;
    switch (dataset) {
      case Dataset::kDblp:
        xpath = SampleDblp(doc, corpus.dict, rng);
        break;
      case Dataset::kSwissprot:
        xpath = SampleSwissprot(doc, corpus.dict, rng);
        break;
      case Dataset::kTreebank:
        xpath = SampleTreebank(doc, corpus.dict, rng);
        break;
    }
    if (!xpath.empty() && seen.insert(xpath).second) out.push_back(xpath);
  }
  return out;
}

std::string FormatStream(const Stream& stream) {
  std::string out = std::to_string(stream.requests.size()) + "\n";
  for (size_t i = 0; i < stream.requests.size(); ++i) {
    const std::string& q = stream.distinct[stream.requests[i]];
    out += std::to_string(i) + " " + std::to_string(q.size()) + " " + q + "\n";
  }
  return out;
}

Oracle::Oracle(const Corpus& corpus) : corpus_(corpus) {
  CopyDictionary(corpus.dict, &dict_);
  postings_.resize(corpus.dict.size());
  for (const Document& doc : corpus.docs) {
    for (NodeId v = 0; v < doc.num_nodes(); ++v) {
      auto& list = postings_[doc.label(v)];
      if (list.empty() || list.back() != doc.doc_id()) {
        list.push_back(doc.doc_id());
      }
    }
  }
}

std::vector<uint32_t> Oracle::MatchingDocs(const std::string& xpath) {
  auto pattern = prix::ParseXPath(xpath, &dict_);
  if (!pattern.ok()) {
    throw std::runtime_error("oracle cannot parse " + xpath + ": " +
                             pattern.status().ToString());
  }
  prix::EffectiveTwig twig = prix::EffectiveTwig::Build(*pattern);
  std::vector<const std::vector<uint32_t>*> lists;
  for (uint32_t i = 0; i < twig.num_nodes(); ++i) {
    if (twig.is_star(i)) continue;
    prix::LabelId label = twig.node(i).label;
    if (label >= postings_.size()) return {};
    lists.push_back(&postings_[label]);
  }
  std::vector<uint32_t> candidates;
  if (lists.empty()) {
    for (const Document& doc : corpus_.docs) candidates.push_back(doc.doc_id());
  } else {
    std::sort(lists.begin(), lists.end(),
              [](auto* a, auto* b) { return a->size() < b->size(); });
    candidates = *lists[0];
    for (size_t i = 1; i < lists.size() && !candidates.empty(); ++i) {
      std::vector<uint32_t> kept;
      std::set_intersection(candidates.begin(), candidates.end(),
                            lists[i]->begin(), lists[i]->end(),
                            std::back_inserter(kept));
      candidates.swap(kept);
    }
  }
  std::vector<uint32_t> out;
  for (uint32_t d : candidates) {
    if (!prix::NaiveMatch(corpus_.docs[d], twig,
                          prix::MatchSemantics::kOrdered)
             .empty()) {
      out.push_back(d);
    }
  }
  return out;
}

std::vector<std::vector<uint32_t>> OracleAll(
    const Corpus& corpus, const std::vector<std::string>& queries,
    size_t threads) {
  std::vector<std::vector<uint32_t>> out(queries.size());
  std::atomic<size_t> next{0};
  std::vector<std::string> errors(threads);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        Oracle oracle(corpus);
        for (size_t i; (i = next.fetch_add(1)) < queries.size();) {
          out[i] = oracle.MatchingDocs(queries[i]);
        }
      } catch (const std::exception& e) {
        errors[t] = e.what();
      }
    });
  }
  for (auto& th : pool) th.join();
  for (const auto& e : errors) {
    if (!e.empty()) throw std::runtime_error(e);
  }
  return out;
}

std::vector<WriteOp> PlanWrites(uint64_t seed, size_t ops, size_t live_docs) {
  Random rng(seed);
  std::vector<uint32_t> live(live_docs);
  for (size_t i = 0; i < live_docs; ++i) live[i] = static_cast<uint32_t>(i);
  uint32_t next_id = static_cast<uint32_t>(live_docs);
  uint32_t next_record = 0;
  std::vector<WriteOp> plan;
  for (size_t i = 0; i < ops; ++i) {
    WriteOp op;
    double r = rng.NextDouble();
    op.kind = r < 0.7 ? WriteOp::kInsert
                      : r < 0.9 ? WriteOp::kUpdate : WriteOp::kDelete;
    if (op.kind != WriteOp::kInsert) {
      size_t at = rng.Uniform(live.size());
      op.target = live[at];
      live[at] = live.back();
      live.pop_back();
    }
    if (op.kind != WriteOp::kDelete) {
      op.record = next_record++;
      op.id = next_id++;
      live.push_back(op.id);
    }
    plan.push_back(op);
  }
  return plan;
}

}  // namespace perfbench
