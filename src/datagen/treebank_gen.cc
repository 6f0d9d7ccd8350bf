#include "datagen/treebank_gen.h"

#include <set>

#include "common/macros.h"
#include "common/random.h"
#include "datagen/name_pools.h"

namespace prix::datagen {

namespace {

/// Recursive skinny parse-tree builder. Background sentences use only the
/// tags {S, NP, VP, PP, ADJP, DT, JJ, NN, VB, IN, CD}; the planted tags
/// SYM, RBR_OR_JJR and NNS_OR_NN appear exclusively at planted sites, which
/// pins the Table 3 match counts exactly.
class TreebankBuilder {
 public:
  TreebankBuilder(TagDictionary* dict, Random* rng, uint32_t max_depth)
      : dict_(dict), rng_(rng), max_depth_(max_depth) {}

  Document Sentence(DocId id) {
    Document doc(id);
    NodeId root = doc.AddRoot(dict_->Intern("S"));
    uint32_t target = 5 + static_cast<uint32_t>(rng_->Uniform(max_depth_ - 5));
    ExpandS(doc, root, 1, target);
    return doc;
  }

  /// Attaches root S -> NP -> SYM with exactly one S ancestor of the NP.
  void PlantQ7(Document& doc) {
    NodeId np = doc.AddChild(doc.root(), dict_->Intern("NP"));
    NodeId sym = doc.AddChild(np, dict_->Intern("SYM"));
    doc.AddChild(sym, dict_->Intern(EncryptedValue(*rng_)),
                 NodeKind::kValue);
  }

  /// Attaches NP(RBR_OR_JJR, PP(IN, NP(NN))): one Q8 embedding.
  void PlantQ8(Document& doc) {
    NodeId np = doc.AddChild(doc.root(), dict_->Intern("NP"));
    Preterminal(doc, np, "RBR_OR_JJR");
    NodeId pp = doc.AddChild(np, dict_->Intern("PP"));
    Preterminal(doc, pp, "IN");
    NodeId inner = doc.AddChild(pp, dict_->Intern("NP"));
    Preterminal(doc, inner, "NN");
  }

  /// Q8 decoy: NP is an ancestor but not the parent of both RBR_OR_JJR and
  /// PP (NP(ADJP(RBR_OR_JJR), VP(PP(IN)))).
  void PlantQ8Decoy(Document& doc) {
    NodeId np = doc.AddChild(doc.root(), dict_->Intern("NP"));
    NodeId adjp = doc.AddChild(np, dict_->Intern("ADJP"));
    Preterminal(doc, adjp, "RBR_OR_JJR");
    NodeId vp = doc.AddChild(np, dict_->Intern("VP"));
    NodeId pp = doc.AddChild(vp, dict_->Intern("PP"));
    Preterminal(doc, pp, "IN");
  }

  /// Attaches NP -> PP -> NP(NNS_OR_NN, NN): one Q9 embedding.
  void PlantQ9(Document& doc) {
    NodeId outer = doc.AddChild(doc.root(), dict_->Intern("NP"));
    NodeId pp = doc.AddChild(outer, dict_->Intern("PP"));
    NodeId inner = doc.AddChild(pp, dict_->Intern("NP"));
    Preterminal(doc, inner, "NNS_OR_NN");
    Preterminal(doc, inner, "NN");
  }

 private:
  void Preterminal(Document& doc, NodeId parent, const std::string& tag) {
    NodeId t = doc.AddChild(parent, dict_->Intern(tag));
    doc.AddChild(t, dict_->Intern(EncryptedValue(*rng_)), NodeKind::kValue);
  }

  void ExpandS(Document& doc, NodeId node, uint32_t depth, uint32_t target) {
    if (depth + 1 >= target) {
      Preterminal(doc, node, "NN");
      return;
    }
    // Skinny recursion: usually one constituent, sometimes two.
    NodeId np = doc.AddChild(node, dict_->Intern("NP"));
    ExpandNP(doc, np, depth + 1, target);
    if (rng_->Bernoulli(0.8)) {
      NodeId vp = doc.AddChild(node, dict_->Intern("VP"));
      ExpandVP(doc, vp, depth + 1, target);
    }
  }

  void ExpandNP(Document& doc, NodeId node, uint32_t depth, uint32_t target) {
    if (depth + 1 >= target || rng_->Bernoulli(0.35)) {
      if (rng_->Bernoulli(0.4)) Preterminal(doc, node, "DT");
      if (rng_->Bernoulli(0.3)) Preterminal(doc, node, "JJ");
      Preterminal(doc, node, "NN");
      return;
    }
    if (rng_->Bernoulli(0.5)) {
      NodeId inner = doc.AddChild(node, dict_->Intern("NP"));
      ExpandNP(doc, inner, depth + 1, target);
      NodeId pp = doc.AddChild(node, dict_->Intern("PP"));
      ExpandPP(doc, pp, depth + 1, target);
    } else {
      NodeId pp = doc.AddChild(node, dict_->Intern("PP"));
      ExpandPP(doc, pp, depth + 1, target);
    }
  }

  void ExpandVP(Document& doc, NodeId node, uint32_t depth, uint32_t target) {
    Preterminal(doc, node, "VB");
    if (depth + 1 >= target) return;
    uint64_t kind = rng_->Uniform(100);
    if (kind < 45) {
      NodeId s = doc.AddChild(node, dict_->Intern("S"));
      ExpandS(doc, s, depth + 1, target);
    } else if (kind < 80) {
      NodeId np = doc.AddChild(node, dict_->Intern("NP"));
      ExpandNP(doc, np, depth + 1, target);
    } else {
      NodeId pp = doc.AddChild(node, dict_->Intern("PP"));
      ExpandPP(doc, pp, depth + 1, target);
    }
  }

  void ExpandPP(Document& doc, NodeId node, uint32_t depth, uint32_t target) {
    Preterminal(doc, node, "IN");
    if (depth + 1 >= target) {
      Preterminal(doc, node, "CD");
      return;
    }
    NodeId np = doc.AddChild(node, dict_->Intern("NP"));
    ExpandNP(doc, np, depth + 1, target);
  }

  TagDictionary* dict_;
  Random* rng_;
  uint32_t max_depth_;
};

std::vector<DocId> PickDistinct(Random& rng, size_t count, size_t n,
                                std::set<DocId>* used) {
  std::vector<DocId> out;
  while (out.size() < count) {
    DocId id = static_cast<DocId>(rng.Uniform(n));
    if (used->insert(id).second) out.push_back(id);
  }
  return out;
}

}  // namespace

DocumentCollection GenerateTreebank(const TreebankConfig& config) {
  DocumentCollection coll;
  Random rng(config.seed);
  TreebankBuilder builder(&coll.dictionary, &rng, config.max_depth);

  const size_t n = config.num_sentences;
  PRIX_CHECK(n >= config.min_sentences());
  std::set<DocId> used;
  auto pick_set = [&](size_t count) {
    std::vector<DocId> v = PickDistinct(rng, count, n, &used);
    return std::set<DocId>(v.begin(), v.end());
  };
  std::set<DocId> q7 = pick_set(config.q7_matches);
  std::set<DocId> q8 = pick_set(config.q8_matches);
  std::set<DocId> q9 = pick_set(config.q9_matches);
  std::set<DocId> q8_decoys = pick_set(config.q8_decoys);

  coll.documents.reserve(n);
  for (DocId id = 0; id < n; ++id) {
    Document doc = builder.Sentence(id);
    if (q7.count(id) > 0) builder.PlantQ7(doc);
    if (q8.count(id) > 0) builder.PlantQ8(doc);
    if (q9.count(id) > 0) builder.PlantQ9(doc);
    if (q8_decoys.count(id) > 0) builder.PlantQ8Decoy(doc);
    coll.documents.push_back(std::move(doc));
  }
  return coll;
}

}  // namespace prix::datagen
