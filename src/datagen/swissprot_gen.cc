#include "datagen/swissprot_gen.h"

#include <set>

#include "common/macros.h"
#include "common/random.h"
#include "datagen/name_pools.h"

namespace prix::datagen {

namespace {

class SwissprotBuilder {
 public:
  SwissprotBuilder(TagDictionary* dict, Random* rng)
      : dict_(dict), rng_(rng) {}

  void AddValueChild(Document& doc, NodeId parent, const std::string& tag,
                     const std::string& value) {
    NodeId e = doc.AddChild(parent, dict_->Intern(tag));
    doc.AddChild(e, dict_->Intern(value), NodeKind::kValue);
  }

  NodeId AddRef(Document& doc, NodeId root,
                const std::vector<std::string>& authors) {
    NodeId ref = doc.AddChild(root, dict_->Intern("Ref"));
    for (const std::string& author : authors) {
      AddValueChild(doc, ref, "Author", author);
    }
    AddValueChild(doc, ref, "Title", Title(*rng_, 3 + rng_->Uniform(4)));
    return ref;
  }

  void AddFeatures(Document& doc, NodeId root, size_t num_fts) {
    NodeId features = doc.AddChild(root, dict_->Intern("Features"));
    for (size_t i = 0; i < num_fts; ++i) {
      NodeId ft = doc.AddChild(features, dict_->Intern("FT"));
      AddValueChild(doc, ft, "from", std::to_string(1 + rng_->Uniform(900)));
      AddValueChild(doc, ft, "to", std::to_string(901 + rng_->Uniform(900)));
      AddValueChild(doc, ft, "descr", "DOMAIN" + std::to_string(rng_->Uniform(50)));
    }
  }

  /// Fully-shaped base entry (bushy and shallow). `org` overrides the
  /// organism; keywords drawn from the pool; `with_refs`/`with_features`
  /// control the Q6-relevant substructure.
  Document Entry(DocId id, const std::string& org, bool with_refs,
                 bool with_features, size_t keyword_count,
                 const std::vector<std::vector<std::string>>& planted_refs) {
    // Pooled, shared values lead the record (they drive trie-path sharing,
    // the paper's motivation #3); unique identifiers trail.
    Document doc(id);
    NodeId root = doc.AddRoot(dict_->Intern("Entry"));
    AddValueChild(doc, root, "Org", org);
    for (size_t i = 0; i < keyword_count; ++i) {
      AddValueChild(doc, root, "Keyword", Keyword(rng_->Uniform(300)));
    }
    for (const auto& authors : planted_refs) {
      AddRef(doc, root, authors);
    }
    if (with_refs) {
      size_t num_refs = 1 + rng_->Uniform(3);
      for (size_t i = 0; i < num_refs; ++i) {
        std::vector<std::string> authors;
        size_t num_authors = 1 + rng_->Uniform(3);
        for (size_t j = 0; j < num_authors; ++j) {
          authors.push_back(AuthorName(rng_->Uniform(5000)));
        }
        AddRef(doc, root, authors);
      }
    }
    if (with_features) AddFeatures(doc, root, 1 + rng_->Uniform(3));
    AddValueChild(doc, root, "Name", "PROT" + std::to_string(id));
    NodeId attr = doc.AddChild(root, dict_->Intern("@id"));
    doc.AddChild(attr, dict_->Intern("P" + std::to_string(10000 + id)),
                 NodeKind::kValue);
    return doc;
  }

  /// Q6 planted entry: Org="Piroplasmida", exactly ONE Author and ONE from
  /// so the entry contributes exactly one (Entry, Org, Author, from) tuple.
  Document PiroMatch(DocId id) {
    Document doc(id);
    NodeId root = doc.AddRoot(dict_->Intern("Entry"));
    AddValueChild(doc, root, "Org", "Piroplasmida");
    AddValueChild(doc, root, "Keyword", Keyword(rng_->Uniform(300)));
    NodeId ref = doc.AddChild(root, dict_->Intern("Ref"));
    AddValueChild(doc, ref, "Author", AuthorName(rng_->Uniform(5000)));
    NodeId features = doc.AddChild(root, dict_->Intern("Features"));
    NodeId ft = doc.AddChild(features, dict_->Intern("FT"));
    AddValueChild(doc, ft, "from", std::to_string(1 + rng_->Uniform(900)));
    AddValueChild(doc, root, "Name", "PROT" + std::to_string(id));
    return doc;
  }

  /// Q6 decoy: Piroplasmida entry missing the Author and/or from tags.
  Document PiroDecoy(DocId id) {
    Document doc(id);
    NodeId root = doc.AddRoot(dict_->Intern("Entry"));
    AddValueChild(doc, root, "Org", "Piroplasmida");
    for (size_t i = 0; i < 1 + rng_->Uniform(3); ++i) {
      AddValueChild(doc, root, "Keyword", Keyword(rng_->Uniform(300)));
    }
    if (rng_->Bernoulli(0.5)) {
      // Author without from.
      NodeId ref = doc.AddChild(root, dict_->Intern("Ref"));
      AddValueChild(doc, ref, "Author", AuthorName(rng_->Uniform(5000)));
    } else if (rng_->Bernoulli(0.5)) {
      // from without Author.
      AddFeatures(doc, root, 1);
    }
    AddValueChild(doc, root, "Name", "PROT" + std::to_string(id));
    return doc;
  }

  Random& rng() { return *rng_; }

 private:
  TagDictionary* dict_;
  Random* rng_;
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

DocumentCollection GenerateSwissprot(const SwissprotConfig& config) {
  DocumentCollection coll;
  Random rng(config.seed);
  SwissprotBuilder builder(&coll.dictionary, &rng);

  const size_t n = config.num_entries;
  PRIX_CHECK(n >= config.min_entries());
  std::set<DocId> used;
  auto pick_set = [&](size_t count) {
    std::vector<DocId> v = PickDistinct(rng, count, n, &used);
    return std::set<DocId>(v.begin(), v.end());
  };
  std::set<DocId> q4 = pick_set(config.q4_matches);
  std::set<DocId> q5 = pick_set(config.q5_matches);
  std::set<DocId> q6 = pick_set(config.q6_matches);
  std::set<DocId> piro_decoys = pick_set(config.piro_decoys);
  std::set<DocId> q5_decoys = pick_set(config.q5_decoys);

  coll.documents.reserve(n);
  for (DocId id = 0; id < n; ++id) {
    if (q6.count(id) > 0) {
      coll.documents.push_back(builder.PiroMatch(id));
    } else if (piro_decoys.count(id) > 0) {
      coll.documents.push_back(builder.PiroDecoy(id));
    } else if (q4.count(id) > 0) {
      Document doc = builder.Entry(id, Organism(rng.Uniform(200)),
                                   /*with_refs=*/true, /*with_features=*/true,
                                   0, {});
      // Insert the planted keyword via a dedicated child. Document order of
      // the extra keyword does not matter for the single-branch Q4.
      NodeId kw = doc.AddChild(doc.root(),
                               coll.dictionary.Intern("Keyword"));
      doc.AddChild(kw, coll.dictionary.Intern("Rhizomelic"),
                   NodeKind::kValue);
      coll.documents.push_back(std::move(doc));
    } else if (q5.count(id) > 0) {
      coll.documents.push_back(builder.Entry(
          id, Organism(rng.Uniform(200)), /*with_refs=*/false,
          /*with_features=*/true, 1 + rng.Uniform(3),
          {{"Mueller P", "Keller M"}}));
    } else if (q5_decoys.count(id) > 0) {
      bool mueller = rng.Bernoulli(0.5);
      coll.documents.push_back(builder.Entry(
          id, Organism(rng.Uniform(200)), /*with_refs=*/false,
          /*with_features=*/true, 1 + rng.Uniform(3),
          {{mueller ? "Mueller P" : "Keller M",
            AuthorName(rng.Uniform(5000))}}));
    } else {
      coll.documents.push_back(builder.Entry(
          id, Organism(rng.Uniform(200)), /*with_refs=*/true,
          /*with_features=*/true, rng.Uniform(5), {}));
    }
  }
  return coll;
}

}  // namespace prix::datagen
