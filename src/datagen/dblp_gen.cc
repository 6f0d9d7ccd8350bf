#include "datagen/dblp_gen.h"

#include <algorithm>
#include <set>

#include "common/macros.h"
#include "common/random.h"
#include "datagen/name_pools.h"

namespace prix::datagen {

namespace {

/// Builder bound to one collection dictionary.
class DblpBuilder {
 public:
  DblpBuilder(TagDictionary* dict, Random* rng, const DblpConfig& config)
      : dict_(dict), rng_(rng), config_(config),
        author_zipf_(config.author_pool, config.author_zipf) {}

  void AddValueChild(Document& doc, NodeId parent, const std::string& tag,
                     const std::string& value) {
    NodeId e = doc.AddChild(parent, dict_->Intern(tag));
    doc.AddChild(e, dict_->Intern(value), NodeKind::kValue);
  }

  void AddKeyAttribute(Document& doc, NodeId root, const char* kind,
                       DocId id) {
    NodeId attr = doc.AddChild(root, dict_->Intern("@key"));
    doc.AddChild(attr,
                 dict_->Intern(std::string(kind) + "/" + std::to_string(id)),
                 NodeKind::kValue);
  }

  std::string RandomAuthor() { return AuthorName(author_zipf_.Sample(*rng_)); }

  Document Article(DocId id) {
    Document doc(id);
    NodeId root = doc.AddRoot(dict_->Intern("article"));
    size_t num_authors = 1 + rng_->Uniform(3);
    for (size_t i = 0; i < num_authors; ++i) {
      AddValueChild(doc, root, "author", RandomAuthor());
    }
    // Pooled values (journal, year) precede the unique title and key so
    // records share trie-path prefixes — the structural similarity the
    // paper's DBLP dataset exhibits.
    AddValueChild(doc, root, "journal", Venue(rng_->Uniform(200)));
    AddValueChild(doc, root, "year", Year(*rng_));
    AddValueChild(doc, root, "title", Title(*rng_, 4 + rng_->Uniform(4)));
    if (rng_->Bernoulli(0.7)) {
      AddValueChild(doc, root, "pages",
                    std::to_string(rng_->Uniform(400)) + "-" +
                        std::to_string(400 + rng_->Uniform(40)));
    }
    if (rng_->Bernoulli(0.4)) {
      AddValueChild(doc, root, "volume", std::to_string(1 + rng_->Uniform(40)));
    }
    AddKeyAttribute(doc, root, "journals", id);
    return doc;
  }

  /// `planted_q1`: author "Jim Gray" + year "1990". `gray_decoy`: author
  /// "Jim Gray" with a different year.
  Document Inproceedings(DocId id, bool planted_q1, bool gray_decoy) {
    Document doc(id);
    NodeId root = doc.AddRoot(dict_->Intern("inproceedings"));
    if (planted_q1 || gray_decoy) {
      AddValueChild(doc, root, "author", "Jim Gray");
      if (rng_->Bernoulli(0.5)) {
        AddValueChild(doc, root, "author", RandomAuthor());
      }
    } else {
      size_t num_authors = 1 + rng_->Uniform(3);
      for (size_t i = 0; i < num_authors; ++i) {
        AddValueChild(doc, root, "author", RandomAuthor());
      }
    }
    AddValueChild(doc, root, "booktitle", Venue(rng_->Uniform(120)));
    std::string year = Year(*rng_);
    if (planted_q1) {
      year = "1990";
    } else if (gray_decoy && year == "1990") {
      year = "1991";
    }
    AddValueChild(doc, root, "year", year);
    AddValueChild(doc, root, "title", Title(*rng_, 4 + rng_->Uniform(4)));
    if (rng_->Bernoulli(0.5)) {
      AddValueChild(doc, root, "pages",
                    std::to_string(rng_->Uniform(400)) + "-" +
                        std::to_string(400 + rng_->Uniform(40)));
    }
    AddKeyAttribute(doc, root, "conf", id);
    return doc;
  }

  /// `planted_q2`: editor child before the url (matches //www[./editor]/url).
  Document Www(DocId id, bool planted_q2) {
    Document doc(id);
    NodeId root = doc.AddRoot(dict_->Intern("www"));
    if (planted_q2) {
      AddValueChild(doc, root, "editor", RandomAuthor());
    }
    AddValueChild(doc, root, "url",
                  "db/web/" + std::to_string(id) + ".html");
    AddValueChild(doc, root, "title", Title(*rng_, 2 + rng_->Uniform(3)));
    AddKeyAttribute(doc, root, "www", id);
    return doc;
  }

  Document Q3Article(DocId id) {
    Document doc(id);
    NodeId root = doc.AddRoot(dict_->Intern("article"));
    AddValueChild(doc, root, "author", RandomAuthor());
    AddValueChild(doc, root, "journal", Venue(rng_->Uniform(200)));
    AddValueChild(doc, root, "year", Year(*rng_));
    AddValueChild(doc, root, "title", "Semantic Analysis Patterns");
    AddKeyAttribute(doc, root, "journals", id);
    return doc;
  }

 private:
  TagDictionary* dict_;
  Random* rng_;
  DblpConfig config_;
  ZipfSampler author_zipf_;
};

/// Picks `count` distinct ids in [0, n) not already in `used`.
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

DocumentCollection GenerateDblp(const DblpConfig& config) {
  DocumentCollection coll;
  Random rng(config.seed);
  DblpBuilder builder(&coll.dictionary, &rng, config);

  const size_t n = config.num_records;
  PRIX_CHECK(n >= config.min_records());
  std::set<DocId> used;
  auto pick_set = [&](size_t count) {
    std::vector<DocId> v = PickDistinct(rng, count, n, &used);
    return std::set<DocId>(v.begin(), v.end());
  };
  std::set<DocId> q1 = pick_set(config.q1_matches);
  std::set<DocId> q2 = pick_set(config.q2_matches);
  std::set<DocId> q3 = pick_set(config.q3_matches);
  std::set<DocId> gray = pick_set(config.jim_gray_decoys);

  coll.documents.reserve(n);
  for (DocId id = 0; id < n; ++id) {
    if (q1.count(id) > 0) {
      coll.documents.push_back(builder.Inproceedings(id, true, false));
    } else if (q2.count(id) > 0) {
      coll.documents.push_back(builder.Www(id, true));
    } else if (q3.count(id) > 0) {
      coll.documents.push_back(builder.Q3Article(id));
    } else if (gray.count(id) > 0) {
      coll.documents.push_back(builder.Inproceedings(id, false, true));
    } else {
      uint64_t kind = rng.Uniform(100);
      if (kind < 55) {
        coll.documents.push_back(builder.Article(id));
      } else if (kind < 90) {
        coll.documents.push_back(builder.Inproceedings(id, false, false));
      } else {
        coll.documents.push_back(builder.Www(id, false));
      }
    }
  }
  return coll;
}

}  // namespace prix::datagen
