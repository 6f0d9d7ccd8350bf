#include "testutil/tree_gen.h"

#include <cctype>

#include "common/macros.h"

namespace prix::testutil {

Document RandomDocument(Random& rng, DocId id, TagDictionary* dict,
                        const RandomDocOptions& options) {
  auto tag = [&](size_t i) {
    return dict->Intern("tag" + std::to_string(i));
  };
  auto val = [&](size_t i) {
    return dict->Intern(options.value_prefix + std::to_string(i));
  };
  size_t n = options.min_nodes +
             rng.Uniform(options.max_nodes - options.min_nodes + 1);
  Document doc(id);
  std::vector<NodeId> element_nodes;
  element_nodes.push_back(doc.AddRoot(tag(rng.Uniform(options.alphabet))));
  while (doc.num_nodes() < n) {
    // deep_bias steers toward recently created nodes (chains) or uniformly
    // (bushy trees).
    NodeId parent;
    if (rng.Bernoulli(options.deep_bias)) {
      parent = element_nodes.back();
    } else {
      parent = element_nodes[rng.Uniform(element_nodes.size())];
    }
    if (rng.Bernoulli(options.value_leaf_prob)) {
      doc.AddChild(parent, val(rng.Uniform(options.value_alphabet)),
                   NodeKind::kValue);
    } else {
      NodeId child =
          doc.AddChild(parent, tag(rng.Uniform(options.alphabet)));
      element_nodes.push_back(child);
    }
  }
  return doc;
}

std::vector<Document> RandomCollection(Random& rng, size_t num_docs,
                                       TagDictionary* dict,
                                       const RandomDocOptions& options) {
  std::vector<Document> docs;
  docs.reserve(num_docs);
  for (DocId d = 0; d < num_docs; ++d) {
    docs.push_back(RandomDocument(rng, d, dict, options));
  }
  return docs;
}

namespace {

void SampleSubtree(Random& rng, const Document& doc, NodeId doc_node,
                   TwigPattern* twig, uint32_t twig_parent, size_t* budget,
                   const RandomTwigOptions& options) {
  const auto& kids = doc.children(doc_node);
  for (NodeId c : kids) {
    if (*budget == 0) return;
    if (!rng.Bernoulli(0.55)) continue;
    bool desc = rng.Bernoulli(options.descendant_prob);
    bool star =
        doc.kind(c) == NodeKind::kElement && rng.Bernoulli(options.star_prob);
    --*budget;
    uint32_t t = twig->AddChild(
        twig_parent, star ? kInvalidLabel : doc.label(c),
        desc ? Axis::kDescendant : Axis::kChild, star,
        !star && doc.kind(c) == NodeKind::kValue);
    SampleSubtree(rng, doc, c, twig, t, budget, options);
  }
}

}  // namespace

TwigPattern RandomTwig(Random& rng, const Document& doc, TagDictionary* dict,
                       const RandomTwigOptions& options) {
  TwigPattern twig;
  if (options.sample_from_doc && doc.num_nodes() > 0) {
    // Pick a random element node as the twig root.
    NodeId root;
    do {
      root = static_cast<NodeId>(rng.Uniform(doc.num_nodes()));
    } while (doc.kind(root) != NodeKind::kElement);
    twig.AddRoot(doc.label(root), Axis::kDescendant);
    size_t budget = options.max_nodes - 1;
    SampleSubtree(rng, doc, root, &twig, twig.root(), &budget, options);
    return twig;
  }
  // Unrelated random twig: a chain/branch over random labels.
  size_t n = 1 + rng.Uniform(options.max_nodes);
  twig.AddRoot(dict->Intern("tag" + std::to_string(rng.Uniform(6))),
               Axis::kDescendant);
  std::vector<uint32_t> nodes = {twig.root()};
  while (nodes.size() < n) {
    uint32_t parent = nodes[rng.Uniform(nodes.size())];
    bool desc = rng.Bernoulli(options.descendant_prob);
    nodes.push_back(twig.AddChild(
        parent, dict->Intern("tag" + std::to_string(rng.Uniform(6))),
        desc ? Axis::kDescendant : Axis::kChild));
  }
  return twig;
}

Document DocFromSexp(const std::string& sexp, DocId id, TagDictionary* dict) {
  Document doc(id);
  size_t pos = 0;
  auto skip_ws = [&] {
    while (pos < sexp.size() &&
           std::isspace(static_cast<unsigned char>(sexp[pos]))) {
      ++pos;
    }
  };
  // Recursive descent over "(label child*)".
  std::vector<NodeId> stack;
  while (pos < sexp.size()) {
    skip_ws();
    if (pos >= sexp.size()) break;
    if (sexp[pos] == '(') {
      ++pos;
      skip_ws();
      size_t start = pos;
      while (pos < sexp.size() && sexp[pos] != '(' && sexp[pos] != ')' &&
             !std::isspace(static_cast<unsigned char>(sexp[pos]))) {
        ++pos;
      }
      std::string token = sexp.substr(start, pos - start);
      PRIX_CHECK(!token.empty());
      bool is_value = token[0] == '=';
      LabelId label = dict->Intern(is_value ? token.substr(1) : token);
      NodeKind kind = is_value ? NodeKind::kValue : NodeKind::kElement;
      NodeId node = stack.empty() ? doc.AddRoot(label, kind)
                                  : doc.AddChild(stack.back(), label, kind);
      stack.push_back(node);
    } else if (sexp[pos] == ')') {
      ++pos;
      PRIX_CHECK(!stack.empty());
      stack.pop_back();
    } else {
      PRIX_CHECK(false && "bad s-expression");
    }
  }
  PRIX_CHECK(stack.empty());
  return doc;
}

}  // namespace prix::testutil
