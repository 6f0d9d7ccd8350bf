#ifndef PRIX_TESTS_TESTUTIL_TREE_GEN_H_
#define PRIX_TESTS_TESTUTIL_TREE_GEN_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "query/twig_pattern.h"
#include "xml/document.h"

namespace prix::testutil {

/// Options for random document generation.
struct RandomDocOptions {
  size_t min_nodes = 2;
  size_t max_nodes = 40;
  size_t alphabet = 6;          ///< element labels drawn from tag0..tagN-1
  size_t value_alphabet = 8;    ///< value labels drawn from val0..valM-1
  /// Name prefix of value labels; "tag" makes values share labels with
  /// element tags (a value "tag1" and an element <tag1> intern alike).
  std::string value_prefix = "val";
  double value_leaf_prob = 0.3; ///< chance a leaf becomes a value node
  double deep_bias = 0.5;       ///< 1.0 = chains, 0.0 = stars
};

/// Generates a random ordered labeled tree. Labels are interned into `dict`
/// as "tag<i>" / "<value_prefix><i>".
Document RandomDocument(Random& rng, DocId id, TagDictionary* dict,
                        const RandomDocOptions& options = {});

/// Generates a whole collection.
std::vector<Document> RandomCollection(Random& rng, size_t num_docs,
                                       TagDictionary* dict,
                                       const RandomDocOptions& options = {});

/// Options for random twig generation.
struct RandomTwigOptions {
  size_t max_nodes = 6;
  double descendant_prob = 0.0;  ///< chance an edge becomes '//'
  double star_prob = 0.0;        ///< chance a node becomes '*'
  bool sample_from_doc = true;   ///< carve the twig out of a real document
};

/// Generates a random twig pattern. When sampling from `doc`, the twig is a
/// (possibly mutated) connected sub-pattern of the document, so matches are
/// likely; otherwise labels are drawn at random.
TwigPattern RandomTwig(Random& rng, const Document& doc, TagDictionary* dict,
                       const RandomTwigOptions& options = {});

/// Builds a document from a compact s-expression: "(A (B) (C (D)))" where
/// the first atom is the label; a label starting with '=' denotes a value
/// node (e.g. "(author (=Jim))").
Document DocFromSexp(const std::string& sexp, DocId id, TagDictionary* dict);

}  // namespace prix::testutil

#endif  // PRIX_TESTS_TESTUTIL_TREE_GEN_H_
