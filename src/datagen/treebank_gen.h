#ifndef PRIX_DATAGEN_TREEBANK_GEN_H_
#define PRIX_DATAGEN_TREEBANK_GEN_H_

#include <cstddef>
#include <cstdint>

#include "xml/document.h"

namespace prix::datagen {

/// Synthetic analog of the TREEBANK dataset: skinny parse trees with deep
/// recursion of grammar tags and encrypted leaf values. Planted answers
/// reproduce the Table 3 counts for Q7-Q9.
struct TreebankConfig {
  size_t num_sentences = 12000;
  uint64_t seed = 2718;
  uint32_t max_depth = 36;
  /// Q7 = //S//NP/SYM.
  size_t q7_matches = 9;
  /// Q8 = //NP[./RBR_OR_JJR]/PP.
  size_t q8_matches = 1;
  /// Q9 = //NP/PP/NP[./NNS_OR_NN][./NN].
  size_t q9_matches = 6;
  /// Scattered decoys where NP is an ancestor but not the parent of both
  /// RBR_OR_JJR and PP (TwigStack's parent-child sub-optimality,
  /// Sec. 6.4.2).
  size_t q8_decoys = 400;

  /// Fewest sentences that hold every planted answer and decoy.
  size_t min_sentences() const {
    return q7_matches + q8_matches + q9_matches + q8_decoys + 10;
  }
};

DocumentCollection GenerateTreebank(const TreebankConfig& config = {});

}  // namespace prix::datagen

#endif  // PRIX_DATAGEN_TREEBANK_GEN_H_
