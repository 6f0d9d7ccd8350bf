#ifndef PRIX_DATAGEN_SWISSPROT_GEN_H_
#define PRIX_DATAGEN_SWISSPROT_GEN_H_

#include <cstddef>
#include <cstdint>

#include "xml/document.h"

namespace prix::datagen {

/// Synthetic analog of the SWISSPROT dataset: bushy, shallow protein
/// entries. Planted answers reproduce the Table 3 counts for Q4-Q6.
struct SwissprotConfig {
  size_t num_entries = 9000;
  uint64_t seed = 1337;
  /// Q4 = //Entry[./Keyword="Rhizomelic"].
  size_t q4_matches = 3;
  /// Q5 = //Entry/Ref[./Author="Mueller P"][./Author="Keller M"].
  size_t q5_matches = 5;
  /// Q6 = //Entry[./Org="Piroplasmida"][.//Author]//from.
  size_t q6_matches = 158;
  /// Piroplasmida entries lacking Author and/or from (the partial-match
  /// decoys that force TwigStackXB to drill down, Sec. 6.4.2).
  size_t piro_decoys = 450;
  /// Refs with only one of the two Q5 authors.
  size_t q5_decoys = 60;

  /// Fewest entries that hold every planted answer and decoy.
  size_t min_entries() const {
    return q4_matches + q5_matches + q6_matches + piro_decoys + q5_decoys +
           10;
  }
};

DocumentCollection GenerateSwissprot(const SwissprotConfig& config = {});

}  // namespace prix::datagen

#endif  // PRIX_DATAGEN_SWISSPROT_GEN_H_
