#ifndef PRIX_DATAGEN_DBLP_GEN_H_
#define PRIX_DATAGEN_DBLP_GEN_H_

#include <cstddef>
#include <cstdint>

#include "xml/document.h"

namespace prix::datagen {

/// Synthetic analog of the UW repository DBLP dataset (see DESIGN.md
/// substitution table): many small, shallow bibliography records with high
/// structural similarity. Documents carry planted answers for the paper's
/// queries Q1-Q3 with exactly the Table 3 match counts.
struct DblpConfig {
  size_t num_records = 40000;
  uint64_t seed = 42;
  size_t author_pool = 8000;
  double author_zipf = 0.9;
  /// Planted matches: Q1 = //inproceedings[./author="Jim Gray"]
  /// [./year="1990"], Q2 = //www[./editor]/url, Q3 = //title[text()=
  /// "Semantic Analysis Patterns"].
  size_t q1_matches = 6;
  size_t q2_matches = 21;
  size_t q3_matches = 1;
  /// Additional "Jim Gray" records with non-1990 years (author selectivity).
  size_t jim_gray_decoys = 60;

  /// Fewest records that hold every planted answer and decoy.
  size_t min_records() const {
    return q1_matches + q2_matches + q3_matches + jim_gray_decoys + 10;
  }
};

DocumentCollection GenerateDblp(const DblpConfig& config = {});

}  // namespace prix::datagen

#endif  // PRIX_DATAGEN_DBLP_GEN_H_
