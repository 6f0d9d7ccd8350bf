#ifndef PRIX_TESTS_TESTUTIL_MUTATE_H_
#define PRIX_TESTS_TESTUTIL_MUTATE_H_

#include <string>
#include <string_view>

#include "common/random.h"

namespace prix::testutil {

/// One to three seeded byte mutations of `text`: flip a byte, insert one
/// (half the time drawn from `specials`, the grammar's metacharacters),
/// delete a run of up to 8 bytes, or truncate. Parser fuzz sweeps feed the
/// result to a parser that must answer with a value or a typed Status.
inline std::string MutateBytes(Random& rng, std::string text,
                               std::string_view specials) {
  for (uint64_t round = 1 + rng.Uniform(3); round > 0; --round) {
    switch (rng.Uniform(4)) {
      case 0:
        if (!text.empty()) {
          text[rng.Uniform(text.size())] ^=
              static_cast<char>(1 + rng.Uniform(255));
        }
        break;
      case 1: {
        const char c = rng.Uniform(2) == 0
                           ? specials[rng.Uniform(specials.size())]
                           : static_cast<char>(rng.Uniform(256));
        text.insert(rng.Uniform(text.size() + 1), 1, c);
        break;
      }
      case 2:
        if (!text.empty()) {
          text.erase(rng.Uniform(text.size()), 1 + rng.Uniform(8));
        }
        break;
      default:
        text.resize(rng.Uniform(text.size() + 1));
        break;
    }
  }
  return text;
}

}  // namespace prix::testutil

#endif  // PRIX_TESTS_TESTUTIL_MUTATE_H_
