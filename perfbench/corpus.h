#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "xml/document.h"
#include "xml/tag_dictionary.h"

namespace perfbench {

enum class Dataset { kDblp, kSwissprot, kTreebank };

/// A generated collection exactly as `prix index` sees it: the records of
/// the XML file that was written, parsed back with the program's parser, so
/// DocIds and label ids match the ones the program assigns.
struct Corpus {
  prix::TagDictionary dict;
  std::vector<prix::Document> docs;  ///< DocId == position
  std::vector<uint64_t> doc_bytes;   ///< XML bytes of each record
};

/// Generates `records` records of `dataset` with generator seed `gen_seed`,
/// writes them to `xml_path` as one file (a root element wrapping one record
/// per line) and parses the file back, appending the records to `corpus`
/// and interning into its dictionary in parse order. Without `planted` the
/// generator plants no Table 3 answers (write records). Returns the file
/// size.
uint64_t AppendCorpusFile(Dataset dataset, size_t records, uint64_t gen_seed,
                          bool planted, const std::string& xml_path,
                          Corpus* corpus);

/// Interns every label of `from` into `to` in id order, so `to` assigns the
/// same ids.
void CopyDictionary(const prix::TagDictionary& from, prix::TagDictionary* to);

/// Seeded twig sampler. Every twig is read off a real embedding in a
/// sampled record of `corpus.docs[0, num_docs)`, so it has at least one
/// answer under the ordered semantics, and is rendered in the XPath subset
/// ParseXPath accepts, with every branch written as a predicate in document
/// order.
///   kDblp:      a record with one or two value predicates (author, year,
///               title, venue): selective twigs.
///   kSwissprot: Entry twigs of 2-5 nodes mixing value and structural
///               branches.
///   kTreebank:  structural twigs of 3-6 nodes with '/' and '//' edges and
///               branching; sampled paths repeat labels, which gives
///               same-label recursion such as NP//NP.
/// Returns `count` distinct twigs.
std::vector<std::string> SampleTwigs(Dataset dataset, const Corpus& corpus,
                                     size_t num_docs, size_t count,
                                     prix::Random* rng);

/// A read stream: distinct query texts and the order requests send them.
struct Stream {
  std::vector<std::string> distinct;
  std::vector<uint32_t> requests;  ///< indexes into `distinct`
};

/// Renders the requests in the Zambezi query-file format (common/queryfile.h)
/// that `prix bench-serve --queries` replays: request i is "i <len> <xpath>".
std::string FormatStream(const Stream& stream);

/// Ground truth: NaiveMatch under the ordered semantics (the program's
/// default) over the records that contain every label of the twig.
class Oracle {
 public:
  explicit Oracle(const Corpus& corpus);

  /// Sorted DocIds of every record of the corpus matching `xpath`,
  /// regardless of whether the record is live. Not thread-safe.
  std::vector<uint32_t> MatchingDocs(const std::string& xpath);

 private:
  const Corpus& corpus_;
  prix::TagDictionary dict_;
  std::vector<std::vector<uint32_t>> postings_;  ///< label -> sorted DocIds
};

/// Runs `Oracle::MatchingDocs` for every query on `threads` threads.
std::vector<std::vector<uint32_t>> OracleAll(
    const Corpus& corpus, const std::vector<std::string>& queries,
    size_t threads);

/// One user-level write of the write mix, applied to rp and then ep as
/// `prix insert` does. `record` indexes the write records; `target` is the
/// DocId an update replaces or a delete removes; `id` is the DocId an
/// insert or update assigns.
struct WriteOp {
  enum Kind : uint8_t { kInsert, kUpdate, kDelete } kind = kInsert;
  uint32_t record = 0;
  uint32_t target = 0;
  uint32_t id = 0;
};

/// The seeded insert/update/delete mix (about 70/20/10) over a collection
/// of `live_docs` documents with DocIds [0, live_docs). DocIds are never
/// reused: inserts and updates take the next unused one.
std::vector<WriteOp> PlanWrites(uint64_t seed, size_t ops, size_t live_docs);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
