// Protein-entry search over a SWISSPROT-like collection, comparing PRIX
// against the ViST and TwigStack baselines on the same storage — a
// miniature of the paper's Section 6 evaluation.

#include <cstdio>
#include <cstdlib>

#include "datagen/swissprot_gen.h"
#include "db/database.h"
#include "prix/prix_index.h"
#include "prix/query_processor.h"
#include "query/xpath_parser.h"
#include "twigstack/twig_stack.h"
#include "vist/vist_index.h"
#include "vist/vist_query.h"

using namespace prix;

int main() {
  datagen::SwissprotConfig config;
  config.num_entries = 3000;
  config.piro_decoys = 200;
  config.q6_matches = 80;
  DocumentCollection coll = datagen::GenerateSwissprot(config);
  std::printf("Generated %zu protein entries (%zu tree nodes).\n\n",
              coll.documents.size(), coll.TotalNodes());

  char dir[] = "/tmp/prix_protein_example_XXXXXX";
  if (mkdtemp(dir) == nullptr) return 1;
  auto db = Database::Create(std::string(dir) + "/protein.prix");
  if (!db.ok()) return 1;
  BufferPool& pool = *(*db)->pool();

  auto rp = PrixIndex::Build(coll.documents, &pool, PrixIndexOptions{});
  PrixIndexOptions ep_options;
  ep_options.extended = true;
  auto ep = PrixIndex::Build(coll.documents, &pool, ep_options);
  auto vist = VistIndex::Build(coll.documents, &pool);
  auto streams = StreamStore::Build(coll.documents, &pool);
  if (!rp.ok() || !ep.ok() || !vist.ok() || !streams.ok()) return 1;
  auto forest = XbForest::Build(streams->get());
  if (!forest.ok()) return 1;

  QueryProcessor prix_qp(**db, rp->get(), ep->get());
  VistQueryProcessor vist_qp(vist->get());
  TwigStackEngine xb_engine(streams->get(), forest->get());

  const char* queries[] = {
      R"(//Entry[./Keyword="Rhizomelic"])",
      R"(//Entry/Ref[./Author="Mueller P"][./Author="Keller M"])",
      R"(//Entry[./Org="Piroplasmida"][.//Author]//from)",
      "//Entry/Ref/Author",
  };
  std::printf("%-58s %10s %10s %12s\n", "Query (matches)", "PRIX IO",
              "ViST IO", "TwigStackXB");
  for (const char* xpath : queries) {
    auto run_cold = [&]() {
      if (!(*db)->ColdStart().ok()) std::abort();
    };
    run_cold();
    auto prix_run = prix_qp.ExecuteXPath(xpath, &coll.dictionary);
    uint64_t prix_io = pool.stats().physical_reads;

    auto pattern = ParseXPath(xpath, &coll.dictionary);
    if (!pattern.ok() || !prix_run.ok()) return 1;
    run_cold();
    auto vist_run = vist_qp.Execute(*pattern);
    uint64_t vist_io = pool.stats().physical_reads;
    run_cold();
    auto xb_run = xb_engine.Execute(*pattern);
    uint64_t xb_io = pool.stats().physical_reads;
    if (!vist_run.ok() || !xb_run.ok()) return 1;

    char left[80];
    std::snprintf(left, sizeof(left), "%s (%zu)", xpath,
                  prix_run->matches.size());
    std::printf("%-58s %10llu %10llu %12llu\n", left,
                (unsigned long long)prix_io, (unsigned long long)vist_io,
                (unsigned long long)xb_io);
    if (prix_run->matches.size() != vist_run->matches.size() ||
        prix_run->docs.size() != xb_run->docs.size()) {
      std::fprintf(stderr, "engines disagree on %s!\n", xpath);
      return 1;
    }
  }
  std::printf("\n(Disk IO = physical pages read with a cold 2000-page "
              "buffer pool, the paper's measurement.)\n");

  std::string cleanup = "rm -rf " + std::string(dir);
  return std::system(cleanup.c_str()) == 0 ? 0 : 1;
}
