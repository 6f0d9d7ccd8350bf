#include "twigstack/twig_stack.h"

#include <algorithm>

#include "common/deadline.h"
#include "common/macros.h"
#include "storage/record_store.h"

namespace prix {

Result<std::unique_ptr<XbForest>> XbForest::Build(const StreamStore* store) {
  // Labels in ascending order, so the forest's pages are laid out the same
  // way on every build.
  std::vector<LabelId> labels;
  labels.reserve(store->streams().size());
  for (const auto& [label, info] : store->streams()) labels.push_back(label);
  std::sort(labels.begin(), labels.end());
  auto forest = std::make_unique<XbForest>();
  for (LabelId label : labels) {
    PRIX_ASSIGN_OR_RETURN(std::unique_ptr<XbTree> tree,
                          XbTree::Build(store, store->Find(label)));
    forest->internal_pages_ += tree->internal_pages();
    forest->trees_.emplace(label, std::move(tree));
  }
  PRIX_RETURN_NOT_OK(store->pool()->FlushAll());
  return forest;
}

Status XbForest::RebuildTree(LabelId label, const StreamStore* store,
                             CowContext* cow) {
  auto it = trees_.find(label);
  if (it != trees_.end()) {
    for (const XbTree::Level& level : it->second->levels()) {
      for (PageId page : level.pages) {
        if (cow != nullptr) cow->MarkFreed(page);
      }
    }
    internal_pages_ -= it->second->internal_pages();
    trees_.erase(it);
  }
  const StreamStore::StreamInfo* info = store->Find(label);
  PRIX_ASSIGN_OR_RETURN(std::unique_ptr<XbTree> tree,
                        XbTree::Build(store, info, cow));
  internal_pages_ += tree->internal_pages();
  trees_.emplace(label, std::move(tree));
  return Status::OK();
}

namespace {
constexpr uint32_t kForestCatalogMagic = 0x58424652;  // "XBFR"
constexpr uint32_t kForestCatalogVersion = 1;
}  // namespace

void XbForest::SerializeCatalog(std::vector<char>* blob) const {
  PutU32(blob, kForestCatalogMagic);
  PutU32(blob, kForestCatalogVersion);
  PutU32(blob, static_cast<uint32_t>(trees_.size()));
  for (const auto& [label, tree] : trees_) {
    PutU32(blob, label);
    PutU32(blob, static_cast<uint32_t>(tree->levels().size()));
    for (const XbTree::Level& level : tree->levels()) {
      PutU32(blob, level.entry_count);
      PutU32(blob, static_cast<uint32_t>(level.pages.size()));
      for (PageId page : level.pages) PutU32(blob, page);
    }
  }
}

Status XbForest::Save(Database* db, const std::string& name) const {
  std::vector<char> blob;
  SerializeCatalog(&blob);
  PRIX_ASSIGN_OR_RETURN(PageId first, WriteBlob(db->pool(), blob));
  Database::IndexEntry entry;
  entry.name = name;
  entry.kind = Database::IndexKind::kXbForest;
  entry.root = first;
  return db->PutIndex(entry);
}

Result<std::unique_ptr<XbForest>> XbForest::Open(Database* db,
                                                 const std::string& name,
                                                 const StreamStore* store) {
  PRIX_ASSIGN_OR_RETURN(Database::IndexEntry entry, db->GetIndex(name));
  return OpenFromEntry(db->pool(), entry, store);
}

Result<std::unique_ptr<XbForest>> XbForest::OpenFromEntry(
    BufferPool* pool, const Database::IndexEntry& entry,
    const StreamStore* store) {
  if (entry.kind != Database::IndexKind::kXbForest) {
    return Status::InvalidArgument("catalog entry '" + entry.name +
                                   "' is not an XB-forest");
  }
  std::vector<char> blob;
  PRIX_RETURN_NOT_OK(ReadBlob(pool, entry.root, &blob));
  const char* p = blob.data();
  const char* end = blob.data() + blob.size();
  auto need = [&](size_t bytes) -> Status {
    if (p + bytes > end) return Status::Corruption("truncated XB-forest");
    return Status::OK();
  };
  PRIX_RETURN_NOT_OK(need(12));
  if (GetU32(p) != kForestCatalogMagic) {
    return Status::Corruption("not an XB-forest catalog");
  }
  p += 4;
  if (GetU32(p) != kForestCatalogVersion) {
    return Status::Corruption("unsupported XB-forest catalog version");
  }
  p += 4;
  uint32_t num_trees = GetU32(p);
  p += 4;
  auto forest = std::make_unique<XbForest>();
  for (uint32_t t = 0; t < num_trees; ++t) {
    PRIX_RETURN_NOT_OK(need(8));
    LabelId label = GetU32(p);
    p += 4;
    uint32_t num_levels = GetU32(p);
    p += 4;
    std::vector<XbTree::Level> levels(num_levels);
    for (XbTree::Level& level : levels) {
      PRIX_RETURN_NOT_OK(need(8));
      level.entry_count = GetU32(p);
      p += 4;
      uint32_t num_pages = GetU32(p);
      p += 4;
      // The cursor turns entry indexes into page indexes by fanout; an
      // entry count the page list cannot cover would walk off the vector.
      uint64_t needed_pages =
          (static_cast<uint64_t>(level.entry_count) + XbTree::kFanout - 1) /
          XbTree::kFanout;
      if (needed_pages > num_pages) {
        return Status::Corruption(
            "XB-forest level with " + std::to_string(level.entry_count) +
            " entries lists only " + std::to_string(num_pages) + " pages");
      }
      PRIX_RETURN_NOT_OK(need(4ull * num_pages));
      uint32_t file_pages = pool->disk()->num_pages();
      level.pages.reserve(num_pages);
      for (uint32_t j = 0; j < num_pages; ++j, p += 4) {
        level.pages.push_back(GetU32(p));
        if (level.pages.back() >= file_pages) {
          return Status::Corruption(
              "XB-forest references page " +
              std::to_string(level.pages.back()) + " beyond the file (" +
              std::to_string(file_pages) + " pages)");
        }
      }
    }
    const StreamStore::StreamInfo* info = store->Find(label);
    if (info == nullptr) {
      return Status::Corruption("XB-forest references unknown stream label " +
                                std::to_string(label));
    }
    std::unique_ptr<XbTree> tree =
        XbTree::FromLevels(store, info, std::move(levels));
    forest->internal_pages_ += tree->internal_pages();
    forest->trees_.emplace(label, std::move(tree));
  }
  return forest;
}

namespace {

bool EdgeOk(const EdgeSpec& edge, const ElementPos& anc,
            const ElementPos& desc) {
  if (!(anc.doc == desc.doc && anc.left < desc.left &&
        desc.right < anc.right)) {
    return false;
  }
  uint32_t dist = desc.level - anc.level;
  return edge.exact ? dist == edge.min_edges : dist >= edge.min_edges;
}

bool AnchorOk(const EdgeSpec& anchor, const ElementPos& root_elem) {
  uint32_t depth = root_elem.level - 1;
  return anchor.exact ? depth == anchor.min_edges
                      : depth >= anchor.min_edges;
}

}  // namespace

/// Per-execution state of the holistic twig join.
class TwigStackEngine::Run {
 public:
  Run(const StreamStore* store, const XbForest* forest,
      const EffectiveTwig& twig)
      : store_(store), forest_(forest), twig_(twig) {}

  Status Init() {
    const size_t n = twig_.num_nodes();
    cursors_.resize(n);
    simple_.resize(n);
    xb_.resize(n);
    stacks_.resize(n);
    for (uint32_t q = 0; q < n; ++q) {
      const StreamStore::StreamInfo* info =
          twig_.node(q).label == kInvalidLabel
              ? nullptr
              : store_->Find(twig_.node(q).label);
      if (forest_ != nullptr) {
        const XbTree* tree =
            twig_.node(q).label == kInvalidLabel
                ? nullptr
                : forest_->Find(twig_.node(q).label);
        xb_[q] = std::make_unique<XbCursor>(
            tree != nullptr ? tree : &empty_tree());
        PRIX_RETURN_NOT_OK(xb_[q]->Init());
        cursors_[q] = xb_[q].get();
      } else {
        simple_[q] = std::make_unique<SimpleTagCursor>(store_, info);
        PRIX_RETURN_NOT_OK(simple_[q]->Init());
        cursors_[q] = simple_[q].get();
      }
    }
    // Root-to-leaf paths in syntactic order.
    std::vector<uint32_t> chain;
    CollectPaths(twig_.root(), chain);
    return Status::OK();
  }

  Status Execute(TwigStackResult* result) {
    uint64_t iterations = 0;
    while (!SubtreeEnded(twig_.root())) {
      // Deadline checkpoint, amortized: one TLS probe every 512 stream
      // advances keeps cancellation latency in the microseconds while
      // staying invisible next to the per-element stack work.
      if ((iterations++ & 511) == 0) PRIX_RETURN_NOT_OK(CheckDeadline());
      PRIX_ASSIGN_OR_RETURN(uint32_t q, GetNext(twig_.root()));
      TagCursor* cur = cursors_[q];
      if (cur->Eof()) break;  // defensive; GetNext avoids eof nodes
      if (forest_ != nullptr && q != twig_.root()) {
        // XB skip: if the parent stack is empty and every remaining parent
        // element starts after this (possibly whole-subtree) entry ends,
        // nothing under the entry can gain an ancestor — skip it without
        // drilling to the leaves (Sec. 6.4.2's "skipping data").
        uint32_t parent = twig_.node(q).parent;
        if (stacks_[parent].empty() &&
            cursors_[parent]->NextL() > cur->NextR()) {
          ++stats_.advances;
          PRIX_RETURN_NOT_OK(cur->Advance());
          continue;
        }
      }
      PRIX_RETURN_NOT_OK(cur->EnsureElement());
      const ElementPos elem = cur->Current();
      ++stats_.elements_processed;
      uint32_t parent = twig_.node(q).parent;
      if (q != twig_.root()) CleanStack(parent, elem.BeginKey());
      if (q == twig_.root() || !stacks_[parent].empty()) {
        CleanStack(q, elem.BeginKey());
        if (!twig_.node(q).children.empty()) {
          int parent_top = q == twig_.root()
                               ? -1
                               : static_cast<int>(stacks_[parent].size()) - 1;
          stacks_[q].push_back(StackEntry{elem, parent_top});
        } else {
          ExpandPathSolutions(q, elem);
        }
      }
      ++stats_.advances;
      PRIX_RETURN_NOT_OK(cur->Advance());
    }
    // Merge post-processing.
    std::vector<PathSolutionSet> sets;
    sets.reserve(paths_.size());
    for (auto& [leaf, set] : paths_) sets.push_back(std::move(set));
    result->matches = MergePathSolutions(twig_, sets, &stats_.join_rows);
    for (const TwigMatch& m : result->matches) result->docs.push_back(m.doc);
    std::sort(result->docs.begin(), result->docs.end());
    result->docs.erase(
        std::unique(result->docs.begin(), result->docs.end()),
        result->docs.end());
    if (forest_ != nullptr) {
      for (const auto& xb : xb_) {
        if (xb != nullptr) stats_.drilldowns += xb->drilldowns();
      }
    }
    result->stats = stats_;
    return Status::OK();
  }

 private:
  static const XbTree& empty_tree() {
    static const XbTree* kEmpty = [] {
      auto tree = XbTree::Build(nullptr, nullptr);
      PRIX_CHECK(tree.ok());
      return tree.ValueOrDie().release();
    }();
    return *kEmpty;
  }

  void CollectPaths(uint32_t q, std::vector<uint32_t>& chain) {
    chain.push_back(q);
    if (twig_.node(q).children.empty()) {
      paths_.emplace_back(q, PathSolutionSet{chain, {}});
    } else {
      for (uint32_t c : twig_.node(q).children) CollectPaths(c, chain);
    }
    chain.pop_back();
  }

  bool IsLeaf(uint32_t q) const { return twig_.node(q).children.empty(); }

  bool SubtreeEnded(uint32_t q) const {
    if (IsLeaf(q)) return cursors_[q]->Eof();
    for (uint32_t c : twig_.node(q).children) {
      if (!SubtreeEnded(c)) return false;
    }
    return true;
  }

  /// getNext of Bruno et al., with exhausted subtrees excluded so a live
  /// branch can still extend previously collected path solutions.
  Result<uint32_t> GetNext(uint32_t q) {
    if (IsLeaf(q)) return q;
    uint32_t nmin = q, nmax = q;
    uint64_t lmin = kInfiniteKey, lmax = 0;
    bool any_live = false;
    for (uint32_t c : twig_.node(q).children) {
      if (SubtreeEnded(c)) continue;
      PRIX_ASSIGN_OR_RETURN(uint32_t nc, GetNext(c));
      if (nc != c) return nc;
      any_live = true;
      uint64_t l = cursors_[c]->NextL();
      if (l < lmin) {
        lmin = l;
        nmin = c;
      }
      if (l >= lmax) {
        lmax = l;
        nmax = c;
      }
    }
    if (!any_live) return q;
    while (!cursors_[q]->Eof() &&
           cursors_[q]->NextR() < cursors_[nmax]->NextL()) {
      ++stats_.advances;
      PRIX_RETURN_NOT_OK(cursors_[q]->Advance());
    }
    if (cursors_[q]->NextL() < cursors_[nmin]->NextL()) return q;
    return nmin;
  }

  void CleanStack(uint32_t q, uint64_t begin_key) {
    auto& stack = stacks_[q];
    while (!stack.empty() && stack.back().elem.EndKey() < begin_key) {
      stack.pop_back();
    }
  }

  void ExpandPathSolutions(uint32_t leaf, const ElementPos& elem) {
    PathSolutionSet* set = nullptr;
    for (auto& [l, s] : paths_) {
      if (l == leaf) {
        set = &s;
        break;
      }
    }
    PRIX_CHECK(set != nullptr);
    const std::vector<uint32_t>& path = set->path;
    std::vector<ElementPos> partial(path.size());
    partial.back() = elem;
    uint32_t parent = twig_.node(leaf).parent;
    int bound = parent == TwigPattern::kNoParent
                    ? -1
                    : static_cast<int>(stacks_[parent].size()) - 1;
    if (path.size() == 1) {
      // Single-node query path: the leaf is the root.
      if (AnchorOk(twig_.root_anchor(), elem)) {
        set->solutions.push_back(partial);
        ++stats_.path_solutions;
      }
      return;
    }
    Expand(path, static_cast<int>(path.size()) - 2, bound, partial, set);
  }

  void Expand(const std::vector<uint32_t>& path, int idx, int bound,
              std::vector<ElementPos>& partial, PathSolutionSet* set) {
    if (idx < 0) {
      if (!AnchorOk(twig_.root_anchor(), partial[0])) return;
      set->solutions.push_back(partial);
      ++stats_.path_solutions;
      return;
    }
    uint32_t node = path[idx];
    const EdgeSpec edge = twig_.node(path[idx + 1]).edge;
    for (int j = 0; j <= bound; ++j) {
      const StackEntry& entry = stacks_[node][j];
      if (!EdgeOk(edge, entry.elem, partial[idx + 1])) continue;
      partial[idx] = entry.elem;
      Expand(path, idx - 1, entry.parent_top, partial, set);
    }
  }

  const StreamStore* store_;
  const XbForest* forest_;
  const EffectiveTwig& twig_;
  std::vector<TagCursor*> cursors_;
  std::vector<std::unique_ptr<SimpleTagCursor>> simple_;
  std::vector<std::unique_ptr<XbCursor>> xb_;
  std::vector<std::vector<StackEntry>> stacks_;
  std::vector<std::pair<uint32_t, PathSolutionSet>> paths_;
  TwigStackStats stats_;
};

Result<TwigStackResult> TwigStackEngine::Execute(const TwigPattern& pattern) {
  if (pattern.empty()) return Status::InvalidArgument("empty twig pattern");
  EffectiveTwig twig = EffectiveTwig::Build(pattern);
  for (uint32_t q = 0; q < twig.num_nodes(); ++q) {
    if (twig.is_star(q)) {
      return Status::NotImplemented(
          "TwigStack baseline does not stream '*' name tests");
    }
  }
  Run run(store_, forest_, twig);
  PRIX_RETURN_NOT_OK(run.Init());
  TwigStackResult result;
  PRIX_RETURN_NOT_OK(run.Execute(&result));
  return result;
}

}  // namespace prix
