#include "prix/subsequence_matcher.h"

#include <cstring>

#include "common/deadline.h"
#include "common/macros.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PRIX_GAP_PRUNE_X86 1
#endif

namespace prix {

namespace {

/// Hoists the per-rule decision to a strict unsigned threshold: prune iff
/// gap > threshold, or unconditionally (kAncestor with bound 0). All three
/// rules reduce exactly (unsigned arithmetic throughout):
///   kSameParent: gap > bound
///   kChildEdge:  gap > bound + 1       (same wrap as the scalar expression)
///   kAncestor:   gap >= bound  <=>  bound == 0 ? always : gap > bound - 1
struct PruneThreshold {
  uint32_t gt = 0;
  bool always = false;
};

PruneThreshold HoistRule(GapPruneRule::Kind kind, uint32_t bound) {
  PruneThreshold t;
  switch (kind) {
    case GapPruneRule::kSameParent:
      t.gt = bound;
      break;
    case GapPruneRule::kChildEdge:
      t.gt = bound + 1;
      break;
    case GapPruneRule::kAncestor:
      if (bound == 0) {
        t.always = true;
      } else {
        t.gt = bound - 1;
      }
      break;
    case GapPruneRule::kNone:
      break;
  }
  return t;
}

inline uint8_t KeepOneScalar(uint32_t level, uint32_t prev, PruneThreshold t,
                             bool generalized) {
  if (generalized && level == prev) return 1;
  uint32_t gap = level - prev;
  bool prune = t.always || gap > t.gt;
  return prune ? 0 : 1;
}

}  // namespace

void GapPruneMaskScalar(const uint32_t* levels, size_t n, uint32_t prev_level,
                        uint32_t bound, GapPruneRule::Kind kind,
                        bool generalized, uint8_t* keep) {
  if (n == 0) return;  // empty batches may carry null data pointers
  if (kind == GapPruneRule::kNone) {
    std::memset(keep, 1, n);
    return;
  }
  PruneThreshold t = HoistRule(kind, bound);
  for (size_t j = 0; j < n; ++j) {
    keep[j] = KeepOneScalar(levels[j], prev_level, t, generalized);
  }
}

#ifdef PRIX_GAP_PRUNE_X86

namespace {

/// Vector body shared by both widths: unsigned gap > threshold via the
/// sign-bias trick (x >u y  <=>  (x ^ 0x80000000) >s (y ^ 0x80000000)),
/// keep = ~prune | (generalized & level == prev). Lane results become one
/// byte each via movemask.
__attribute__((target("avx2"))) void GapPruneMaskAvx2(
    const uint32_t* levels, size_t n, uint32_t prev_level, uint32_t bound,
    GapPruneRule::Kind kind, bool generalized, uint8_t* keep) {
  if (n == 0) return;
  if (kind == GapPruneRule::kNone) {
    std::memset(keep, 1, n);
    return;
  }
  PruneThreshold t = HoistRule(kind, bound);
  const __m256i vprev = _mm256_set1_epi32(static_cast<int>(prev_level));
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i vthresh =
      _mm256_set1_epi32(static_cast<int>(t.gt ^ 0x80000000u));
  const __m256i ones = _mm256_set1_epi32(-1);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256i lv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(levels + j));
    __m256i gap = _mm256_sub_epi32(lv, vprev);
    __m256i prune =
        t.always ? ones
                 : _mm256_cmpgt_epi32(_mm256_xor_si256(gap, bias), vthresh);
    __m256i keep_mask = _mm256_xor_si256(prune, ones);
    if (generalized) {
      keep_mask =
          _mm256_or_si256(keep_mask, _mm256_cmpeq_epi32(lv, vprev));
    }
    int bits = _mm256_movemask_ps(_mm256_castsi256_ps(keep_mask));
    for (int k = 0; k < 8; ++k) {
      keep[j + k] = static_cast<uint8_t>((bits >> k) & 1);
    }
  }
  for (; j < n; ++j) {
    keep[j] = KeepOneScalar(levels[j], prev_level, t, generalized);
  }
}

/// SSE2 is part of the x86-64 baseline, so this needs no target attribute
/// or cpuid check — it is the floor when AVX2 is absent.
void GapPruneMaskSse2(const uint32_t* levels, size_t n, uint32_t prev_level,
                      uint32_t bound, GapPruneRule::Kind kind,
                      bool generalized, uint8_t* keep) {
  if (n == 0) return;
  if (kind == GapPruneRule::kNone) {
    std::memset(keep, 1, n);
    return;
  }
  PruneThreshold t = HoistRule(kind, bound);
  const __m128i vprev = _mm_set1_epi32(static_cast<int>(prev_level));
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i vthresh = _mm_set1_epi32(static_cast<int>(t.gt ^ 0x80000000u));
  const __m128i ones = _mm_set1_epi32(-1);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m128i lv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(levels + j));
    __m128i gap = _mm_sub_epi32(lv, vprev);
    __m128i prune =
        t.always ? ones : _mm_cmpgt_epi32(_mm_xor_si128(gap, bias), vthresh);
    __m128i keep_mask = _mm_xor_si128(prune, ones);
    if (generalized) {
      keep_mask = _mm_or_si128(keep_mask, _mm_cmpeq_epi32(lv, vprev));
    }
    int bits = _mm_movemask_ps(_mm_castsi128_ps(keep_mask));
    for (int k = 0; k < 4; ++k) {
      keep[j + k] = static_cast<uint8_t>((bits >> k) & 1);
    }
  }
  for (; j < n; ++j) {
    keep[j] = KeepOneScalar(levels[j], prev_level, t, generalized);
  }
}

}  // namespace

#endif  // PRIX_GAP_PRUNE_X86

namespace {

using GapPruneFn = void (*)(const uint32_t*, size_t, uint32_t, uint32_t,
                            GapPruneRule::Kind, bool, uint8_t*);

GapPruneFn ChooseGapPrune() {
#ifdef PRIX_GAP_PRUNE_X86
  if (__builtin_cpu_supports("avx2")) return GapPruneMaskAvx2;
  return GapPruneMaskSse2;
#else
  return GapPruneMaskScalar;
#endif
}

/// One-time dispatch, same pattern as crc32c: the choice is made on first
/// use and cached in a function-local static.
GapPruneFn GapPruneImpl() {
  static const GapPruneFn impl = ChooseGapPrune();
  return impl;
}

}  // namespace

void GapPruneMask(const uint32_t* levels, size_t n, uint32_t prev_level,
                  uint32_t bound, GapPruneRule::Kind kind, bool generalized,
                  uint8_t* keep) {
  GapPruneImpl()(levels, n, prev_level, bound, kind, generalized, keep);
}

bool GapPruneUsingSimd() { return GapPruneImpl() != &GapPruneMaskScalar; }

namespace {
/// Range-scan entries are gathered into structure-of-arrays batches of this
/// many nodes, pruned with one GapPruneMask call, then recursed on. Large
/// enough to amortize the kernel dispatch, small enough that the per-level
/// scratch (~5 KB) stays cache-resident across the recursion.
constexpr size_t kScanBatch = 256;
}  // namespace

/// One query depth's Trie-Symbol cursor, anchor cursor and scan batch. A
/// depth's range queries run one after another (deeper ones run while its
/// batch is recursed on), so each depth reuses one of each.
struct SubsequenceMatcher::Depth {
  explicit Depth(const PrixIndex::SymbolTree& tree)
      : cursor(tree), anchor_cursor(tree) {}

  /// Sets `*reachable` to whether the Trie-Symbol index holds an
  /// `anchor_label` node whose LeftPos lies in [lo, hi]. Within one scan the
  /// kept nodes' lower bounds rise, so the cursor only moves forward: it
  /// re-seeks when its entry lies below `lo` (or `lo` fell below the bound
  /// it was sought for, in a later scan nested in an earlier one) and
  /// answers in O(1) otherwise.
  Status AnchorReachable(uint64_t lo, uint64_t hi, bool* reachable) {
    auto in_label = [this] {
      return anchor_cursor.Valid() &&
             anchor_cursor.key().label == anchor_label;
    };
    if (lo < anchor_lo || (in_label() && anchor_cursor.key().left < lo)) {
      PRIX_RETURN_NOT_OK(anchor_cursor.Reseek(SymbolKey{anchor_label, 0, lo}));
      anchor_lo = lo;
    }
    *reachable = in_label() && anchor_cursor.key().left <= hi;
    return Status::OK();
  }

  PrixIndex::SymbolTree::Iterator cursor;
  /// Sits at the first entry >= (anchor_label, anchor_lo); anchor_lo is
  /// UINT64_MAX until the first seek. kInvalidLabel: the depth has no anchor.
  PrixIndex::SymbolTree::Iterator anchor_cursor;
  LabelId anchor_label = kInvalidLabel;
  uint64_t anchor_lo = UINT64_MAX;
  uint64_t lefts[kScanBatch];
  uint64_t rights[kScanBatch];
  uint32_t levels[kScanBatch];
  uint8_t keep[kScanBatch];
};

/// Everything one FindAll run reuses across its range queries.
struct SubsequenceMatcher::Scratch {
  std::vector<Depth> depths;  ///< sized once, before the descent starts
  PrixIndex::DocTree::Iterator doc_cursor;
  std::vector<DocId> docs;
  std::vector<uint32_t> positions;
};

Status SubsequenceMatcher::FindAll(const QuerySequence& q, const EmitFn& emit,
                                   MatcherStats* stats) {
  if (q.lps.empty()) {
    return Status::InvalidArgument(
        "subsequence matching needs a non-empty query sequence");
  }
  Scratch scratch;
  // Descend holds a reference to its depth's entry across deeper calls,
  // so the vector must never grow once the descent starts.
  scratch.depths.reserve(q.lps.size());
  for (size_t i = 0; i < q.lps.size(); ++i) {
    scratch.depths.emplace_back(index_->symbol_index());
  }
  // Depth i's anchor is the nearest value position a >= i + 2; at
  // a = i + 1 the next range query is already that probe.
  for (size_t i = q.lps.size(), a = 0; i-- > 0;) {
    if (i + 2 < q.lps.size() && q.is_value[i + 2]) a = i + 2;
    if (a != 0) scratch.depths[i].anchor_label = q.lps[a];
  }
  scratch.doc_cursor = PrixIndex::DocTree::Iterator(index_->docid_index());
  scratch.positions.reserve(q.lps.size());
  RangeLabel root = index_->root_range();
  return Descend(q, 0, root.left, root.right, &scratch, emit, stats);
}

Status SubsequenceMatcher::Descend(const QuerySequence& q, size_t i,
                                   uint64_t ql, uint64_t qr, Scratch* scratch,
                                   const EmitFn& emit, MatcherStats* stats) {
  // Range query on the Trie-Symbol index: all trie nodes labeled q.lps[i]
  // whose LeftPos lies in (ql, qr] — i.e. descendants of the current node.
  LabelId label = q.lps[i];
  ++stats->range_queries;
  // Match-loop deadline checkpoint: once per range descent, so cancellation
  // latency is bounded by one batch scan even when every page is cached and
  // the buffer-pool miss checkpoint never fires.
  PRIX_RETURN_NOT_OK(CheckDeadline());
  // Exact queries scan the open interval (ql, qr]; generalized queries
  // include ql itself so a slot may repeat its predecessor's position.
  uint64_t start = generalized_ && i > 0 ? ql : ql + 1;
  Depth& depth = scratch->depths[i];
  auto& it = depth.cursor;
  PRIX_RETURN_NOT_OK(it.Reseek(SymbolKey{label, 0, start}));
  // Optimized subsequence matching (Sec. 5.4): gap between adjacent matched
  // levels bounded by the MaxGap of the previous label. The rule and bound
  // are fixed for the whole scan, so they are hoisted out and the per-node
  // decisions batched through the (possibly SIMD) prune kernel.
  const bool prune_active =
      use_maxgap_ && i > 0 && q.prune[i].kind != GapPruneRule::kNone;
  const uint32_t bound =
      prune_active ? index_->maxgap().Get(q.prune[i].label) : 0;
  std::vector<uint32_t>& positions = scratch->positions;
  bool exhausted = false;
  while (!exhausted) {
    size_t n = 0;
    while (n < kScanBatch) {
      if (!it.Valid()) {
        exhausted = true;
        break;
      }
      const SymbolKey key = it.key();
      if (key.label != label || key.left > qr) {
        exhausted = true;
        break;
      }
      const TrieNodeValue node = it.value();
      depth.lefts[n] = key.left;
      depth.rights[n] = node.right;
      depth.levels[n] = node.level;
      ++n;
      PRIX_RETURN_NOT_OK(it.Next());
    }
    stats->nodes_scanned += n;
    std::memset(depth.keep, 1, n);
    if (prune_active && n > 0) {
      GapPruneMask(depth.levels, n, positions.back(), bound, q.prune[i].kind,
                   generalized_, depth.keep);
      for (size_t j = 0; j < n; ++j) {
        if (depth.keep[j] == 0) ++stats->pruned_by_maxgap;
      }
    }
    for (size_t j = 0; j < n; ++j) {
      if (depth.keep[j] == 0) continue;
      if (depth.anchor_label != kInvalidLabel) {
        // Later positions lie in this node's subtree, scanned with the same
        // interval convention as the range query above.
        bool reachable = false;
        PRIX_RETURN_NOT_OK(depth.AnchorReachable(
            generalized_ ? depth.lefts[j] : depth.lefts[j] + 1,
            depth.rights[j], &reachable));
        if (!reachable) {
          ++stats->pruned_by_anchor;
          continue;
        }
      }
      positions.push_back(depth.levels[j]);
      if (i + 1 == q.lps.size()) {
        // Terminal: fetch all documents whose LPS ends in [left, right].
        std::vector<DocId>& docs = scratch->docs;
        auto& dit = scratch->doc_cursor;
        docs.clear();
        PRIX_RETURN_NOT_OK(dit.Reseek(DocKey{depth.lefts[j], 0, 0}));
        while (dit.Valid() && dit.key().left <= depth.rights[j]) {
          // Tombstoned documents keep their Docid-index entries until a
          // compaction; they must never reach refinement.
          if (!index_->IsDeleted(dit.value())) docs.push_back(dit.value());
          PRIX_RETURN_NOT_OK(dit.Next());
        }
        if (!docs.empty()) {
          ++stats->occurrences;
          PRIX_RETURN_NOT_OK(emit(docs, positions));
        }
      } else {
        PRIX_RETURN_NOT_OK(Descend(q, i + 1, depth.lefts[j], depth.rights[j],
                                   scratch, emit, stats));
      }
      positions.pop_back();
    }
  }
  return Status::OK();
}

}  // namespace prix
