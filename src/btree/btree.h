#ifndef PRIX_BTREE_BTREE_H_
#define PRIX_BTREE_BTREE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/varint.h"
#include "storage/buffer_pool.h"
#include "storage/cow.h"
#include "storage/page_format.h"

namespace prix {

/// Counters from one WalkReachable scrub/salvage pass.
struct BtreeScrubStats {
  uint64_t nodes_visited = 0;
  uint64_t entries_seen = 0;
  uint64_t subtrees_skipped = 0;  ///< unreadable/invalid subtrees not walked
};

/// Counters from one index salvage pass (PrixIndex/VistIndex::Salvage):
/// what made it into the rebuilt index versus what the corruption took.
struct SalvageStats {
  uint64_t entries_recovered = 0;  ///< B+-tree entries carried over
  uint64_t entries_dropped = 0;    ///< duplicates a corrupt tree yielded
  uint64_t subtrees_skipped = 0;   ///< poisoned subtrees not walked
  uint64_t records_recovered = 0;  ///< document/sequence records copied
  uint64_t records_lost = 0;       ///< records replaced by placeholders
};

/// Disk-based B+-tree over the buffer pool, templated on trivially copyable
/// key/value types. This is the index structure behind PRIX's Trie-Symbol and
/// Docid indexes and ViST's D-Ancestorship index (the paper used GiST
/// B+-trees, Sec. 6).
///
/// - Keys are unique; callers needing duplicates append a sequence number to
///   the key (all in-tree composite keys do this).
/// - `Compare` is a strict weak order over Key.
/// - Supported operations: BulkLoad (builds), Insert, Get, Delete (with
///   empty-node unlinking — freed pages are reported to the CowContext when
///   one is installed), ordered iteration via Iterator with Seek/Next, and
///   repositioning a reused Iterator with Reseek.
///
/// Concurrency (DESIGN.md §5c/§5i): the read paths — Get, Seek,
/// SeekToFirst, and Iterator traversal and Reseek (each Iterator used by
/// one thread) — are safe from any number of threads over a thread-safe
/// BufferPool. They hold page pins frame by frame via PageGuard, keep no
/// shared mutable state (the cached `meta_` is written only by
/// Create/BulkLoad/Open/Insert/Delete), and never write page payloads. Insert/Delete/Create are NOT safe against concurrent
/// writers on the same tree (one writer at a time). Readers may run
/// concurrently with a writer ONLY under the copy-on-write protocol: the
/// writer installs a CowContext (SetCow) so every mutation lands on pages
/// no committed generation can reach, while readers traverse from the root
/// recorded in the generation their snapshot pins. Without a CowContext
/// (bulk builds) the single-writer rule of old applies: the build must
/// finish before readers start.
///
/// Corruption defense (DESIGN.md §5g): the page trailer CRC catches bytes
/// the disk changed; the checks here catch bytes that are internally
/// inconsistent anyway (a stale page a misdirected write put in the wrong
/// place still has a valid CRC). Every node fetched is validated by
/// CheckNode — magic, leaf flag/format/level coherence, entry count,
/// payload length and restart offsets within the page — and descents track
/// the expected level, so a corrupt child pointer that jumps across levels
/// (or into a cycle) fails in at most `height` steps. Leaf decoding is
/// bounds-checked against the end of the current restart group, each group
/// must decode to whole entries in ascending key order; any mismatch is a
/// Corruption status, never an overread.
///
/// Node layout (within the kPageUsable payload; the page trailer is the
/// storage layer's):
///   bytes 0..1  : node magic (0xb7e3)
///   byte 2      : is_leaf flag
///   byte 3      : level (leaves are 0, root is height-1)
///   bytes 4..5  : entry count (uint16)
///   byte 6      : node format: 1 on leaves (delta-coded), 0 on internal nodes
///   byte 7      : reserved
///   bytes 8..11 : leaf: next-leaf PageId; internal: leftmost child PageId
///   bytes 12..13: leaf: entry-stream byte length P (uint16); internal: 0
///   bytes 14..15: leaf: restart count R (uint16); internal: 0
///   bytes 16..  : entries
///
/// Internal entries are fixed (Key, PageId child) pairs where child holds
/// keys >= Key, so descents binary-search them in place.
///
/// Leaf entries (DESIGN.md §5h) are delta-coded. Each (Key, Value) is
/// viewed as kEntryWords little-endian uint64 words (key words then value
/// words, zero-padded); each word is stored as the zig-zag LEB128 varint of
/// its delta versus the same word of the previous entry. The P-byte stream
/// is cut into restart groups of at most kRestartInterval entries; the
/// first entry of a group deltas against zero, and R uint16 stream offsets
/// of those restart entries follow the stream (the first is always 0).
/// Get and Seek binary-search the restart keys and decode at most two
/// groups; an iterator decodes one group at a time, in place, re-fetching
/// its leaf to enter the next group. Sorted
/// composite keys make the deltas tiny, so a leaf holds several times the
/// entries of a fixed-stride one; the entry count is bounded only by the
/// encoding fitting the page.
///
/// Insert and Delete decode and re-encode only the restart group the key
/// falls in (an insert lets a group grow to kMaxGroup entries, then splits
/// it); the later groups restart against zero, so their bytes only move.
/// BulkLoad and Insert fill a leaf only up to kLeafInsertLimit — one
/// max-size entry of headroom below the page capacity — and past it Insert
/// re-encodes the whole leaf and splits it at the encoded-byte midpoint.
/// Removing an entry can grow its group's encoding only by re-coding its
/// successor (against a farther predecessor, or against zero when the
/// removed entry was a restart), which is strictly less than one max-size
/// entry: the headroom guarantees the delete path re-encodes in place.
template <typename Key, typename Value, typename Compare = std::less<Key>>
class BPlusTree {
  static_assert(std::is_trivially_copyable_v<Key>);
  static_assert(std::is_trivially_copyable_v<Value>);

 public:
  /// One (key, value) pair: what BulkLoad takes and a decoded leaf holds.
  struct Entry {
    Key key;
    Value value;
  };

  static constexpr uint32_t kMetaMagic = 0xb7ee3e7au;

  /// Persistent tree metadata, kept in the tree's meta page.
  struct Meta {
    uint32_t magic = kMetaMagic;
    PageId root = kInvalidPage;
    uint64_t num_entries = 0;
    uint32_t height = 0;
  };

  BPlusTree() = default;
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) = default;
  BPlusTree& operator=(BPlusTree&&) = default;

  /// Creates an empty tree: allocates a meta page and an empty root leaf.
  /// A non-null `cow` registers the new pages as transaction-fresh (trees
  /// created inside a write transaction).
  static Result<BPlusTree> Create(BufferPool* pool, Compare cmp = Compare(),
                                  CowContext* cow = nullptr) {
    BPlusTree tree;
    tree.pool_ = pool;
    tree.cmp_ = cmp;
    tree.cow_ = cow;
    PRIX_RETURN_NOT_OK(tree.AllocMeta());
    PRIX_ASSIGN_OR_RETURN(Page * root, tree.AllocNode());
    InitNode(root, /*is_leaf=*/true, /*level=*/0);
    tree.meta_.root = root->page_id();
    tree.meta_.height = 1;
    pool->UnpinPage(root->page_id(), /*dirty=*/true);
    PRIX_RETURN_NOT_OK(tree.SaveMeta());
    return tree;
  }

  /// Builds a tree over `entries`, which must be in strictly ascending key
  /// order (InvalidArgument otherwise). Each leaf is encoded once, filled
  /// up to kLeafInsertLimit, and the leaves are allocated in key order;
  /// internal levels are packed above them with children spread evenly.
  /// A build-time operation: no CowContext is involved.
  static Result<BPlusTree> BulkLoad(BufferPool* pool,
                                    const std::vector<Entry>& entries,
                                    Compare cmp = Compare()) {
    for (size_t i = 1; i < entries.size(); ++i) {
      if (!cmp(entries[i - 1].key, entries[i].key)) {
        return Status::InvalidArgument(
            "B+-tree bulk load: keys not strictly ascending at entry " +
            std::to_string(i));
      }
    }
    if (entries.empty()) return Create(pool, cmp);
    BPlusTree tree;
    tree.pool_ = pool;
    tree.cmp_ = cmp;
    PRIX_RETURN_NOT_OK(tree.AllocMeta());
    struct Child {
      Key first;
      PageId id;
    };
    std::vector<Child> level;
    PageGuard prev;  // the last leaf, pinned until its successor exists
    LeafImage image;
    for (size_t i = 0; i < entries.size();) {
      const size_t first = i;
      image.Clear();
      while (i < entries.size() &&
             image.Append(entries[i], (i - first) % kRestartInterval == 0,
                          kLeafInsertLimit)) {
        ++i;
      }
      PRIX_ASSIGN_OR_RETURN(Page * leaf, tree.AllocNode());
      PageGuard guard(pool, leaf);
      InitNode(leaf, /*is_leaf=*/true, /*level=*/0);
      WriteLeaf(leaf, image);
      guard.MarkDirty();
      if (prev) SetExtra(prev.get(), leaf->page_id());
      level.push_back(Child{entries[first].key, leaf->page_id()});
      prev = std::move(guard);
    }
    prev.Release();
    uint32_t height = 1;
    const size_t fanout = static_cast<size_t>(kInternalCapacity) + 1;
    while (level.size() > 1) {
      const size_t nodes = (level.size() + fanout - 1) / fanout;
      std::vector<Child> up;
      up.reserve(nodes);
      for (size_t k = 0, begin = 0; k < nodes; ++k) {
        const size_t end = level.size() * (k + 1) / nodes;
        PRIX_ASSIGN_OR_RETURN(Page * node, tree.AllocNode());
        InitNode(node, /*is_leaf=*/false, height);
        SetExtra(node, level[begin].id);
        SetCount(node, static_cast<int>(end - begin - 1));
        for (size_t j = begin + 1; j < end; ++j) {
          WriteInternalEntry(node, static_cast<int>(j - begin - 1),
                             level[j].first, level[j].id);
        }
        up.push_back(Child{level[begin].first, node->page_id()});
        pool->UnpinPage(node->page_id(), /*dirty=*/true);
        begin = end;
      }
      level = std::move(up);
      ++height;
    }
    tree.meta_.root = level.front().id;
    tree.meta_.height = height;
    tree.meta_.num_entries = entries.size();
    PRIX_RETURN_NOT_OK(tree.SaveMeta());
    return tree;
  }

  /// Opens an existing tree whose meta page is `meta_page_id`.
  static Result<BPlusTree> Open(BufferPool* pool, PageId meta_page_id,
                                Compare cmp = Compare()) {
    BPlusTree tree;
    tree.pool_ = pool;
    tree.cmp_ = cmp;
    tree.meta_page_id_ = meta_page_id;
    PRIX_ASSIGN_OR_RETURN(Page * meta_page, pool->FetchPage(meta_page_id));
    {
      PageGuard guard(pool, meta_page);
      std::memcpy(&tree.meta_, meta_page->data(), sizeof(Meta));
    }
    if (tree.meta_.magic != kMetaMagic) {
      return Status::Corruption("B+-tree meta page " +
                                std::to_string(meta_page_id) +
                                ": bad magic (not a B+-tree meta page)");
    }
    if (tree.meta_.root == kInvalidPage || tree.meta_.height == 0) {
      return Status::Corruption("B+-tree meta page " +
                                std::to_string(meta_page_id) + " has no root");
    }
    return tree;
  }

  PageId meta_page_id() const { return meta_page_id_; }
  uint64_t num_entries() const { return meta_.num_entries; }
  uint32_t height() const { return meta_.height; }

  /// Installs (or, with nullptr, removes) the copy-on-write context. With a
  /// context set, every mutation copies committed pages aside first and the
  /// meta page id CHANGES on the first SaveMeta of the transaction — the
  /// caller must re-record meta_page_id() when it publishes new roots.
  void SetCow(CowContext* cow) { cow_ = cow; }

  /// Inserts (key, value). Fails with AlreadyExists on duplicate key.
  Status Insert(const Key& key, const Value& value) {
    SplitResult split;
    PageId new_root = meta_.root;
    PRIX_RETURN_NOT_OK(InsertRecursive(meta_.root,
                                       static_cast<int>(meta_.height) - 1,
                                       key, value, &split, &new_root));
    meta_.root = new_root;
    if (split.happened) {
      // Grow a new root: children are the old root and the split sibling.
      PRIX_ASSIGN_OR_RETURN(Page * new_root_page, AllocNode());
      InitNode(new_root_page, /*is_leaf=*/false, /*level=*/meta_.height);
      SetExtra(new_root_page, meta_.root);
      SetCount(new_root_page, 1);
      WriteInternalEntry(new_root_page, 0, split.separator, split.right);
      meta_.root = new_root_page->page_id();
      ++meta_.height;
      pool_->UnpinPage(new_root_page->page_id(), /*dirty=*/true);
    }
    ++meta_.num_entries;
    return SaveMeta();
  }

  /// Point lookup. Returns NotFound if absent. The leaf visit decodes at
  /// most two restart groups.
  /// Node-visit charges are batched per descent (one TLS access at the
  /// leaf); a fetch error loses that descent's node count, never its I/O.
  Result<Value> Get(const Key& key) const {
    PageId node = meta_.root;
    int level = static_cast<int>(meta_.height) - 1;
    uint64_t visited = 0;
    while (true) {
      PRIX_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(node));
      ++visited;
      PageGuard guard(pool_, page);
      PRIX_RETURN_NOT_OK(CheckNode(page, node, level));
      if (IsLeaf(page)) {
        ChargeBtreeNodes(visited);
        PRIX_ASSIGN_OR_RETURN(size_t group, FindGroup(page, node, key));
        LeafCursor c;
        c.next = group;
        PRIX_RETURN_NOT_OK(NextGroup(page, node, &c));
        PRIX_RETURN_NOT_OK(SkipBelow(page, node, &c, &key));
        if (c.valid() && !cmp_(key, c.cur().key)) return c.cur().value;
        return Status::NotFound("key not in tree");
      }
      node = ChildForKey(page, key);
      --level;
    }
  }

  /// Removes `key`. Returns NotFound if absent — checked before any page is
  /// mutated or copied, so a NotFound delete leaves no trace. A leaf that
  /// becomes empty is unlinked from its parent and its page freed (into the
  /// CowContext when one is installed), cascading up through internal nodes
  /// that lose their last child; the root collapses when it is an internal
  /// node with a single remaining child. An empty tree keeps one empty root
  /// leaf, exactly as Create made it — iteration relies on no OTHER leaf
  /// ever being empty.
  Status Delete(const Key& key) {
    PageId new_root = meta_.root;
    bool freed = false;
    PRIX_RETURN_NOT_OK(DeleteRecursive(meta_.root,
                                       static_cast<int>(meta_.height) - 1,
                                       /*is_root=*/true, key, &new_root,
                                       &freed));
    meta_.root = new_root;
    if (freed) {
      // The whole tree emptied: recreate the empty root leaf.
      PRIX_ASSIGN_OR_RETURN(Page * root, AllocNode());
      InitNode(root, /*is_leaf=*/true, /*level=*/0);
      meta_.root = root->page_id();
      meta_.height = 1;
      pool_->UnpinPage(root->page_id(), /*dirty=*/true);
    } else {
      PRIX_RETURN_NOT_OK(CollapseRoot());
    }
    --meta_.num_entries;
    return SaveMeta();
  }

 private:
  /// Entries per restart group as built; an insert lets a group grow to
  /// kMaxGroup before splitting it. Get and Seek decode at most two groups.
  static constexpr size_t kRestartInterval = 16;
  static constexpr size_t kMaxGroup = 2 * kRestartInterval;

  /// Forward decoder over one leaf, a restart group at a time: `group`
  /// holds restart group `next - 1` decoded. The cursor keeps no pointer
  /// into the page; every call that decodes takes the leaf, pinned by the
  /// caller, so a cursor outlives the pin it decoded under.
  struct LeafCursor {
    size_t next = 0;    ///< the restart group NextGroup decodes
    size_t groups = 0;  ///< restart groups in the leaf, as last decoded
    Entry group[kMaxGroup];  ///< the decoded current group
    size_t len = 0;  ///< entries in `group`
    size_t idx = 0;  ///< current entry; valid while idx < len

    bool valid() const { return idx < len; }
    const Entry& cur() const { return group[idx]; }
  };

 public:
  /// Forward cursor over (key, value) pairs in key order.
  ///
  /// The cursor keeps the path from the root to its leaf: for each internal
  /// level, the node, the child slot it took, and the separator bounds of
  /// that child. It decodes one restart group of the leaf in place while
  /// the leaf is pinned and drops the pin before returning, so iteration
  /// never holds a pin across user code; entering the leaf's next group
  /// re-fetches the leaf (a pool hit), re-checks it with CheckNode and
  /// decodes that group. When the leaf runs out, the cursor re-fetches the
  /// nearest path node with a child to the right and descends to that
  /// child's leftmost leaf. It does NOT follow the on-page next-leaf chain:
  /// copy-on-write writers leave those pointers stale by design (a
  /// superseded leaf's left neighbor still names the old page). Under the
  /// snapshot protocol every page id on the path stays valid as long as
  /// the reader's snapshot is pinned; no page a concurrent writer touches
  /// is reachable from this cursor's root. Mutating the tree invalidates
  /// its cursors.
  ///
  /// Reseek repositions a cursor without allocating: it re-enters the
  /// current leaf when a root descent would reach that same leaf (the key
  /// lies within the separator bounds recorded on the way down), and
  /// descends from the root otherwise, so it lands exactly where Seek
  /// would. Seek is Reseek on a fresh cursor.
  class Iterator {
   public:
    Iterator() = default;
    /// An unpositioned (invalid) cursor over `tree`; Reseek positions it.
    explicit Iterator(const BPlusTree& tree) : tree_(&tree) {}

    bool Valid() const { return cursor_.valid(); }
    const Key& key() const { return cursor_.cur().key; }
    const Value& value() const { return cursor_.cur().value; }

    /// Advances to the next entry; invalidates at the end.
    Status Next() {
      PRIX_DCHECK(Valid());
      if (++cursor_.idx < cursor_.len) return Status::OK();
      hops_ = 0;
      return Checked(Settle());
    }

    /// Positions at the first entry with key >= `key` (invalid when none).
    Status Reseek(const Key& key) { return Position(&key); }

   private:
    friend class BPlusTree;

    /// One internal node on the path, the child slot taken, and the
    /// bounds that child's keys lie in: lo <= key < hi, each side open when
    /// its flag is clear. The bounds intersect those of every level above,
    /// so a key within them routes to this child from the root.
    struct PathNode {
      PageId id;
      int level;
      int slot;
      int count;  ///< the node's separator count: slots 0..count
      bool has_lo = false;
      bool has_hi = false;
      Key lo{};
      Key hi{};
    };

    /// Positions at the first entry >= *key (the tree's first when null).
    Status Position(const Key* key) {
      hops_ = 0;
      Status st;
      if (key != nullptr && leaf_ != kInvalidPage &&
          (path_.empty() || Covers(path_.back(), *key))) {
        st = Descend(leaf_, 0, key);
      } else {
        path_.clear();
        st = Descend(tree_->meta_.root,
                     static_cast<int>(tree_->meta_.height) - 1, key);
      }
      if (st.ok()) st = Settle();
      return Checked(st);
    }

    /// Leaves a failed cursor invalid and unpositioned.
    Status Checked(Status st) {
      if (!st.ok()) {
        cursor_.len = cursor_.idx = 0;
        leaf_ = kInvalidPage;
        path_.clear();
      }
      return st;
    }

    bool Covers(const PathNode& p, const Key& key) const {
      return (!p.has_lo || !tree_->cmp_(key, p.lo)) &&
             (!p.has_hi || tree_->cmp_(key, p.hi));
    }

    /// Fetches and checks `node`, expected at `level`, into `guard`. A
    /// corrupt child pointer can make the walk re-enter pages the per-node
    /// checks accept (each node is individually valid); an honest
    /// positioning fetches each node at most once, so one positioning's
    /// fetches are bounded by the file size.
    Status Fetch(PageId node, int level, PageGuard* guard) {
      if (++hops_ > tree_->pool_->disk()->num_pages()) {
        return Status::Corruption(
            "B+-tree iteration does not terminate (cycle via page " +
            std::to_string(node) + ")");
      }
      PRIX_ASSIGN_OR_RETURN(Page * page, tree_->pool_->FetchPage(node));
      ChargeBtreeNode();
      *guard = PageGuard(tree_->pool_, page);
      return tree_->CheckNode(page, node, level);
    }

    /// Sets `p`'s child bounds from its node `page` and `parent`'s (null
    /// at the root): the child at slot s holds keys in [sep(s-1), sep(s)).
    void Bound(const Page* page, const PathNode* parent, PathNode* p) const {
      p->has_lo = parent != nullptr && parent->has_lo;
      p->has_hi = parent != nullptr && parent->has_hi;
      if (p->has_lo) p->lo = parent->lo;
      if (p->has_hi) p->hi = parent->hi;
      Key sep;
      PageId child;
      if (p->slot > 0) {
        ReadInternalEntry(page, p->slot - 1, &sep, &child);
        if (!p->has_lo || tree_->cmp_(p->lo, sep)) p->lo = sep;
        p->has_lo = true;
      }
      if (p->slot < p->count) {
        ReadInternalEntry(page, p->slot, &sep, &child);
        if (!p->has_hi || tree_->cmp_(sep, p->hi)) p->hi = sep;
        p->has_hi = true;
      }
    }

    /// Descends from `node` at `level` — the root, or the current leaf
    /// when the path already leads there — recording the path, to the leaf
    /// that holds the first key >= *key (the subtree's leftmost leaf when
    /// null), and positions within that leaf; the cursor is invalid when
    /// the leaf holds no such entry (Settle moves on).
    Status Descend(PageId node, int level, const Key* key) {
      while (true) {
        PageGuard guard;
        PRIX_RETURN_NOT_OK(Fetch(node, level, &guard));
        const Page* page = guard.get();
        if (IsLeaf(page)) {
          size_t group = 0;
          if (key != nullptr) {
            PRIX_ASSIGN_OR_RETURN(group, tree_->FindGroup(page, node, *key));
          }
          // The decoded group is reused when the probe lands in it again.
          if (node != leaf_ || cursor_.len == 0 || cursor_.next != group + 1) {
            cursor_.next = group;
            cursor_.len = 0;
            PRIX_RETURN_NOT_OK(tree_->NextGroup(page, node, &cursor_));
          }
          cursor_.idx = 0;
          leaf_ = node;
          return tree_->SkipBelow(page, node, &cursor_, key);
        }
        PathNode p{node, level, 0, Count(page)};
        if (key != nullptr) p.slot = tree_->ChildSlotForKey(page, *key);
        Bound(page, path_.empty() ? nullptr : &path_.back(), &p);
        path_.push_back(p);
        node = ChildAtSlot(page, p.slot);
        --level;
      }
    }

    /// Moves on from a used-up group: into the leaf's next group, else to
    /// the leftmost leaf right of the path, until an entry or the end.
    Status Settle() {
      while (!cursor_.valid() && leaf_ != kInvalidPage) {
        PageGuard guard;
        if (cursor_.next < cursor_.groups) {
          PRIX_RETURN_NOT_OK(Fetch(leaf_, 0, &guard));
          PRIX_RETURN_NOT_OK(tree_->NextGroup(guard.get(), leaf_, &cursor_));
          continue;
        }
        while (!path_.empty() && path_.back().slot == path_.back().count) {
          path_.pop_back();
        }
        if (path_.empty()) {
          leaf_ = kInvalidPage;
          break;
        }
        PathNode& p = path_.back();
        PRIX_RETURN_NOT_OK(Fetch(p.id, p.level, &guard));
        if (Count(guard.get()) != p.count) {
          return Status::Corruption("B+-tree node page " +
                                    std::to_string(p.id) +
                                    " changed under an iterator");
        }
        ++p.slot;
        const PathNode* parent =
            path_.size() > 1 ? &path_[path_.size() - 2] : nullptr;
        Bound(guard.get(), parent, &p);
        const PageId child = ChildAtSlot(guard.get(), p.slot);
        const int level = p.level - 1;
        guard.Release();
        PRIX_RETURN_NOT_OK(Descend(child, level, nullptr));
      }
      return Status::OK();
    }

    const BPlusTree* tree_ = nullptr;
    LeafCursor cursor_;  ///< position within leaf_
    PageId leaf_ = kInvalidPage;  ///< invalid when unpositioned or at the end
    std::vector<PathNode> path_;  ///< root first; leads to leaf_
    uint64_t hops_ = 0;           ///< node fetches of the current positioning
  };

  /// Iterator positioned at the first entry with key >= `key`.
  Result<Iterator> Seek(const Key& key) const {
    Iterator it(*this);
    PRIX_RETURN_NOT_OK(it.Reseek(key));
    return it;
  }

  /// Iterator positioned at the smallest entry.
  Result<Iterator> SeekToFirst() const {
    Iterator it(*this);
    PRIX_RETURN_NOT_OK(it.Position(/*key=*/nullptr));
    return it;
  }

  /// Structural scrub/salvage walk: visits every node reachable from the
  /// root via internal child pointers (NOT the next-leaf chain, which
  /// corruption can cycle), calling `emit(key, value) -> Status` for each
  /// leaf entry in tree order and `issue(PageId, const Status&,
  /// const std::string& path)` for every unreadable or structurally invalid
  /// node, whose subtree is then skipped rather than aborting the walk. A
  /// visited set makes re-converging (shared or cyclic) child pointers an
  /// issue instead of an infinite walk. Only an `emit` failure (the salvage
  /// destination broke) aborts with its non-OK Status. A leaf whose entry
  /// stream fails to decode is issued and skipped like any other invalid
  /// node.
  template <typename EmitFn, typename IssueFn>
  Status WalkReachable(EmitFn emit, IssueFn issue,
                       BtreeScrubStats* stats) const {
    std::unordered_set<PageId> visited;
    return WalkNode(meta_.root, static_cast<int>(meta_.height) - 1, "root",
                    &visited, emit, issue, stats);
  }

  /// Salvage rebuild: bulk-loads into `pool` every entry WalkReachable
  /// reaches, skipping poisoned subtrees. A corrupt tree can present one
  /// key twice through distinct leaves; the first value seen is kept and
  /// the rest are counted as dropped.
  Result<BPlusTree> SalvageInto(BufferPool* pool, SalvageStats* stats) const {
    std::vector<Entry> entries;
    BtreeScrubStats walk;
    PRIX_RETURN_NOT_OK(WalkReachable(
        [&](const Key& k, const Value& v) {
          entries.push_back(Entry{k, v});
          return Status::OK();
        },
        [](PageId, const Status&, const std::string&) {}, &walk));
    std::stable_sort(entries.begin(), entries.end(),
                     [this](const Entry& a, const Entry& b) {
                       return cmp_(a.key, b.key);
                     });
    auto kept = std::unique(entries.begin(), entries.end(),
                            [this](const Entry& a, const Entry& b) {
                              return !cmp_(a.key, b.key);
                            });
    stats->entries_dropped += static_cast<uint64_t>(entries.end() - kept);
    entries.erase(kept, entries.end());
    stats->entries_recovered += entries.size();
    stats->subtrees_skipped += walk.subtrees_skipped;
    return BulkLoad(pool, entries, cmp_);
  }

  // Exposed for tests.
  static constexpr size_t LeafInsertLimit() { return kLeafInsertLimit; }
  static constexpr size_t RestartInterval() { return kRestartInterval; }

 private:
  static constexpr uint16_t kNodeMagic = 0xb7e3;
  static constexpr size_t kHeaderSize = 16;
  static constexpr size_t kInternalStride = sizeof(Key) + sizeof(PageId);
  static constexpr int kInternalCapacity =
      static_cast<int>((kPageUsable - kHeaderSize) / kInternalStride);
  static_assert(kInternalCapacity >= 4, "key too large for a page");

  // ---- delta-coded leaf format ----
  static constexpr uint8_t kLeafFormat = 1;
  /// Bytes available to the entry stream plus its restart offsets.
  static constexpr size_t kLeafPayloadMax = kPageUsable - kHeaderSize;
  static constexpr size_t kKeyWords = (sizeof(Key) + 7) / 8;
  static constexpr size_t kValueWords = (sizeof(Value) + 7) / 8;
  static constexpr size_t kEntryWords = kKeyWords + kValueWords;
  /// Worst/best case encoded entry size: 10 / 1 byte(s) per word.
  static constexpr size_t kMaxEntryEncoded = kEntryWords * kMaxVarint64Bytes;
  static constexpr size_t kMinEntryEncoded = kEntryWords;
  /// Insert-side fill limit: one max-size entry of headroom below the page
  /// so the delete path (which can only grow the encoding by less than one
  /// max-size entry) always re-encodes in place. See the class comment.
  static constexpr size_t kLeafInsertLimit =
      kLeafPayloadMax - kMaxEntryEncoded;
  static_assert(kLeafInsertLimit >= 4 * (kMaxEntryEncoded + 2),
                "key/value too large for a leaf page");

  struct SplitResult {
    bool happened = false;
    Key separator{};
    PageId right = kInvalidPage;
  };

  // ---- node accessors (memcpy-based to sidestep alignment issues) ----
  static void InitNode(Page* page, bool is_leaf, uint32_t level) {
    std::memset(page->data(), 0, kHeaderSize);
    uint16_t magic = kNodeMagic;
    std::memcpy(page->data(), &magic, sizeof(magic));
    page->data()[2] = is_leaf ? 1 : 0;
    page->data()[3] = static_cast<char>(level);
    page->data()[6] = static_cast<char>(is_leaf ? kLeafFormat : 0);
    PageId invalid = kInvalidPage;
    std::memcpy(page->data() + 8, &invalid, sizeof(PageId));
    SetPageType(page->data(), PageType::kBtreeNode);
  }
  static bool IsLeaf(const Page* page) { return page->data()[2] == 1; }
  static int Level(const Page* page) {
    return static_cast<uint8_t>(page->data()[3]);
  }
  static uint8_t Format(const Page* page) {
    return static_cast<uint8_t>(page->data()[6]);
  }
  static uint16_t U16At(const char* p) {
    uint16_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static void SetU16At(char* p, size_t v) {
    uint16_t u = static_cast<uint16_t>(v);
    std::memcpy(p, &u, sizeof(u));
  }
  static int Count(const Page* page) { return U16At(page->data() + 4); }
  static void SetCount(Page* page, int count) {
    SetU16At(page->data() + 4, static_cast<size_t>(count));
  }
  /// Leaf: next-leaf pointer. Internal: leftmost child.
  static PageId Extra(const Page* page) {
    PageId id;
    std::memcpy(&id, page->data() + 8, sizeof(id));
    return id;
  }
  static void SetExtra(Page* page, PageId id) {
    std::memcpy(page->data() + 8, &id, sizeof(id));
  }
  /// Leaf: entry-stream length P and restart count R.
  static size_t StreamLen(const Page* page) {
    return U16At(page->data() + 12);
  }
  static size_t NumRestarts(const Page* page) {
    return U16At(page->data() + 14);
  }
  static const char* Stream(const Page* page) {
    return page->data() + kHeaderSize;
  }
  /// Stream offset of restart group `r` (r < R; CheckNode validated it).
  static size_t RestartOffset(const Page* page, size_t r) {
    return U16At(Stream(page) + StreamLen(page) + 2 * r);
  }

  /// Structural validation of a just-fetched node: magic, leaf flag/format,
  /// level coherence, and an entry count within capacity — together these
  /// bound every entry offset the accessors below will touch. For a leaf
  /// the stream and its restart array must fit the page, the restart count
  /// must be consistent with the entry count (every group holds 1 to
  /// kMaxGroup entries of at least kMinEntryEncoded bytes), and the
  /// restart offsets must start at 0 and rise strictly within the stream,
  /// which bounds every group a decoder enters. `expected_level` (from the
  /// descent counter; -1 skips the check) catches child pointers that jump
  /// across levels or into a cycle: the counter strictly decreases, so any
  /// descent ends within `height` steps.
  Status CheckNode(const Page* page, PageId id, int expected_level) const {
    uint16_t magic = U16At(page->data());
    // Built only on failure: this runs on every node fetch.
    auto where = [id] { return "B+-tree node page " + std::to_string(id); };
    if (magic != kNodeMagic) {
      return Status::Corruption(where() + ": bad node magic");
    }
    uint8_t leaf_flag = static_cast<uint8_t>(page->data()[2]);
    if (leaf_flag > 1) {
      return Status::Corruption(where() + ": bad leaf flag " +
                                std::to_string(leaf_flag));
    }
    int level = Level(page);
    if ((level == 0) != (leaf_flag == 1)) {
      return Status::Corruption(where() + ": leaf flag " +
                                std::to_string(leaf_flag) +
                                " contradicts level " + std::to_string(level));
    }
    if (expected_level >= 0 && level != expected_level) {
      return Status::Corruption(
          where() + ": level " + std::to_string(level) + " where " +
          std::to_string(expected_level) +
          " was expected (corrupt child pointer?)");
    }
    const size_t count = static_cast<size_t>(Count(page));
    const uint8_t want_format = leaf_flag == 1 ? kLeafFormat : 0;
    if (Format(page) != want_format) {
      return Status::Corruption(
          where() + ": format byte " + std::to_string(Format(page)) + " on " +
          (leaf_flag == 1 ? "a leaf" : "an internal node") + " (expected " +
          std::to_string(want_format) + ")");
    }
    if (leaf_flag == 0) {
      if (count > static_cast<size_t>(kInternalCapacity)) {
        return Status::Corruption(where() + ": entry count " +
                                  std::to_string(count) + " exceeds capacity " +
                                  std::to_string(kInternalCapacity));
      }
      return Status::OK();
    }
    const size_t plen = StreamLen(page);
    const size_t restarts = NumRestarts(page);
    if (plen + 2 * restarts > kLeafPayloadMax) {
      return Status::Corruption(
          where() + ": stream of " + std::to_string(plen) + " bytes and " +
          std::to_string(restarts) + " restarts exceed page capacity " +
          std::to_string(kLeafPayloadMax));
    }
    if (count * kMinEntryEncoded > plen || restarts > count ||
        count > restarts * kMaxGroup) {
      return Status::Corruption(
          where() + ": entry count " + std::to_string(count) +
          " inconsistent with " + std::to_string(plen) + " stream bytes and " +
          std::to_string(restarts) + " restarts");
    }
    for (size_t r = 0, floor = 0; r < restarts; ++r) {
      const size_t off = RestartOffset(page, r);
      if ((r == 0 && off != 0) || off < floor || off >= plen) {
        return Status::Corruption(where() + ": restart " + std::to_string(r) +
                                  " at stream offset " + std::to_string(off) +
                                  " out of order or past the " +
                                  std::to_string(plen) + "-byte stream");
      }
      floor = off + 1;
    }
    return Status::OK();
  }

  static void ReadInternalEntry(const Page* page, int idx, Key* key,
                                PageId* child) {
    const char* base = page->data() + kHeaderSize + idx * kInternalStride;
    std::memcpy(key, base, sizeof(Key));
    std::memcpy(child, base + sizeof(Key), sizeof(PageId));
  }
  static void WriteInternalEntry(Page* page, int idx, const Key& key,
                                 PageId child) {
    char* base = page->data() + kHeaderSize + idx * kInternalStride;
    std::memcpy(base, &key, sizeof(Key));
    std::memcpy(base + sizeof(Key), &child, sizeof(PageId));
  }

  // ---- leaf codec ----
  static void WordsFromEntry(const Entry& e, uint64_t* words) {
    char buf[kEntryWords * 8] = {};
    std::memcpy(buf, &e.key, sizeof(Key));
    std::memcpy(buf + kKeyWords * 8, &e.value, sizeof(Value));
    std::memcpy(words, buf, kEntryWords * 8);
  }
  static Entry EntryFromWords(const uint64_t* words) {
    char buf[kEntryWords * 8];
    std::memcpy(buf, words, kEntryWords * 8);
    Entry e;
    std::memcpy(&e.key, buf, sizeof(Key));
    std::memcpy(&e.value, buf + kKeyWords * 8, sizeof(Value));
    return e;
  }

  /// One leaf's encoding under construction: the entry stream and the
  /// stream offsets of its restart entries.
  struct LeafImage {
    std::vector<char> stream;
    std::vector<uint16_t> restarts;
    uint64_t prev[kEntryWords] = {};
    size_t count = 0;

    size_t bytes() const { return stream.size() + 2 * restarts.size(); }
    void Clear() {
      stream.clear();
      restarts.clear();
      count = 0;
    }
    /// Appends `e`, opening a restart group first when `restart` is set
    /// (always for the first entry). Returns false, leaving the image
    /// unchanged, when the result would exceed `limit` bytes.
    bool Append(const Entry& e, bool restart, size_t limit) {
      restart = restart || count == 0;
      uint64_t words[kEntryWords];
      WordsFromEntry(e, words);
      char buf[kMaxEntryEncoded];
      size_t n = 0;
      for (size_t w = 0; w < kEntryWords; ++w) {
        const uint64_t base = restart ? 0 : prev[w];
        n += EncodeVarint64(
            buf + n, ZigzagEncode64(static_cast<int64_t>(words[w] - base)));
      }
      if (bytes() + n + (restart ? 2 : 0) > limit) return false;
      if (restart) restarts.push_back(static_cast<uint16_t>(stream.size()));
      stream.insert(stream.end(), buf, buf + n);
      std::memcpy(prev, words, sizeof(prev));
      ++count;
      return true;
    }
  };

  /// Encodes `entries` with a restart every kRestartInterval entries.
  static void EncodeLeaf(const Entry* entries, size_t n, LeafImage* out) {
    out->Clear();
    for (size_t i = 0; i < n; ++i) {
      out->Append(entries[i], i % kRestartInterval == 0, SIZE_MAX);
    }
  }

  /// Overwrites a leaf's entry stream and restart array (header fields
  /// other than count/stream length/restart count are preserved).
  static void WriteLeaf(Page* page, const LeafImage& image) {
    PRIX_DCHECK(image.bytes() <= kLeafPayloadMax);
    char* stream = page->data() + kHeaderSize;
    if (!image.stream.empty()) {
      std::memcpy(stream, image.stream.data(), image.stream.size());
    }
    for (size_t r = 0; r < image.restarts.size(); ++r) {
      SetU16At(stream + image.stream.size() + 2 * r, image.restarts[r]);
    }
    SetCount(page, static_cast<int>(image.count));
    SetU16At(page->data() + 12, image.stream.size());
    SetU16At(page->data() + 14, image.restarts.size());
  }

  /// Stream extent [begin, end) of restart group `g` (g < R; CheckNode
  /// validated the offsets); [P, P) when the leaf has no groups.
  static std::pair<size_t, size_t> GroupExtent(const Page* page, size_t g) {
    const size_t plen = StreamLen(page);
    const size_t restarts = NumRestarts(page);
    if (restarts == 0) return {plen, plen};
    return {RestartOffset(page, g),
            g + 1 < restarts ? RestartOffset(page, g + 1) : plen};
  }

  /// Decodes restart group `c->next` of `page` into `c->group` and moves
  /// `c->next` on (an empty group past the last one). The group's varints
  /// are read only up to its end, it must end on an entry boundary and
  /// hold at most kMaxGroup entries, and keys must rise strictly, across
  /// the previous group's last entry too when `c` still holds it.
  Status NextGroup(const Page* page, PageId id, LeafCursor* c) const {
    const bool had_entry = c->len > 0;
    const Key last = had_entry ? c->group[c->len - 1].key : Key{};
    c->len = c->idx = 0;
    c->groups = NumRestarts(page);
    if (c->next >= c->groups) return Status::OK();
    const auto [begin, end] = GroupExtent(page, c->next);
    ++c->next;
    auto corrupt = [&](const char* what) {
      return Status::Corruption("B+-tree leaf page " + std::to_string(id) +
                                ": " + what + " at stream offset " +
                                std::to_string(begin));
    };
    const char* p = Stream(page) + begin;
    const char* group_end = Stream(page) + end;
    uint64_t words[kEntryWords] = {};
    while (p != group_end) {
      if (c->len == kMaxGroup) return corrupt("restart group too long");
      for (size_t w = 0; w < kEntryWords; ++w) {
        uint64_t enc;
        if (p < group_end && static_cast<uint8_t>(*p) < 0x80) {
          enc = static_cast<uint8_t>(*p++);  // one-byte fast path
        } else if (!GetVarint64(&p, group_end, &enc)) {
          return corrupt("undecodable entry");
        }
        words[w] += static_cast<uint64_t>(ZigzagDecode64(enc));
      }
      Entry& e = c->group[c->len];
      e = EntryFromWords(words);
      const Key& prev = c->len > 0 ? c->group[c->len - 1].key : last;
      if ((c->len > 0 || had_entry) && !cmp_(prev, e.key)) {
        return corrupt("keys out of order");
      }
      ++c->len;
    }
    return Status::OK();
  }

  /// Moves `c` to the first entry, from its current one on, with key >=
  /// `*key` (any key when null), decoding the later groups of `page` as
  /// needed; past the end of the leaf `c->valid()` turns false.
  Status SkipBelow(const Page* page, PageId id, LeafCursor* c,
                   const Key* key) const {
    while (true) {
      if (key != nullptr) {
        c->idx = static_cast<size_t>(
            std::lower_bound(c->group + c->idx, c->group + c->len, *key,
                             [this](const Entry& e, const Key& k) {
                               return cmp_(e.key, k);
                             }) -
            c->group);
      }
      if (c->valid() || c->next >= c->groups) return Status::OK();
      PRIX_RETURN_NOT_OK(NextGroup(page, id, c));
    }
  }

  /// The restart group to start a search for `key` in: the last group
  /// whose restart key is <= `key` (0 when none), so the first entry >=
  /// `key` lies in it or opens the next one. Binary search over the
  /// restart entries, which decode without context.
  Result<size_t> FindGroup(const Page* page, PageId id, const Key& key) const {
    const char* stream = Stream(page);
    const size_t plen = StreamLen(page);
    const size_t restarts = NumRestarts(page);
    size_t lo = 0, hi = restarts;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      const char* p = stream + RestartOffset(page, mid);
      const char* end =
          stream + (mid + 1 < restarts ? RestartOffset(page, mid + 1) : plen);
      uint64_t words[kEntryWords] = {};
      for (size_t w = 0; w < kKeyWords; ++w) {
        uint64_t enc;
        if (!GetVarint64(&p, end, &enc)) {
          return Status::Corruption(
              "B+-tree leaf page " + std::to_string(id) +
              ": undecodable restart entry " + std::to_string(mid));
        }
        words[w] = static_cast<uint64_t>(ZigzagDecode64(enc));
      }
      if (cmp_(key, EntryFromWords(words).key)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo == 0 ? 0 : lo - 1;
  }

  /// Decodes a whole leaf into `out` and, when `starts` is non-null, the
  /// index of each restart group's first entry. The entries must number
  /// exactly the header count.
  Status DecodeLeaf(const Page* page, PageId id, std::vector<Entry>* out,
                    std::vector<size_t>* starts = nullptr) const {
    out->clear();
    out->reserve(static_cast<size_t>(Count(page)));
    if (starts != nullptr) starts->clear();
    LeafCursor c;
    while (true) {
      PRIX_RETURN_NOT_OK(NextGroup(page, id, &c));
      if (c.len == 0) break;
      if (starts != nullptr) starts->push_back(out->size());
      out->insert(out->end(), c.group, c.group + c.len);
    }
    if (out->size() != static_cast<size_t>(Count(page))) {
      return Status::Corruption(
          "B+-tree leaf page " + std::to_string(id) + ": " +
          std::to_string(out->size()) + " entries decoded, header says " +
          std::to_string(Count(page)));
    }
    return Status::OK();
  }

  /// First decoded entry with key >= `key`.
  typename std::vector<Entry>::const_iterator LowerBoundEntries(
      const std::vector<Entry>& entries, const Key& key) const {
    return std::lower_bound(
        entries.begin(), entries.end(), key,
        [this](const Entry& e, const Key& k) { return cmp_(e.key, k); });
  }

  /// Child slot to descend into for `key`: slot 0 is the leftmost child
  /// (Extra), slot i > 0 is entry i-1's child. Entries hold keys >=
  /// separator, so this is the upper bound over separators.
  int ChildSlotForKey(const Page* page, const Key& key) const {
    int lo = 0, hi = Count(page);
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      Key k;
      PageId c;
      ReadInternalEntry(page, mid, &k, &c);
      if (cmp_(key, k)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  static PageId ChildAtSlot(const Page* page, int slot) {
    if (slot == 0) return Extra(page);
    Key k;
    PageId c;
    ReadInternalEntry(page, slot - 1, &k, &c);
    return c;
  }

  static void SetChildAtSlot(Page* page, int slot, PageId child) {
    if (slot == 0) {
      SetExtra(page, child);
      return;
    }
    Key k;
    PageId c;
    ReadInternalEntry(page, slot - 1, &k, &c);
    WriteInternalEntry(page, slot - 1, k, child);
  }

  PageId ChildForKey(const Page* page, const Key& key) const {
    return ChildAtSlot(page, ChildSlotForKey(page, key));
  }

  /// Allocates a node page, registering it as transaction-fresh.
  Result<Page*> AllocNode() {
    PRIX_ASSIGN_OR_RETURN(Page * page, pool_->NewPage());
    if (cow_ != nullptr) cow_->MarkFresh(page->page_id());
    return page;
  }

  /// Allocates the meta page (Create and BulkLoad).
  Status AllocMeta() {
    PRIX_ASSIGN_OR_RETURN(Page * meta_page, AllocNode());
    meta_page_id_ = meta_page->page_id();
    SetPageType(meta_page->data(), PageType::kBtreeMeta);
    pool_->UnpinPage(meta_page_id_, /*dirty=*/true);
    return Status::OK();
  }

  /// The copy-on-write barrier: with a CowContext installed, a page that a
  /// committed generation can reach is copied to a fresh page before it is
  /// written, the original marked superseded; pages this transaction
  /// allocated are edited in place. `page`/`guard` are re-pointed at the
  /// writable copy. Without a context this is a no-op (bulk builds own
  /// their pages outright).
  Status MakeMutable(Page** page, PageGuard* guard) {
    if (cow_ == nullptr || cow_->IsFresh((*page)->page_id())) {
      return Status::OK();
    }
    PRIX_ASSIGN_OR_RETURN(Page * copy, pool_->NewPage());
    cow_->MarkFresh(copy->page_id());
    PageGuard copy_guard(pool_, copy);
    std::memcpy(copy->data(), (*page)->data(), kPageSize);
    cow_->MarkFreed((*page)->page_id());
    *page = copy;
    *guard = std::move(copy_guard);
    guard->MarkDirty();
    return Status::OK();
  }

  Status SaveMeta() {
    PRIX_ASSIGN_OR_RETURN(Page * meta_page, pool_->FetchPage(meta_page_id_));
    PageGuard guard(pool_, meta_page);
    // The meta page follows the same COW rule as every node: snapshots of
    // older generations keep reading their own (root, height) through their
    // own meta page, so it must never be rewritten in place mid-transaction.
    PRIX_RETURN_NOT_OK(MakeMutable(&meta_page, &guard));
    if (meta_page->page_id() != meta_page_id_) {
      meta_page_id_ = meta_page->page_id();
      SetPageType(meta_page->data(), PageType::kBtreeMeta);
    }
    std::memcpy(meta_page->data(), &meta_, sizeof(Meta));
    guard.MarkDirty();
    return Status::OK();
  }

  template <typename EmitFn, typename IssueFn>
  Status WalkNode(PageId node, int level, const std::string& path,
                  std::unordered_set<PageId>* visited, EmitFn& emit,
                  IssueFn& issue, BtreeScrubStats* stats) const {
    if (node == kInvalidPage || !visited->insert(node).second) {
      issue(node,
            Status::Corruption("child pointer revisits page " +
                               std::to_string(node) +
                               " (cycle or shared subtree)"),
            path);
      ++stats->subtrees_skipped;
      return Status::OK();
    }
    Result<Page*> fetched = pool_->FetchPage(node);
    if (!fetched.ok()) {
      issue(node, fetched.status(), path);
      ++stats->subtrees_skipped;
      return Status::OK();
    }
    PageGuard guard(pool_, *fetched);
    Page* page = *fetched;
    Status st = CheckNode(page, node, level);
    if (!st.ok()) {
      issue(node, st, path);
      ++stats->subtrees_skipped;
      return Status::OK();
    }
    ++stats->nodes_visited;
    if (IsLeaf(page)) {
      std::vector<Entry> entries;
      Status decode_st = DecodeLeaf(page, node, &entries);
      if (!decode_st.ok()) {
        issue(node, decode_st, path);
        ++stats->subtrees_skipped;
        return Status::OK();
      }
      for (const Entry& e : entries) {
        ++stats->entries_seen;
        PRIX_RETURN_NOT_OK(emit(e.key, e.value));
      }
      return Status::OK();
    }
    // Children: the leftmost child, then one per entry. Release the pin
    // before descending (child ids are copied out first) so the walk holds
    // one pin at a time, like a query descent.
    int count = Count(page);
    std::vector<PageId> children;
    children.reserve(static_cast<size_t>(count) + 1);
    children.push_back(Extra(page));
    for (int i = 0; i < count; ++i) {
      Key k;
      PageId c;
      ReadInternalEntry(page, i, &k, &c);
      children.push_back(c);
    }
    guard.Release();
    for (size_t i = 0; i < children.size(); ++i) {
      PRIX_RETURN_NOT_OK(WalkNode(children[i], level - 1,
                                  path + ">" + std::to_string(children[i]),
                                  visited, emit, issue, stats));
    }
    return Status::OK();
  }

  /// Inserts along the descent path. `*out_id` receives the node's id after
  /// the call — under COW a touched node moves to a fresh page, and the
  /// parent must re-point its child slot at the copy.
  Status InsertRecursive(PageId node, int level, const Key& key,
                         const Value& value, SplitResult* split,
                         PageId* out_id) {
    PRIX_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(node));
    PageGuard guard(pool_, page);
    PRIX_RETURN_NOT_OK(CheckNode(page, node, level));
    *out_id = node;
    if (IsLeaf(page)) {
      // Only the restart group the key falls in is decoded and re-encoded;
      // the duplicate check precedes the COW copy so a failed insert leaves
      // no trace.
      GroupEdit edit;
      PRIX_RETURN_NOT_OK(LoadGroup(page, node, key, &edit));
      auto pos = LowerBoundEntries(edit.entries, key);
      if (pos != edit.entries.end() && !cmp_(key, pos->key)) {
        return Status::AlreadyExists("duplicate key in B+-tree");
      }
      PRIX_RETURN_NOT_OK(MakeMutable(&page, &guard));
      *out_id = page->page_id();
      guard.MarkDirty();
      split->happened = false;
      edit.entries.insert(edit.entries.begin() + (pos - edit.entries.cbegin()),
                          Entry{key, value});
      LeafImage image;
      EncodeGroup(edit, &image);
      if (SplicedBytes(page, edit, image) <= kLeafInsertLimit) {
        Splice(page, edit, image);
        return Status::OK();
      }
      // Past the fill limit: re-encode the whole leaf and split it.
      std::vector<Entry> entries;
      PRIX_RETURN_NOT_OK(DecodeLeaf(page, node, &entries));
      entries.insert(LowerBoundEntries(entries, key), Entry{key, value});
      return FinishLeafInsert(page, &guard, entries, split);
    }
    int slot = ChildSlotForKey(page, key);
    PageId child = ChildAtSlot(page, slot);
    SplitResult child_split;
    PageId child_new = child;
    {
      // Release the parent pin during the recursive descent to keep the
      // pinned set small (depth is re-fetched only when it must change).
      guard.Release();
      PRIX_RETURN_NOT_OK(InsertRecursive(child, level - 1, key, value,
                                         &child_split, &child_new));
    }
    if (!child_split.happened && child_new == child) {
      split->happened = false;
      return Status::OK();
    }
    PRIX_ASSIGN_OR_RETURN(page, pool_->FetchPage(node));
    guard = PageGuard(pool_, page);
    PRIX_RETURN_NOT_OK(MakeMutable(&page, &guard));
    *out_id = page->page_id();
    if (child_new != child) {
      SetChildAtSlot(page, slot, child_new);
      guard.MarkDirty();
    }
    if (!child_split.happened) {
      split->happened = false;
      return Status::OK();
    }
    return InsertIntoInternal(page, &guard, child_split.separator,
                              child_split.right, split);
  }

  /// One restart group of a leaf, decoded for an in-place edit: the
  /// group's index and byte extent in the stream, and its entries.
  struct GroupEdit {
    size_t group = 0;
    size_t begin = 0;
    size_t end = 0;
    int old_count = 0;
    std::vector<Entry> entries;
  };

  /// Decodes the restart group that `key` falls in (an empty group 0 for an
  /// empty leaf). Every entry equal to `key` lies in it: FindGroup picks the
  /// last group whose restart key is <= `key`.
  Status LoadGroup(const Page* page, PageId id, const Key& key,
                   GroupEdit* edit) const {
    PRIX_ASSIGN_OR_RETURN(edit->group, FindGroup(page, id, key));
    std::tie(edit->begin, edit->end) = GroupExtent(page, edit->group);
    LeafCursor c;
    c.next = edit->group;
    PRIX_RETURN_NOT_OK(NextGroup(page, id, &c));
    edit->old_count = static_cast<int>(c.len);
    edit->entries.assign(c.group, c.group + c.len);
    return Status::OK();
  }

  /// Encodes the new contents of the group `edit` loaded as one group
  /// (none when empty, two halves past kMaxGroup).
  static void EncodeGroup(const GroupEdit& edit, LeafImage* image) {
    const size_t n = edit.entries.size();
    image->stream.reserve(n * kMaxEntryEncoded);
    for (size_t i = 0; i < n; ++i) {
      image->Append(edit.entries[i], n > kMaxGroup && i == n / 2, SIZE_MAX);
    }
  }

  /// Bytes the leaf's stream and restart array take once `image` replaces
  /// the group `edit` loaded.
  static size_t SplicedBytes(const Page* page, const GroupEdit& edit,
                             const LeafImage& image) {
    return StreamLen(page) - (edit.end - edit.begin) + image.bytes() +
           2 * (NumRestarts(page) - (edit.old_count > 0 ? 1 : 0));
  }

  /// Replaces the group `edit` loaded with `image`, moving the later
  /// groups' bytes and restart offsets; later groups restart against zero,
  /// so their bytes do not change. The caller checked SplicedBytes.
  static void Splice(Page* page, const GroupEdit& edit,
                     const LeafImage& image) {
    char* stream = page->data() + kHeaderSize;
    const size_t plen = StreamLen(page);
    const size_t restarts = NumRestarts(page);
    const size_t new_plen =
        plen - (edit.end - edit.begin) + image.stream.size();
    std::vector<uint16_t> offsets(restarts);
    for (size_t r = 0; r < restarts; ++r) {
      offsets[r] = U16At(stream + plen + 2 * r);
    }
    std::memmove(stream + edit.begin + image.stream.size(), stream + edit.end,
                 plen - edit.end);
    if (!image.stream.empty()) {
      std::memcpy(stream + edit.begin, image.stream.data(),
                  image.stream.size());
    }
    // The new restart array: the earlier groups' offsets, the new
    // group's, then the later groups' shifted by the size change.
    char* out = stream + new_plen;
    for (size_t r = 0; r < edit.group; ++r) {
      SetU16At(out, offsets[r]);
      out += 2;
    }
    for (uint16_t r : image.restarts) {
      SetU16At(out, edit.begin + r);
      out += 2;
    }
    for (size_t r = edit.group + (edit.old_count > 0 ? 1 : 0); r < restarts;
         ++r) {
      SetU16At(out, offsets[r] - edit.end + edit.begin + image.stream.size());
      out += 2;
    }
    SetCount(page, Count(page) - edit.old_count +
                       static_cast<int>(edit.entries.size()));
    SetU16At(page->data() + 12, new_plen);
    SetU16At(page->data() + 14,
             static_cast<size_t>(out - (stream + new_plen)) / 2);
  }

  /// Leaf insert, after the caller decoded the leaf, verified uniqueness,
  /// COW'd the page, and spliced the new entry into `entries`: re-encode in
  /// place, or — past the insert fill limit — split at the encoded-byte
  /// midpoint so both halves land near half full regardless of how
  /// unevenly the deltas compress.
  Status FinishLeafInsert(Page* page, PageGuard* guard,
                          const std::vector<Entry>& entries,
                          SplitResult* split) {
    const size_t n = entries.size();
    LeafImage left;
    EncodeLeaf(entries.data(), n, &left);
    if (left.bytes() <= kLeafInsertLimit) {
      WriteLeaf(page, left);
      guard->MarkDirty();
      split->happened = false;
      return Status::OK();
    }
    // The left half takes entries until it holds half the bytes.
    PRIX_DCHECK(n >= 2);
    const size_t half = left.bytes() / 2;
    left.Clear();
    size_t split_idx = 0;
    while (split_idx < n - 1 && (split_idx == 0 || left.bytes() < half)) {
      left.Append(entries[split_idx], split_idx % kRestartInterval == 0,
                  SIZE_MAX);
      ++split_idx;
    }
    LeafImage right;
    EncodeLeaf(entries.data() + split_idx, n - split_idx, &right);
    // Each half is about half the bytes plus a few re-based restart
    // entries; a page is dozens of max-size entries wide, so this cannot
    // trip unless the split math is broken.
    if (left.bytes() > kLeafInsertLimit || right.bytes() > kLeafInsertLimit) {
      return Status::Internal("leaf split produced an oversized half");
    }
    PRIX_ASSIGN_OR_RETURN(Page * right_page, AllocNode());
    PageGuard right_guard(pool_, right_page);
    InitNode(right_page, /*is_leaf=*/true, /*level=*/0);
    WriteLeaf(right_page, right);
    SetExtra(right_page, Extra(page));
    WriteLeaf(page, left);
    SetExtra(page, right_page->page_id());
    guard->MarkDirty();
    right_guard.MarkDirty();
    split->happened = true;
    split->separator = entries[split_idx].key;
    split->right = right_page->page_id();
    return Status::OK();
  }

  /// Deletes along the descent path, unlinking nodes that empty out.
  /// `*out_id` reports the node's id after the call (it moves under COW);
  /// `*out_freed` reports that the node became empty and was freed, so the
  /// parent must drop its child slot entirely. NotFound is established at
  /// the leaf BEFORE any page is copied or written.
  ///
  /// Leaf note: only the key's restart group is re-encoded, so the leaf
  /// grows by strictly less than one max-size entry, which the
  /// insert-side headroom (kLeafInsertLimit) covers after any insert. A
  /// chain of growing deletes could in principle exhaust it; that is
  /// unreachable for sorted composite keys, and if it ever trips the leaf
  /// is left untouched and an Internal status says to rebuild.
  Status DeleteRecursive(PageId node, int level, bool is_root, const Key& key,
                         PageId* out_id, bool* out_freed) {
    PRIX_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(node));
    PageGuard guard(pool_, page);
    PRIX_RETURN_NOT_OK(CheckNode(page, node, level));
    *out_id = node;
    *out_freed = false;
    if (IsLeaf(page)) {
      GroupEdit edit;
      PRIX_RETURN_NOT_OK(LoadGroup(page, node, key, &edit));
      auto pos = LowerBoundEntries(edit.entries, key);
      if (pos == edit.entries.end() || cmp_(key, pos->key)) {
        return Status::NotFound("key not in tree");
      }
      edit.entries.erase(edit.entries.begin() + (pos - edit.entries.cbegin()));
      LeafImage image;
      EncodeGroup(edit, &image);
      if (SplicedBytes(page, edit, image) > kLeafPayloadMax) {
        return Status::Internal(
            "leaf re-encode after delete exceeds the page; "
            "rebuild the index to reclaim space");
      }
      PRIX_RETURN_NOT_OK(MakeMutable(&page, &guard));
      Splice(page, edit, image);
      guard.MarkDirty();
      *out_id = page->page_id();
      if (Count(page) == 0 && !is_root) {
        // Unlink the emptied leaf: iteration assumes no reachable non-root
        // leaf is ever empty, so the parent must drop this child.
        *out_freed = true;
        if (cow_ != nullptr) cow_->MarkFreed(page->page_id());
      }
      return Status::OK();
    }
    int slot = ChildSlotForKey(page, key);
    PageId child = ChildAtSlot(page, slot);
    guard.Release();
    PageId child_new = child;
    bool child_freed = false;
    PRIX_RETURN_NOT_OK(DeleteRecursive(child, level - 1, /*is_root=*/false,
                                       key, &child_new, &child_freed));
    if (!child_freed && child_new == child) return Status::OK();
    PRIX_ASSIGN_OR_RETURN(page, pool_->FetchPage(node));
    guard = PageGuard(pool_, page);
    PRIX_RETURN_NOT_OK(MakeMutable(&page, &guard));
    *out_id = page->page_id();
    if (!child_freed) {
      SetChildAtSlot(page, slot, child_new);
      guard.MarkDirty();
      return Status::OK();
    }
    int count = Count(page);
    if (slot == 0) {
      if (count == 0) {
        // The last child is gone: this node frees too (cascading unlink).
        *out_freed = true;
        if (cow_ != nullptr) cow_->MarkFreed(page->page_id());
        return Status::OK();
      }
      // Promote the first entry's child into the leftmost slot. Keys under
      // it are >= its old separator, which only makes the separator bounds
      // looser — descents stay correct because separators merely guide.
      Key k;
      PageId c;
      ReadInternalEntry(page, 0, &k, &c);
      SetExtra(page, c);
      char* base = page->data() + kHeaderSize;
      std::memmove(base, base + kInternalStride,
                   (count - 1) * kInternalStride);
      SetCount(page, count - 1);
    } else {
      char* base = page->data() + kHeaderSize + (slot - 1) * kInternalStride;
      std::memmove(base, base + kInternalStride,
                   (count - slot) * kInternalStride);
      SetCount(page, count - 1);
    }
    guard.MarkDirty();
    return Status::OK();
  }

  /// Shrinks the tree while the root is an internal node with one child.
  Status CollapseRoot() {
    while (meta_.height > 1) {
      PRIX_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(meta_.root));
      PageGuard guard(pool_, page);
      PRIX_RETURN_NOT_OK(
          CheckNode(page, meta_.root, static_cast<int>(meta_.height) - 1));
      if (IsLeaf(page) || Count(page) > 0) return Status::OK();
      PageId only_child = Extra(page);
      guard.Release();
      if (cow_ != nullptr) cow_->MarkFreed(meta_.root);
      meta_.root = only_child;
      --meta_.height;
    }
    return Status::OK();
  }

  Status InsertIntoInternal(Page* page, PageGuard* guard, const Key& sep,
                            PageId new_child, SplitResult* split) {
    int count = Count(page);
    // Position: first entry with separator > sep.
    int lo = 0, hi = count;
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      Key k;
      PageId c;
      ReadInternalEntry(page, mid, &k, &c);
      if (cmp_(sep, k)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    int idx = lo;
    if (count < kInternalCapacity) {
      char* base = page->data() + kHeaderSize + idx * kInternalStride;
      std::memmove(base + kInternalStride, base,
                   (count - idx) * kInternalStride);
      WriteInternalEntry(page, idx, sep, new_child);
      SetCount(page, count + 1);
      guard->MarkDirty();
      split->happened = false;
      return Status::OK();
    }
    // Split the internal node. Gather entries (including the new one) into a
    // scratch array, then redistribute around the median.
    struct InternalEntry {
      Key key;
      PageId child;
    };
    std::vector<InternalEntry> entries(count + 1);
    for (int i = 0; i < count; ++i) {
      ReadInternalEntry(page, i, &entries[i + (i >= idx ? 1 : 0)].key,
                        &entries[i + (i >= idx ? 1 : 0)].child);
    }
    entries[idx] = InternalEntry{sep, new_child};
    int total = count + 1;
    int mid = total / 2;  // entries[mid] moves up
    PRIX_ASSIGN_OR_RETURN(Page * right, AllocNode());
    PageGuard right_guard(pool_, right);
    InitNode(right, /*is_leaf=*/false, /*level=*/Level(page));
    // Left keeps entries [0, mid); right gets (mid, total) with leftmost
    // child = entries[mid].child.
    SetCount(page, mid);
    for (int i = 0; i < mid; ++i) {
      WriteInternalEntry(page, i, entries[i].key, entries[i].child);
    }
    SetExtra(right, entries[mid].child);
    SetCount(right, total - mid - 1);
    for (int i = mid + 1; i < total; ++i) {
      WriteInternalEntry(right, i - mid - 1, entries[i].key,
                         entries[i].child);
    }
    guard->MarkDirty();
    right_guard.MarkDirty();
    split->happened = true;
    split->separator = entries[mid].key;
    split->right = right->page_id();
    return Status::OK();
  }

  BufferPool* pool_ = nullptr;
  Compare cmp_{};
  PageId meta_page_id_ = kInvalidPage;
  Meta meta_;
  CowContext* cow_ = nullptr;  ///< not owned; null outside write transactions
};

}  // namespace prix

#endif  // PRIX_BTREE_BTREE_H_
