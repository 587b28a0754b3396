// Fixed-size KV page allocator (vLLM-style PagedAttention pool, ISSUE 4).
//
// The GPU's KV budget is carved into pages of `block_size_tokens` tokens;
// every live token of KV state — shared prefix-cache content and per-
// sequence private state alike — occupies exactly one slot of exactly one
// block. Blocks are refcounted so copy-on-write forks (shared prompt
// prefixes, beam/parallel-sampling style) map to shared references instead
// of token copies, and a freed block returns to a LIFO free list so
// steady-state churn (admit/decode/evict/preempt cycles) recycles ids
// without touching the heap (tests/kv_memory_alloc_test.cc pins this).
//
// Blocks here are *bookkeeping*, not storage — the simulator never holds
// real KV bytes — so allocation past `capacity_blocks` is permitted and
// simply drives free_blocks() negative. This mirrors the replica engine's
// semantics, where force-admission and decode growth may transiently
// overshoot the budget and the reclaim path (eviction, then preemption)
// restores the invariant after the step. Admission control is the layer
// that keeps overshoot bounded; the allocator just counts truthfully.
//
// With block_size_tokens == 1 the pool degenerates to one token per block
// and every derived quantity reduces to the seed's token-counter
// arithmetic — the coarse compatibility mode that keeps historical
// BENCH_*.json goldens byte-identical (DESIGN.md §9).
//
// Cache-reference tally (DESIGN.md §9, "Exact-ledger routing signals").
// The radix cache takes and drops its page references through the
// cache-tagged calls (AllocateCacheSpan, AddCacheRef, ReleaseCacheSpan,
// SetCacheSpanPinned). While the tally is on, the allocator keeps per page
// how many of its references are cache references and how many of those
// come from unpinned nodes, and two running totals over them:
//   held      = pages with at least one cache reference;
//   evictable = pages with refs > 0 whose every reference is an unpinned
//               cache reference (they would return to the free list if
//               every unpinned node were evicted).
// Every reference change re-classifies its page — sequence-side AddRef /
// Release too, since a sequence sharing a page takes it out of the
// evictable set — so the probe reads both totals in O(1). The owning cache
// turns the tally on only in paged mode (block_size_tokens > 1); coarse
// mode reduces occupancy to token counters and pays one predictable branch.

#ifndef SKYWALKER_MEMORY_BLOCK_ALLOCATOR_H_
#define SKYWALKER_MEMORY_BLOCK_ALLOCATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/logging.h"

namespace skywalker {

using BlockId = int32_t;
inline constexpr BlockId kInvalidBlockId = -1;

struct BlockAllocatorStats {
  int64_t allocated = 0;   // Cumulative Allocate() calls.
  int64_t freed = 0;       // Cumulative blocks returned to the free list.
  int64_t cow_copies = 0;  // Copy-on-write duplications (BlockTable).
  int64_t peak_used_blocks = 0;
};

class BlockAllocator {
 public:
  explicit BlockAllocator(int64_t capacity_blocks);

  BlockAllocator(const BlockAllocator&) = delete;
  BlockAllocator& operator=(const BlockAllocator&) = delete;

  // Returns a block with ref_count == 1. Never fails (see file comment);
  // callers gate on free_blocks() for admission decisions.
  BlockId Allocate();

  // Fills out[0..n) with fresh single-reference blocks — id-for-id the same
  // sequence n Allocate() calls would return, with the bookkeeping updated
  // once (the radix cache provisions whole node spans through this).
  void AllocateSpan(int64_t n, BlockId* out);

  // Drops one reference on each of ids[0..n) (span teardown counterpart).
  // Returns how many blocks actually became free — the figure eviction
  // accounting wants, since references shared with surviving holders free
  // nothing.
  int64_t ReleaseSpan(const BlockId* ids, int64_t n);

  // Shares an existing block (copy-on-write fork).
  void AddRef(BlockId id);

  // Drops one reference; returns true when the block became free.
  bool Release(BlockId id);

  // Pre-sizes metadata and the free list so later Allocate/Release cycles
  // below `blocks` live blocks never allocate heap memory.
  void Reserve(int64_t blocks);

  // --- prefix-cache references (see the file comment) -------------------
  // Turns the cache-reference tally on. Called by the one prefix cache that
  // charges this pool, before it holds any reference; pages already held by
  // sequences start with no cache references. Off again only once the cache
  // has released everything (its destructor).
  void EnableCacheTally();
  void DisableCacheTally();

  // Cache-tagged counterparts of AllocateSpan / AddRef / ReleaseSpan.
  // `pinned` is the holding node's state (ref_count > 0); fresh spans are
  // always unpinned (a new node has no pins). With the tally off they are
  // exactly the untagged calls.
  void AllocateCacheSpan(int64_t n, BlockId* out);
  void AddCacheRef(BlockId id, bool pinned);
  int64_t ReleaseCacheSpan(const BlockId* ids, int64_t n, bool pinned);
  // Moves the cache references of one node span between pinned and
  // unpinned (the node's ref_count crossed 0 <-> 1). No-op with the tally
  // off.
  void SetCacheSpanPinned(const BlockId* ids, int64_t n, bool pinned);

  // The running totals (0 while the tally is off).
  int64_t cache_held_blocks() const { return cache_held_; }
  int64_t cache_evictable_blocks() const { return cache_evictable_; }
  int32_t cache_ref_count(BlockId id) const {
    return tally_on_ ? tally_[static_cast<size_t>(id)].cache : 0;
  }

  int64_t capacity_blocks() const { return capacity_blocks_; }
  int64_t used_blocks() const { return used_blocks_; }
  // May be negative during transient overshoot (see file comment).
  int64_t free_blocks() const { return capacity_blocks_ - used_blocks_; }

  int32_t ref_count(BlockId id) const {
    return refs_[static_cast<size_t>(id)];
  }

  // Sum of all reference counts (each shared block counted once per holder).
  // O(ids ever allocated) — a test/diagnostics view for the conservation
  // invariant (cache-held + sequence-held refs == live_refs), not a hot-path
  // quantity.
  int64_t live_refs() const;

  const BlockAllocatorStats& stats() const { return stats_; }
  void NoteCowCopy() { ++stats_.cow_copies; }

  // Structural soundness: used_blocks matches the number of ids with a
  // positive refcount and the free list holds exactly the zero-ref ids;
  // with the tally on, every page satisfies unpinned <= cache <= refs and
  // both running totals match a recount.
  bool CheckInvariants() const;

 private:
  // Per-page cache-reference tally (indexed by BlockId, tally on only).
  struct CacheTally {
    int32_t cache = 0;     // References held by cache nodes.
    int32_t unpinned = 0;  // ...of which by nodes with ref_count == 0.
  };

  bool Evictable(size_t slot) const {
    const int32_t unpinned = tally_[slot].unpinned;
    return unpinned > 0 && unpinned == refs_[slot];
  }
  // Folds a page's re-classification into the evictable total; `was` is
  // its evictability before the reference change.
  void Retally(size_t slot, bool was) {
    cache_evictable_ +=
        static_cast<int64_t>(Evictable(slot)) - static_cast<int64_t>(was);
  }
  // Sequence-side reference moved on a tallied page (AddRef / Release).
  void RetallySeqRef(size_t slot, int32_t refs_before);
  // AddCacheRef with the tally on (out of line: paged mode only).
  void AddTalliedCacheRef(BlockId id, bool pinned);

  int64_t capacity_blocks_;
  // Read by every inline reference operation: kept beside refs_.
  bool tally_on_ = false;
  std::vector<int32_t> refs_;       // Indexed by BlockId.
  std::vector<BlockId> free_list_;  // LIFO: deterministic, cache-friendly.
  int64_t used_blocks_ = 0;
  BlockAllocatorStats stats_;
  std::vector<CacheTally> tally_;  // Sized with refs_ while tally_on_.
  int64_t cache_held_ = 0;
  int64_t cache_evictable_ = 0;
};

// Allocate/AddRef/Release are defined inline: with block_size_tokens == 1
// the decode hot loop hits them once per generated token — tens of millions
// of calls per benchmark cell — and the out-of-line call overhead was
// measurable (ISSUE 10).
//
// Coarse mode never turns the tally on, so each pays one predictable flag
// test. A fresh page has no cache references and a single sequence
// reference, so Allocate never changes either total.
inline BlockId BlockAllocator::Allocate() {
  BlockId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    id = static_cast<BlockId>(refs_.size());
    refs_.push_back(0);
    if (tally_on_) {
      tally_.emplace_back();
    }
  }
  refs_[static_cast<size_t>(id)] = 1;
  ++used_blocks_;
  ++stats_.allocated;
  stats_.peak_used_blocks = std::max(stats_.peak_used_blocks, used_blocks_);
  return id;
}

inline void BlockAllocator::AddRef(BlockId id) {
  int32_t& ref = refs_[static_cast<size_t>(id)];
  SKYWALKER_CHECK(ref > 0) << "addref dead block";
  ++ref;
  if (tally_on_) {
    RetallySeqRef(static_cast<size_t>(id), ref - 1);
  }
}

inline bool BlockAllocator::Release(BlockId id) {
  int32_t& ref = refs_[static_cast<size_t>(id)];
  SKYWALKER_CHECK(ref > 0) << "release dead block";
  --ref;
  if (tally_on_) {
    RetallySeqRef(static_cast<size_t>(id), ref + 1);
  }
  if (ref > 0) {
    return false;
  }
  free_list_.push_back(id);
  --used_blocks_;
  ++stats_.freed;
  return true;
}

// Inline for coarse mode, where the radix cache publishes by reference
// transfer once per token.
inline void BlockAllocator::AddCacheRef(BlockId id, bool pinned) {
  if (!tally_on_) {
    AddRef(id);
    return;
  }
  AddTalliedCacheRef(id, pinned);
}

inline void BlockAllocator::RetallySeqRef(size_t slot, int32_t refs_before) {
  const CacheTally& t = tally_[slot];
  // A cache reference dropped through the untagged path would leave the
  // page with more cache references than references.
  SKYWALKER_CHECK(t.cache <= refs_[slot]) << "untagged cache reference";
  Retally(slot, t.unpinned > 0 && t.unpinned == refs_before);
}

}  // namespace skywalker

#endif  // SKYWALKER_MEMORY_BLOCK_ALLOCATOR_H_
