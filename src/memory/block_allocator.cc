#include "src/memory/block_allocator.h"

#include <algorithm>

#include "src/common/logging.h"

namespace skywalker {

BlockAllocator::BlockAllocator(int64_t capacity_blocks)
    : capacity_blocks_(capacity_blocks) {
  SKYWALKER_CHECK(capacity_blocks > 0) << "allocator needs capacity";
}

void BlockAllocator::Reserve(int64_t blocks) {
  refs_.reserve(static_cast<size_t>(blocks));
  free_list_.reserve(static_cast<size_t>(blocks));
  if (tally_on_) {
    tally_.reserve(static_cast<size_t>(blocks));
  }
}

void BlockAllocator::AllocateSpan(int64_t n, BlockId* out) {
  int64_t i = 0;
  const int64_t from_free =
      std::min<int64_t>(n, static_cast<int64_t>(free_list_.size()));
  for (; i < from_free; ++i) {
    BlockId id = free_list_.back();
    free_list_.pop_back();
    refs_[static_cast<size_t>(id)] = 1;
    out[i] = id;
  }
  for (; i < n; ++i) {
    BlockId id = static_cast<BlockId>(refs_.size());
    refs_.push_back(1);
    out[i] = id;
  }
  used_blocks_ += n;
  stats_.allocated += n;
  stats_.peak_used_blocks = std::max(stats_.peak_used_blocks, used_blocks_);
  if (tally_on_) {
    // New ids get empty tallies: fresh pages carry no cache references.
    tally_.resize(refs_.size());
  }
}

int64_t BlockAllocator::ReleaseSpan(const BlockId* ids, int64_t n) {
  int64_t freed = 0;
  for (int64_t i = 0; i < n; ++i) {
    int32_t& ref = refs_[static_cast<size_t>(ids[i])];
    SKYWALKER_CHECK(ref > 0) << "release dead block";
    --ref;
    if (tally_on_) {
      RetallySeqRef(static_cast<size_t>(ids[i]), ref + 1);
    }
    if (ref == 0) {
      free_list_.push_back(ids[i]);
      ++freed;
    }
  }
  used_blocks_ -= freed;
  stats_.freed += freed;
  return freed;
}

void BlockAllocator::EnableCacheTally() {
  SKYWALKER_CHECK(!tally_on_) << "one prefix cache per allocator";
  tally_on_ = true;
  tally_.reserve(refs_.capacity());
  tally_.assign(refs_.size(), CacheTally{});
  cache_held_ = 0;
  cache_evictable_ = 0;
}

void BlockAllocator::DisableCacheTally() {
  SKYWALKER_CHECK(cache_held_ == 0) << "cache references outstanding";
  tally_on_ = false;
  tally_.clear();
}

void BlockAllocator::AllocateCacheSpan(int64_t n, BlockId* out) {
  AllocateSpan(n, out);
  if (!tally_on_) {
    return;
  }
  // Each fresh page's only reference is an unpinned cache reference: held
  // and evictable.
  for (int64_t i = 0; i < n; ++i) {
    tally_[static_cast<size_t>(out[i])] = CacheTally{1, 1};
  }
  cache_held_ += n;
  cache_evictable_ += n;
}

void BlockAllocator::AddTalliedCacheRef(BlockId id, bool pinned) {
  const size_t slot = static_cast<size_t>(id);
  SKYWALKER_CHECK(refs_[slot] > 0) << "addref dead block";
  const bool was = Evictable(slot);
  CacheTally& t = tally_[slot];
  if (t.cache++ == 0) {
    ++cache_held_;
  }
  if (!pinned) {
    ++t.unpinned;
  }
  ++refs_[slot];
  Retally(slot, was);
}

int64_t BlockAllocator::ReleaseCacheSpan(const BlockId* ids, int64_t n,
                                         bool pinned) {
  if (!tally_on_) {
    return ReleaseSpan(ids, n);
  }
  int64_t freed = 0;
  for (int64_t i = 0; i < n; ++i) {
    const size_t slot = static_cast<size_t>(ids[i]);
    CacheTally& t = tally_[slot];
    SKYWALKER_CHECK(t.cache > 0 && (pinned || t.unpinned > 0))
        << "release of an untallied cache reference";
    const bool was = Evictable(slot);
    if (--t.cache == 0) {
      --cache_held_;
    }
    if (!pinned) {
      --t.unpinned;
    }
    if (--refs_[slot] == 0) {
      free_list_.push_back(ids[i]);
      ++freed;
    }
    Retally(slot, was);
  }
  used_blocks_ -= freed;
  stats_.freed += freed;
  return freed;
}

void BlockAllocator::SetCacheSpanPinned(const BlockId* ids, int64_t n,
                                        bool pinned) {
  if (!tally_on_) {
    return;
  }
  // Specialized Retally: a page whose cache reference is being pinned was
  // evictable iff all its references were unpinned cache references, and
  // is not afterwards; a page being unpinned was not evictable (the
  // reference was pinned) and is afterwards iff no other reference is
  // pinned or held outside the cache. Runs at every pin 0 <-> 1 transition.
  if (pinned) {
    for (int64_t i = 0; i < n; ++i) {
      const size_t slot = static_cast<size_t>(ids[i]);
      int32_t& unpinned = tally_[slot].unpinned;
      SKYWALKER_CHECK(unpinned > 0) << "pin of a pinned cache reference";
      cache_evictable_ -= unpinned-- == refs_[slot] ? 1 : 0;
    }
    return;
  }
  for (int64_t i = 0; i < n; ++i) {
    const size_t slot = static_cast<size_t>(ids[i]);
    CacheTally& t = tally_[slot];
    SKYWALKER_CHECK(t.unpinned < t.cache)
        << "unpin of an unpinned cache reference";
    cache_evictable_ += ++t.unpinned == refs_[slot] ? 1 : 0;
  }
}

int64_t BlockAllocator::live_refs() const {
  int64_t total = 0;
  for (int32_t ref : refs_) {
    total += ref;
  }
  return total;
}

bool BlockAllocator::CheckInvariants() const {
  int64_t live = 0;
  for (int32_t ref : refs_) {
    if (ref < 0) {
      return false;
    }
    if (ref > 0) {
      ++live;
    }
  }
  if (live != used_blocks_) {
    return false;
  }
  if (free_list_.size() != refs_.size() - static_cast<size_t>(live)) {
    return false;
  }
  for (BlockId id : free_list_) {
    if (refs_[static_cast<size_t>(id)] != 0) {
      return false;
    }
  }
  if (!tally_on_) {
    return cache_held_ == 0 && cache_evictable_ == 0;
  }
  if (tally_.size() != refs_.size()) {
    return false;
  }
  int64_t held = 0;
  int64_t evictable = 0;
  for (size_t slot = 0; slot < refs_.size(); ++slot) {
    const CacheTally& t = tally_[slot];
    if (t.unpinned < 0 || t.unpinned > t.cache || t.cache > refs_[slot]) {
      return false;
    }
    held += t.cache > 0 ? 1 : 0;
    evictable += Evictable(slot) ? 1 : 0;
  }
  return held == cache_held_ && evictable == cache_evictable_;
}

}  // namespace skywalker
