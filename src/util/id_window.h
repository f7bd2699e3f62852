// Flat id tables for the per-command hot paths.
//
// IdTable<V> is an open-addressed, linear-probe hash table keyed by
// uint64 command ids. Deletion shifts the following run back into the
// freed bucket instead of leaving a tombstone, so probe lengths depend
// only on the live keys however long the insert/erase churn runs. The
// bucket array grows by doubling whenever the load would pass 1/2 and
// never shrinks. Key 0 marks an empty bucket; the id 0 itself lives in
// a side slot, so every uint64 is a valid key. No node is allocated per
// entry, unlike std::set / std::unordered_map.
//
// IdWindow is a sliding dedup window over first-seen ids: an IdTable
// set plus a FIFO ring of (id, first-seen tick). It holds at most
// `capacity` ids, forgetting the oldest first, and can additionally
// forget every id first seen before a cutoff (age eviction). Each held
// id has exactly one ring entry, so the ring and the set never drift.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/units.h"

namespace epx::util {

template <typename V>
class IdTable {
 public:
  IdTable() { rehash(16); }

  size_t size() const { return size_; }
  size_t bucket_count() const { return buckets_.size(); }

  /// Pointer to the value mapped to `id`, or nullptr.
  V* find(uint64_t id) {
    if (id == 0) return has_zero_ ? &zero_value_ : nullptr;
    for (size_t i = home(id);; i = (i + 1) & mask_) {
      Bucket& b = buckets_[i];
      if (b.key == id) return &b.value;
      if (b.key == 0) return nullptr;
    }
  }
  const V* find(uint64_t id) const { return const_cast<IdTable*>(this)->find(id); }
  bool contains(uint64_t id) const { return find(id) != nullptr; }

  /// Maps `id` to `value` unless it is already present; returns whether
  /// it was inserted (an existing mapping is left unchanged).
  bool insert(uint64_t id, V value = V{}) {
    if (id == 0) {
      if (has_zero_) return false;
      has_zero_ = true;
      zero_value_ = std::move(value);
      ++size_;
      return true;
    }
    if ((size_ + 1) * 2 > buckets_.size()) rehash(buckets_.size() * 2);
    for (size_t i = home(id);; i = (i + 1) & mask_) {
      Bucket& b = buckets_[i];
      if (b.key == id) return false;
      if (b.key == 0) {
        b.key = id;
        b.value = std::move(value);
        ++size_;
        return true;
      }
    }
  }

  /// Removes `id`; returns whether it was present.
  bool erase(uint64_t id) {
    if (id == 0) {
      if (!has_zero_) return false;
      has_zero_ = false;
      --size_;
      return true;
    }
    size_t hole = home(id);
    while (buckets_[hole].key != id) {
      if (buckets_[hole].key == 0) return false;
      hole = (hole + 1) & mask_;
    }
    // Backward shift: walk the run after the hole and move back every
    // entry whose home bucket does not lie cyclically in (hole, j] —
    // such an entry probed past the hole and must not be cut off by it.
    for (size_t j = (hole + 1) & mask_; buckets_[j].key != 0; j = (j + 1) & mask_) {
      const size_t h = home(buckets_[j].key);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        buckets_[hole] = std::move(buckets_[j]);
        hole = j;
      }
    }
    buckets_[hole].key = 0;
    --size_;
    return true;
  }

  void clear() {
    for (Bucket& b : buckets_) b.key = 0;
    has_zero_ = false;
    size_ = 0;
  }

  // --- layout introspection (tests) ---------------------------------------
  /// The bucket a probe for nonzero `id` starts at. Fibonacci hashing:
  /// the multiply spreads sequential ids (the common client << 32 | seq
  /// shape) over the top bits, which pick the bucket.
  size_t home(uint64_t id) const {
    return static_cast<size_t>((id * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  /// The bucket holding nonzero `id`, or bucket_count() when absent.
  size_t bucket_of(uint64_t id) const {
    for (size_t i = home(id);; i = (i + 1) & mask_) {
      if (buckets_[i].key == id) return i;
      if (buckets_[i].key == 0) return buckets_.size();
    }
  }

 private:
  struct Bucket {
    uint64_t key = 0;
    [[no_unique_address]] V value{};
  };

  void rehash(size_t buckets) {
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(buckets, Bucket{});
    mask_ = buckets - 1;
    shift_ = 64;
    for (size_t n = buckets; n > 1; n >>= 1) --shift_;
    for (Bucket& b : old) {
      if (b.key == 0) continue;
      size_t i = home(b.key);
      while (buckets_[i].key != 0) i = (i + 1) & mask_;
      buckets_[i] = std::move(b);
    }
  }

  std::vector<Bucket> buckets_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;  // including the side-slot zero id
  bool has_zero_ = false;
  [[no_unique_address]] V zero_value_{};
};

/// Value type of a set-shaped IdTable (takes no space in a bucket).
struct NoValue {};
using IdSet = IdTable<NoValue>;

class IdWindow {
 public:
  /// Holds at most `capacity` ids (>= 1).
  explicit IdWindow(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  size_t size() const { return ids_.size(); }
  bool contains(uint64_t id) const { return ids_.contains(id); }

  /// Admits `id`, first seen at `at`, and returns true — unless it is
  /// already held, in which case nothing changes and it returns false.
  /// Admitting into a full window forgets the oldest id.
  bool insert(uint64_t id, Tick at = 0) {
    if (ids_.contains(id)) return false;
    if (ids_.size() == capacity_) pop_oldest();
    ids_.insert(id);
    if (count_ == ring_.size()) grow_ring();
    ring_[(head_ + count_) & (ring_.size() - 1)] = Entry{id, at};
    ++count_;
    return true;
  }

  /// Forgets every id first seen strictly before `cutoff`. First-seen
  /// ticks must be non-decreasing across insert() calls for this to
  /// stop at the right place (they are: callers pass sim time).
  void expire_before(Tick cutoff) {
    while (count_ > 0 && ring_[head_].at < cutoff) pop_oldest();
  }

 private:
  struct Entry {
    uint64_t id;
    Tick at;
  };

  void pop_oldest() {
    ids_.erase(ring_[head_].id);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
  }

  void grow_ring() {
    std::vector<Entry> bigger(ring_.empty() ? 16 : ring_.size() * 2);
    for (size_t i = 0; i < count_; ++i) bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    ring_ = std::move(bigger);
    head_ = 0;
  }

  size_t capacity_;
  IdSet ids_;
  std::vector<Entry> ring_;  // power-of-two sized; count_ entries from head_
  size_t head_ = 0;
  size_t count_ = 0;
};

}  // namespace epx::util
