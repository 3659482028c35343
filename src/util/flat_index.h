// Open-addressing index from 64-bit keys to 32-bit slab positions.
//
// The simulator keeps per-request records (cache entries, client attempts,
// sampled traces) in grow-only slabs and finds them by id through this
// index. A bucket is 8 bytes: the key's 32-bit Fibonacci hash and the slab
// position. The key itself stays in the caller's slab, so probes that need
// it call a `key_of(position)` accessor. The table is a power of two, probed
// linearly, kept at load factor <= 0.5, and erases by backward shift, so it
// needs no tombstones. It only grows, and regrows from the stored hashes
// alone. Once it has grown to the peak key count, no operation allocates.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace cloudprov {

class FlatIndex {
 public:
  /// Slab position of an empty bucket; find() returns it for absent keys.
  static constexpr std::uint32_t kNil = 0xffffffffu;

  std::size_t size() const { return size_; }

  /// Slab position stored for `key`, or kNil.
  template <typename KeyOf>
  std::uint32_t find(std::uint64_t key, const KeyOf& key_of) const {
    if (size_ == 0) return kNil;
    return buckets_[probe(key, hash_of(key), key_of)].entry;
  }

  /// Bucket holding `key`, or the empty bucket that ends its probe run.
  /// Precondition: size() > 0. With at() and erase_at() it lets a caller
  /// inspect an entry and erase it with one probe.
  template <typename KeyOf>
  std::size_t bucket_of(std::uint64_t key, const KeyOf& key_of) const {
    return probe(key, hash_of(key), key_of);
  }
  std::uint32_t at(std::size_t bucket) const { return buckets_[bucket].entry; }

  /// Maps `key` to slab position `entry`, growing the table first if one
  /// more key would pass load factor 0.5. Returns false, changing nothing
  /// else, when `key` is already present.
  template <typename KeyOf>
  bool insert(std::uint64_t key, std::uint32_t entry, const KeyOf& key_of) {
    reserve_one();
    const std::uint32_t hash = hash_of(key);
    const std::size_t bucket = probe(key, hash, key_of);
    if (buckets_[bucket].entry != kNil) return false;
    buckets_[bucket] = Bucket{hash, entry};
    ++size_;
    return true;
  }

  /// Removes `key`; returns its slab position, or kNil when absent.
  template <typename KeyOf>
  std::uint32_t erase(std::uint64_t key, const KeyOf& key_of) {
    if (size_ == 0) return kNil;
    const std::size_t bucket = bucket_of(key, key_of);
    const std::uint32_t entry = buckets_[bucket].entry;
    if (entry != kNil) erase_at(bucket);
    return entry;
  }

  /// Empties a bucket that holds a key (from bucket_of()).
  void erase_at(std::size_t bucket) {
    // Backward shift: pull every later member of the probe run whose home
    // lies cyclically at or before the hole into it.
    const std::size_t mask = buckets_.size() - 1;
    std::size_t hole = bucket;
    for (std::size_t b = (bucket + 1) & mask; buckets_[b].entry != kNil;
         b = (b + 1) & mask) {
      const std::size_t home = buckets_[b].hash >> shift_;
      if (((b - home) & mask) >= ((b - hole) & mask)) {
        buckets_[hole] = buckets_[b];
        hole = b;
      }
    }
    buckets_[hole].entry = kNil;
    --size_;
  }

  /// Drops every key; keeps the table's capacity.
  void clear() {
    for (Bucket& bucket : buckets_) bucket.entry = kNil;
    size_ = 0;
  }

 private:
  struct Bucket {
    std::uint32_t hash = 0;      ///< hash_of(key); its top bits are the home
    std::uint32_t entry = kNil;  ///< slab position; kNil = empty bucket
  };

  static std::uint32_t hash_of(std::uint64_t key) {
    // Fibonacci hashing: the top bits of key * 2^64/phi spread sequential
    // keys (request ids, the Zipf key space) evenly over the table.
    return static_cast<std::uint32_t>((key * 0x9e3779b97f4a7c15ULL) >> 32);
  }

  template <typename KeyOf>
  std::size_t probe(std::uint64_t key, std::uint32_t hash,
                    const KeyOf& key_of) const {
    const std::size_t mask = buckets_.size() - 1;
    for (std::size_t b = hash >> shift_;; b = (b + 1) & mask) {
      const Bucket& bucket = buckets_[b];
      if (bucket.entry == kNil) return b;
      if (bucket.hash == hash && key_of(bucket.entry) == key) return b;
    }
  }

  void reserve_one() {
    if ((size_ + 1) * 2 <= buckets_.size()) return;
    const std::size_t count = buckets_.empty() ? 16 : buckets_.size() * 2;
    ensure(count <= (std::size_t{1} << 32), "FlatIndex: table overflow");
    std::vector<Bucket> old(count);
    old.swap(buckets_);
    shift_ = 32 - static_cast<unsigned>(std::countr_zero(count));
    const std::size_t mask = count - 1;
    for (const Bucket& bucket : old) {
      if (bucket.entry == kNil) continue;
      std::size_t b = bucket.hash >> shift_;
      while (buckets_[b].entry != kNil) b = (b + 1) & mask;
      buckets_[b] = bucket;
    }
  }

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
  unsigned shift_ = 32;  ///< 32 - log2(bucket count)
};

}  // namespace cloudprov
