// Open-addressing hash table for the engine's hot lookup paths.
//
// std::unordered_map allocates one node per element and chases a pointer per
// probe; on the tables the simulator and scheduler hit per packet (topology
// interface/host lookups, pending-probe tables, atlas hop indexes) that is
// the dominant cost after the routing math itself. FlatMap keeps key/value
// pairs inline in one power-of-two array with linear probing, so a lookup is
// a hash, a mask, and a short contiguous scan. DESIGN.md §13 records the
// measurement against std::unordered_map that keeps it.
//
// Design choices:
//   * Power-of-two capacity; slot = splitmix64-mixed hash & (capacity - 1).
//     The mix makes clustered keys (sequential IPv4 addresses, small ids)
//     safe to use directly.
//   * Tombstone-free backward-shift erase: deleting an element shifts the
//     rest of its probe cluster back one slot instead of leaving a DELETED
//     marker, so heavy insert/erase churn (the scheduler's pending table)
//     cannot degrade probe lengths over time.
//   * Max load factor 7/8 before doubling; storage is a std::vector of
//     slots, so the table obeys the no-raw-new rule and moves cheaply.
//
// Iterators: any insert may rehash and any erase may shift the rest of a
// probe cluster, so both invalidate ALL iterators. Erase is by key only;
// callers that drop entries while walking the table collect keys first.
//
// Key and Value must be default-constructible and movable; empty slots hold
// default-constructed pairs. Keys are compared with operator==.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace revtr::util {

// Default hasher: whatever std::hash produces, re-mixed through splitmix64
// so low-entropy hashes (identity hashes of small integers, IPv4 addresses)
// spread over the whole table.
template <typename Key>
struct FlatHash {
  std::size_t operator()(const Key& key) const noexcept {
    return static_cast<std::size_t>(
        splitmix64(static_cast<std::uint64_t>(std::hash<Key>{}(key))));
  }
};

template <typename Key, typename Value, typename Hash = FlatHash<Key>>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;

  FlatMap() = default;

  template <bool Const>
  class Iterator {
   public:
    using MapPtr = std::conditional_t<Const, const FlatMap*, FlatMap*>;
    using Ref = std::conditional_t<Const, const value_type&, value_type&>;
    using Ptr = std::conditional_t<Const, const value_type*, value_type*>;

    Iterator() = default;
    Iterator(MapPtr map, std::size_t index) : map_(map), index_(index) {
      skip_empty();
    }

    Ref operator*() const { return map_->slots_[index_].kv; }
    Ptr operator->() const { return &map_->slots_[index_].kv; }
    Iterator& operator++() {
      ++index_;
      skip_empty();
      return *this;
    }
    Iterator operator++(int) {
      Iterator copy = *this;
      ++*this;
      return copy;
    }
    bool operator==(const Iterator& other) const {
      return index_ == other.index_;
    }

   private:
    void skip_empty() {
      while (index_ < map_->slots_.size() && !map_->slots_[index_].used) {
        ++index_;
      }
    }
    MapPtr map_ = nullptr;
    std::size_t index_ = 0;
  };

  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, slots_.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, slots_.size()); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  void clear() {
    slots_.clear();
    size_ = 0;
  }

  // Pre-sizes the table so `count` elements fit without rehashing.
  void reserve(std::size_t count) {
    std::size_t want = 16;
    while (want * 7 / 8 < count) want *= 2;
    if (want > slots_.size()) rehash(want);
  }

  iterator find(const Key& key) {
    const std::size_t index = find_index(key);
    return index == npos ? end() : iterator(this, index);
  }
  const_iterator find(const Key& key) const {
    const std::size_t index = find_index(key);
    return index == npos ? end() : const_iterator(this, index);
  }
  bool contains(const Key& key) const { return find_index(key) != npos; }
  std::size_t count(const Key& key) const {
    return find_index(key) == npos ? 0 : 1;
  }

  // Unlike std::unordered_map::at, a missing key is a programming error and
  // trips REVTR_CHECK rather than throwing.
  Value& at(const Key& key) {
    const std::size_t index = find_index(key);
    REVTR_CHECK(index != npos);
    return slots_[index].kv.second;
  }
  const Value& at(const Key& key) const {
    const std::size_t index = find_index(key);
    REVTR_CHECK(index != npos);
    return slots_[index].kv.second;
  }

  Value& operator[](const Key& key) {
    return try_emplace(key).first->second;
  }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    grow_if_needed();
    std::size_t index = slot_of(key);
    while (slots_[index].used) {
      if (slots_[index].kv.first == key) {
        return {iterator(this, index), false};
      }
      index = next(index);
    }
    slots_[index].used = true;
    slots_[index].kv.first = key;
    slots_[index].kv.second = Value(std::forward<Args>(args)...);
    ++size_;
    return {iterator(this, index), true};
  }

  template <typename V>
  std::pair<iterator, bool> insert_or_assign(const Key& key, V&& value) {
    auto [it, inserted] = try_emplace(key);
    it->second = std::forward<V>(value);
    return {it, inserted};
  }

  std::pair<iterator, bool> insert(value_type kv) {
    auto [it, inserted] = try_emplace(kv.first);
    if (inserted) it->second = std::move(kv.second);
    return {it, inserted};
  }

  // Emplace matching the std map shape (key, value construction args).
  template <typename K, typename... Args>
  std::pair<iterator, bool> emplace(K&& key, Args&&... args) {
    return try_emplace(Key(std::forward<K>(key)),
                       std::forward<Args>(args)...);
  }

  std::size_t erase(const Key& key) {
    const std::size_t index = find_index(key);
    if (index == npos) return 0;
    erase_at(index);
    return 1;
  }

 private:
  struct Slot {
    value_type kv{};
    bool used = false;
  };

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::size_t mask() const noexcept { return slots_.size() - 1; }
  std::size_t slot_of(const Key& key) const noexcept {
    return Hash{}(key) & mask();
  }
  std::size_t next(std::size_t index) const noexcept {
    return (index + 1) & mask();
  }

  std::size_t find_index(const Key& key) const {
    if (slots_.empty()) return npos;
    std::size_t index = slot_of(key);
    while (slots_[index].used) {
      if (slots_[index].kv.first == key) return index;
      index = next(index);
    }
    return npos;
  }

  void grow_if_needed() {
    if (slots_.empty()) {
      rehash(16);
    } else if ((size_ + 1) * 8 > slots_.size() * 7) {
      rehash(slots_.size() * 2);
    }
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    for (Slot& slot : old) {
      if (!slot.used) continue;
      std::size_t index = slot_of(slot.kv.first);
      while (slots_[index].used) index = next(index);
      slots_[index].used = true;
      slots_[index].kv = std::move(slot.kv);
    }
  }

  // Backward-shift deletion: walk the cluster after `hole`; any element
  // whose home slot does not sit in (hole, current] (circularly) belongs
  // before the hole, so move it back and continue from its old position.
  void erase_at(std::size_t hole) {
    REVTR_CHECK(hole < slots_.size() && slots_[hole].used);
    std::size_t index = next(hole);
    while (slots_[index].used) {
      const std::size_t home = slot_of(slots_[index].kv.first);
      // Distance from home to a slot, walking forward circularly. The
      // element may move back to `hole` only if its home is at or before
      // the hole along its probe path.
      const std::size_t dist_hole = (hole - home) & mask();
      const std::size_t dist_index = (index - home) & mask();
      if (dist_hole < dist_index) {
        slots_[hole].kv = std::move(slots_[index].kv);
        hole = index;
      }
      index = next(index);
    }
    slots_[hole].kv = value_type{};
    slots_[hole].used = false;
    --size_;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace revtr::util
