// The one LRU-evicting map behind every bounded memo in the codebase:
// the engine's digest-keyed result memo (engine/engine.hpp), the
// execution backend's lowering-gate and input-tensor memos
// (measure/backend.hpp), and the jit kernel registry + negative cache
// (exec/jit.cpp).  Centralising the splice-to-front recency refresh,
// the iterator bookkeeping and the eviction loop keeps their semantics
// identical by construction.
//
// Semantics shared by every consumer:
//   * find() refreshes recency; contains() does not.
//   * insert() of an existing key keeps the incumbent value and only
//     refreshes recency — every consumer stores deterministic values,
//     so the incumbent is always equivalent to the newcomer.
//   * Eviction never removes the last remaining entry, so a single
//     value larger than max_bytes still memoizes.
//   * Caps of 0 mean unbounded.
//
// NOT thread-safe: every consumer already serializes around its own
// mutex, so the map stays lock-free by design.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

namespace mcf {

template <typename K, typename V>
class LruMap {
 public:
  struct Limits {
    std::size_t max_entries = 0;  ///< 0 = unbounded
    std::size_t max_bytes = 0;    ///< 0 = unbounded (per-entry bytes via insert)
  };

  LruMap() = default;
  explicit LruMap(Limits limits) : limits_(limits) {}

  /// Pointer to the stored value (refreshing recency), null on miss.
  /// The pointer is invalidated by the next insert().
  [[nodiscard]] V* find(const K& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return &it->second.value;
  }

  /// Membership probe WITHOUT a recency refresh.
  [[nodiscard]] bool contains(const K& key) const {
    return map_.count(key) != 0;
  }

  /// Inserts `value` accounted as `bytes`, evicting least-recently-used
  /// entries past the caps; an existing key keeps its incumbent value
  /// (recency refreshed).  Returns the stored value; the reference is
  /// invalidated by the next insert().
  V& insert(const K& key, V value, std::size_t bytes = 0) {
    const auto [it, inserted] =
        map_.try_emplace(key, Slot{std::move(value), bytes, {}});
    if (!inserted) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.value;
    }
    lru_.push_front(key);
    it->second.lru_it = lru_.begin();
    bytes_ += bytes;
    while (map_.size() > 1 &&
           ((limits_.max_entries != 0 && map_.size() > limits_.max_entries) ||
            (limits_.max_bytes != 0 && bytes_ > limits_.max_bytes))) {
      const auto victim = map_.find(lru_.back());
      bytes_ -= victim->second.bytes;
      map_.erase(victim);
      lru_.pop_back();
      ++evictions_;
    }
    return it->second.value;
  }

  /// Removes `key` if present (no recency side effects on other entries).
  /// Returns whether an entry was removed.  Needed by consumers that must
  /// drop a poisoned entry (jit kernel invalidation, crash-cache eviction)
  /// rather than wait for LRU pressure.
  bool erase(const K& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    bytes_ -= it->second.bytes;
    lru_.erase(it->second.lru_it);
    map_.erase(it);
    return true;
  }

  /// Visits every (key, value), most recent first; recency is untouched.
  template <typename F>
  void for_each(F&& f) const {
    for (const K& key : lru_) f(key, map_.find(key)->second.value);
  }

  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  [[nodiscard]] const Limits& limits() const noexcept { return limits_; }

 private:
  struct Slot {
    V value;
    std::size_t bytes = 0;
    typename std::list<K>::iterator lru_it;  ///< into lru_
  };

  Limits limits_;
  std::unordered_map<K, Slot> map_;
  std::list<K> lru_;  ///< front = most recently used
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace mcf
