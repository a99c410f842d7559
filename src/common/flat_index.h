#ifndef MINIRAID_COMMON_FLAT_INDEX_H_
#define MINIRAID_COMMON_FLAT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace miniraid {

/// An open-addressing hash index from 64-bit keys to 32-bit values, for
/// tables that gain and lose an entry per transaction (lock tables, the
/// recent-outcome cache): it allocates only when it grows, never per
/// entry. Linear probing with backward-shift deletion, so an erase leaves
/// no tombstone and lookups stay short under any churn. The load factor
/// stays at or below one half. Not thread-safe.
class FlatIndex {
 public:
  /// The value stored under `key`, or nullptr. Invalidated by Insert.
  const uint32_t* Find(uint64_t key) const {
    if (size_ == 0) return nullptr;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (!slot.used) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }

  /// Stores `value` under `key`, which must not be present.
  void Insert(uint64_t key, uint32_t value) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    Place(key, value);
    ++size_;
  }

  /// Removes `key`; returns false if it was not present.
  bool Erase(uint64_t key) {
    if (size_ == 0) return false;
    size_t hole = Home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (!slots_[hole].used) return false;
      if (slots_[hole].key == key) break;
    }
    // Pull later members of the probe run back over the hole, unless their
    // home lies cyclically in (hole, next]: moving those would put them
    // before their home, where a lookup never probes.
    for (size_t next = (hole + 1) & mask_; slots_[next].used;
         next = (next + 1) & mask_) {
      const size_t home = Home(slots_[next].key);
      const bool stays = hole <= next ? (hole < home && home <= next)
                                      : (hole < home || home <= next);
      if (stays) continue;
      slots_[hole] = slots_[next];
      hole = next;
    }
    slots_[hole].used = false;
    --size_;
    return true;
  }

  size_t size() const { return size_; }

  /// Forgets every entry and keeps the storage.
  void Clear() {
    for (Slot& slot : slots_) slot.used = false;
    size_ = 0;
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t value = 0;
    bool used = false;
  };

  /// Fibonacci hashing: the top bits of key * 2^64/phi. Sequential keys
  /// (transaction and item ids) land far apart.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Place(uint64_t key, uint32_t value) {
    size_t i = Home(key);
    while (slots_[i].used) i = (i + 1) & mask_;
    slots_[i] = Slot{key, value, true};
  }

  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    const size_t capacity = old.empty() ? 16 : 2 * old.size();
    slots_.resize(capacity);
    mask_ = capacity - 1;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (const Slot& slot : old) {
      if (slot.used) Place(slot.key, slot.value);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace miniraid

#endif  // MINIRAID_COMMON_FLAT_INDEX_H_
