#ifndef MINIRAID_REPLICATION_RECENT_OUTCOMES_H_
#define MINIRAID_REPLICATION_RECENT_OUTCOMES_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/flat_index.h"
#include "common/types.h"

namespace miniraid {

/// Final outcomes (true = committed) of the last kCapacity transactions a
/// site recorded, evicted in first-recorded order. A ring of entries plus
/// a FlatIndex into it, so recording and looking up allocate nothing once
/// the index has grown.
class RecentOutcomes {
 public:
  static constexpr size_t kCapacity = 256;

  /// Records `txn`'s outcome. An id already held is overwritten in place
  /// and keeps its age; a new one evicts the oldest once kCapacity are
  /// held.
  void Record(TxnId txn, bool committed) {
    if (const uint32_t* slot = index_.Find(txn)) {
      ring_[*slot].committed = committed;
      return;
    }
    if (size_ == kCapacity) {
      index_.Erase(ring_[next_].txn);
    } else {
      ++size_;
    }
    ring_[next_] = Entry{txn, committed};
    index_.Insert(txn, next_);
    next_ = static_cast<uint32_t>((next_ + 1) % kCapacity);
  }

  /// The recorded outcome of `txn`; nullopt if it was never recorded or
  /// has been evicted.
  std::optional<bool> Find(TxnId txn) const {
    const uint32_t* slot = index_.Find(txn);
    if (slot == nullptr) return std::nullopt;
    return ring_[*slot].committed;
  }

  void Clear() {
    index_.Clear();
    size_ = 0;
    next_ = 0;
  }

 private:
  struct Entry {
    TxnId txn = 0;
    bool committed = false;
  };

  std::array<Entry, kCapacity> ring_{};
  FlatIndex index_;  // txn -> position in ring_
  uint32_t next_ = 0;  // the next position to write: the oldest when full
  size_t size_ = 0;
};

}  // namespace miniraid

#endif  // MINIRAID_REPLICATION_RECENT_OUTCOMES_H_
