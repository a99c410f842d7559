#ifndef MINIRAID_NET_PARTITION_H_
#define MINIRAID_NET_PARTITION_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "msg/message.h"

namespace miniraid {

/// Network partition injection for the simulator: messages between sites in
/// different groups are silently dropped, exactly how a partition looks to
/// the protocol (the paper's fail-locks "represent the fact that a copy ...
/// is being updated while some other copies are unavailable due to site
/// failure or network partitioning", §1.1 — but the ROWAA protocol itself
/// assumes partitions do not happen; see bench_partition_split_brain for
/// what goes wrong when they do).
///
/// Sites not assigned to any group (e.g. the managing site's control plane)
/// can talk to everyone.
class PartitionController {
 public:
  /// Splits the network into the given groups. Replaces any previous split.
  void Split(const std::vector<std::vector<SiteId>>& groups) {
    group_of_.clear();
    int group_id = 0;
    for (const std::vector<SiteId>& group : groups) {
      for (SiteId site : group) group_of_[site] = group_id;
      ++group_id;
    }
  }

  /// Removes the partition; everyone can talk again.
  void Heal() { group_of_.clear(); }

  bool Partitioned() const { return !group_of_.empty(); }

  /// True if a message from `a` to `b` would be dropped.
  bool Crosses(SiteId a, SiteId b) const {
    auto ga = group_of_.find(a);
    auto gb = group_of_.find(b);
    if (ga == group_of_.end() || gb == group_of_.end()) return false;
    return ga->second != gb->second;
  }

  /// Adapter for TransportFaults::drop_filter. The controller must outlive
  /// the transport.
  std::function<bool(const Message&)> Filter() {
    return [this](const Message& msg) { return Crosses(msg.from, msg.to); };
  }

 private:
  std::unordered_map<SiteId, int> group_of_;
};

}  // namespace miniraid

#endif  // MINIRAID_NET_PARTITION_H_
