#ifndef E2EBENCH_GENERATOR_H_
#define E2EBENCH_GENERATOR_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/cluster_api.h"
#include "txn/transaction.h"

namespace e2ebench {

// Settings every workload shares (README.md, "Workloads").
inline constexpr uint32_t kSites = 3;
inline constexpr uint32_t kItems = 100000;
inline constexpr uint32_t kOutstanding = 64;
inline constexpr uint32_t kMinOps = 1;
inline constexpr uint32_t kMaxOps = 5;

/// One benchmark workload: which backend, which transaction mix, and
/// whether the failure/recovery scenario runs.
struct WorkloadSpec {
  std::string_view name;
  miniraid::ClusterBackend backend;
  double write_share;  // probability that one operation is a write
  uint32_t max_batch;  // BatchingOptions::max_batch (1 = singleton 2PC)
  miniraid::Duration ack_timeout;
  bool failover;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// Cluster options for `workload`; `base_port` is used by the tcp backend.
miniraid::ClusterOptions OptionsFor(const WorkloadSpec& workload,
                                    uint16_t base_port);

/// Seeded transaction source. The sequence of specs is a pure function of
/// the seed and the ids passed in: 1-5 distinct items drawn uniformly from
/// the whole database, each operation a write with `write_share`
/// probability, write values from WriteValueFor(id, item).
class TxnGenerator {
 public:
  TxnGenerator(uint64_t seed, double write_share)
      : state_(seed), write_share_(write_share) {}

  miniraid::TxnSpec Next(miniraid::TxnId id);

 private:
  uint64_t NextRandom();

  uint64_t state_;
  double write_share_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_GENERATOR_H_
