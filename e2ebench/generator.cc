#include "generator.h"

#include <algorithm>

namespace e2ebench {

using miniraid::ClusterBackend;
using miniraid::Milliseconds;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // Read path, singleton 2PC, codec and loop hand-offs; no TCP, no
      // batching, no recovery work.
      {"inproc-readmostly", ClusterBackend::kInProc, 0.05, 1,
       Milliseconds(1000), false},
      // TCP transport and the singleton 2PC write path on the paper's 50%
      // write mix.
      {"tcp-write", ClusterBackend::kTcp, 0.50, 1, Milliseconds(1000), false},
      // The same over group commit and coalesced fail-lock maintenance. Not
      // gated: a cross-batch wait cycle sometimes ends only at ack_timeout
      // (README.md, "Why two workloads are not gated").
      {"tcp-batch-write", ClusterBackend::kTcp, 0.50, 16, Milliseconds(1000),
       false},
      // The paper's subject: failure detection, fail-locks, type 1/2
      // control transactions, copier and clear-fail-lock transactions. Not
      // gated: a survivor is sometimes declared failed (README.md).
      {"inproc-failover", ClusterBackend::kInProc, 0.50, 1, Milliseconds(250),
       true},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

miniraid::ClusterOptions OptionsFor(const WorkloadSpec& workload,
                                    uint16_t base_port) {
  miniraid::ClusterOptions options;
  options.backend = workload.backend;
  options.n_sites = kSites;
  options.db_size = kItems;
  options.max_inflight = kOutstanding;
  options.base_port = base_port;
  options.site.ack_timeout = workload.ack_timeout;
  options.site.concurrency.mode = miniraid::ConcurrencyMode::kTwoPhaseLocking;
  options.site.concurrency.deadlock_policy = miniraid::DeadlockPolicy::kWaitDie;
  // Every outstanding transaction can hold an executor slot, so requests
  // never queue at a site for a slot instead of for a lock.
  options.site.concurrency.max_executors = kOutstanding;
  options.site.batching.max_batch = workload.max_batch;
  return options;
}

uint64_t TxnGenerator::NextRandom() {
  // SplitMix64.
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

miniraid::TxnSpec TxnGenerator::Next(miniraid::TxnId id) {
  miniraid::TxnSpec spec;
  spec.id = id;
  const uint32_t n_ops =
      kMinOps + static_cast<uint32_t>(NextRandom() % (kMaxOps - kMinOps + 1));
  std::vector<miniraid::ItemId> items;
  while (items.size() < n_ops) {
    const auto item = static_cast<miniraid::ItemId>(NextRandom() % kItems);
    if (std::find(items.begin(), items.end(), item) == items.end()) {
      items.push_back(item);
    }
  }
  // 53 random bits give a uniform double in [0, 1).
  constexpr double kUnit = 1.0 / double(uint64_t{1} << 53);
  for (miniraid::ItemId item : items) {
    if (double(NextRandom() >> 11) * kUnit < write_share_) {
      spec.ops.push_back(
          miniraid::Operation::Write(item, miniraid::WriteValueFor(id, item)));
    } else {
      spec.ops.push_back(miniraid::Operation::Read(item));
    }
  }
  return spec;
}

}  // namespace e2ebench
