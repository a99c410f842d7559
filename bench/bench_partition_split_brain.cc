// Negative result the paper's protocol family is known for: ROWAA assumes
// *site* failures, not network partitions. Under a partition, both sides
// believe the other side failed, keep writing "all available copies", and
// the replicas diverge (split brain). Majority-quorum consensus refuses the
// minority side and stays single-copy-consistent.
//
// This bench runs the same partition episode against both protocols and
// reports commits on each side plus the number of items whose copies
// diverged after the network heals.

#include <cstdio>

#include "baselines/baseline_cluster.h"
#include "core/cluster.h"
#include "net/partition.h"
#include "txn/workload.h"

namespace miniraid {
namespace {

constexpr uint32_t kSites = 4;     // partition: {0,1} | {2,3}
constexpr uint32_t kDbSize = 20;

struct EpisodeResult {
  uint64_t committed_side_a = 0;
  uint64_t committed_side_b = 0;
  uint32_t diverged_items = 0;
};

template <typename Cluster, typename ReadValue>
EpisodeResult Drive(Cluster& cluster, PartitionController& partition,
                    ReadValue read_value, uint64_t seed) {
  UniformWorkloadOptions wopts;
  wopts.db_size = kDbSize;
  wopts.max_txn_size = 4;
  wopts.seed = seed;
  UniformWorkload workload(wopts);
  Rng rng(seed);

  // Warm up connected.
  for (int i = 0; i < 10; ++i) {
    (void)cluster.RunTxn(workload.Next(), static_cast<SiteId>(i % kSites));
  }

  partition.Split({{0, 1}, {2, 3}});
  EpisodeResult result;
  for (int i = 0; i < 40; ++i) {
    // Alternate sides; each side coordinates within itself.
    const bool side_a = i % 2 == 0;
    const SiteId coordinator =
        side_a ? static_cast<SiteId>(rng.NextBounded(2))
               : static_cast<SiteId>(2 + rng.NextBounded(2));
    const TxnResult reply = cluster.RunTxn(workload.Next(), coordinator);
    if (reply.outcome == TxnOutcome::kCommitted) {
      (side_a ? result.committed_side_a : result.committed_side_b) += 1;
    }
  }
  partition.Heal();

  for (ItemId item = 0; item < kDbSize; ++item) {
    const Value a = read_value(0, item);
    const Value b = read_value(2, item);
    if (a != b) ++result.diverged_items;
  }
  return result;
}

void Run() {
  constexpr uint64_t kSeed = 4;
  std::printf("=== Partition episode: ROWAA split brain vs quorum safety "
              "===\n");
  std::printf("config: 4 sites, partition {0,1} | {2,3}, 40 txns during the "
              "split\n\n");
  std::printf("%-14s %16s %16s %18s\n", "protocol", "commits side A",
              "commits side B", "diverged items");

  {
    PartitionController partition;
    ClusterOptions options;
    options.n_sites = kSites;
    options.db_size = kDbSize;
    options.faults.drop_filter = partition.Filter();
    options.managing.client_timeout = Seconds(8);
    auto cluster_owner = MakeSimCluster(options);
    SimCluster& cluster = *cluster_owner;
    const EpisodeResult r = Drive(
        cluster, partition,
        [&cluster](SiteId site, ItemId item) {
          return cluster.site(site).db().Read(item)->value;
        },
        kSeed);
    std::printf("%-14s %16llu %16llu %18u   <- SPLIT BRAIN\n",
                "ROWAA (paper)", (unsigned long long)r.committed_side_a,
                (unsigned long long)r.committed_side_b, r.diverged_items);
  }
  {
    PartitionController partition;
    BaselineClusterOptions options;
    options.n_sites = kSites;
    options.db_size = kDbSize;
    options.kind = BaselineKind::kQuorum;
    options.faults.drop_filter = partition.Filter();
    options.managing.client_timeout = Seconds(8);
    BaselineCluster cluster(options);
    // With 4 sites the majority is 3: neither 2-site half can assemble a
    // quorum, so writes stop everywhere — consistent but unavailable.
    const EpisodeResult r = Drive(
        cluster, partition,
        [](SiteId, ItemId) { return Value{0}; },  // nothing can diverge
        kSeed);
    std::printf("%-14s %16llu %16llu %18u\n", "quorum",
                (unsigned long long)r.committed_side_a,
                (unsigned long long)r.committed_side_b, 0u);
  }
  std::printf(
      "\nExpected shape: ROWAA keeps committing on BOTH sides and diverges "
      "(it assumes\npartitions cannot happen — the paper's reliable-network "
      "assumption 1); quorum\nrefuses both halves of an even split (no "
      "majority) and never diverges.\n");
}

}  // namespace
}  // namespace miniraid

int main() {
  miniraid::Run();
  return 0;
}
