#ifndef MINIRAID_BASELINES_BASELINE_CLUSTER_H_
#define MINIRAID_BASELINES_BASELINE_CLUSTER_H_

#include <memory>
#include <vector>

#include "baselines/quorum_site.h"
#include "baselines/rowa_site.h"
#include "core/cluster.h"
#include "core/managing_site.h"
#include "net/faults.h"
#include "net/sim_transport.h"
#include "sim/sim_runtime.h"

namespace miniraid {

/// Which comparison protocol a BaselineCluster runs.
enum class BaselineKind {
  kRowaStrict,  // read-one / write-ALL
  kQuorum,      // majority-quorum consensus
};

struct BaselineClusterOptions {
  uint32_t n_sites = 4;
  uint32_t db_size = 50;
  BaselineKind kind = BaselineKind::kRowaStrict;
  BaselineSiteOptions site;
  SimOptions sim;
  SimTransportOptions transport;
  /// Loss and duplication, as ClusterOptions::faults: when it injects
  /// anything, every endpoint sends and receives through a FaultLayer.
  TransportFaults faults;
  ManagingSite::Options managing;
};

/// Simulator-backed cluster running one of the baseline protocols, with the
/// same driver surface as SimCluster so the availability benches can sweep
/// ROWAA / strict ROWA / quorum over identical failure schedules.
class BaselineCluster {
 public:
  explicit BaselineCluster(const BaselineClusterOptions& options);
  ~BaselineCluster();

  BaselineCluster(const BaselineCluster&) = delete;
  BaselineCluster& operator=(const BaselineCluster&) = delete;

  TxnResult RunTxn(const TxnSpec& txn, SiteId coordinator);
  void Fail(SiteId site);
  void Recover(SiteId site);

  std::vector<SiteId> UpSites() const;
  uint64_t messages_sent() const { return transport_->messages_sent(); }
  const SiteCounters& site_counters(SiteId site) const;

  SiteId managing_id() const { return options_.n_sites; }
  uint32_t n_sites() const { return options_.n_sites; }

 private:
  BaselineClusterOptions options_;
  SimRuntime sim_;
  std::unique_ptr<SimTransport> transport_;
  /// A fault layer per endpoint, when options.faults injects anything;
  /// never a channel.
  internal::EndpointLayers layers_;
  std::vector<std::unique_ptr<RowaSite>> rowa_;
  std::vector<std::unique_ptr<QuorumSite>> quorum_;
  std::unique_ptr<ManagingSite> managing_;
};

}  // namespace miniraid

#endif  // MINIRAID_BASELINES_BASELINE_CLUSTER_H_
