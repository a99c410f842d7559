#include "baselines/baseline_cluster.h"

#include "common/logging.h"

namespace miniraid {

BaselineCluster::BaselineCluster(const BaselineClusterOptions& options)
    : options_(options),
      sim_(options.sim),
      layers_(/*reliable=*/false, options.faults) {
  options_.site.n_sites = options_.n_sites;
  options_.site.db_size = options_.db_size;
  options_.site.managing_site = managing_id();
  transport_ = std::make_unique<SimTransport>(&sim_, options_.transport);
  // The sites, then the managing site.
  for (SiteId id = 0; id <= managing_id(); ++id) {
    SiteRuntime* runtime = sim_.RuntimeFor(id);
    transport_->Register(
        id, layers_.Wire(id, transport_.get(), runtime,
                         [&](Transport* transport) -> MessageHandler* {
                           if (id == managing_id()) {
                             managing_ = std::make_unique<ManagingSite>(
                                 id, transport, runtime, options_.managing);
                             return managing_.get();
                           }
                           if (options_.kind == BaselineKind::kRowaStrict) {
                             rowa_.push_back(std::make_unique<RowaSite>(
                                 id, options_.site, transport, runtime));
                             return rowa_.back().get();
                           }
                           quorum_.push_back(std::make_unique<QuorumSite>(
                               id, options_.site, transport, runtime));
                           return quorum_.back().get();
                         }));
  }
}

BaselineCluster::~BaselineCluster() = default;

TxnResult BaselineCluster::RunTxn(const TxnSpec& txn, SiteId coordinator) {
  std::optional<TxnResult> result;
  managing_->Submit(txn, coordinator,
                    [&result](const TxnResult& reply) { result = reply; });
  sim_.RunUntilIdle();
  MR_CHECK(result.has_value()) << "simulation drained without a reply";
  return *result;
}

void BaselineCluster::Fail(SiteId site) {
  managing_->FailSite(site);
  sim_.RunUntilIdle();
}

void BaselineCluster::Recover(SiteId site) {
  managing_->RecoverSite(site);
  sim_.RunUntilIdle();
}

std::vector<SiteId> BaselineCluster::UpSites() const {
  std::vector<SiteId> up;
  for (SiteId id = 0; id < options_.n_sites; ++id) {
    const bool is_up = options_.kind == BaselineKind::kRowaStrict
                           ? rowa_[id]->is_up()
                           : quorum_[id]->is_up();
    if (is_up) up.push_back(id);
  }
  return up;
}

const SiteCounters& BaselineCluster::site_counters(SiteId site) const {
  return options_.kind == BaselineKind::kRowaStrict
             ? rowa_.at(site)->counters()
             : quorum_.at(site)->counters();
}

}  // namespace miniraid
