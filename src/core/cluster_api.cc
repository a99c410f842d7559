#include "core/cluster_api.h"

#include <algorithm>

#include "common/logging.h"

namespace miniraid {

std::string_view ClusterBackendName(ClusterBackend backend) {
  switch (backend) {
    case ClusterBackend::kSim:
      return "sim";
    case ClusterBackend::kInProc:
      return "inproc";
    case ClusterBackend::kTcp:
      return "tcp";
  }
  return "unknown";
}

const TxnResult& TxnHandle::Get() {
  MR_CHECK(valid()) << "Get() on an empty TxnHandle";
  if (!state_->IsDone()) cluster_->AwaitTxn(*state_);
  return state_->reply;
}

namespace {

SiteOptions ResolveSiteOptions(uint32_t n_sites, uint32_t db_size,
                               SiteOptions site) {
  site.n_sites = n_sites;
  site.db_size = db_size;
  site.managing_site = n_sites;
  return site;
}

}  // namespace

Cluster::Cluster(const ClusterOptions& options)
    : options_(options) {
  options_.site =
      ResolveSiteOptions(options_.n_sites, options_.db_size, options_.site);
}

Cluster::~Cluster() = default;

TxnHandle Cluster::SubmitTxn(const TxnSpec& txn, SiteId coordinator) {
  auto state = std::make_shared<internal::TxnWaitState>();
  state->id = txn.id;
  SubmitTxn(txn, coordinator, [state](const TxnResult& reply) {
    {
      MutexLock lock(state->mu);
      state->reply = reply;
      state->done = true;
    }
    // Notify with the lock released: a waiter must never wake into a
    // still-held mutex (the notify-after-unlock rule the lint's
    // callback-under-lock pass enforces for this layer).
    state->cv.NotifyAll();
  });
  return TxnHandle(this, std::move(state));
}

TxnResult Cluster::RunTxn(const TxnSpec& txn, SiteId coordinator) {
  return SubmitTxn(txn, coordinator).Get();
}

uint32_t Cluster::FailLockCountFor(SiteId target) const {
  uint32_t count = 0;
  for (const SiteSnapshot& snap : SnapshotSites()) {
    if (snap.status != SiteStatus::kUp) continue;
    count = std::max(count, snap.fail_locks.CountForSite(target));
  }
  return count;
}

Status Cluster::CheckReplicaAgreement() const {
  // Replica agreement is the write-coverage invariant; run just that check
  // through a throwaway (stateless) checker.
  InvariantChecker::Options options;
  options.check_fail_lock_shape = false;
  options.check_fail_lock_session = false;
  options.check_fail_lock_agreement = false;
  options.check_session_monotonicity = false;
  InvariantChecker checker(options);
  const std::vector<InvariantViolation> violations =
      checker.Check(SnapshotSites());
  if (violations.empty()) return Status::Ok();
  return Status::Internal(violations.front().ToString());
}

std::vector<InvariantViolation> Cluster::CheckInvariants() {
  return checker_.Check(SnapshotSites());
}

}  // namespace miniraid
