#include "runner.h"

#include <algorithm>
#include <chrono>

#include "common/strings.h"

namespace e2ebench {

using miniraid::Cluster;
using miniraid::Duration;
using miniraid::MutexLock;
using miniraid::SiteId;
using miniraid::TimePoint;
using miniraid::TxnId;
using miniraid::TxnResult;

ClosedLoop::ClosedLoop(Cluster* cluster, uint64_t seed, double write_share,
                       uint32_t outstanding)
    : cluster_(cluster),
      generator_(seed, write_share),
      outstanding_(outstanding) {
  txn_state_.reserve(1 << 22);
  txn_state_.push_back(0);  // ids start at 1
}

void ClosedLoop::StartPhase(std::vector<SiteId> coordinators, uint64_t budget,
                            bool after_failure, bool record) {
  {
    MutexLock lock(mu_);
    drained_ = false;
  }
  stop_.store(false);
  cluster_->Post([this, coordinators = std::move(coordinators), budget,
                  after_failure, record]() mutable {
    coordinators_ = std::move(coordinators);
    budget_ = budget;
    phase_submitted_ = 0;
    record_ = record;
    phases_.push_back(PhaseRecord{after_failure});
    const uint64_t first =
        budget == 0 ? outstanding_ : std::min<uint64_t>(budget, outstanding_);
    for (uint64_t i = 0; i < first; ++i) SubmitNext();
    if (first == 0) SignalDrained();
  });
}

bool ClosedLoop::WaitDrained(Duration timeout) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(timeout);
  MutexLock lock(mu_);
  while (!drained_) {
    if (cv_.WaitUntil(mu_, deadline)) return drained_;
  }
  return true;
}

bool ClosedLoop::RunPhase(std::vector<SiteId> coordinators, uint64_t budget,
                          bool after_failure, bool record, Duration timeout) {
  StartPhase(std::move(coordinators), budget, after_failure, record);
  return WaitDrained(timeout);
}

void ClosedLoop::SubmitNext() {
  const TxnId id = next_id_++;
  txn_state_.push_back(0);
  const SiteId coordinator =
      coordinators_[round_robin_++ % coordinators_.size()];
  ++inflight_;
  ++phase_submitted_;
  const TimePoint submit = cluster_->Now();
  cluster_->SubmitTxn(generator_.Next(id), coordinator,
                      [this, submit, coordinator](const TxnResult& reply) {
                        OnReply(reply, submit, coordinator);
                      });
}

void ClosedLoop::OnReply(const TxnResult& reply, TimePoint submit,
                         SiteId coordinator) {
  const TimePoint now = cluster_->Now();
  --inflight_;
  if (reply.txn < txn_state_.size()) {
    txn_state_[reply.txn] |= reply.committed() ? kCommitted : kAborted;
  } else if (oracle_error_.empty()) {
    oracle_error_ = miniraid::StrFormat("reply for unknown txn %llu",
                                        (unsigned long long)reply.txn);
  }
  if (reply.committed()) {
    for (const miniraid::ItemCopy& read : reply.reads) {
      const bool initial = read.version == 0 && read.value == 0;
      const bool written =
          read.version != 0 && read.version < txn_state_.size() &&
          read.value == miniraid::WriteValueFor(read.version, read.item);
      if (written) txn_state_[read.version] |= kReadSeen;
      if (!initial && !written && oracle_error_.empty()) {
        oracle_error_ = miniraid::StrFormat(
            "txn %llu read item %u = (%lld, v%llu), not a written value",
            (unsigned long long)reply.txn, read.item, (long long)read.value,
            (unsigned long long)read.version);
      }
    }
  }
  if (record_) {
    completions_.push_back(
        Completion{submit, now, reply.outcome, coordinator,
                   static_cast<uint32_t>(phases_.size() - 1)});
  }
  const bool more = budget_ == 0 || phase_submitted_ < budget_;
  if (more && !stop_.load()) {
    SubmitNext();
  } else if (inflight_ == 0) {
    SignalDrained();
  }
}

void ClosedLoop::SignalDrained() {
  {
    MutexLock lock(mu_);
    drained_ = true;
  }
  cv_.NotifyAll();
}

std::string ClosedLoop::CheckOracle(
    const std::vector<miniraid::SiteSnapshot>& snapshots) const {
  if (!oracle_error_.empty()) return oracle_error_;
  for (size_t id = 1; id < txn_state_.size(); ++id) {
    if ((txn_state_[id] & kReadSeen) && !(txn_state_[id] & kCommitted)) {
      return miniraid::StrFormat("a committed read saw txn %zu, which did "
                                 "not commit",
                                 id);
    }
  }
  for (const miniraid::SiteSnapshot& snap : snapshots) {
    for (size_t item = 0; item < snap.db.size(); ++item) {
      if (!snap.db[item].has_value()) continue;
      const miniraid::ItemState& copy = *snap.db[item];
      if (copy.version == 0 && copy.value == 0) continue;
      const bool ok =
          copy.version < txn_state_.size() &&
          (txn_state_[copy.version] & kCommitted) &&
          copy.value == miniraid::WriteValueFor(
                            copy.version, static_cast<miniraid::ItemId>(item));
      if (!ok) {
        return miniraid::StrFormat(
            "site %u item %zu holds (%lld, v%llu), not a committed write",
            snap.id, item, (long long)copy.value,
            (unsigned long long)copy.version);
      }
    }
  }
  return "";
}

ThreadRoles DiscoverThreads(Cluster& cluster) {
  ThreadRoles roles;
  for (SiteId site = 0; site < cluster.n_sites(); ++site) {
    pid_t tid = 0;
    cluster.WaitUntil(site, [&tid](const miniraid::Site&) {
      tid = CurrentTid();
      return true;
    });
    roles.sites.insert(tid);
  }
  struct Shared {
    miniraid::Mutex mu;
    miniraid::CondVar cv;
    pid_t tid MR_GUARDED_BY(mu) = 0;
  };
  auto shared = std::make_shared<Shared>();
  cluster.Post([shared] {
    {
      MutexLock lock(shared->mu);
      shared->tid = CurrentTid();
    }
    shared->cv.NotifyAll();
  });
  {
    MutexLock lock(shared->mu);
    while (shared->tid == 0) shared->cv.Wait(shared->mu);
    roles.managing = shared->tid;
  }
  const pid_t client = CurrentTid();
  for (const auto& [tid, sample] : SampleThreads()) {
    if (tid != client && tid != roles.managing && !roles.sites.count(tid)) {
      roles.io.insert(tid);
    }
  }
  return roles;
}

CounterTotals ReadCounters(Cluster& cluster) {
  CounterTotals totals;
  for (SiteId site = 0; site < cluster.n_sites(); ++site) {
    cluster.WaitUntil(site, [&totals](const miniraid::Site& s) {
      const miniraid::SiteCounters& c = s.counters();
      totals.lock_waits += c.lock_waits;
      totals.lock_rejections += c.lock_rejections;
      totals.batch_rounds += c.batch_rounds_coordinated;
      totals.batch_members += c.batch_members_coordinated;
      totals.control2_initiated += c.control2_initiated;
      totals.aborted_participant += c.txns_aborted_participant;
      totals.fail_locks_set += c.fail_locks_set;
      totals.copier_txns += c.copier_transactions;
      totals.clear_lock_txns += c.clear_lock_txns_sent;
      totals.prepare_samples.push_back(c.phase_prepare_time.count());
      totals.commit_samples.push_back(c.phase_commit_time.count());
      return true;
    });
  }
  return totals;
}

void PhaseSamplesSince(Cluster& cluster, const CounterTotals& start,
                       std::vector<Duration>* prepare,
                       std::vector<Duration>* commit) {
  for (SiteId site = 0; site < cluster.n_sites(); ++site) {
    cluster.WaitUntil(site, [&](const miniraid::Site& s) {
      const auto& p = s.counters().phase_prepare_time.samples();
      const auto& c = s.counters().phase_commit_time.samples();
      const size_t p0 = std::min(p.size(), start.prepare_samples[site]);
      const size_t c0 = std::min(c.size(), start.commit_samples[site]);
      prepare->insert(prepare->end(), p.begin() + p0, p.end());
      commit->insert(commit->end(), c.begin() + c0, c.end());
      return true;
    });
  }
}

}  // namespace e2ebench
