#ifndef E2EBENCH_RUNNER_H_
#define E2EBENCH_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "core/cluster_api.h"
#include "generator.h"
#include "probe.h"

namespace e2ebench {

/// One transaction as the client saw it.
struct Completion {
  miniraid::TimePoint submit_ns = 0;
  miniraid::TimePoint reply_ns = 0;
  miniraid::TxnOutcome outcome = miniraid::TxnOutcome::kCommitted;
  miniraid::SiteId coordinator = 0;
  uint32_t phase = 0;
};

/// One load phase.
struct PhaseRecord {
  /// Started right after a Fail(): its transactions may wait out
  /// ack_timeout because of the injected failure.
  bool after_failure = false;
};

/// The closed-loop client: keeps `outstanding` transactions in flight
/// against a Cluster. The first submissions come from the client thread's
/// Post; every later one is generated and submitted from the completion
/// callback in the managing context, so the generator opens no connection
/// and no thread of its own. Only the generated TxnSpecs reach the cluster.
///
/// Also the client-side oracle: every value a committed read returns, and
/// every copy left in a database, must be WriteValueFor(version, item) of
/// a committed writer (or the initial 0/0).
class ClosedLoop {
 public:
  ClosedLoop(miniraid::Cluster* cluster, uint64_t seed, double write_share,
             uint32_t outstanding = kOutstanding);

  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Starts a phase (client thread): submits until `budget` transactions
  /// went out (0 = until StopPhase), coordinators round-robin over
  /// `coordinators`. Completions are kept only when `record` is set.
  void StartPhase(std::vector<miniraid::SiteId> coordinators, uint64_t budget,
                  bool after_failure, bool record);
  /// Stops submitting; in-flight transactions still complete.
  void StopPhase() { stop_.store(true); }
  /// Waits until the phase has submitted everything it will and every
  /// reply arrived. False on timeout.
  bool WaitDrained(miniraid::Duration timeout);
  /// StartPhase + WaitDrained.
  bool RunPhase(std::vector<miniraid::SiteId> coordinators, uint64_t budget,
                bool after_failure, bool record, miniraid::Duration timeout);

  // -- read only while drained ----------------------------------------------
  const std::vector<Completion>& completions() const { return completions_; }
  void ClearCompletions() { completions_.clear(); }
  const std::vector<PhaseRecord>& phases() const { return phases_; }
  uint64_t submitted() const { return next_id_ - 1; }
  /// Returns "" when every read and every copy in `snapshots` is a value
  /// some committed transaction wrote; else a description of the first
  /// mismatch.
  std::string CheckOracle(
      const std::vector<miniraid::SiteSnapshot>& snapshots) const;

 private:
  enum : uint8_t { kCommitted = 1, kAborted = 2, kReadSeen = 4 };

  // Managing context only.
  void SubmitNext();
  void OnReply(const miniraid::TxnResult& reply, miniraid::TimePoint submit,
               miniraid::SiteId coordinator);
  void SignalDrained();

  miniraid::Cluster* const cluster_;
  TxnGenerator generator_;
  const uint32_t outstanding_;

  // Managing context while a phase runs; the client thread reads them only
  // after WaitDrained, which synchronizes through mu_.
  miniraid::TxnId next_id_ = 1;
  std::vector<miniraid::SiteId> coordinators_;
  uint64_t round_robin_ = 0;
  uint64_t budget_ = 0;
  uint64_t phase_submitted_ = 0;
  uint32_t inflight_ = 0;
  bool record_ = false;
  std::vector<uint8_t> txn_state_;
  std::vector<Completion> completions_;
  std::vector<PhaseRecord> phases_;
  std::string oracle_error_;

  std::atomic<bool> stop_{false};
  miniraid::Mutex mu_;
  miniraid::CondVar cv_;
  bool drained_ MR_GUARDED_BY(mu_) = true;
};

/// Thread ids of a cluster's threads, learned by calling gettid() inside
/// each loop.
struct ThreadRoles {
  pid_t managing = 0;
  std::set<pid_t> sites;
  std::set<pid_t> io;  // every other thread except the client's
};

ThreadRoles DiscoverThreads(miniraid::Cluster& cluster);

/// Per-site counter totals read through WaitUntil.
struct CounterTotals {
  uint64_t lock_waits = 0;
  uint64_t lock_rejections = 0;
  uint64_t batch_rounds = 0;
  uint64_t batch_members = 0;
  uint64_t control2_initiated = 0;
  uint64_t aborted_participant = 0;
  uint64_t fail_locks_set = 0;
  uint64_t copier_txns = 0;
  uint64_t clear_lock_txns = 0;
  /// Per site: samples of phase_prepare_time / phase_commit_time so far.
  std::vector<size_t> prepare_samples;
  std::vector<size_t> commit_samples;
};

CounterTotals ReadCounters(miniraid::Cluster& cluster);

/// phase_prepare_time and phase_commit_time samples added since `start`.
void PhaseSamplesSince(miniraid::Cluster& cluster, const CounterTotals& start,
                       std::vector<miniraid::Duration>* prepare,
                       std::vector<miniraid::Duration>* commit);

}  // namespace e2ebench

#endif  // E2EBENCH_RUNNER_H_
