#ifndef MINIRAID_CORE_CLUSTER_API_H_
#define MINIRAID_CORE_CLUSTER_API_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/invariants.h"
#include "core/managing_site.h"
#include "net/faults.h"
#include "net/inproc_transport.h"
#include "net/reliable_channel.h"
#include "net/sim_transport.h"
#include "net/tcp_transport.h"
#include "replication/site.h"
#include "sim/sim_runtime.h"
#include "txn/transaction.h"

namespace miniraid {

class Cluster;

/// Which substrate a cluster runs on. `kSim` is the deterministic
/// discrete-event simulator (virtual time, bit-for-bit repeatable); the
/// other two run one event-loop thread per site with real message passing —
/// in-process queues (`kInProc`) or TCP sockets on localhost (`kTcp`).
enum class ClusterBackend : uint8_t {
  kSim = 0,
  kInProc = 1,
  kTcp = 2,
};

std::string_view ClusterBackendName(ClusterBackend backend);

/// Everything needed to stand up a mini-RAID cluster on any backend. The
/// former `ClusterOptions` (sim) and `RealClusterOptions` surfaces are
/// merged here; fields that apply to one backend only say so. `site`
/// carries the protocol configuration; its n_sites/db_size/managing_site
/// fields are overwritten from the cluster-level values.
struct ClusterOptions {
  ClusterBackend backend = ClusterBackend::kSim;

  uint32_t n_sites = 2;
  uint32_t db_size = 50;
  SiteOptions site;
  ManagingSite::Options managing;

  /// Submission window: at most this many transactions are in flight at
  /// once; further SubmitTxn calls queue in arrival order until a slot
  /// frees (backpressure). 0 = unbounded. The client timeout of a queued
  /// transaction starts when it is dispatched, not when it is enqueued.
  uint32_t max_inflight = 0;

  /// Reliable-delivery layer (net/reliable_channel.h), backend-agnostic:
  /// with `reliable.enabled` every endpoint (sites + managing) sends and
  /// receives through a ReliableChannel, which retransmits lost messages
  /// with exponential backoff and suppresses duplicates at the receiver.
  /// It is the only layer that repairs loss and the only one that filters
  /// duplicates: the engine above it assumes each message arrives once.
  /// Pair with `faults` to run the protocol over a lossy network.
  ReliableChannelOptions reliable;

  /// Loss and duplication (net/faults.h), on every backend: when it injects
  /// anything, every endpoint sends and receives through a FaultLayer
  /// stacked on its transport, under the channel, and all of them draw
  /// from one FaultInjector. Duplication needs `reliable.enabled`: cluster
  /// construction MR_CHECK-fails on `duplicate_probability > 0` without
  /// it. The default injects nothing and stacks no layer: the paper's
  /// reliable network.
  TransportFaults faults;

  // -- sim backend only ----------------------------------------------------
  SimOptions sim;
  SimTransportOptions transport;

  // -- inproc backend only --------------------------------------------------
  InProcTransportOptions inproc;

  // -- tcp backend only ----------------------------------------------------
  TcpTransportOptions tcp;
  /// First port; site s listens on base_port + s. 0 picks a base derived
  /// from the pid and a per-process counter, keeping concurrent test runs
  /// and multiple clusters in one process apart.
  uint16_t base_port = 0;

  /// When true, the cluster runs the InvariantChecker over every site after
  /// each quiescent step (RunTxn / Fail / Recover) and aborts on the first
  /// violation. Sim backend only: the real backends have no global
  /// quiescent points during traffic (call CheckInvariants() explicitly at
  /// known-quiet moments instead).
  bool check_invariants = false;
};

/// Counters over everything submitted through a Cluster since start.
struct ClusterStats {
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t unreachable = 0;
  /// Replies that arrived after their client timeout already fired — the
  /// caller was told kCoordinatorUnreachable for a transaction the cluster
  /// resolved anyway (ManagingSite::late_outcomes; see docs/API.md).
  uint64_t late_outcomes = 0;
  /// Messages accepted by the transport (all sites + managing).
  uint64_t messages_sent = 0;
  /// Messages dropped by the fault layer (ClusterOptions::faults).
  uint64_t messages_dropped = 0;
  /// Submissions that had to wait for a window slot (max_inflight).
  uint64_t backlogged = 0;
  /// Transactions in flight right now / high-water mark.
  uint32_t inflight = 0;
  uint32_t max_inflight_seen = 0;
  /// Reliable-channel counters aggregated over every endpoint (all zero
  /// when ClusterOptions::reliable.enabled is false).
  ChannelCounters channel;
};

namespace internal {

/// Heap-allocated completion state shared by a TxnHandle and the submit
/// path; never lives on a waiter's stack, so a reply can never race a
/// destroyed frame (the failure mode of per-txn stack condvars).
struct TxnWaitState {
  Mutex mu;
  CondVar cv;
  bool done MR_GUARDED_BY(mu) = false;
  /// Written (under `mu`) strictly before `done` flips and read only after
  /// `done` is observed true, so the lock release/acquire on `done` is the
  /// synchronization for `reply` too — TxnHandle::Get can safely hand out
  /// a plain reference.
  TxnResult reply;
  TxnId id = 0;

  bool IsDone() {
    MutexLock lock(mu);
    return done;
  }
};

}  // namespace internal

/// Future-like handle to one asynchronously submitted transaction.
/// `Get()` drives the owning cluster (simulator) or blocks (real backends)
/// until the reply arrives; the managing site guarantees exactly one reply
/// per submission (synthesizing kCoordinatorUnreachable on timeout), so
/// `Get()` always terminates. The handle must not outlive its cluster.
class TxnHandle {
 public:
  TxnHandle() = default;

  MR_RUNS_ON(any) bool valid() const { return state_ != nullptr; }
  MR_RUNS_ON(any) TxnId id() const { return state_ ? state_->id : 0; }

  /// True once the reply has arrived. Never blocks.
  MR_RUNS_ON(any) bool done() const { return state_ && state_->IsDone(); }

  /// Waits for the reply (running the simulation to completion under the
  /// sim backend). The reference stays valid as long as the handle lives.
  MR_RUNS_ON(client) const TxnResult& Get();

 private:
  friend class Cluster;
  TxnHandle(Cluster* cluster, std::shared_ptr<internal::TxnWaitState> state)
      : cluster_(cluster), state_(std::move(state)) {}

  Cluster* cluster_ = nullptr;
  std::shared_ptr<internal::TxnWaitState> state_;
};

/// The unified cluster surface: N database sites plus the managing site,
/// on any backend (see ClusterBackend). Everything experiments, tests and
/// benches need is expressed here once, so drivers are written once and
/// run against the simulator and the real runtimes unchanged.
///
/// Submission is asynchronous and pipelined: SubmitTxn returns immediately
/// (callback or TxnHandle form) and up to `options.max_inflight`
/// transactions proceed concurrently; the blocking RunTxn is a thin wrapper
/// over the same path. Completion callbacks run in the managing site's
/// execution context (the simulator's thread, or the managing event-loop
/// thread) — state touched only from callbacks and Post/ScheduleAfter
/// closures therefore needs no locking.
///
/// The surface is MR_RUNS_ON(client): it is what drivers, experiments and
/// tests call from their own threads, and it may block. Only Now / Post /
/// ScheduleAfter and the trivial accessors are MR_RUNS_ON(any) — they are
/// explicitly documented as safe from every context.
class Cluster {
 public:
  using ReplyCallback = ManagingSite::ReplyCallback;

  explicit Cluster(const ClusterOptions& options);
  virtual ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // -- transaction submission ---------------------------------------------

  /// Submits `txn` to `coordinator`; `callback` is invoked exactly once
  /// with the reply, in the managing execution context. Subject to the
  /// submission window (see ClusterOptions::max_inflight).
  MR_RUNS_ON(client)
  virtual void SubmitTxn(const TxnSpec& txn, SiteId coordinator,
                         ReplyCallback callback) = 0;

  /// Future form of the above.
  MR_RUNS_ON(client) TxnHandle SubmitTxn(const TxnSpec& txn, SiteId coordinator);

  /// Blocking wrapper: submits and waits for the reply. Under the sim
  /// backend this also runs the simulation to quiescence and (with
  /// check_invariants) enforces the protocol invariants, preserving the
  /// paper experiments' serial semantics.
  MR_RUNS_ON(client)
  virtual TxnResult RunTxn(const TxnSpec& txn, SiteId coordinator);

  // -- failure control ------------------------------------------------------

  /// Fails / recovers a site through the managing site's control channel.
  /// Blocking: returns once the site observed the transition (and, under
  /// sim, the cluster is quiescent).
  MR_RUNS_ON(client) virtual void Fail(SiteId site) = 0;
  MR_RUNS_ON(client) virtual void Recover(SiteId site) = 0;

  // -- inspection -----------------------------------------------------------

  /// Sites whose local status is up.
  MR_RUNS_ON(client) virtual std::vector<SiteId> UpSites() const = 0;

  /// One snapshot per database site, in id order. Snapshots are
  /// individually consistent on every backend; cross-site guarantees (the
  /// cluster-wide invariants) hold at quiescence only.
  MR_RUNS_ON(client)
  virtual std::vector<SiteSnapshot> SnapshotSites() const = 0;

  /// Inconsistency measure for the figures: how many of `target`'s copies
  /// are fail-locked, per the operational sites' (authoritative) tables —
  /// the max across them (they agree at quiescence).
  MR_RUNS_ON(client) virtual uint32_t FailLockCountFor(SiteId target) const;

  /// Verifies invariant 1 (replica agreement): for every item, every copy
  /// whose fail-lock bit is clear in the authoritative table matches the
  /// freshest copy. Call at quiescence only.
  MR_RUNS_ON(client) [[nodiscard]] Status CheckReplicaAgreement() const;

  /// Runs the full invariant suite over the current state using the
  /// cluster's stateful checker. Empty result = every invariant holds.
  /// Call at quiescence only.
  MR_RUNS_ON(client)
  [[nodiscard]] std::vector<InvariantViolation> CheckInvariants();

  /// Aggregate submission / message counters.
  MR_RUNS_ON(client) virtual ClusterStats Stats() const = 0;

  // -- execution services (for drivers) -------------------------------------

  /// Current time: virtual under sim, steady-clock on the real backends.
  MR_RUNS_ON(any) virtual TimePoint Now() const = 0;

  /// Runs `fn` in the managing execution context as soon as possible /
  /// after `delay`. Safe from any thread.
  MR_RUNS_ON(any) virtual void Post(std::function<void()> fn) = 0;
  MR_RUNS_ON(any)
  virtual void ScheduleAfter(Duration delay, std::function<void()> fn) = 0;

  /// Drives execution until `done()` (evaluated in the managing execution
  /// context) returns true. Under sim this runs events (and ignores the
  /// timeout — virtual time is free); on the real backends it polls until
  /// the real-time deadline. Returns the final value of `done()`.
  MR_RUNS_ON(client)
  virtual bool Drive(const std::function<bool()>& done,
                     Duration timeout = Seconds(60)) = 0;

  /// Waits until `pred(site)` holds, evaluated in the site's execution
  /// context. Under sim this first runs to quiescence; on the real
  /// backends it polls until the deadline. Returns whether the predicate
  /// held.
  MR_RUNS_ON(client)
  virtual bool WaitUntil(SiteId site,
                         const std::function<bool(const Site&)>& pred,
                         Duration timeout = Seconds(10)) = 0;

  MR_RUNS_ON(any) uint32_t n_sites() const { return options_.n_sites; }
  MR_RUNS_ON(any) SiteId managing_id() const { return options_.n_sites; }
  MR_RUNS_ON(any) ClusterBackend backend() const { return options_.backend; }
  MR_RUNS_ON(any) const ClusterOptions& options() const { return options_; }

 protected:
  friend class TxnHandle;

  /// Blocks / drives until `state.done`. Implemented per backend.
  MR_RUNS_ON(client) virtual void AwaitTxn(internal::TxnWaitState& state) = 0;

  ClusterOptions options_;
  InvariantChecker checker_;
};

/// Builds a cluster for `options.backend` and starts it (binding sockets
/// under kTcp). The one entry point benches and tests should use.
Result<std::unique_ptr<Cluster>> MakeCluster(const ClusterOptions& options);

}  // namespace miniraid

#endif  // MINIRAID_CORE_CLUSTER_API_H_
