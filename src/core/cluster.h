#ifndef MINIRAID_CORE_CLUSTER_H_
#define MINIRAID_CORE_CLUSTER_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/cluster_api.h"
#include "core/invariants.h"
#include "core/managing_site.h"
#include "core/submit_window.h"
#include "net/event_loop.h"
#include "net/faults.h"
#include "net/inproc_transport.h"
#include "net/reliable_channel.h"
#include "net/sim_transport.h"
#include "net/tcp_transport.h"
#include "replication/site.h"
#include "sim/sim_runtime.h"

namespace miniraid {

namespace internal {

/// The layers a cluster stacks on each endpoint (a site or the managing
/// site), bottom up: over its backend's transport a FaultLayer when
/// `faults` injects anything, then a ReliableChannel when `reliable`
/// (ClusterOptions::faults and ::reliable). Each vector holds one layer
/// per endpoint in id order, and is empty while that layer is off.
struct EndpointLayers {
  EndpointLayers(bool reliable, const TransportFaults& faults);

  /// Builds endpoint `id` over `inner`, its backend's transport: `make`
  /// builds it from the transport it sends through (the top layer) and
  /// returns it. Returns the handler `inner` must deliver its messages to
  /// (the bottom layer).
  MessageHandler* Wire(SiteId id, Transport* inner, SiteRuntime* runtime,
                       const std::function<MessageHandler*(Transport*)>& make);

  /// Messages the fault layers dropped.
  uint64_t dropped() const { return faults ? faults->dropped() : 0; }

  const bool reliable;
  /// Shared by every fault layer; null when none is stacked.
  std::unique_ptr<FaultInjector> faults;
  std::vector<std::unique_ptr<FaultLayer>> fault_layers;
  /// Channel state lives in its endpoint's execution context, like the
  /// Site behind it.
  std::vector<std::unique_ptr<ReliableChannel>> channels;
};

}  // namespace internal

/// A cluster under the deterministic simulator: N database sites plus the
/// managing site, wired through SimTransport. This is the substrate of all
/// experiment reproductions — fast, virtual-time, bit-for-bit repeatable.
///
/// Implements the unified Cluster interface (see core/cluster_api.h); the
/// members below it are simulator extras (direct site access, virtual-time
/// control) that interface-level code must not depend on.
///
/// Deliberately carries no MR_RUNS_ON annotations: the simulator collapses
/// every execution context onto one thread (client code, managing site and
/// all sites run interleaved on the caller), so no single context name in
/// the vocabulary is true of its methods. miniraid-analyze checks it only
/// through the annotated Cluster base contract.
class SimCluster : public Cluster {
 public:
  ~SimCluster() override;

  // -- Cluster interface ----------------------------------------------------
  using Cluster::SubmitTxn;
  void SubmitTxn(const TxnSpec& txn, SiteId coordinator,
                 ReplyCallback callback) override;

  /// Submits `txn` to `coordinator` and runs the simulation to quiescence;
  /// returns the reply (synthesized kCoordinatorUnreachable on timeout).
  TxnResult RunTxn(const TxnSpec& txn, SiteId coordinator) override;

  /// Fails / recovers a site through the managing site's control channel
  /// and runs to quiescence.
  void Fail(SiteId site) override;
  void Recover(SiteId site) override;

  std::vector<SiteId> UpSites() const override;
  std::vector<SiteSnapshot> SnapshotSites() const override;
  uint32_t FailLockCountFor(SiteId target) const override;
  ClusterStats Stats() const override;

  TimePoint Now() const override { return sim_.now(); }
  void Post(std::function<void()> fn) override;
  void ScheduleAfter(Duration delay, std::function<void()> fn) override;
  bool Drive(const std::function<bool()>& done,
             Duration timeout = Seconds(60)) override;
  bool WaitUntil(SiteId site, const std::function<bool(const Site&)>& pred,
                 Duration timeout = Seconds(10)) override;

  // -- simulator extras -----------------------------------------------------
  SimRuntime& runtime() { return sim_; }
  SimTransport& transport() { return *transport_; }
  uint64_t messages_sent() const { return transport_->messages_sent(); }
  ManagingSite& managing() { return *managing_; }
  Site& site(SiteId id) { return *sites_.at(id); }
  const Site& site(SiteId id) const { return *sites_.at(id); }

  void RunUntilIdle() { sim_.RunUntilIdle(); }

 protected:
  void AwaitTxn(internal::TxnWaitState& state) override;

 private:
  /// Construction goes through MakeSimCluster / MakeCluster only, so every
  /// cluster in the tree is built (and, for the real backends, started) the
  /// same way.
  explicit SimCluster(const ClusterOptions& options);
  friend std::unique_ptr<SimCluster> MakeSimCluster(
      const ClusterOptions& options);

  /// MR_CHECK-fails on any invariant violation (check_invariants mode).
  void EnforceInvariants();

  SimRuntime sim_;
  std::unique_ptr<SimTransport> transport_;
  internal::EndpointLayers layers_;
  std::vector<std::unique_ptr<Site>> sites_;
  std::unique_ptr<ManagingSite> managing_;
  std::unique_ptr<SubmitWindow> window_;
};

/// A cluster on real threads with real message passing: one EventLoop per
/// site, in-process queues or TCP sockets on localhost. Used to validate
/// that the protocol behaves identically outside the simulator and to
/// measure real relative overheads.
class RealCluster : public Cluster {
 public:
  ~RealCluster() override;

  /// Binds sockets / finishes wiring. Must be called before traffic.
  /// (MakeCluster does this for you.)
  MR_RUNS_ON(client) Status Start();

  /// Stops all loops and transports. Idempotent; the destructor calls it.
  MR_RUNS_ON(client) void Stop();

  // -- Cluster interface ----------------------------------------------------
  using Cluster::SubmitTxn;
  MR_RUNS_ON(client)
  void SubmitTxn(const TxnSpec& txn, SiteId coordinator,
                 ReplyCallback callback) override;

  MR_RUNS_ON(client) void Fail(SiteId site) override;
  MR_RUNS_ON(client) void Recover(SiteId site) override;

  MR_RUNS_ON(client) std::vector<SiteId> UpSites() const override;
  MR_RUNS_ON(client) std::vector<SiteSnapshot> SnapshotSites() const override;
  MR_RUNS_ON(client) ClusterStats Stats() const override;

  MR_RUNS_ON(any) TimePoint Now() const override { return clock_.Now(); }
  MR_RUNS_ON(any) void Post(std::function<void()> fn) override;
  MR_RUNS_ON(any)
  void ScheduleAfter(Duration delay, std::function<void()> fn) override;
  MR_RUNS_ON(client)
  bool Drive(const std::function<bool()>& done,
             Duration timeout = Seconds(60)) override;
  MR_RUNS_ON(client)
  bool WaitUntil(SiteId site, const std::function<bool(const Site&)>& pred,
                 Duration timeout = Seconds(10)) override;

  // -- real-backend extras --------------------------------------------------
  /// Runs `fn(site)` on the site's loop thread and waits (all Site access
  /// must happen there).
  MR_RUNS_ON(client)
  void Inspect(SiteId site, const std::function<void(Site&)>& fn) const;

 protected:
  MR_RUNS_ON(client) void AwaitTxn(internal::TxnWaitState& state) override;

 private:
  /// Construction goes through MakeCluster only: a RealCluster is unusable
  /// until Start(), and the factory is what guarantees Start() ran.
  explicit RealCluster(const ClusterOptions& options);
  friend Result<std::unique_ptr<Cluster>> MakeCluster(
      const ClusterOptions& options);

  SteadyClock clock_;
  bool started_ = false;
  bool stopped_ = false;

  /// Per site + managing. The vector is populated in Start() and cleared in
  /// Stop(), both on the owning (client) thread while no site thread is
  /// running; steady-state cross-context use only reads through the stable
  /// unique_ptrs (EventLoop itself is internally synchronized).
  std::vector<std::unique_ptr<EventLoop>> loops_ MR_CONTEXT_CONFINED(client);
  std::vector<std::unique_ptr<ThreadSiteRuntime>> runtimes_;
  std::unique_ptr<InProcTransport> inproc_;
  std::vector<std::unique_ptr<TcpTransport>> tcp_;  // per site + managing
  internal::EndpointLayers layers_;
  std::vector<std::unique_ptr<Site>> sites_;
  std::unique_ptr<ManagingSite> managing_;
  std::unique_ptr<SubmitWindow> window_;  // managing-loop context only
};

/// Builds a simulator cluster. This is the sanctioned white-box entry point
/// for tests and experiment code that need the simulator extras (site(),
/// runtime(), RunUntilIdle()); interface-level code should use MakeCluster.
std::unique_ptr<SimCluster> MakeSimCluster(const ClusterOptions& options);

}  // namespace miniraid

#endif  // MINIRAID_CORE_CLUSTER_H_
