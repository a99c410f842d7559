#include "core/cluster.h"

#include <chrono>
#include <functional>
#include <optional>
#include <thread>

#include "common/logging.h"
#include "common/strings.h"

namespace miniraid {

namespace internal {

EndpointLayers::EndpointLayers(bool reliable, const TransportFaults& faults)
    : reliable(reliable),
      faults(faults.Any() ? std::make_unique<FaultInjector>(faults)
                          : nullptr) {
  // The channel is the only duplicate filter: the engine assumes each
  // message arrives once (paper assumption 1).
  MR_CHECK(faults.duplicate_probability <= 0.0 || reliable)
      << "faults.duplicate_probability needs the reliable channel";
}

MessageHandler* EndpointLayers::Wire(
    SiteId id, Transport* inner, SiteRuntime* runtime,
    const std::function<MessageHandler*(Transport*)>& make) {
  FaultLayer* fault_layer = nullptr;
  if (faults) {
    fault_layer = fault_layers
                      .emplace_back(std::make_unique<FaultLayer>(
                          faults.get(), inner, /*upper=*/nullptr))
                      .get();
    inner = fault_layer;
  }
  ReliableChannel* channel = nullptr;
  if (reliable) {
    channel = channels
                  .emplace_back(std::make_unique<ReliableChannel>(
                      id, inner, runtime, /*upper=*/nullptr))
                  .get();
    inner = channel;
  }
  MessageHandler* handler = make(inner);
  if (channel) {
    channel->set_upper(handler);
    handler = channel;
  }
  if (fault_layer) {
    fault_layer->set_upper(handler);
    handler = fault_layer;
  }
  return handler;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// SimCluster.
// ---------------------------------------------------------------------------

SimCluster::SimCluster(const ClusterOptions& options)
    : Cluster(options),
      sim_(options.sim),
      layers_(options.reliable.enabled, options.faults) {
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
                           sites_.push_back(std::make_unique<Site>(
                               id, options_.site, transport, runtime));
                           return sites_.back().get();
                         }));
  }
  window_ =
      std::make_unique<SubmitWindow>(managing_.get(), options_.max_inflight);
}

SimCluster::~SimCluster() {
  // The destructor runs in the driving thread (= the managing execution
  // context), so closing the window here is in-contract: any still-queued
  // submission gets its kCoordinatorUnreachable reply instead of vanishing.
  if (window_) window_->Close();
}

void SimCluster::SubmitTxn(const TxnSpec& txn, SiteId coordinator,
                           ReplyCallback callback) {
  // Single-threaded: the caller is the simulation's driving thread, which
  // is the managing execution context by definition.
  window_->Submit(txn, coordinator, std::move(callback));
}

TxnResult SimCluster::RunTxn(const TxnSpec& txn, SiteId coordinator) {
  std::optional<TxnResult> result;
  // The by-ref capture cannot outlive this frame: RunUntilIdle() below
  // drains the single-threaded simulation (delivering the reply) before
  // RunTxn returns, so the callback's lifetime is bounded by the frame.
  SubmitTxn(txn, coordinator,
            // miniraid-lint: allow(view-escape)
            [&result](const TxnResult& reply) { result = reply; });
  sim_.RunUntilIdle();
  MR_CHECK(result.has_value()) << "simulation drained without a reply";
  EnforceInvariants();
  return *result;
}

void SimCluster::Fail(SiteId site) {
  managing_->FailSite(site);
  sim_.RunUntilIdle();
  EnforceInvariants();
}

void SimCluster::Recover(SiteId site) {
  managing_->RecoverSite(site);
  sim_.RunUntilIdle();
  EnforceInvariants();
}

std::vector<SiteId> SimCluster::UpSites() const {
  std::vector<SiteId> up;
  for (SiteId id = 0; id < options_.n_sites; ++id) {
    if (sites_[id]->is_up()) up.push_back(id);
  }
  return up;
}

uint32_t SimCluster::FailLockCountFor(SiteId target) const {
  // Cheaper than the snapshot-based default: the experiment drivers sample
  // this after every transaction.
  uint32_t count = 0;
  for (SiteId id = 0; id < options_.n_sites; ++id) {
    if (!sites_[id]->is_up()) continue;
    count = std::max(count, sites_[id]->fail_locks().CountForSite(target));
  }
  return count;
}

std::vector<SiteSnapshot> SimCluster::SnapshotSites() const {
  std::vector<SiteSnapshot> snapshots;
  snapshots.reserve(sites_.size());
  for (const auto& site : sites_) snapshots.push_back(SnapshotOf(*site));
  return snapshots;
}

ClusterStats SimCluster::Stats() const {
  ClusterStats stats;
  stats.submitted = managing_->submitted();
  stats.committed = managing_->committed();
  stats.aborted = managing_->aborted();
  stats.unreachable = managing_->unreachable();
  stats.late_outcomes = managing_->late_outcomes();
  stats.messages_sent = transport_->messages_sent();
  stats.messages_dropped = layers_.dropped();
  stats.backlogged = window_->backlogged_total();
  stats.inflight = window_->inflight();
  stats.max_inflight_seen = window_->max_inflight_seen();
  for (const auto& channel : layers_.channels) {
    stats.channel += channel->counters();
  }
  return stats;
}

void SimCluster::Post(std::function<void()> fn) {
  sim_.ScheduleSiteEvent(sim_.CurrentTime(), managing_id(), std::move(fn));
}

void SimCluster::ScheduleAfter(Duration delay, std::function<void()> fn) {
  sim_.RuntimeFor(managing_id())->ScheduleAfter(delay, std::move(fn));
}

bool SimCluster::Drive(const std::function<bool()>& done,
                       Duration /*timeout*/) {
  // Virtual time is free: run events until the predicate holds or the
  // simulation has nothing left to do.
  while (!done() && sim_.RunOne()) {
  }
  return done();
}

bool SimCluster::WaitUntil(SiteId site,
                           const std::function<bool(const Site&)>& pred,
                           Duration /*timeout*/) {
  sim_.RunUntilIdle();
  return pred(*sites_.at(site));
}

void SimCluster::AwaitTxn(internal::TxnWaitState& state) {
  while (!state.IsDone() && sim_.RunOne()) {
  }
  MR_CHECK(state.IsDone()) << "simulation drained without a reply for txn "
                           << state.id;
}

void SimCluster::EnforceInvariants() {
  if (!options_.check_invariants) return;
  const std::vector<InvariantViolation> violations = CheckInvariants();
  for (const InvariantViolation& v : violations) {
    MR_LOG(kError) << "invariant violated: " << v.ToString();
  }
  MR_CHECK(violations.empty())
      << violations.size() << " protocol invariant violation(s); first: "
      << violations.front().ToString();
}

// ---------------------------------------------------------------------------
// RealCluster.
// ---------------------------------------------------------------------------

RealCluster::RealCluster(const ClusterOptions& options)
    : Cluster(options), layers_(options.reliable.enabled, options.faults) {
  MR_CHECK(options.backend != ClusterBackend::kSim)
      << "RealCluster needs an inproc or tcp backend "
         "(use SimCluster / MakeCluster for the simulator)";
}

RealCluster::~RealCluster() { Stop(); }

Status RealCluster::Start() {
  MR_CHECK(!started_) << "RealCluster::Start called twice";
  started_ = true;
  const uint32_t total = options_.n_sites + 1;  // + managing site
  for (uint32_t i = 0; i < total; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
    runtimes_.push_back(
        std::make_unique<ThreadSiteRuntime>(loops_.back().get(), &clock_));
  }

  // Each endpoint's backend transport, and how that transport is told
  // where to deliver. Inproc has one transport that delivers on each
  // endpoint's loop. TCP has one per endpoint (sites + managing), created
  // handler-less first (breaking the site <-> transport dependency cycle),
  // then wired and started.
  std::function<Transport*(SiteId)> inner;
  std::function<void(SiteId, MessageHandler*)> attach;
  if (options_.backend == ClusterBackend::kInProc) {
    inproc_ = std::make_unique<InProcTransport>(options_.inproc);
    inner = [this](SiteId) -> Transport* { return inproc_.get(); };
    attach = [this](SiteId id, MessageHandler* handler) {
      inproc_->Register(id, loops_[id].get(), handler);
    };
  } else {
    const uint16_t base = options_.base_port != 0 ? options_.base_port
                                                  : PickEphemeralBasePort();
    std::map<SiteId, uint16_t> ports;
    for (uint32_t i = 0; i < total; ++i) {
      ports[i] = static_cast<uint16_t>(base + i);
    }
    for (uint32_t i = 0; i < total; ++i) {
      tcp_.push_back(std::make_unique<TcpTransport>(
          static_cast<SiteId>(i), ports, loops_[i].get(), /*handler=*/nullptr,
          options_.tcp));
    }
    inner = [this](SiteId id) -> Transport* { return tcp_[id].get(); };
    attach = [this](SiteId id, MessageHandler* handler) {
      tcp_[id]->set_handler(handler);
    };
  }

  // The sites, then the managing site.
  for (SiteId id = 0; id <= managing_id(); ++id) {
    SiteRuntime* runtime = runtimes_[id].get();
    attach(id, layers_.Wire(id, inner(id), runtime,
                            [&](Transport* transport) -> MessageHandler* {
                              if (id == managing_id()) {
                                managing_ = std::make_unique<ManagingSite>(
                                    id, transport, runtime, options_.managing);
                                return managing_.get();
                              }
                              sites_.push_back(std::make_unique<Site>(
                                  id, options_.site, transport, runtime));
                              return sites_.back().get();
                            }));
  }
  window_ =
      std::make_unique<SubmitWindow>(managing_.get(), options_.max_inflight);
  for (auto& transport : tcp_) {
    MINIRAID_RETURN_IF_ERROR(transport->Start());
  }
  return Status::Ok();
}

void RealCluster::Stop() {
  if (stopped_) return;
  stopped_ = true;
  // Reject the backlog on the managing loop (the window's single context)
  // before stopping the loops, so every queued submission still gets its
  // one reply instead of being dropped.
  if (started_ && window_) {
    loops_[managing_id()]->PostAndWait([this] { window_->Close(); });
  }
  for (auto& transport : tcp_) {
    if (transport) transport->Stop();
  }
  for (auto& loop : loops_) {
    if (loop) loop->Stop();
  }
}

void RealCluster::SubmitTxn(const TxnSpec& txn, SiteId coordinator,
                            ReplyCallback callback) {
  // All window bookkeeping happens on the managing loop; submissions from
  // any thread serialize through its queue in arrival order.
  loops_[managing_id()]->Post(
      [this, txn, coordinator, callback = std::move(callback)]() mutable {
        window_->Submit(txn, coordinator, std::move(callback));
      });
}

void RealCluster::Fail(SiteId site) {
  loops_[managing_id()]->PostAndWait([this, site] {
    managing_->FailSite(site);
  });
  WaitUntil(site, [](const Site& s) { return !s.is_up(); });
}

void RealCluster::Recover(SiteId site) {
  loops_[managing_id()]->PostAndWait([this, site] {
    managing_->RecoverSite(site);
  });
  WaitUntil(site, [](const Site& s) { return s.is_up(); });
}

std::vector<SiteId> RealCluster::UpSites() const {
  std::vector<SiteId> up;
  for (SiteId id = 0; id < options_.n_sites; ++id) {
    bool is_up = false;
    Inspect(id, [&is_up](Site& s) { is_up = s.is_up(); });
    if (is_up) up.push_back(id);
  }
  return up;
}

std::vector<SiteSnapshot> RealCluster::SnapshotSites() const {
  std::vector<SiteSnapshot> snapshots;
  snapshots.reserve(options_.n_sites);
  for (SiteId id = 0; id < options_.n_sites; ++id) {
    Inspect(id, [&snapshots](Site& s) { snapshots.push_back(SnapshotOf(s)); });
  }
  return snapshots;
}

ClusterStats RealCluster::Stats() const {
  ClusterStats stats;
  loops_[managing_id()]->PostAndWait([this, &stats] {
    stats.submitted = managing_->submitted();
    stats.committed = managing_->committed();
    stats.aborted = managing_->aborted();
    stats.unreachable = managing_->unreachable();
    stats.late_outcomes = managing_->late_outcomes();
    stats.backlogged = window_->backlogged_total();
    stats.inflight = window_->inflight();
    stats.max_inflight_seen = window_->max_inflight_seen();
  });
  if (inproc_) stats.messages_sent = inproc_->messages_sent();
  for (const auto& transport : tcp_) {
    stats.messages_sent += transport->messages_sent();
  }
  stats.messages_dropped = layers_.dropped();
  // Channel state lives in each endpoint's loop context; read it there.
  for (size_t i = 0; i < layers_.channels.size(); ++i) {
    loops_[i]->PostAndWait([this, i, &stats] {
      stats.channel += layers_.channels[i]->counters();
    });
  }
  return stats;
}

void RealCluster::Post(std::function<void()> fn) {
  loops_[managing_id()]->Post(std::move(fn));
}

void RealCluster::ScheduleAfter(Duration delay, std::function<void()> fn) {
  loops_[managing_id()]->ScheduleAfter(delay, std::move(fn));
}

bool RealCluster::Drive(const std::function<bool()>& done, Duration timeout) {
  const TimePoint deadline = clock_.Now() + timeout;
  while (true) {
    bool ok = false;
    loops_[managing_id()]->PostAndWait([&done, &ok] { ok = done(); });
    if (ok) return true;
    if (clock_.Now() >= deadline) return false;
    // Driver-side poll loop: Drive is MR_RUNS_ON(client), where blocking
    // is permitted.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void RealCluster::Inspect(SiteId site,
                          const std::function<void(Site&)>& fn) const {
  Site* target = sites_.at(site).get();
  loops_[site]->PostAndWait([target, &fn] { fn(*target); });
}

bool RealCluster::WaitUntil(SiteId site,
                            const std::function<bool(const Site&)>& pred,
                            Duration timeout) {
  const TimePoint deadline = clock_.Now() + timeout;
  while (clock_.Now() < deadline) {
    bool ok = false;
    Inspect(site, [&](Site& s) { ok = pred(s); });
    if (ok) return true;
    // Driver-side poll loop: WaitUntil is MR_RUNS_ON(client), where
    // blocking is permitted.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

void RealCluster::AwaitTxn(internal::TxnWaitState& state) {
  MutexLock lock(state.mu);
  while (!state.done) state.cv.Wait(state.mu);
}

// ---------------------------------------------------------------------------
// Factory.
// ---------------------------------------------------------------------------

std::unique_ptr<SimCluster> MakeSimCluster(const ClusterOptions& options) {
  // Not make_unique: the constructor is private and this factory is the
  // friend.
  return std::unique_ptr<SimCluster>(new SimCluster(options));
}

Result<std::unique_ptr<Cluster>> MakeCluster(const ClusterOptions& options) {
  if (options.backend == ClusterBackend::kSim) {
    return std::unique_ptr<Cluster>(MakeSimCluster(options));
  }
  auto real = std::unique_ptr<RealCluster>(new RealCluster(options));
  MINIRAID_RETURN_IF_ERROR(real->Start());
  return std::unique_ptr<Cluster>(std::move(real));
}

}  // namespace miniraid
