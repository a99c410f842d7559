#include "traced_cluster.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>
#include <type_traits>

#include "common/logging.h"
#include "net/inproc_transport.h"
#include "net/tcp_transport.h"

namespace e2ebench {

using miniraid::Duration;
using miniraid::Message;
using miniraid::SiteId;
using miniraid::Status;

std::string_view SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kHandler:
      return "handler";
    case SpanKind::kSend:
      return "send";
    case SpanKind::kTimerSchedule:
      return "timer_schedule";
    case SpanKind::kTimerCancel:
      return "timer_cancel";
    case SpanKind::kTimerFire:
      return "timer_fire";
    case SpanKind::kCodecReplay:
      return "codec_replay";
    case SpanKind::kClient:
      return "client";
  }
  return "unknown";
}

Request RequestOf(const Message& msg) {
  Request request;
  std::visit(
      [&request](const auto& args) {
        using T = std::decay_t<decltype(args)>;
        if constexpr (std::is_same_v<T, miniraid::TxnRequestArgs>) {
          request.txns.push_back(args.txn.id);
        } else if constexpr (std::is_same_v<T, miniraid::BatchPrepareArgs>) {
          request.batch = args.batch;
          for (const auto& member : args.members) {
            request.txns.push_back(member.txn);
          }
        } else if constexpr (std::is_same_v<T, miniraid::BatchCommitArgs>) {
          request.batch = args.batch;
          request.txns = args.commits;
          request.txns.insert(request.txns.end(), args.aborts.begin(),
                              args.aborts.end());
        } else if constexpr (requires { args.batch; }) {
          request.batch = args.batch;
        } else if constexpr (requires { args.txn; }) {
          request.txns.push_back(args.txn);
        }
      },
      msg.payload);
  return request;
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> next_generation{1};
}  // namespace

Tracer::Tracer(uint32_t n_endpoints)
    : generation_(next_generation.fetch_add(1)),
      n_endpoints_(n_endpoints),
      pairs_(new Pair[size_t(n_endpoints) * n_endpoints]) {}

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::ThreadTrace& Tracer::Local() {
  // Keyed by generation, not address: a later Tracer may reuse this one's
  // address on a thread that outlived it.
  thread_local uint64_t generation = 0;
  thread_local ThreadTrace* trace = nullptr;
  if (generation != generation_) {
    miniraid::MutexLock lock(threads_mu_);
    threads_.push_back(std::make_unique<ThreadTrace>());
    trace = threads_.back().get();
    trace->index = static_cast<uint32_t>(threads_.size());
    trace->stack.reserve(16);
    generation = generation_;
  }
  return *trace;
}

uint64_t Tracer::Begin(SiteId endpoint, SpanKind kind, const Message* msg,
                       uint64_t cross_parent) {
  ThreadTrace& t = Local();
  t.endpoint = endpoint;
  const uint64_t id = (uint64_t{t.index} << 40) | t.next_local++;
  const uint64_t parent =
      cross_parent != 0 ? cross_parent
                        : (t.stack.empty() ? 0 : t.stack.back().id);
  const bool keep = recording_.load() && t.begun++ < kKeptSpans;
  t.stack.push_back(Open{
      id, parent, 0, 0, kind,
      msg != nullptr ? static_cast<uint8_t>(msg->type) : kNoMsgType, keep,
      keep && msg != nullptr ? RequestOf(*msg) : Request{}});
  // Last, so the bookkeeping above is not inside the span.
  t.stack.back().start = NowNs();
  return id;
}

void Tracer::End() {
  const int64_t end = NowNs();
  ThreadTrace& t = Local();
  MR_CHECK(!t.stack.empty()) << "Tracer::End without Begin";
  Open open = std::move(t.stack.back());
  t.stack.pop_back();
  const uint64_t duration = static_cast<uint64_t>(end - open.start);
  const uint64_t self =
      duration > open.child_ns ? duration - open.child_ns : 0;
  if (!t.stack.empty()) t.stack.back().child_ns += duration;
  if (!recording_.load()) return;
  SpanTotals& totals =
      t.totals[static_cast<size_t>(open.kind)][open.msg_type];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += self;
  ++t.recorded;
  if (open.keep) {
    t.kept.push_back(Kept{open.id, open.parent, open.start, end, open.kind,
                          open.msg_type, std::move(open.request)});
  }
}

void Tracer::NoteSend(SiteId from, SiteId to, uint64_t span) {
  Pair& pair = pairs_[size_t(from) * n_endpoints_ + to];
  const int64_t now = NowNs();
  miniraid::MutexLock lock(pair.mu);
  pair.sends.push_back(PendingSend{span, now});
}

void Tracer::UnnoteSend(SiteId from, SiteId to) {
  Pair& pair = pairs_[size_t(from) * n_endpoints_ + to];
  miniraid::MutexLock lock(pair.mu);
  if (!pair.sends.empty()) pair.sends.pop_back();
}

uint64_t Tracer::MatchDelivery(SiteId from, SiteId to) {
  Pair& pair = pairs_[size_t(from) * n_endpoints_ + to];
  PendingSend send{};
  {
    miniraid::MutexLock lock(pair.mu);
    if (pair.sends.empty()) return 0;
    send = pair.sends.front();
    pair.sends.pop_front();
  }
  if (!recording_.load()) return send.span;
  const int64_t delay = NowNs() - send.start_ns;
  Local().delivery_ns.push_back(static_cast<uint32_t>(
      std::min<int64_t>(std::max<int64_t>(delay, 0), UINT32_MAX)));
  return send.span;
}

void Tracer::AddCodec(uint64_t encode_ns, uint64_t decode_ns,
                      uint64_t bytes) {
  if (!recording_.load()) return;
  ThreadTrace& t = Local();
  t.encode_ns += encode_ns;
  t.decode_ns += decode_ns;
  t.bytes += bytes;
  ++t.messages;
}

Tracer::Totals Tracer::Collect() const {
  Totals out;
  miniraid::MutexLock lock(const_cast<miniraid::Mutex&>(threads_mu_));
  for (const auto& t : threads_) {
    const size_t site = t->endpoint + 1 < n_endpoints_ ? 1 : 0;
    for (size_t k = 0; k < kSpanKinds; ++k) {
      for (size_t m = 0; m < kMsgTypes; ++m) {
        SpanTotals& dst = out.spans[site][k][m];
        dst.count += t->totals[k][m].count;
        dst.total_ns += t->totals[k][m].total_ns;
        dst.self_ns += t->totals[k][m].self_ns;
      }
    }
    out.delivery_ns.insert(out.delivery_ns.end(), t->delivery_ns.begin(),
                           t->delivery_ns.end());
    out.encode_ns += t->encode_ns;
    out.decode_ns += t->decode_ns;
    out.bytes += t->bytes;
    out.messages += t->messages;
    out.spans_recorded += t->recorded;
    out.spans_kept += t->kept.size();
  }
  return out;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "span\tparent\tthread\tendpoint\tkind\tmsg\tstart_ns\tend_ns"
               "\ttxns\tbatch\n");
  miniraid::MutexLock lock(const_cast<miniraid::Mutex&>(threads_mu_));
  for (const auto& t : threads_) {
    for (const Kept& k : t->kept) {
      std::string txns;
      for (miniraid::TxnId id : k.request.txns) {
        if (!txns.empty()) txns += ';';
        txns += std::to_string(id);
      }
      const std::string msg =
          k.msg_type == kNoMsgType
              ? std::string("-")
              : std::string(miniraid::MsgTypeName(
                    static_cast<miniraid::MsgType>(k.msg_type)));
      std::fprintf(out, "%llu\t%llu\t%u\t%u\t%s\t%s\t%lld\t%lld\t%s\t%llu\n",
                   (unsigned long long)k.id, (unsigned long long)k.parent,
                   t->index, t->endpoint,
                   std::string(SpanKindName(k.kind)).c_str(), msg.c_str(),
                   (long long)k.start, (long long)k.end,
                   txns.empty() ? "-" : txns.c_str(),
                   (unsigned long long)k.request.batch);
    }
  }
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------
// Decorators.
// ---------------------------------------------------------------------------

namespace {

/// Times what one endpoint sends, notes it for delivery matching, and
/// re-runs the message through the codec (in a replay span that is the
/// trace's own cost, not the program's).
class TracedTransport : public miniraid::Transport {
 public:
  TracedTransport(SiteId self, miniraid::Transport* inner, Tracer* tracer)
      : self_(self), inner_(inner), tracer_(tracer) {}

  Status Send(const Message& msg) override {
    const uint64_t span = tracer_->Begin(self_, SpanKind::kSend, &msg);
    tracer_->NoteSend(msg.from, msg.to, span);
    Status status = inner_->Send(msg);
    if (!status.ok()) tracer_->UnnoteSend(msg.from, msg.to);
    tracer_->End();
    ReplayCodec(msg);
    return status;
  }

 private:
  void ReplayCodec(const Message& msg) {
    tracer_->Begin(self_, SpanKind::kCodecReplay, &msg);
    const int64_t t0 = Tracer::NowNs();
    const std::vector<uint8_t> wire = miniraid::EncodeMessage(msg);
    const int64_t t1 = Tracer::NowNs();
    miniraid::Result<Message> decoded = miniraid::DecodeMessage(wire);
    const int64_t t2 = Tracer::NowNs();
    MR_CHECK(decoded.ok()) << "codec replay failed: "
                           << decoded.status().ToString();
    tracer_->AddCodec(static_cast<uint64_t>(t1 - t0),
                      static_cast<uint64_t>(t2 - t1), wire.size());
    tracer_->End();
  }

  const SiteId self_;
  miniraid::Transport* const inner_;
  Tracer* const tracer_;
};

/// Times every message a Site or the ManagingSite handles; its parent is
/// the matched send span on the sender's thread.
class TracedHandler : public miniraid::MessageHandler {
 public:
  TracedHandler(SiteId self, miniraid::MessageHandler* inner, Tracer* tracer)
      : self_(self), inner_(inner), tracer_(tracer) {}

  void OnMessage(const Message& msg) override {
    const uint64_t parent = tracer_->MatchDelivery(msg.from, msg.to);
    tracer_->Begin(self_, SpanKind::kHandler, &msg, parent);
    inner_->OnMessage(msg);
    tracer_->End();
  }

 private:
  const SiteId self_;
  miniraid::MessageHandler* const inner_;
  Tracer* const tracer_;
};

/// Times timer scheduling and cancellation, and the timer callbacks.
class TracedRuntime : public miniraid::SiteRuntime {
 public:
  TracedRuntime(SiteId self, miniraid::SiteRuntime* inner, Tracer* tracer)
      : self_(self), inner_(inner), tracer_(tracer) {}

  miniraid::TimePoint Now() const override { return inner_->Now(); }

  miniraid::TimerId ScheduleAfter(Duration delay,
                                  std::function<void()> fn) override {
    tracer_->Begin(self_, SpanKind::kTimerSchedule);
    const miniraid::TimerId id = inner_->ScheduleAfter(
        delay, [self = self_, tracer = tracer_, fn = std::move(fn)] {
          tracer->Begin(self, SpanKind::kTimerFire);
          fn();
          tracer->End();
        });
    tracer_->End();
    return id;
  }

  void CancelTimer(miniraid::TimerId id) override {
    tracer_->Begin(self_, SpanKind::kTimerCancel);
    inner_->CancelTimer(id);
    tracer_->End();
  }

  void ChargeCpu(Duration amount) override { inner_->ChargeCpu(amount); }

 private:
  const SiteId self_;
  miniraid::SiteRuntime* const inner_;
  Tracer* const tracer_;
};

}  // namespace

// ---------------------------------------------------------------------------
// TracedCluster: RealCluster::Start's wiring with the decorators in place.
// ---------------------------------------------------------------------------

TracedCluster::TracedCluster(const miniraid::ClusterOptions& options,
                             Tracer* tracer)
    : Cluster(options), tracer_(tracer) {
  MR_CHECK(options.backend != miniraid::ClusterBackend::kSim)
      << "TracedCluster needs an inproc or tcp backend";
  MR_CHECK(!options.reliable.enabled)
      << "TracedCluster does not wire the reliable channel";
}

miniraid::Result<std::unique_ptr<TracedCluster>> TracedCluster::Make(
    const miniraid::ClusterOptions& options, Tracer* tracer) {
  auto cluster =
      std::unique_ptr<TracedCluster>(new TracedCluster(options, tracer));
  MINIRAID_RETURN_IF_ERROR(cluster->Start());
  return cluster;
}

TracedCluster::~TracedCluster() { Stop(); }

Status TracedCluster::Start() {
  const uint32_t total = options_.n_sites + 1;
  for (uint32_t i = 0; i < total; ++i) {
    loops_.push_back(std::make_unique<miniraid::EventLoop>());
    runtimes_.push_back(std::make_unique<miniraid::ThreadSiteRuntime>(
        loops_.back().get(), &clock_));
    traced_runtimes_.push_back(
        std::make_unique<TracedRuntime>(i, runtimes_.back().get(), tracer_));
  }
  std::vector<miniraid::Transport*> inner;
  std::map<SiteId, uint16_t> ports;
  if (options_.backend == miniraid::ClusterBackend::kInProc) {
    inproc_ = std::make_unique<miniraid::InProcTransport>(options_.inproc);
    inner.assign(total, inproc_.get());
  } else {
    const uint16_t base = options_.base_port != 0
                              ? options_.base_port
                              : miniraid::PickEphemeralBasePort();
    for (uint32_t i = 0; i < total; ++i) {
      ports[i] = static_cast<uint16_t>(base + i);
    }
    for (uint32_t i = 0; i < total; ++i) {
      tcp_.push_back(std::make_unique<miniraid::TcpTransport>(
          i, ports, loops_[i].get(), /*handler=*/nullptr, options_.tcp));
      inner.push_back(tcp_.back().get());
    }
  }
  for (uint32_t i = 0; i < total; ++i) {
    traced_transports_.push_back(
        std::make_unique<TracedTransport>(i, inner[i], tracer_));
  }
  for (SiteId id = 0; id < total; ++id) {
    miniraid::MessageHandler* handler = nullptr;
    if (id < options_.n_sites) {
      sites_.push_back(std::make_unique<miniraid::Site>(
          id, options_.site, traced_transports_[id].get(),
          traced_runtimes_[id].get()));
      handler = sites_.back().get();
    } else {
      managing_ = std::make_unique<miniraid::ManagingSite>(
          id, traced_transports_[id].get(), traced_runtimes_[id].get(),
          options_.managing);
      handler = managing_.get();
    }
    traced_handlers_.push_back(
        std::make_unique<TracedHandler>(id, handler, tracer_));
    if (inproc_) {
      inproc_->Register(id, loops_[id].get(), traced_handlers_.back().get());
    } else {
      tcp_[id]->set_handler(traced_handlers_.back().get());
    }
  }
  window_ = std::make_unique<miniraid::SubmitWindow>(managing_.get(),
                                                     options_.max_inflight);
  for (auto& transport : tcp_) {
    MINIRAID_RETURN_IF_ERROR(transport->Start());
  }
  return Status::Ok();
}

void TracedCluster::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (window_) {
    loops_[managing_id()]->PostAndWait([this] { window_->Close(); });
  }
  for (auto& transport : tcp_) transport->Stop();
  for (auto& loop : loops_) loop->Stop();
}

void TracedCluster::SubmitTxn(const miniraid::TxnSpec& txn,
                              SiteId coordinator, ReplyCallback callback) {
  // The client's own completion work is a span of its own, so it is not
  // counted as the managing site's handler time.
  ReplyCallback traced = [tracer = tracer_, managing = managing_id(),
                          callback = std::move(callback)](
                             const miniraid::TxnResult& reply) {
    tracer->Begin(managing, SpanKind::kClient);
    callback(reply);
    tracer->End();
  };
  loops_[managing_id()]->Post(
      [this, txn, coordinator, traced = std::move(traced)]() mutable {
        window_->Submit(txn, coordinator, std::move(traced));
      });
}

void TracedCluster::Fail(SiteId site) {
  loops_[managing_id()]->PostAndWait(
      [this, site] { managing_->FailSite(site); });
  WaitUntil(site, [](const miniraid::Site& s) { return !s.is_up(); },
            miniraid::Seconds(10));
}

void TracedCluster::Recover(SiteId site) {
  loops_[managing_id()]->PostAndWait(
      [this, site] { managing_->RecoverSite(site); });
  WaitUntil(site, [](const miniraid::Site& s) { return s.is_up(); },
            miniraid::Seconds(10));
}

std::vector<SiteId> TracedCluster::UpSites() const {
  std::vector<SiteId> up;
  for (SiteId id = 0; id < options_.n_sites; ++id) {
    bool is_up = false;
    const miniraid::Site* site = sites_[id].get();
    loops_[id]->PostAndWait([site, &is_up] { is_up = site->is_up(); });
    if (is_up) up.push_back(id);
  }
  return up;
}

std::vector<miniraid::SiteSnapshot> TracedCluster::SnapshotSites() const {
  std::vector<miniraid::SiteSnapshot> snapshots;
  for (SiteId id = 0; id < options_.n_sites; ++id) {
    const miniraid::Site* site = sites_[id].get();
    loops_[id]->PostAndWait(
        [site, &snapshots] { snapshots.push_back(SnapshotOf(*site)); });
  }
  return snapshots;
}

miniraid::ClusterStats TracedCluster::Stats() const {
  miniraid::ClusterStats stats;
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
  return stats;
}

void TracedCluster::Post(std::function<void()> fn) {
  loops_[managing_id()]->Post(std::move(fn));
}

void TracedCluster::ScheduleAfter(Duration delay, std::function<void()> fn) {
  loops_[managing_id()]->ScheduleAfter(delay, std::move(fn));
}

bool TracedCluster::Drive(const std::function<bool()>& done,
                          Duration timeout) {
  const miniraid::TimePoint deadline = clock_.Now() + timeout;
  while (true) {
    bool ok = false;
    loops_[managing_id()]->PostAndWait([&done, &ok] { ok = done(); });
    if (ok) return true;
    if (clock_.Now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool TracedCluster::WaitUntil(
    SiteId site, const std::function<bool(const miniraid::Site&)>& pred,
    Duration timeout) {
  const miniraid::TimePoint deadline = clock_.Now() + timeout;
  const miniraid::Site* target = sites_.at(site).get();
  while (clock_.Now() < deadline) {
    bool ok = false;
    loops_[site]->PostAndWait([target, &pred, &ok] { ok = pred(*target); });
    if (ok) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

void TracedCluster::AwaitTxn(miniraid::internal::TxnWaitState& state) {
  miniraid::MutexLock lock(state.mu);
  while (!state.done) state.cv.Wait(state.mu);
}

}  // namespace e2ebench
