#ifndef E2EBENCH_TRACED_CLUSTER_H_
#define E2EBENCH_TRACED_CLUSTER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "core/cluster_api.h"
#include "core/submit_window.h"
#include "net/event_loop.h"

namespace e2ebench {

/// What a span times. Handler spans wrap MessageHandler::OnMessage, send
/// spans wrap Transport::Send, timer spans wrap the SiteRuntime calls and
/// the timer callbacks; replay spans are the trace's own codec re-run and
/// client spans the benchmark's own completion callback.
enum class SpanKind : uint8_t {
  kHandler = 0,
  kSend = 1,
  kTimerSchedule = 2,
  kTimerCancel = 3,
  kTimerFire = 4,
  kCodecReplay = 5,
  kClient = 6,
};
inline constexpr size_t kSpanKinds = 7;
inline constexpr size_t kMsgTypes = 32;  // > every MsgType value
inline constexpr uint8_t kNoMsgType = kMsgTypes - 1;

std::string_view SpanKindName(SpanKind kind);

/// The request a message serves: its transaction id, or for a batch frame
/// the batch id plus the member ids the frame carries (acks carry only the
/// batch id; join them to their BatchPrepare by endpoint pair and batch).
struct Request {
  std::vector<miniraid::TxnId> txns;
  uint64_t batch = 0;
};
Request RequestOf(const miniraid::Message& msg);

/// Span aggregates for one (kind, message type) on one thread.
struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

/// Per-thread span recorder. Spans nest per thread (a parent's self time
/// excludes its children); a handler span's parent is the send span that
/// produced its message, matched by per-pair FIFO order. Aggregates cover
/// every span; at most kKeptSpans per thread are kept for the span file.
class Tracer {
 public:
  static constexpr size_t kKeptSpans = 20000;

  explicit Tracer(uint32_t n_endpoints);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread, owned by `endpoint`, for `msg`
  /// (null when the span serves no message).
  uint64_t Begin(miniraid::SiteId endpoint, SpanKind kind,
                 const miniraid::Message* msg = nullptr,
                 uint64_t cross_parent = 0);
  void End();

  /// Send side of the delivery match; call before handing the message to
  /// the transport, so the receiver can never see the message first.
  void NoteSend(miniraid::SiteId from, miniraid::SiteId to, uint64_t span);
  /// Undoes the last NoteSend of the pair (the transport refused it).
  void UnnoteSend(miniraid::SiteId from, miniraid::SiteId to);
  /// Receive side: pops the pair's oldest send, records the delivery
  /// latency on this thread and returns the send span id (0 if none).
  uint64_t MatchDelivery(miniraid::SiteId from, miniraid::SiteId to);

  void AddCodec(uint64_t encode_ns, uint64_t decode_ns, uint64_t bytes);

  /// Spans, deliveries and codec samples count only while recording is on
  /// (the measured window); spans still nest outside it.
  void SetRecording(bool on) { recording_.store(on); }

  struct Totals {
    /// [site thread?][kind][msg type]
    std::array<std::array<std::array<SpanTotals, kMsgTypes>, kSpanKinds>, 2>
        spans{};
    std::vector<uint32_t> delivery_ns;
    uint64_t encode_ns = 0;
    uint64_t decode_ns = 0;
    uint64_t bytes = 0;
    uint64_t messages = 0;
    uint64_t spans_recorded = 0;
    uint64_t spans_kept = 0;
  };
  /// Call after every traced thread stopped.
  Totals Collect() const;
  /// Writes the kept spans as TSV; call after every traced thread stopped.
  bool WriteSpans(const std::string& path) const;

  static int64_t NowNs();

 private:
  struct Open {
    uint64_t id;
    uint64_t parent;
    int64_t start;
    uint64_t child_ns;
    SpanKind kind;
    uint8_t msg_type;
    bool keep;
    Request request;
  };
  struct Kept {
    uint64_t id;
    uint64_t parent;
    int64_t start;
    int64_t end;
    SpanKind kind;
    uint8_t msg_type;
    Request request;
  };
  struct ThreadTrace {
    uint32_t index = 0;
    miniraid::SiteId endpoint = miniraid::kInvalidSite;
    uint64_t next_local = 1;
    uint64_t begun = 0;
    std::vector<Open> stack;
    std::vector<Kept> kept;
    uint64_t recorded = 0;
    std::array<std::array<SpanTotals, kMsgTypes>, kSpanKinds> totals{};
    std::vector<uint32_t> delivery_ns;
    uint64_t encode_ns = 0;
    uint64_t decode_ns = 0;
    uint64_t bytes = 0;
    uint64_t messages = 0;
  };
  struct PendingSend {
    uint64_t span;
    int64_t start_ns;
  };
  struct Pair {
    miniraid::Mutex mu;
    std::deque<PendingSend> sends MR_GUARDED_BY(mu);
  };

  ThreadTrace& Local();

  const uint64_t generation_;
  std::atomic<bool> recording_{false};
  const uint32_t n_endpoints_;
  std::unique_ptr<Pair[]> pairs_;  // [from * n_endpoints_ + to]
  miniraid::Mutex threads_mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_ MR_GUARDED_BY(threads_mu_);
};

/// A cluster rebuilt from the public classes exactly as RealCluster::Start
/// wires it (no reliable channel), with timing decorators at every layer
/// boundary: a Transport decorator in front of what each endpoint sends, a
/// MessageHandler decorator around every Site and the ManagingSite, and a
/// SiteRuntime decorator around every runtime. Nothing in the program
/// changes; the layers are timed from outside.
class TracedCluster : public miniraid::Cluster {
 public:
  static miniraid::Result<std::unique_ptr<TracedCluster>> Make(
      const miniraid::ClusterOptions& options, Tracer* tracer);
  ~TracedCluster() override;

  void Stop();

  using Cluster::SubmitTxn;
  void SubmitTxn(const miniraid::TxnSpec& txn, miniraid::SiteId coordinator,
                 ReplyCallback callback) override;
  void Fail(miniraid::SiteId site) override;
  void Recover(miniraid::SiteId site) override;
  std::vector<miniraid::SiteId> UpSites() const override;
  std::vector<miniraid::SiteSnapshot> SnapshotSites() const override;
  miniraid::ClusterStats Stats() const override;
  miniraid::TimePoint Now() const override { return clock_.Now(); }
  void Post(std::function<void()> fn) override;
  void ScheduleAfter(miniraid::Duration delay,
                     std::function<void()> fn) override;
  bool Drive(const std::function<bool()>& done,
             miniraid::Duration timeout) override;
  bool WaitUntil(miniraid::SiteId site,
                 const std::function<bool(const miniraid::Site&)>& pred,
                 miniraid::Duration timeout) override;

 protected:
  void AwaitTxn(miniraid::internal::TxnWaitState& state) override;

 private:
  TracedCluster(const miniraid::ClusterOptions& options, Tracer* tracer);
  miniraid::Status Start();

  Tracer* const tracer_;
  miniraid::SteadyClock clock_;
  bool stopped_ = false;
  std::vector<std::unique_ptr<miniraid::EventLoop>> loops_;
  std::vector<std::unique_ptr<miniraid::ThreadSiteRuntime>> runtimes_;
  std::vector<std::unique_ptr<miniraid::SiteRuntime>> traced_runtimes_;
  std::unique_ptr<miniraid::InProcTransport> inproc_;
  std::vector<std::unique_ptr<miniraid::TcpTransport>> tcp_;
  std::vector<std::unique_ptr<miniraid::Transport>> traced_transports_;
  std::vector<std::unique_ptr<miniraid::Site>> sites_;
  std::unique_ptr<miniraid::ManagingSite> managing_;
  std::vector<std::unique_ptr<miniraid::MessageHandler>> traced_handlers_;
  std::unique_ptr<miniraid::SubmitWindow> window_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACED_CLUSTER_H_
