#ifndef MINIRAID_CORE_MANAGING_SITE_H_
#define MINIRAID_CORE_MANAGING_SITE_H_

#include <deque>
#include <functional>
#include <map>
#include <set>

#include "common/runtime.h"
#include "common/thread_annotations.h"
#include "net/transport.h"
#include "txn/transaction.h"

namespace miniraid {

/// The paper's managing site: "interactive control of system actions ...
/// used to cause sites to fail and recover and to initiate a database
/// transaction to a site". It speaks the same message channel as the
/// database sites but holds no replica and never counts as operational.
///
/// The API is asynchronous (callback on completion) so the same code runs
/// under the simulator and the real runtimes; drivers layer their own
/// blocking on top.
class ManagingSite : public MessageHandler {
 public:
  struct Options {
    /// How long to wait for a coordinator's reply before declaring it
    /// unreachable (it crashed mid-transaction, or was down all along).
    Duration client_timeout = Seconds(10);
  };

  ManagingSite(SiteId id, Transport* transport, SiteRuntime* runtime,
               const Options& options);
  ManagingSite(SiteId id, Transport* transport, SiteRuntime* runtime)
      : ManagingSite(id, transport, runtime, Options{}) {}

  using ReplyCallback = std::function<void(const TxnResult&)>;

  /// Sends `txn` to `coordinator` and invokes `callback` exactly once: with
  /// the coordinator's reply, or with outcome kCoordinatorUnreachable after
  /// the client timeout. The paper's experiments submit serially
  /// (assumption 2), but multiple transactions may be outstanding — sites
  /// queue overlapping requests and still execute serially each.
  MR_RUNS_ON(managing)
  void Submit(const TxnSpec& txn, SiteId coordinator, ReplyCallback callback);

  /// True while any submitted transaction has neither replied nor timed
  /// out.
  MR_RUNS_ON(managing) bool HasPending() const { return !pending_.empty(); }
  MR_RUNS_ON(managing) size_t PendingCount() const { return pending_.size(); }

  /// Simulates a crash of `site` (paper: "site failure was simulated by
  /// sending a message to a site to indicate that the site should not
  /// participate in any further system actions").
  MR_RUNS_ON(managing) void FailSite(SiteId site);

  /// Initiates recovery (control transaction type 1) at `site`.
  MR_RUNS_ON(managing) void RecoverSite(SiteId site);

  /// Asks `site` to terminate cleanly.
  MR_RUNS_ON(managing) void Shutdown(SiteId site);

  MR_RUNS_ON(managing) void OnMessage(const Message& msg) override;

  // -- tallies over all submitted transactions ---------------------------
  MR_RUNS_ON(managing) uint64_t submitted() const { return submitted_; }
  MR_RUNS_ON(managing) uint64_t committed() const { return committed_; }
  MR_RUNS_ON(managing) uint64_t aborted() const { return aborted_; }
  MR_RUNS_ON(managing) uint64_t unreachable() const { return unreachable_; }

  /// Replies that arrived AFTER the client timeout already fired for their
  /// transaction. Each one is a transaction whose caller was told
  /// kCoordinatorUnreachable while the cluster actually resolved it — most
  /// often a commit racing the timeout on a slow or lossy network. The
  /// caller-visible tallies are not retroactively rewritten (the caller
  /// already acted on the timeout); this counter sizes the lie. A non-zero
  /// value under loss means client_timeout is too tight for the timeouts
  /// underneath it (ack_timeout and the channel's repair). See
  /// docs/API.md.
  MR_RUNS_ON(managing) uint64_t late_outcomes() const { return late_outcomes_; }

  MR_RUNS_ON(any) SiteId id() const { return id_; }

 private:
  struct PendingTxn {
    ReplyCallback callback;
    TimerId timer = kInvalidTimer;
  };

  // Timer callbacks fire on the managing site's own loop, which IS the
  // managing execution context — annotated so the shared-state pass anchors
  // them there instead of inferring the generic timer (loop) context.
  MR_RUNS_ON(managing) void ClientTimeout(TxnId txn);
  MR_RUNS_ON(managing) void RecordTimedOut(TxnId txn);

  const SiteId id_;
  Transport* const transport_;
  SiteRuntime* const runtime_;
  const Options options_;

  std::map<TxnId, PendingTxn> pending_;
  /// Transactions whose client timeout fired, kept (bounded FIFO) so a
  /// late reply is distinguishable from a duplicate of an already-counted
  /// reply — the difference between "the cluster contradicted what we told
  /// the caller" (late_outcomes_) and harmless retransmission noise.
  std::set<TxnId> timed_out_;
  std::deque<TxnId> timed_out_fifo_;
  static constexpr size_t kMaxTimedOut = 1024;

  uint64_t submitted_ = 0;
  uint64_t committed_ = 0;
  uint64_t aborted_ = 0;
  uint64_t unreachable_ = 0;
  uint64_t late_outcomes_ = 0;
};

}  // namespace miniraid

#endif  // MINIRAID_CORE_MANAGING_SITE_H_
