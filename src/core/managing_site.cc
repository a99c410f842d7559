#include "core/managing_site.h"

#include "common/logging.h"

namespace miniraid {

ManagingSite::ManagingSite(SiteId id, Transport* transport,
                           SiteRuntime* runtime, const Options& options)
    : id_(id), transport_(transport), runtime_(runtime), options_(options) {}

void ManagingSite::Submit(const TxnSpec& txn, SiteId coordinator,
                          ReplyCallback callback) {
  MR_CHECK(!pending_.count(txn.id))
      << "transaction id " << txn.id << " already outstanding";
  ++submitted_;
  PendingTxn& pending = pending_[txn.id];
  pending.callback = std::move(callback);
  const Status status =
      transport_->Send(MakeMessage(id_, coordinator, TxnRequestArgs{txn}));
  if (!status.ok()) {
    MR_LOG(kWarn) << "managing site: submit failed: " << status.ToString();
  }
  const TxnId id = txn.id;
  pending.timer = runtime_->ScheduleAfter(options_.client_timeout,
                                          [this, id] { ClientTimeout(id); });
}

void ManagingSite::FailSite(SiteId site) {
  (void)transport_->Send(MakeMessage(id_, site, FailSiteArgs{}));
}

void ManagingSite::RecoverSite(SiteId site) {
  (void)transport_->Send(MakeMessage(id_, site, RecoverSiteArgs{}));
}

void ManagingSite::Shutdown(SiteId site) {
  (void)transport_->Send(MakeMessage(id_, site, ShutdownArgs{}));
}

void ManagingSite::OnMessage(const Message& msg) {
  if (msg.type != MsgType::kTxnReply) return;
  const auto& reply = msg.As<TxnResult>();
  auto it = pending_.find(reply.txn);
  if (it == pending_.end()) {
    // Not outstanding: each submission gets one reply, so this is the real
    // outcome arriving after ClientTimeout already told the caller
    // kCoordinatorUnreachable. The commit (or abort) stands in the
    // cluster; count the contradiction so operators can see when the
    // client timeout is lying.
    ++late_outcomes_;
    MR_LOG(kWarn) << "managing site: txn " << reply.txn << " resolved ("
                  << (reply.outcome == TxnOutcome::kCommitted ? "committed"
                                                              : "aborted")
                  << ") after its client timeout already fired";
    return;
  }
  runtime_->CancelTimer(it->second.timer);
  PendingTxn pending = std::move(it->second);
  pending_.erase(it);
  if (reply.outcome == TxnOutcome::kCommitted) {
    ++committed_;
  } else {
    ++aborted_;
  }
  if (pending.callback) pending.callback(reply);
}

void ManagingSite::ClientTimeout(TxnId txn) {
  auto it = pending_.find(txn);
  if (it == pending_.end()) return;
  PendingTxn pending = std::move(it->second);
  pending_.erase(it);
  ++unreachable_;
  TxnResult synthetic;
  synthetic.txn = txn;
  synthetic.outcome = TxnOutcome::kCoordinatorUnreachable;
  if (pending.callback) pending.callback(synthetic);
}

}  // namespace miniraid
