#include "replication/site.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace miniraid {
namespace {

Database MakeDatabase(SiteId id, const SiteOptions& options) {
  if (options.placement.empty()) return Database(options.db_size);
  MR_CHECK(options.placement.size() == options.n_sites)
      << "placement must cover every site";
  return Database(options.db_size, options.placement[id]);
}

bool Contains(const std::vector<SiteId>& sites, SiteId site) {
  return std::find(sites.begin(), sites.end(), site) != sites.end();
}

HoldersTable MakeHolders(const SiteOptions& options) {
  if (options.placement.empty()) {
    return HoldersTable(options.db_size, options.n_sites);
  }
  return HoldersTable::FromPlacement(options.db_size, options.n_sites,
                                     options.placement);
}

}  // namespace

Site::Site(SiteId id, const SiteOptions& options, Transport* transport,
           SiteRuntime* runtime)
    : id_(id),
      options_(options),
      transport_(transport),
      runtime_(runtime),
      db_(MakeDatabase(id, options)),
      session_vector_(options.n_sites),
      fail_locks_(options.db_size, options.n_sites),
      holders_(MakeHolders(options)) {
  MR_CHECK(id < options.n_sites) << "site id out of range";
}

void Site::SendTo(SiteId to, Payload payload) {
  const Status status =
      transport_->Send(MakeMessage(id_, to, std::move(payload)));
  if (!status.ok()) {
    MR_LOG(kWarn) << "site " << id_ << ": send to " << to
                  << " failed: " << status.ToString();
  }
}

void Site::SendTo(const std::vector<SiteId>& to, Duration cost_per_send,
                  Payload payload) {
  Message msg = MakeMessage(id_, kInvalidSite, std::move(payload));
  for (SiteId peer : to) {
    Charge(cost_per_send);
    msg.to = peer;
    const Status status = transport_->Send(msg);
    if (!status.ok()) {
      MR_LOG(kWarn) << "site " << id_ << ": send to " << peer
                    << " failed: " << status.ToString();
    }
  }
}

std::vector<SiteId> Site::OperationalPeers() const {
  std::vector<SiteId> peers = session_vector_.OperationalSites();
  peers.erase(std::remove(peers.begin(), peers.end(), id_), peers.end());
  return peers;
}

SiteId Site::PickCopySource(ItemId item) const {
  for (SiteId t = 0; t < options_.n_sites; ++t) {
    if (t == id_) continue;
    if (!session_vector_.IsUp(t)) continue;
    if (!holders_.Holds(item, t)) continue;
    if (fail_locks_.IsSet(item, t)) continue;
    return t;
  }
  return kInvalidSite;
}

void Site::OnMessage(const Message& msg) {
  // A down site "remain[s] inactive until recovery was initiated from the
  // managing site" — the only message it reacts to is kRecoverSite.
  if (status_ == SiteStatus::kDown && msg.type != MsgType::kRecoverSite) {
    return;
  }
  if (status_ == SiteStatus::kTerminating) return;

  switch (msg.type) {
    case MsgType::kTxnRequest:
      HandleTxnRequest(msg);
      break;
    case MsgType::kTxnReply:
      // Sites never receive transaction replies; the managing site does.
      break;
    case MsgType::kPrepare:
      HandlePrepare(msg);
      break;
    case MsgType::kPrepareAck:
      HandlePrepareAck(msg);
      break;
    case MsgType::kCommit:
      HandleCommit(msg);
      break;
    case MsgType::kCommitAck:
      HandleCommitAck(msg);
      break;
    case MsgType::kAbort:
      HandleAbort(msg);
      break;
    case MsgType::kCopyRequest:
      HandleCopyRequest(msg);
      break;
    case MsgType::kCopyReply:
      HandleCopyReply(msg);
      break;
    case MsgType::kClearFailLocks:
      HandleClearFailLocks(msg);
      break;
    case MsgType::kClearFailLocksAck:
      break;  // the special transaction is fire-and-forget
    case MsgType::kRecoveryAnnounce:
      HandleRecoveryAnnounce(msg);
      break;
    case MsgType::kRecoveryInfo:
      HandleRecoveryInfo(msg);
      break;
    case MsgType::kFailureAnnounce:
      HandleFailureAnnounce(msg);
      break;
    case MsgType::kFailureAck:
      break;  // type 2 is fire-and-forget
    case MsgType::kCopyCreate:
      HandleCopyCreate(msg);
      break;
    case MsgType::kCopyCreateAck:
      break;  // type 3 is fire-and-forget
    case MsgType::kFailSite:
      Crash();
      break;
    case MsgType::kRecoverSite:
      StartRecovery();
      break;
    case MsgType::kShutdown:
      status_ = SiteStatus::kTerminating;
      break;
    case MsgType::kChannelAck:
      // Consumed by the ReliableChannel below this handler; one reaching
      // a site with no channel carries nothing to act on.
      break;
    case MsgType::kBatchPrepare:
    case MsgType::kBatchPrepareAck:
    case MsgType::kBatchCommit:
    case MsgType::kBatchCommitAck:
      // Retired group-commit types: no payload carries them and the
      // decoder refuses their type bytes, so none can arrive.
      break;
  }
}

void Site::Crash() {
  status_ = SiteStatus::kDown;
  Trace(TraceEvent::kCrashed, options_.lose_state_on_crash ? 1 : 0);
  for (auto& [txn, coordination] : coords_) {
    runtime_->CancelTimer(coordination.timer);
  }
  coords_.clear();
  if (batch_) {
    runtime_->CancelTimer(batch_->timer);
    batch_.reset();
  }
  for (auto& [txn, participation] : participations_) {
    runtime_->CancelTimer(participation.timer);
  }
  participations_.clear();
  queued_requests_.clear();
  lock_manager_ = LockManager();  // locks vanish with the crash
  if (recovery_) {
    runtime_->CancelTimer(recovery_->timer);
    recovery_.reset();
  }
  if (options_.lose_state_on_crash) {
    // Cold restart: volatile state is gone. The session counter is treated
    // as stable storage (see SiteOptions::lose_state_on_crash).
    db_ = MakeDatabase(id_, options_);
    fail_locks_ = FailLockTable(options_.db_size, options_.n_sites);
    recent_outcomes_.Clear();
    state_lost_ = true;
    return;
  }
  // Otherwise database, session vector, and fail-locks are retained: the
  // paper simulates failure by making the site ignore all system actions.
}

// ---------------------------------------------------------------------------
// Coordinator role (Appendix A, "actions at the coordinating site").
// ---------------------------------------------------------------------------

void Site::HandleTxnRequest(const Message& msg) {
  if (status_ != SiteStatus::kUp) return;  // client will time out
  // A duplicated request (transport fault or client retransmission) for a
  // transaction this site is already serving, has queued, or recently
  // finished must not run the transaction twice.
  const TxnId incoming = msg.As<TxnRequestArgs>().txn.id;
  const bool serving = coords_.count(incoming) > 0;
  const bool queued = std::any_of(
      queued_requests_.begin(), queued_requests_.end(),
      [incoming](const Message& q) {
        return q.As<TxnRequestArgs>().txn.id == incoming;
      });
  if (serving || queued || RecentOutcome(incoming).has_value()) {
    ++counters_.duplicate_msgs_ignored;
    return;
  }
  if (batch_ ||
      coords_.size() >= options_.concurrency.EffectiveExecutors()) {
    // Every executor slot is busy (or a batch refresh has the site to
    // itself); serve this one when a slot frees up.
    if (queued_requests_.size() < kMaxQueuedRequests) {
      queued_requests_.push_back(msg);
    } else {
      MR_LOG(kWarn) << "site " << id_
                    << ": request queue full; dropping transaction";
    }
    return;
  }
  ++counters_.txns_coordinated;
  Coordination& c = coords_[incoming];
  c.txn = msg.As<TxnRequestArgs>().txn;
  c.client = msg.from;
  c.start_time = runtime_->Now();
  counters_.max_concurrent_coordinations =
      std::max<uint64_t>(counters_.max_concurrent_coordinations,
                         coords_.size());
  Trace(TraceEvent::kTxnReceived, c.txn.id, c.txn.ops.size());
  Charge(options_.costs.txn_setup);

  // Validate before touching any table: item ids from the wire are
  // untrusted input. The declared access sets are wire input too, and the
  // engine locks exactly what is declared — an undeclared op would run
  // outside the locks, so a declaration that under-covers ops is invalid.
  for (const Operation& op : c.txn.ops) {
    if (op.item >= options_.db_size) {
      ReplyAndClear(c, TxnOutcome::kRejectedInvalid);
      return;
    }
  }
  const std::vector<ItemId> read_set = c.txn.ReadSet();
  const std::vector<ItemId> write_set = c.txn.WriteSet();
  for (ItemId item : read_set) {
    if (item >= options_.db_size) {
      ReplyAndClear(c, TxnOutcome::kRejectedInvalid);
      return;
    }
  }
  for (ItemId item : write_set) {
    if (item >= options_.db_size) {
      ReplyAndClear(c, TxnOutcome::kRejectedInvalid);
      return;
    }
  }
  for (const Operation& op : c.txn.ops) {
    const std::vector<ItemId>& declared =
        op.is_read() ? read_set : write_set;
    if (std::find(declared.begin(), declared.end(), op.item) ==
        declared.end()) {
      ReplyAndClear(c, TxnOutcome::kRejectedInvalid);
      return;
    }
  }

  // "if transaction contains read operation for a fail-locked copy then
  // run copier transaction". Reads of items this site holds no copy of
  // (partial replication) fetch a remote copy the same way.
  for (ItemId item : read_set) {
    if (!db_.Holds(item) || fail_locks_.IsSet(item, id_)) {
      c.needs_copy.push_back(item);
    }
  }
  if (options_.concurrency.locking()) {
    AcquireCoordinatorLocks(c, read_set, write_set);
  } else {
    ProceedAfterLocks(c);
  }
}

void Site::AcquireCoordinatorLocks(Coordination& c,
                                   const std::vector<ItemId>& read_set,
                                   const std::vector<ItemId>& write_set) {
  // Shared locks for pure local reads, exclusive for writes and for stale
  // reads (the copier installs a fresh copy locally). Strict two-phase:
  // everything is released in ReplyAndClear.
  const TxnId txn = c.txn.id;
  using Want = std::pair<ItemId, LockManager::Mode>;
  std::vector<Want> wanted;
  wanted.reserve(read_set.size() + c.needs_copy.size() + write_set.size());
  for (ItemId item : read_set) {
    wanted.emplace_back(item, LockManager::Mode::kShared);
  }
  for (ItemId item : c.needs_copy) {
    wanted.emplace_back(item, LockManager::Mode::kExclusive);
  }
  for (ItemId item : write_set) {
    wanted.emplace_back(item, LockManager::Mode::kExclusive);
  }
  // One request per item in ascending item order, exclusive if any use
  // of the item needs it: each item's run starts with its strongest mode,
  // and unique keeps the first of a run.
  std::sort(wanted.begin(), wanted.end(), [](const Want& a, const Want& b) {
    return a.first < b.first || (a.first == b.first && a.second > b.second);
  });
  wanted.erase(std::unique(wanted.begin(), wanted.end(),
                           [](const Want& a, const Want& b) {
                             return a.first == b.first;
                           }),
               wanted.end());
  for (const auto& [item, mode] : wanted) {
    const LockManager::Outcome outcome = lock_manager_.Acquire(
        item, txn, mode, [this, txn] { OnCoordinatorLockGranted(txn); });
    switch (outcome) {
      case LockManager::Outcome::kGranted:
        break;
      case LockManager::Outcome::kQueued:
        ++counters_.lock_waits;
        ++c.lock_waits_pending;
        break;
      case LockManager::Outcome::kRejected: {
        // Wait-die: this (younger) transaction dies; the client may retry.
        ++counters_.lock_rejections;
        ++counters_.txns_aborted_lock_conflict;
        lock_manager_.ReleaseAll(txn);
        ReplyAndClear(c, TxnOutcome::kAbortedLockConflict);
        return;
      }
    }
  }
  if (c.lock_waits_pending == 0) ProceedAfterLocks(c);
}

void Site::OnCoordinatorLockGranted(TxnId txn) {
  auto it = coords_.find(txn);
  if (it == coords_.end()) return;
  Coordination& c = it->second;
  if (--c.lock_waits_pending == 0) ProceedAfterLocks(c);
}

void Site::ProceedAfterLocks(Coordination& c) {
  if (!c.needs_copy.empty()) {
    StartCopierPhase(c, c.needs_copy);
  } else {
    ExecuteAndPrepare(c);
  }
}

void Site::StartCopierPhase(Coordination& c,
                            const std::vector<ItemId>& needed) {
  c.phase = Coordination::Phase::kCopier;
  c.phase_start = runtime_->Now();
  if (!c.batch_refresh) {
    Trace(TraceEvent::kCopierStarted, c.txn.id, needed.size());
  }
  Charge(options_.costs.copier_setup);
  for (ItemId item : needed) {
    const SiteId source = PickCopySource(item);
    if (source == kInvalidSite) {
      // No operational site holds an up-to-date copy: the transaction
      // cannot proceed (Experiment 3 scenario 1's abort cause).
      if (c.batch_refresh) {
        batch_.reset();
        return;
      }
      ++counters_.txns_aborted_copier;
      ReplyAndClear(c, TxnOutcome::kAbortedCopierFailed);
      return;
    }
    c.copies_pending[source].push_back(item);
  }
  const uint32_t groups = static_cast<uint32_t>(c.copies_pending.size());
  c.copier_count += groups;
  if (c.batch_refresh) {
    counters_.batch_copier_transactions += groups;
  } else {
    counters_.copier_transactions += groups;
  }
  for (const auto& [source, items] : c.copies_pending) {
    Charge(options_.costs.ack_format);
    SendTo(source, CopyRequestArgs{c.txn.id, items});
  }
  const TxnId txn = c.txn.id;
  c.timer = runtime_->ScheduleAfter(options_.ack_timeout,
                                    [this, txn] { CoordinationTimeout(txn); });
}

Site::Coordination* Site::CoordinationFor(TxnId txn) {
  auto it = coords_.find(txn);
  if (it != coords_.end()) return &it->second;
  if (batch_ && batch_->txn.id == txn) return &*batch_;
  return nullptr;
}

void Site::HandleCopyReply(const Message& msg) {
  const auto& args = msg.As<CopyReplyArgs>();
  Coordination* cp = CoordinationFor(args.txn);
  if (cp == nullptr || cp->phase != Coordination::Phase::kCopier) return;
  Coordination& c = *cp;
  auto pending = c.copies_pending.find(msg.from);
  if (pending == c.copies_pending.end()) return;

  // The source returns every requested item it could serve; a missing item
  // means the source's own copy turned out fail-locked (our table was
  // stale), which makes the copier transaction fail.
  for (ItemId item : pending->second) {
    const bool present =
        std::any_of(args.copies.begin(), args.copies.end(),
                    [item](const ItemCopy& copy) { return copy.item == item; });
    if (!present) {
      runtime_->CancelTimer(c.timer);
      if (c.batch_refresh) {
        batch_.reset();
        return;
      }
      ++counters_.txns_aborted_copier;
      ReplyAndClear(c, TxnOutcome::kAbortedCopierFailed);
      return;
    }
  }

  for (const ItemCopy& copy : args.copies) {
    Charge(options_.costs.copy_install_per_item);
    const ItemState state{copy.value, copy.version};
    if (db_.Holds(copy.item)) {
      const Status status = db_.InstallCopy(copy.item, state);
      if (!status.ok()) {
        MR_LOG(kWarn) << "site " << id_ << ": copier install failed: "
                      << status.ToString();
        continue;
      }
      if (options_.on_apply) {
        options_.on_apply(copy.item, copy.value, copy.version);
      }
      if (ClearFailLock(copy.item, id_)) {
        ++counters_.fail_locks_cleared;
      }
      c.refreshed_items.push_back(copy.item);
    } else {
      // Partial replication: remote read, no local copy to refresh.
      c.remote_reads[copy.item] = state;
    }
  }
  c.copies_pending.erase(pending);
  if (c.copies_pending.empty()) FinishCopierPhase(c);
}

void Site::FinishCopierPhase(Coordination& c) {
  runtime_->CancelTimer(c.timer);
  c.timer = kInvalidTimer;
  counters_.phase_copier_time.Add(runtime_->Now() - c.phase_start);
  if (!c.refreshed_items.empty()) {
    // The special transaction: "inform other sites of the fail-lock bits
    // cleared by copier transactions", run after the copier values have
    // been written at the coordinating site.
    ++counters_.clear_lock_txns_sent;
    Trace(TraceEvent::kClearLocksSent, c.txn.id, c.refreshed_items.size());
    // Broadcast to every peer address, not only the believed-up ones: the
    // special transaction is idempotent fire-and-forget, and a
    // just-recovered site this site has not heard about yet must still get
    // the clear, or it carries a spurious stale fail-lock indefinitely (a
    // state-space-checker finding; a crashed receiver just drops it and
    // has its table replaced wholesale at its next recovery).
    for (SiteId peer = 0; peer < options_.n_sites; ++peer) {
      if (peer == id_) continue;
      Charge(options_.costs.clear_locks_format);
      SendTo(peer, ClearFailLocksArgs{c.txn.id, id_, c.refreshed_items});
    }
  }
  if (c.batch_refresh) {
    batch_.reset();
    OnExecutorIdle();
    return;
  }
  ExecuteAndPrepare(c);
}

void Site::ExecuteAndPrepare(Coordination& c) {
  for (const Operation& op : c.txn.ops) {
    if (op.is_read()) {
      Charge(options_.costs.per_read_op);
      ItemState state;
      if (db_.Holds(op.item)) {
        Result<ItemState> read = db_.Read(op.item);
        MR_CHECK(read.ok()) << "read of held item failed";
        state = *read;
      } else {
        auto it = c.remote_reads.find(op.item);
        MR_CHECK(it != c.remote_reads.end())
            << "read of item " << op.item << " with no copy fetched";
        state = it->second;
      }
      c.reads.push_back(ItemCopy{op.item, state.value, state.version});
    } else {
      Charge(options_.costs.per_write_op);
      auto it = std::find_if(c.writes.begin(), c.writes.end(),
                             [&op](const ItemWrite& w) {
                               return w.item == op.item;
                             });
      if (it == c.writes.end()) {
        c.writes.push_back(ItemWrite{op.item, op.value});
      } else {
        it->value = op.value;  // last write wins within a transaction
      }
    }
  }

  // "begin phase one of protocol: issue copy update for written items to
  // every operational site".
  c.participants = OperationalPeers();
  if (c.participants.empty()) {
    FinishCommit(c);
    return;
  }
  c.phase = Coordination::Phase::kPrepare;
  c.phase_start = runtime_->Now();
  c.awaiting = c.participants;
  // The wire participant set includes the coordinator: commit-time
  // maintenance needs the full set, identical at every site.
  std::vector<SiteId> wire_participants = c.participants;
  wire_participants.push_back(id_);
  std::sort(wire_participants.begin(), wire_participants.end());
  SendTo(c.participants, options_.costs.prepare_send_per_site,
         PrepareArgs{c.txn.id, c.writes, session_vector_.ToWire(),
                     std::move(wire_participants)});
  const TxnId txn = c.txn.id;
  c.timer = runtime_->ScheduleAfter(options_.ack_timeout,
                                    [this, txn] { CoordinationTimeout(txn); });
}

void Site::HandlePrepareAck(const Message& msg) {
  const auto& args = msg.As<PrepareAckArgs>();
  auto it = coords_.find(args.txn);
  if (it == coords_.end() ||
      it->second.phase != Coordination::Phase::kPrepare) {
    return;
  }
  Coordination& c = it->second;
  if (!args.accepted) {
    // A participant refused (wait-die lock conflict or session-vector
    // veto): abort everywhere. On a veto the refusal carries the
    // participant's vector; merging it catches this coordinator up so a
    // retried transaction picks the right participant set.
    const bool stale_view = !args.session_vector.empty();
    if (stale_view) {
      const Status merged = session_vector_.MergeFrom(args.session_vector);
      if (!merged.ok()) {
        MR_LOG(kWarn) << "site " << id_
                      << ": bad session vector in prepare ack: "
                      << merged.ToString();
      }
    }
    runtime_->CancelTimer(c.timer);
    c.timer = kInvalidTimer;
    if (!FinishesAtPhaseOne(c.writes)) {
      // A read-only vote left nothing at any participant to discard.
      for (SiteId p : c.participants) {
        Charge(options_.costs.ack_format);
        SendTo(p, AbortArgs{c.txn.id});
      }
    }
    if (stale_view) {
      ReplyAndClear(c, TxnOutcome::kAbortedStaleView);
    } else {
      ++counters_.txns_aborted_lock_conflict;
      ReplyAndClear(c, TxnOutcome::kAbortedLockConflict);
    }
    return;
  }
  std::erase(c.awaiting, msg.from);
  if (c.awaiting.empty()) {
    runtime_->CancelTimer(c.timer);
    c.timer = kInvalidTimer;
    counters_.phase_prepare_time.Add(runtime_->Now() - c.phase_start);
    if (FinishesAtPhaseOne(c.writes)) {
      // Every participant voted read-only and kept no state, so there is
      // nothing for a commit round to finish. The reads were taken under
      // this coordinator's shared locks, still held, so they stay ordered
      // against every write.
      FinishCommit(c);
      return;
    }
    StartCommitPhase(c);
  }
}

void Site::StartCommitPhase(Coordination& c) {
  c.phase = Coordination::Phase::kCommit;
  c.phase_start = runtime_->Now();
  c.awaiting = c.participants;
  SendTo(c.participants, options_.costs.ack_format, CommitArgs{c.txn.id});
  const TxnId txn = c.txn.id;
  c.timer = runtime_->ScheduleAfter(options_.ack_timeout,
                                    [this, txn] { CoordinationTimeout(txn); });
}

void Site::HandleCommitAck(const Message& msg) {
  const TxnId txn = msg.As<CommitAckArgs>().txn;
  auto it = coords_.find(txn);
  if (it == coords_.end() ||
      it->second.phase != Coordination::Phase::kCommit) {
    return;
  }
  Coordination& c = it->second;
  std::erase(c.awaiting, msg.from);
  if (c.awaiting.empty()) {
    runtime_->CancelTimer(c.timer);
    c.timer = kInvalidTimer;
    counters_.phase_commit_time.Add(runtime_->Now() - c.phase_start);
    FinishCommit(c);
  }
}

void Site::FinishCommit(Coordination& c) {
  // "commit database data items; update fail-locks for data items" — the
  // coordinator's local commit happens after phase two completes. The
  // write install and the fail-lock maintenance below run inside this one
  // event, so they are atomic w.r.t. every concurrent executor.
  std::vector<SiteId> participants = c.participants;
  participants.push_back(id_);
  CommitLocalWrites(c.txn.id, c.writes, participants);
  ++counters_.txns_committed;
  ReplyAndClear(c, TxnOutcome::kCommitted);
}

void Site::CoordinationTimeout(TxnId txn) {
  Coordination* cp = CoordinationFor(txn);
  if (cp == nullptr || cp->timer == kInvalidTimer) return;
  Coordination& c = *cp;
  c.timer = kInvalidTimer;

  switch (c.phase) {
    case Coordination::Phase::kCopier: {
      // "site to which copy request sent is now down": abort the database
      // transaction and announce the failure (control type 2).
      std::vector<SiteId> silent;
      for (const auto& [source, items] : c.copies_pending) {
        silent.push_back(source);
      }
      if (c.batch_refresh) {
        batch_.reset();
      } else {
        ++counters_.txns_aborted_copier;
        ReplyAndClear(c, TxnOutcome::kAbortedCopierFailed);
      }
      RunControlType2(silent);
      break;
    }
    case Coordination::Phase::kPrepare: {
      // "a participating site has failed": abort + control type 2. The
      // responsive participants discard their staging, unless they voted
      // read-only and kept none.
      const std::vector<SiteId> silent = c.awaiting;
      for (SiteId p : c.participants) {
        if (!Contains(c.awaiting, p) && !FinishesAtPhaseOne(c.writes)) {
          Charge(options_.costs.ack_format);
          SendTo(p, AbortArgs{c.txn.id});
        }
      }
      ++counters_.txns_aborted_participant;
      ReplyAndClear(c, TxnOutcome::kAbortedParticipantFailed);
      RunControlType2(silent);
      break;
    }
    case Coordination::Phase::kCommit: {
      // "if commit ack not received from all participating sites then run
      // control type 2" — but the transaction still commits. The silent
      // sites leave the participant set first: they may have crashed
      // before applying the write, so the coordinator's maintenance must
      // fail-lock their copies rather than clear them (their recovery will
      // sort out which it was — a spurious lock only costs a refresh).
      const std::vector<SiteId> silent = c.awaiting;
      c.participants.erase(
          std::remove_if(c.participants.begin(), c.participants.end(),
                         [&c](SiteId p) { return Contains(c.awaiting, p); }),
          c.participants.end());
      FinishCommit(c);
      RunControlType2(silent);
      break;
    }
  }
}

void Site::ReplyAndClear(Coordination& c, TxnOutcome outcome) {
  const TxnId txn = c.txn.id;
  const bool batch = c.batch_refresh;
  if (options_.concurrency.locking() && !batch) {
    lock_manager_.ReleaseAll(txn);
  }
  if (c.timer != kInvalidTimer) {
    runtime_->CancelTimer(c.timer);
    c.timer = kInvalidTimer;
  }
  if (!batch) {
    Trace(outcome == TxnOutcome::kCommitted ? TraceEvent::kTxnCommitted
                                            : TraceEvent::kTxnAborted,
          txn, static_cast<uint64_t>(outcome));
    // Remember the outcome so duplicated requests and duplicated 2PC
    // traffic arriving after this teardown are answered consistently.
    RecordOutcome(txn, outcome == TxnOutcome::kCommitted);
    Charge(options_.costs.reply_format);
    SendTo(c.client, TxnResult{txn, outcome, c.copier_count, c.reads});
    const Duration elapsed = runtime_->Now() - c.start_time;
    counters_.coord_txn_time.Add(elapsed);
    if (c.copier_count > 0) counters_.coord_txn_copier_time.Add(elapsed);
  }
  // `c` is destroyed here; do not touch it below.
  if (batch) {
    batch_.reset();
  } else {
    coords_.erase(txn);
  }
  OnExecutorIdle();
}

void Site::OnExecutorIdle() {
  if (status_ != SiteStatus::kUp) return;
  // Serve queued client transactions while executor slots are free (client
  // work has priority over proactive batch refreshes). HandleTxnRequest
  // can finish a transaction synchronously (validation reject, wait-die
  // death), re-entering this drain; the loop conditions re-check state
  // each iteration, so the nested drain simply empties the queue first.
  while (!batch_ && !queued_requests_.empty() &&
         coords_.size() < options_.concurrency.EffectiveExecutors()) {
    const Message next = queued_requests_.front();
    queued_requests_.pop_front();
    HandleTxnRequest(next);
  }
  MaybeStartBatchCopier();
}

// ---------------------------------------------------------------------------
// Participant role (Appendix A, "actions at a participating site").
// ---------------------------------------------------------------------------

void Site::HandlePrepare(const Message& msg) {
  const auto& args = msg.As<PrepareArgs>();
  auto existing = participations_.find(args.txn);
  if (existing != participations_.end()) {
    // Duplicate prepare (a fault-layer copy): re-ack, keep the
    // staging. With the locking extension, an ack before the queued locks
    // are granted would let the coordinator commit writes this site has
    // not locked — stay silent and let SendPrepareAck run when the locks
    // arrive.
    ++counters_.duplicate_msgs_ignored;
    if (existing->second.lock_waits_pending == 0) {
      Charge(options_.costs.ack_format);
      SendTo(msg.from, PrepareAckArgs{args.txn, /*accepted=*/true, {}});
    }
    return;
  }
  const std::optional<bool> finished = RecentOutcome(args.txn);
  if (finished.has_value()) {
    // Duplicate prepare arriving after this participation was torn down.
    // If the transaction committed here, the staging is long applied:
    // re-ack, repeating the answer the original got. If it aborted (or
    // was discarded in doubt), re-staging a finished transaction's writes
    // would resurrect it — drop.
    ++counters_.duplicate_msgs_ignored;
    if (*finished) {
      Charge(options_.costs.ack_format);
      SendTo(msg.from, PrepareAckArgs{args.txn, /*accepted=*/true, {}});
    }
    return;
  }
  ++counters_.prepares_handled;

  // Commit-time session-vector validation: if this participant knows a
  // strictly newer session for any site than the coordinator's piggybacked
  // vector, the coordinator chose its participant set under stale
  // membership (it may have missed a recovery announce and excluded the
  // recovering site). Committing would maintain fail-locks under divergent
  // knowledge, so refuse; the coordinator merges the returned vector and
  // the client retries against a caught-up coordinator.
  if (args.session_vector.size() == options_.n_sites) {
    for (SiteId k = 0; k < options_.n_sites; ++k) {
      if (session_vector_.session(k) > args.session_vector[k].session) {
        ++counters_.prepare_session_vetoes;
        Charge(options_.costs.ack_format);
        SendTo(msg.from, PrepareAckArgs{args.txn, /*accepted=*/false,
                                        session_vector_.ToWire()});
        return;
      }
    }
    // The prepare carries the coordinator's knowledge; merging it here
    // means every participant runs fail-lock maintenance from at least the
    // membership the participant set was chosen under.
    const Status merged = session_vector_.MergeFrom(args.session_vector);
    if (!merged.ok()) {
      MR_LOG(kWarn) << "site " << id_ << ": bad session vector in prepare: "
                    << merged.ToString();
    }
  }

  if (FinishesAtPhaseOne(args.writes)) {
    // Read-only vote: nothing to stage, lock or maintain, so no
    // Participation, patience timer or outcome record. No Commit or
    // Abort follows, and a duplicated Prepare is simply voted on again.
    Trace(TraceEvent::kPrepareHandled, args.txn, 0);
    Charge(options_.costs.ack_format);
    SendTo(msg.from, PrepareAckArgs{args.txn, /*accepted=*/true, {}});
    MaybeStartBatchCopier();
    return;
  }

  Participation& part = participations_[args.txn];
  part.txn = args.txn;
  part.coordinator = msg.from;
  part.participants = args.participants;
  part.start_time = runtime_->Now();
  for (const ItemWrite& write : args.writes) {
    if (!db_.Holds(write.item)) continue;
    Charge(options_.costs.participant_stage_per_item);
    part.staged.push_back(write);
  }
  Trace(TraceEvent::kPrepareHandled, args.txn, part.staged.size());
  // The participant's patience exceeds the coordinator's ack timeout so
  // that a slow-but-alive coordinator resolves the transaction first.
  const TxnId txn = args.txn;
  part.timer = runtime_->ScheduleAfter(
      3 * options_.ack_timeout, [this, txn] { ParticipationTimeout(txn); });

  if (options_.concurrency.locking()) {
    for (const ItemWrite& write : part.staged) {
      const LockManager::Outcome outcome = lock_manager_.Acquire(
          write.item, txn, LockManager::Mode::kExclusive,
          [this, txn] { OnParticipantLockGranted(txn); });
      if (outcome == LockManager::Outcome::kRejected) {
        // Wait-die: refuse the prepare; the coordinator aborts the txn.
        ++counters_.lock_rejections;
        lock_manager_.ReleaseAll(txn);
        runtime_->CancelTimer(part.timer);
        participations_.erase(txn);
        Charge(options_.costs.ack_format);
        SendTo(msg.from, PrepareAckArgs{txn, /*accepted=*/false, {}});
        return;
      }
      if (outcome == LockManager::Outcome::kQueued) {
        ++counters_.lock_waits;
        ++part.lock_waits_pending;
      }
    }
    if (part.lock_waits_pending > 0) return;  // ack once locks arrive
  }
  SendPrepareAck(part);
}

void Site::OnParticipantLockGranted(TxnId txn) {
  auto it = participations_.find(txn);
  if (it == participations_.end()) return;
  Participation& part = it->second;
  if (--part.lock_waits_pending == 0) SendPrepareAck(part);
}

void Site::SendPrepareAck(Participation& part) {
  Charge(options_.costs.ack_format);
  SendTo(part.coordinator, PrepareAckArgs{part.txn, /*accepted=*/true, {}});
}

void Site::HandleCommit(const Message& msg) {
  const TxnId txn = msg.As<CommitArgs>().txn;
  auto it = participations_.find(txn);
  if (it == participations_.end()) {
    // Duplicated Commit after this participation was torn down. If the
    // commit already happened here, re-ack: the original ack may have been
    // lost while the coordinator still waits. Anything else (aborted,
    // discarded in doubt, or too old to remember) must stay a no-op: the
    // staging is gone, so there is nothing correct to apply.
    const std::optional<bool> finished = RecentOutcome(txn);
    if (finished.has_value()) {
      ++counters_.duplicate_msgs_ignored;
      if (*finished) {
        Charge(options_.costs.ack_format);
        SendTo(msg.from, CommitAckArgs{txn});
      }
    }
    return;
  }
  Participation& part = it->second;
  runtime_->CancelTimer(part.timer);
  CommitLocalWrites(part.txn, part.staged, part.participants);
  if (options_.concurrency.locking()) lock_manager_.ReleaseAll(part.txn);
  Trace(TraceEvent::kParticipantCommitted, part.txn, part.staged.size());
  RecordOutcome(part.txn, /*committed=*/true);
  Charge(options_.costs.ack_format);
  SendTo(part.coordinator, CommitAckArgs{part.txn});
  ++counters_.commits_handled;
  counters_.participant_time.Add(runtime_->Now() - part.start_time);
  participations_.erase(it);
  MaybeStartBatchCopier();
}

void Site::HandleAbort(const Message& msg) {
  const TxnId txn = msg.As<AbortArgs>().txn;
  auto it = participations_.find(txn);
  if (it == participations_.end()) {
    // Duplicated Abort after teardown: the discard already happened (or
    // there was never anything staged); nothing to undo twice.
    if (RecentOutcome(txn).has_value()) ++counters_.duplicate_msgs_ignored;
    return;
  }
  runtime_->CancelTimer(it->second.timer);
  ++counters_.aborts_handled;
  if (options_.concurrency.locking()) lock_manager_.ReleaseAll(it->first);
  RecordOutcome(txn, /*committed=*/false);
  participations_.erase(it);  // "discard the copy updates"
}

void Site::ParticipationTimeout(TxnId txn) {
  auto it = participations_.find(txn);
  if (it == participations_.end()) return;
  Participation& part = it->second;
  part.timer = kInvalidTimer;
  // "coordinating site has failed": discard and run control type 2.
  ++counters_.coordinator_failures_detected;
  const SiteId coordinator = part.coordinator;
  if (options_.concurrency.locking()) lock_manager_.ReleaseAll(it->first);
  // The in-doubt discard is a local abort; remember it so a late-arriving
  // CommitDecision duplicate cannot be mistaken for an applicable commit.
  RecordOutcome(txn, /*committed=*/false);
  participations_.erase(it);
  RunControlType2({coordinator});
}

// ---------------------------------------------------------------------------
// Copier service and the special clear-fail-locks transaction.
// ---------------------------------------------------------------------------

void Site::HandleCopyRequest(const Message& msg) {
  if (status_ != SiteStatus::kUp) return;
  const auto& args = msg.As<CopyRequestArgs>();
  ++counters_.copy_requests_served;
  const TimePoint start = runtime_->Now();
  Charge(options_.costs.copy_serve_base);
  CopyReplyArgs reply;
  reply.txn = args.txn;
  for (ItemId item : args.items) {
    if (!db_.Holds(item)) continue;
    if (fail_locks_.IsSet(item, id_)) continue;  // own copy is stale
    Charge(options_.costs.copy_serve_per_item);
    const Result<ItemState> state = db_.Read(item);
    MR_CHECK(state.ok()) << "read of held item failed";
    reply.copies.push_back(ItemCopy{item, state->value, state->version});
  }
  counters_.copy_serve_time.Add(runtime_->Now() - start);
  Trace(TraceEvent::kCopyServed, msg.from, reply.copies.size());
  SendTo(msg.from, std::move(reply));
}

void Site::HandleClearFailLocks(const Message& msg) {
  const auto& args = msg.As<ClearFailLocksArgs>();
  if (args.refreshed_site >= options_.n_sites) return;  // untrusted input
  ++counters_.clear_lock_txns_received;
  const TimePoint start = runtime_->Now();
  Charge(options_.costs.clear_locks_apply_base +
         options_.costs.clear_locks_apply_per_item *
             static_cast<Duration>(args.items.size()));
  for (ItemId item : args.items) {
    if (item >= options_.db_size) continue;
    if (ClearFailLock(item, args.refreshed_site)) {
      ++counters_.fail_locks_cleared;
    }
  }
  counters_.clear_locks_time.Add(runtime_->Now() - start);
}

// ---------------------------------------------------------------------------
// Control transactions.
// ---------------------------------------------------------------------------

void Site::StartRecovery() {
  if (status_ != SiteStatus::kDown) return;
  status_ = SiteStatus::kWaitingToRecover;
  ++counters_.control1_initiated;
  recovery_.emplace();
  recovery_->new_session = session_vector_.session(id_) + 1;
  recovery_->start_time = runtime_->Now();
  // The bumped session is recorded (stable storage) at announce time, not
  // at completion: if this recovery is cut short by another crash, the
  // next incarnation must announce a strictly newer session — peers that
  // recorded (this_session, down) via failure detection ignore a
  // re-announce of the same session ("down wins" at equal sessions), which
  // would leave this site permanently excluded.
  session_vector_.Set(id_, recovery_->new_session,
                      SiteStatus::kWaitingToRecover);
  Trace(TraceEvent::kRecoveryStarted, recovery_->new_session);
  // Announce to every other database site; the local vector may be
  // arbitrarily stale, and sites that are actually down simply ignore it.
  for (SiteId t = 0; t < options_.n_sites; ++t) {
    if (t == id_) continue;
    Charge(options_.costs.announce_format);
    SendTo(t, RecoveryAnnounceArgs{id_, recovery_->new_session});
    recovery_->awaiting.insert(t);
  }
  if (recovery_->awaiting.empty()) {
    CompleteRecovery();
    return;
  }
  recovery_->timer = runtime_->ScheduleAfter(options_.ack_timeout,
                                             [this] { RecoveryTimeout(); });
}

void Site::RecoveryTimeout() {
  if (!recovery_) return;
  recovery_->timer = kInvalidTimer;
  CompleteRecovery();
}

Status Site::RestoreImage(const std::vector<ItemCopy>& image) {
  if (status_ != SiteStatus::kDown) {
    return Status::FailedPrecondition(
        "RestoreImage requires the site to be down");
  }
  for (const ItemCopy& copy : image) {
    if (copy.item >= options_.db_size) {
      return Status::InvalidArgument(
          StrFormat("image item %u out of range", copy.item));
    }
    MINIRAID_RETURN_IF_ERROR(
        db_.InstallCopy(copy.item, ItemState{copy.value, copy.version}));
  }
  // The durable image stands in for the lost volatile state: recovery can
  // rely on the operational sites' fail-locks to cover exactly the updates
  // missed while down, instead of conservatively locking everything.
  state_lost_ = false;
  return Status::Ok();
}

void Site::HandleRecoveryAnnounce(const Message& msg) {
  if (status_ != SiteStatus::kUp) return;
  const auto& args = msg.As<RecoveryAnnounceArgs>();
  if (args.recovering_site >= options_.n_sites) return;  // untrusted input
  // A site can only leave the down state through a strictly newer session;
  // a stale announce (this session already superseded by failure news or a
  // later incarnation) must not resurrect it.
  const SessionNumber recorded = session_vector_.session(args.recovering_site);
  if (args.new_session < recorded) return;
  if (args.new_session == recorded) {
    // Same session again: the announce itself was duplicated. If our
    // vector still shows the site up for this session we already
    // served it — re-serve the info (a fresh snapshot is at least as
    // complete) without touching the vector. If we recorded it down at
    // this session, "down wins": serving would let a site everyone
    // considers failed complete recovery.
    if (!session_vector_.IsUp(args.recovering_site)) return;
    ++counters_.duplicate_msgs_ignored;
    const std::vector<FailLockRow> rows =
        RecoveryInfoRows(args.recovering_site);
    Charge(options_.costs.recovery_format_base +
           options_.costs.recovery_format_per_item *
               static_cast<Duration>(rows.size()));
    SendTo(args.recovering_site,
           RecoveryInfoArgs{session_vector_.ToWire(), rows});
    return;
  }
  session_vector_.Set(args.recovering_site, args.new_session,
                      SiteStatus::kUp);
  ++counters_.control1_served;
  const TimePoint start = runtime_->Now();
  const std::vector<FailLockRow> rows =
      RecoveryInfoRows(args.recovering_site);
  Charge(options_.costs.recovery_format_base +
         options_.costs.recovery_format_per_item *
             static_cast<Duration>(rows.size()));
  SendTo(args.recovering_site,
         RecoveryInfoArgs{session_vector_.ToWire(), rows});
  Trace(TraceEvent::kRecoveryServed, args.recovering_site, rows.size());
  counters_.type1_serve_time.Add(runtime_->Now() - start);
}

std::vector<FailLockRow> Site::RecoveryInfoRows(SiteId recovering) const {
  FailLockTable snapshot = fail_locks_;
  // Prospective maintenance for in-flight 2PC (see the declaration
  // comment): each transaction past its prepare will, when it applies,
  // rewrite every written item's row to holders-outside-the-participant-
  // set, so the reply serves that future row. Both directions matter: the
  // set bits cover a commit that applies after recovery completes (no
  // later snapshot can carry them), the clears keep the recovering site
  // from installing bits the commit is about to clear everywhere else.
  // The copier phase is excluded — no 2PC has started yet, nothing is
  // guaranteed to apply.
  auto prospective = [&](const std::vector<ItemWrite>& writes,
                         const std::vector<SiteId>& participants,
                         SiteId coordinator) {
    for (const ItemWrite& w : writes) {
      for (SiteId t = 0; t < options_.n_sites; ++t) {
        if (!holders_.Holds(w.item, t)) continue;
        const bool participated =
            t == coordinator ||
            std::find(participants.begin(), participants.end(), t) !=
                participants.end();
        if (participated) {
          // The recovering site's own column is exempt from prospective
          // clears (see the declaration comment).
          if (t != recovering) snapshot.Clear(w.item, t);
        } else {
          snapshot.Set(w.item, t);
        }
      }
    }
  };
  for (const auto& [txn, c] : coords_) {
    if (c.phase == Coordination::Phase::kCopier) continue;
    prospective(c.writes, c.participants, id_);  // c.participants omits id_
  }
  for (const auto& [txn, part] : participations_) {
    // part.participants is the wire set from the prepare: coordinator
    // included.
    prospective(part.staged, part.participants, kInvalidSite);
  }
  return snapshot.ToWire();
}

void Site::HandleRecoveryInfo(const Message& msg) {
  if (!recovery_) {
    // Info arriving after recovery completed (or was never started):
    // a duplicate or a straggler. Either way the table union is done;
    // installing more rows now would clobber post-recovery state.
    ++counters_.duplicate_msgs_ignored;
    return;
  }
  if (recovery_->awaiting.erase(msg.from) == 0) {
    // Second info from the same responder (a duplicated reply, or the
    // reply to a duplicated announce): the first one is already
    // in `infos`, and unioning a newer snapshot of the same table could
    // resurrect fail-locks the special transaction cleared in between.
    ++counters_.duplicate_msgs_ignored;
    return;
  }
  Charge(options_.costs.recovery_install);
  recovery_->infos.push_back(msg.As<RecoveryInfoArgs>());
  if (recovery_->awaiting.empty()) {
    runtime_->CancelTimer(recovery_->timer);
    recovery_->timer = kInvalidTimer;
    CompleteRecovery();
  }
}

void Site::CompleteRecovery() {
  if (!recovery_) return;
  Recovery recovery = std::move(*recovery_);
  recovery_.reset();
  if (recovery.timer != kInvalidTimer) {
    runtime_->CancelTimer(recovery.timer);
  }
  if (!recovery.infos.empty()) {
    // The operational sites' tables are authoritative: they tracked every
    // update committed while this site was down, including clears this
    // site never saw. Adopt the union of their fail-lock tables and
    // discard the frozen local one; merge their session vectors.
    FailLockTable fresh(options_.db_size, options_.n_sites);
    for (const RecoveryInfoArgs& info : recovery.infos) {
      const Status merged = fresh.MergeFrom(info.fail_locks);
      if (!merged.ok()) {
        MR_LOG(kWarn) << "site " << id_
                      << ": bad fail-lock rows in recovery info: "
                      << merged.ToString();
      }
    }
    fail_locks_ = std::move(fresh);
    for (const RecoveryInfoArgs& info : recovery.infos) {
      const Status merged = session_vector_.MergeFrom(info.session_vector);
      if (!merged.ok()) {
        MR_LOG(kWarn) << "site " << id_
                      << ": bad session vector in recovery info: "
                      << merged.ToString();
      }
    }
  } else {
    // No operational site answered (every responder crashed first, or this
    // site is alone). The frozen local table cannot know which of its
    // copies missed updates committed while it was down, so conservatively
    // fail-lock every held copy; each clears on its first refresh. Coming
    // up with a trusted-but-stale table was refuted by the state-space
    // checker (a commit can land between a responder's reply and its
    // crash).
    ++counters_.recovery_blind_completions;
    for (ItemId item = 0; item < options_.db_size; ++item) {
      if (db_.Holds(item)) fail_locks_.Set(item, id_);
    }
  }
  // Replay fail-lock mutations that happened during the waiting-to-recover
  // window: the responders snapshotted their tables at announce time, so a
  // commit or clear-fail-locks processed here after the announce is not in
  // the installed union and would otherwise be forgotten.
  for (const auto& [key, locked] : recovery.window_journal) {
    ++counters_.recovery_window_replays;
    if (locked) {
      fail_locks_.Set(key.first, key.second);
    } else {
      fail_locks_.Clear(key.first, key.second);
    }
  }
  session_vector_.Set(id_, recovery.new_session, SiteStatus::kUp);
  if (state_lost_) {
    // Cold restart: even copies the operational sites think are fine are
    // gone locally. Conservatively fail-lock every held copy so reads go
    // through copier transactions until each copy is refreshed.
    for (ItemId item = 0; item < options_.db_size; ++item) {
      if (db_.Holds(item)) fail_locks_.Set(item, id_);
    }
    state_lost_ = false;
  }
  status_ = SiteStatus::kUp;
  counters_.recovery_time.Add(runtime_->Now() - recovery.start_time);
  Trace(TraceEvent::kRecoveryCompleted, recovery.new_session,
        fail_locks_.CountForSite(id_));
  MaybeStartBatchCopier();
}

void Site::HandleFailureAnnounce(const Message& msg) {
  const auto& args = msg.As<FailureAnnounceArgs>();
  ++counters_.control2_received;
  const TimePoint start = runtime_->Now();
  Charge(options_.costs.failure_update);
  for (const FailedSiteEntry& entry : args.failed_sites) {
    if (entry.site >= options_.n_sites || entry.site == id_) continue;
    const SessionNumber local = session_vector_.session(entry.site);
    if (entry.session > local) {
      session_vector_.Set(entry.site, entry.session, SiteStatus::kDown);
      Trace(TraceEvent::kFailureLearned, entry.site);
    } else if (entry.session == local) {
      session_vector_.MarkDown(entry.site);
      Trace(TraceEvent::kFailureLearned, entry.site);
    }
    // else: stale news about an epoch the site already left; ignore.
  }
  counters_.type2_receive_time.Add(runtime_->Now() - start);
  MaybeRunType3();
}

void Site::RunControlType2(const std::vector<SiteId>& failed) {
  std::vector<FailedSiteEntry> entries;
  for (SiteId f : failed) {
    if (f >= options_.n_sites || f == id_) continue;
    if (session_vector_.IsUp(f)) session_vector_.MarkDown(f);
    Trace(TraceEvent::kFailureDetected, f);
    entries.push_back(FailedSiteEntry{f, session_vector_.session(f)});
  }
  if (entries.empty()) return;
  ++counters_.control2_initiated;
  Charge(options_.costs.failure_detect);
  for (SiteId peer : OperationalPeers()) {
    Charge(options_.costs.ack_format);
    SendTo(peer, FailureAnnounceArgs{entries});
  }
  MaybeRunType3();
}

void Site::HandleCopyCreate(const Message& msg) {
  const auto& args = msg.As<CopyCreateArgs>();
  if (args.backup_site >= options_.n_sites) return;  // untrusted input
  for (const ItemCopy& copy : args.copies) {
    if (copy.item >= options_.db_size) continue;
    holders_.Add(copy.item, args.backup_site);
    if (args.backup_site == id_) {
      const Status status =
          db_.InstallCopy(copy.item, ItemState{copy.value, copy.version});
      if (status.ok()) {
        ++counters_.control3_copies_installed;
        if (options_.on_apply) {
          options_.on_apply(copy.item, copy.value, copy.version);
        }
        ClearFailLock(copy.item, id_);  // the new copy is up to date
      } else {
        MR_LOG(kWarn) << "site " << id_ << ": type-3 install failed: "
                      << status.ToString();
      }
    }
  }
}

void Site::MaybeRunType3() {
  if (!options_.enable_type3 || status_ != SiteStatus::kUp) return;
  // Collect items whose only operational up-to-date copy is ours, keyed by
  // the chosen backup site.
  std::map<SiteId, std::vector<ItemCopy>> plans;
  for (ItemId item = 0; item < options_.db_size; ++item) {
    if (!db_.Holds(item) || fail_locks_.IsSet(item, id_)) continue;
    bool other_fresh_copy = false;
    for (SiteId t = 0; t < options_.n_sites; ++t) {
      if (t == id_) continue;
      if (session_vector_.IsUp(t) && holders_.Holds(item, t) &&
          !fail_locks_.IsSet(item, t)) {
        other_fresh_copy = true;
        break;
      }
    }
    if (other_fresh_copy) continue;
    // Back-up target: the lowest-id operational peer without a copy.
    SiteId backup = kInvalidSite;
    for (SiteId t : OperationalPeers()) {
      if (!holders_.Holds(item, t)) {
        backup = t;
        break;
      }
    }
    if (backup == kInvalidSite) continue;  // nowhere to place a copy
    const Result<ItemState> state = db_.Read(item);
    MR_CHECK(state.ok()) << "read of held item failed";
    plans[backup].push_back(ItemCopy{item, state->value, state->version});
  }
  for (auto& [backup, copies] : plans) {
    ++counters_.control3_initiated;
    Trace(TraceEvent::kType3Backup, backup, copies.size());
    for (const ItemCopy& copy : copies) holders_.Add(copy.item, backup);
    // Broadcast so every operational site's holders table learns of the
    // new copies; only the backup installs the data.
    for (SiteId peer : OperationalPeers()) {
      Charge(options_.costs.ack_format);
      SendTo(peer, CopyCreateArgs{backup, copies});
    }
  }
}

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

void Site::CommitLocalWrites(TxnId writer, const std::vector<ItemWrite>& writes,
                             const std::vector<SiteId>& participants) {
  for (const ItemWrite& write : writes) {
    if (!db_.Holds(write.item)) continue;
    Charge(options_.costs.commit_install_per_item);
    const Status status = db_.CommitWrite(write.item, write.value, writer);
    if (status.ok() && options_.on_apply) {
      options_.on_apply(write.item, write.value, writer);
    }
    if (status.code() == StatusCode::kInvalidArgument) {
      // A concurrent transaction with a higher id already committed this
      // item (last-writer-wins ordering keeps replicas convergent when
      // transactions overlap); skipping the stale write is correct.
      MR_LOG(kDebug) << "site " << id_ << ": LWW skip on item " << write.item
                     << " for txn " << writer;
    } else if (!status.ok()) {
      MR_LOG(kWarn) << "site " << id_ << ": commit of item " << write.item
                    << " failed: " << status.ToString();
    }
  }
  if (!options_.maintain_fail_locks) return;
  // "As a transaction committed a particular copy on a site, the nominal
  // session vector was examined and the fail-lock bits for each written
  // data item were set for each failed site" — and re-cleared for each
  // operational site. The set/clear decision is keyed on the commit's
  // participant set rather than each maintainer's believed-up view: the
  // set is identical at every participant by construction, so the written
  // rows stay convergent even while session vectors are skewed (the
  // state-space checker refuted view-keyed maintenance; see
  // docs/ANALYSIS.md "Model checking").
  for (const ItemWrite& write : writes) {
    Charge(options_.costs.faillock_maint_per_item);
    for (SiteId t = 0; t < options_.n_sites; ++t) {
      if (!holders_.Holds(write.item, t)) continue;
      if (Contains(participants, t)) {
        if (ClearFailLock(write.item, t)) ++counters_.fail_locks_cleared;
      } else {
        if (SetFailLock(write.item, t)) ++counters_.fail_locks_set;
      }
    }
  }
}

void Site::RecordOutcome(TxnId txn, bool committed) {
  recent_outcomes_.Record(txn, committed);
}

std::optional<bool> Site::RecentOutcome(TxnId txn) const {
  return recent_outcomes_.Find(txn);
}

bool Site::SetFailLock(ItemId item, SiteId site) {
  if (status_ == SiteStatus::kWaitingToRecover && recovery_) {
    recovery_->window_journal[{item, site}] = true;
  }
  return fail_locks_.Set(item, site);
}

bool Site::ClearFailLock(ItemId item, SiteId site) {
  if (status_ == SiteStatus::kWaitingToRecover && recovery_) {
    recovery_->window_journal[{item, site}] = false;
  }
  return fail_locks_.Clear(item, site);
}

void Site::MaybeStartBatchCopier() {
  if (options_.batch_copier_threshold <= 0.0) return;  // step two disabled
  if (status_ != SiteStatus::kUp || !IsIdle()) return;
  const uint32_t own = fail_locks_.CountForSite(id_);
  if (own == 0) return;
  if (fail_locks_.FractionLockedFor(id_) > options_.batch_copier_threshold) {
    return;  // still in step one: refresh on demand only
  }
  const std::vector<ItemId> items =
      fail_locks_.ItemsLockedFor(id_, options_.batch_copier_chunk);
  Trace(TraceEvent::kBatchCopierStarted, items.size());
  batch_.emplace();
  batch_->batch_refresh = true;
  batch_->start_time = runtime_->Now();
  StartCopierPhase(*batch_, items);
}

}  // namespace miniraid
