#ifndef MINIRAID_MSG_MESSAGE_H_
#define MINIRAID_MSG_MESSAGE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "txn/transaction.h"

namespace miniraid {

class Encoder;

/// Every message kind exchanged in the system. The first group implements
/// the two-phase commit of Appendix A, the second the copier machinery, the
/// third the control transactions of §1.1, and the last the managing site's
/// control plane (§1.2: "a managing site to provide interactive control of
/// system actions ... cause sites to fail and recover and ... initiate a
/// database transaction to a site").
enum class MsgType : uint8_t {
  // Database transaction processing (two-phase commit, Appendix A).
  kTxnRequest = 0,   // managing -> coordinator
  kTxnReply = 1,     // coordinator -> managing
  kPrepare = 2,      // coordinator -> participant: copy updates
  kPrepareAck = 3,   // participant -> coordinator
  kCommit = 4,       // coordinator -> participant
  kCommitAck = 5,    // participant -> coordinator
  kAbort = 6,        // coordinator -> participant

  // Copier transactions (§1.1) and the special fail-lock-clearing
  // transaction (§1.2).
  kCopyRequest = 7,        // recovering coordinator -> up-to-date site
  kCopyReply = 8,          // copies back to the requester
  kClearFailLocks = 9,     // special txn: announce refreshed copies
                           // (fire-and-forget, like types 2 and 3)

  // Control transactions.
  kRecoveryAnnounce = 10,  // type 1: recovering site -> operational sites
  kRecoveryInfo = 11,      // session vector + fail-locks back
  kFailureAnnounce = 12,   // type 2: failure detector -> operational sites
  kCopyCreate = 13,        // type 3 (extension): place copy on backup site

  // Managing-site control plane.
  kFailSite = 14,     // managing -> site: stop participating (simulated
                      // crash; the site ignores everything until recovery)
  kRecoverSite = 15,  // managing -> site: start the type-1 protocol
  kShutdown = 16,     // managing -> site: terminate cleanly

  // Reliable-delivery machinery (lossy-network extension).
  kChannelAck = 17,  // ReliableChannel ack (value rides in the header)

  // Retired group-commit frames. No payload carries them and the decoder
  // refuses their type bytes; the names stay only because
  // e2ebench/main.cc lists them.
  kBatchPrepare = 18,
  kBatchPrepareAck = 19,
  kBatchCommit = 20,
  kBatchCommitAck = 21,
};

std::string_view MsgTypeName(MsgType type);

/// (item, new value) pair carried by a Prepare.
struct ItemWrite {
  ItemId item = 0;
  Value value = 0;
  friend bool operator==(const ItemWrite&, const ItemWrite&) = default;
};

/// (item, value, version) triple carried by copy replies / type-3 copies.
struct ItemCopy {
  ItemId item = 0;
  Value value = 0;
  Version version = 0;
  friend bool operator==(const ItemCopy&, const ItemCopy&) = default;
};

/// One row of a fail-lock table on the wire: the bitmap of sites whose copy
/// of `item` is out of date. Rows with zero bitmaps are omitted.
struct FailLockRow {
  ItemId item = 0;
  uint64_t bits = 0;
  friend bool operator==(const FailLockRow&, const FailLockRow&) = default;
};

/// One entry of a nominal session vector on the wire.
struct SessionEntryWire {
  SessionNumber session = 0;
  SiteStatus status = SiteStatus::kDown;
  friend bool operator==(const SessionEntryWire&,
                         const SessionEntryWire&) = default;
};

// ---------------------------------------------------------------------------
// Payloads.
// ---------------------------------------------------------------------------

struct TxnRequestArgs {
  TxnSpec txn;
  friend bool operator==(const TxnRequestArgs&,
                         const TxnRequestArgs&) = default;
};

/// Terminal result of a database transaction, carried by kTxnReply from
/// the coordinator to the managing site and handed to client callbacks.
/// The typed abort reason (TxnOutcome) distinguishes wait-die lock
/// conflicts, stale membership views, and failure-driven aborts;
/// retryable() says whether re-submitting unchanged may succeed.
struct TxnResult {
  TxnId txn = 0;
  TxnOutcome outcome = TxnOutcome::kCommitted;
  /// Copier transactions the coordinator ran for this transaction.
  uint32_t copier_count = 0;
  /// Values observed by the read operations (post-copier), for the oracle.
  std::vector<ItemCopy> reads;

  bool committed() const { return outcome == TxnOutcome::kCommitted; }
  bool aborted() const { return outcome != TxnOutcome::kCommitted; }
  /// True for transient scheduling aborts (see IsRetryableAbort).
  bool retryable() const { return IsRetryableAbort(outcome); }

  friend bool operator==(const TxnResult&, const TxnResult&) = default;
};

struct PrepareArgs {
  TxnId txn = 0;
  std::vector<ItemWrite> writes;
  /// The coordinator's nominal session vector, piggybacked so every
  /// participant maintains fail-locks from the same membership knowledge
  /// the participant set was chosen under (and can veto a coordinator
  /// whose knowledge is stale — see PrepareAckArgs::accepted).
  std::vector<SessionEntryWire> session_vector;
  /// The transaction's participant set (coordinator included). Commit-time
  /// fail-lock maintenance sets the bit for exactly the holders outside
  /// this set: those are the copies that miss the write, regardless of
  /// what each participant currently believes about their status.
  std::vector<SiteId> participants;
  /// The coordinator's number for this coordination, never reused at that
  /// site. Every 2PC message of the transaction carries it, so a message
  /// of an earlier attempt under the same id (a retried retryable() abort)
  /// is told apart from the live one.
  uint64_t attempt = 0;
  friend bool operator==(const PrepareArgs&, const PrepareArgs&) = default;
};

struct PrepareAckArgs {
  TxnId txn = 0;
  /// False = the participant refuses the transaction: a lock conflict
  /// under the wait-die concurrency-control extension, or a session-vector
  /// validation failure (the participant knows a strictly newer session
  /// for some site than the coordinator's piggybacked vector — committing
  /// under the coordinator's stale membership could strand a recovering
  /// site's fail-locks). The coordinator aborts.
  bool accepted = true;
  /// On a session-validation refusal, the participant's vector rides back
  /// so the coordinator can catch up before the client retries. Empty
  /// otherwise.
  std::vector<SessionEntryWire> session_vector;
  uint64_t attempt = 0;  // the Prepare's (PrepareArgs::attempt)
  friend bool operator==(const PrepareAckArgs&,
                         const PrepareAckArgs&) = default;
};

struct CommitArgs {
  TxnId txn = 0;
  uint64_t attempt = 0;  // PrepareArgs::attempt
  friend bool operator==(const CommitArgs&, const CommitArgs&) = default;
};

struct CommitAckArgs {
  TxnId txn = 0;
  uint64_t attempt = 0;  // PrepareArgs::attempt
  friend bool operator==(const CommitAckArgs&, const CommitAckArgs&) = default;
};

struct AbortArgs {
  TxnId txn = 0;
  uint64_t attempt = 0;  // PrepareArgs::attempt
  friend bool operator==(const AbortArgs&, const AbortArgs&) = default;
};

struct CopyRequestArgs {
  TxnId txn = 0;
  std::vector<ItemId> items;
  friend bool operator==(const CopyRequestArgs&,
                         const CopyRequestArgs&) = default;
};

struct CopyReplyArgs {
  TxnId txn = 0;
  std::vector<ItemCopy> copies;
  friend bool operator==(const CopyReplyArgs&, const CopyReplyArgs&) = default;
};

struct ClearFailLocksArgs {
  TxnId txn = 0;
  /// The site whose copies were refreshed (the recovering coordinator).
  SiteId refreshed_site = 0;
  std::vector<ItemId> items;
  friend bool operator==(const ClearFailLocksArgs&,
                         const ClearFailLocksArgs&) = default;
};

struct RecoveryAnnounceArgs {
  SiteId recovering_site = 0;
  SessionNumber new_session = 0;
  friend bool operator==(const RecoveryAnnounceArgs&,
                         const RecoveryAnnounceArgs&) = default;
};

struct RecoveryInfoArgs {
  std::vector<SessionEntryWire> session_vector;
  std::vector<FailLockRow> fail_locks;
  friend bool operator==(const RecoveryInfoArgs&,
                         const RecoveryInfoArgs&) = default;
};

/// One site reported failed by a type-2 control transaction. The session
/// number pins the announcement to the epoch the detector observed, so a
/// receiver that already saw the site recover (higher session) ignores it.
struct FailedSiteEntry {
  SiteId site = 0;
  SessionNumber session = 0;
  friend bool operator==(const FailedSiteEntry&,
                         const FailedSiteEntry&) = default;
};

struct FailureAnnounceArgs {
  std::vector<FailedSiteEntry> failed_sites;
  friend bool operator==(const FailureAnnounceArgs&,
                         const FailureAnnounceArgs&) = default;
};

/// Control type 3 (extension): the sender holds the last operational
/// up-to-date copies of `copies` and directs `backup_site` to install
/// them. Broadcast to all operational sites so everyone's holders table
/// learns about the new copies; only `backup_site` installs the data.
struct CopyCreateArgs {
  SiteId backup_site = 0;
  std::vector<ItemCopy> copies;
  friend bool operator==(const CopyCreateArgs&, const CopyCreateArgs&) =
      default;
};

struct FailSiteArgs {
  friend bool operator==(const FailSiteArgs&, const FailSiteArgs&) = default;
};

struct RecoverSiteArgs {
  friend bool operator==(const RecoverSiteArgs&, const RecoverSiteArgs&) =
      default;
};

struct ShutdownArgs {
  friend bool operator==(const ShutdownArgs&, const ShutdownArgs&) = default;
};

/// Standalone acknowledgement emitted by a ReliableChannel when it has no
/// outbound data message to piggyback the cumulative ack on. The ack value
/// itself rides in the message header (Message::ack); the payload is empty.
struct ChannelAckArgs {
  friend bool operator==(const ChannelAckArgs&, const ChannelAckArgs&) =
      default;
};

/// Declared only, never defined: e2ebench/traced_cluster.cc names them in
/// `if constexpr` branches that no payload takes.
struct BatchPrepareArgs;
struct BatchCommitArgs;

using Payload =
    std::variant<TxnRequestArgs, TxnResult, PrepareArgs, PrepareAckArgs,
                 CommitArgs, CommitAckArgs, AbortArgs, CopyRequestArgs,
                 CopyReplyArgs, ClearFailLocksArgs, RecoveryAnnounceArgs,
                 RecoveryInfoArgs, FailureAnnounceArgs, CopyCreateArgs,
                 FailSiteArgs, RecoverSiteArgs, ShutdownArgs,
                 ChannelAckArgs>;

/// One protocol message. `from`/`to` identify sites (the managing site has
/// an id too). The payload variant index always matches `type`.
struct Message {
  MsgType type = MsgType::kTxnRequest;
  SiteId from = kInvalidSite;
  SiteId to = kInvalidSite;
  /// Reliable-channel header (see net/reliable_channel.h). `seq` is the
  /// per-(from, to) sequence number the sender's channel assigned, starting
  /// at 1; 0 means the message travels outside any channel (an unreliable
  /// datagram, the pre-channel default). `ack` is cumulative: the highest
  /// seq the sender has delivered in order from `to`. Both encode as
  /// varints, so the legacy common case (0, 0) costs two bytes.
  uint64_t seq = 0;
  uint64_t ack = 0;
  Payload payload;

  /// Convenience typed accessors; precondition: the payload holds T.
  template <typename T>
  const T& As() const {
    return std::get<T>(payload);
  }
  template <typename T>
  T& As() {
    return std::get<T>(payload);
  }

  std::string ToString() const;

  friend bool operator==(const Message&, const Message&) = default;
};

/// Builds a message with `type` derived from the payload alternative.
Message MakeMessage(SiteId from, SiteId to, Payload payload);

/// Serializes `msg` to the wire encoding (without any transport framing).
std::vector<uint8_t> EncodeMessage(const Message& msg);

/// Serializes `msg` into `enc` (cleared first). Reusing one encoder is the
/// allocation-free encode path: the real transports keep one as scratch
/// space, so steady-state sends build each frame in recycled storage
/// instead of a fresh vector per message.
void EncodeMessageInto(const Message& msg, Encoder& enc);

/// Parses a message previously produced by EncodeMessage. Returns
/// kCorruption for malformed input; never crashes on untrusted bytes.
Result<Message> DecodeMessage(const uint8_t* data, size_t size);
inline Result<Message> DecodeMessage(const std::vector<uint8_t>& buf) {
  return DecodeMessage(buf.data(), buf.size());
}

}  // namespace miniraid

#endif  // MINIRAID_MSG_MESSAGE_H_
