#include "msg/message.h"

#include "common/logging.h"
#include "common/strings.h"
#include "msg/codec.h"

namespace miniraid {

namespace {

// -- per-struct encode helpers ----------------------------------------------

void PutOperation(Encoder& enc, const Operation& op) {
  enc.PutU8(static_cast<uint8_t>(op.kind));
  enc.PutU32(op.item);
  enc.PutI64(op.value);
}

Status GetOperation(Decoder& dec, Operation* op) {
  uint8_t kind = 0;
  MINIRAID_RETURN_IF_ERROR(dec.GetU8(&kind));
  if (kind > static_cast<uint8_t>(Operation::Kind::kWrite)) {
    return Status::Corruption("bad operation kind");
  }
  op->kind = static_cast<Operation::Kind>(kind);
  MINIRAID_RETURN_IF_ERROR(dec.GetU32(&op->item));
  return dec.GetI64(&op->value);
}

void PutItemWrite(Encoder& enc, const ItemWrite& w) {
  enc.PutU32(w.item);
  enc.PutI64(w.value);
}

Status GetItemWrite(Decoder& dec, ItemWrite* w) {
  MINIRAID_RETURN_IF_ERROR(dec.GetU32(&w->item));
  return dec.GetI64(&w->value);
}

void PutItemCopy(Encoder& enc, const ItemCopy& c) {
  enc.PutU32(c.item);
  enc.PutI64(c.value);
  enc.PutU64(c.version);
}

Status GetItemCopy(Decoder& dec, ItemCopy* c) {
  MINIRAID_RETURN_IF_ERROR(dec.GetU32(&c->item));
  MINIRAID_RETURN_IF_ERROR(dec.GetI64(&c->value));
  return dec.GetU64(&c->version);
}

void PutFailLockRow(Encoder& enc, const FailLockRow& r) {
  enc.PutU32(r.item);
  enc.PutU64(r.bits);
}

Status GetFailLockRow(Decoder& dec, FailLockRow* r) {
  MINIRAID_RETURN_IF_ERROR(dec.GetU32(&r->item));
  return dec.GetU64(&r->bits);
}

void PutSessionEntry(Encoder& enc, const SessionEntryWire& e) {
  enc.PutU64(e.session);
  enc.PutU8(static_cast<uint8_t>(e.status));
}

Status GetSessionEntry(Decoder& dec, SessionEntryWire* e) {
  MINIRAID_RETURN_IF_ERROR(dec.GetU64(&e->session));
  uint8_t status = 0;
  MINIRAID_RETURN_IF_ERROR(dec.GetU8(&status));
  if (status > static_cast<uint8_t>(SiteStatus::kTerminating)) {
    return Status::Corruption("bad site status");
  }
  e->status = static_cast<SiteStatus>(status);
  return Status::Ok();
}

void PutItemId(Encoder& enc, ItemId item) { enc.PutU32(item); }

Status GetItemId(Decoder& dec, ItemId* item) { return dec.GetU32(item); }

void PutFailedSite(Encoder& enc, const FailedSiteEntry& e) {
  enc.PutU32(e.site);
  enc.PutU64(e.session);
}

Status GetFailedSite(Decoder& dec, FailedSiteEntry* e) {
  MINIRAID_RETURN_IF_ERROR(dec.GetU32(&e->site));
  return dec.GetU64(&e->session);
}

// -- payload encoders --------------------------------------------------------

struct PayloadEncoder {
  Encoder& enc;

  void operator()(const TxnRequestArgs& a) {
    enc.PutU64(a.txn.id);
    enc.PutVector(a.txn.ops, PutOperation);
    enc.PutVector(a.txn.declared_reads, PutItemId);
    enc.PutVector(a.txn.declared_writes, PutItemId);
  }
  void operator()(const TxnResult& a) {
    enc.PutU64(a.txn);
    enc.PutU8(static_cast<uint8_t>(a.outcome));
    enc.PutU32(a.copier_count);
    enc.PutVector(a.reads, PutItemCopy);
  }
  void operator()(const PrepareArgs& a) {
    enc.PutU64(a.txn);
    enc.PutVector(a.writes, PutItemWrite);
    enc.PutVector(a.session_vector, PutSessionEntry);
    enc.PutVector(a.participants, PutItemId);  // SiteId == ItemId == u32
    enc.PutVarint(a.attempt);
  }
  void operator()(const PrepareAckArgs& a) {
    enc.PutU64(a.txn);
    enc.PutU8(a.accepted ? 1 : 0);
    enc.PutVector(a.session_vector, PutSessionEntry);
    enc.PutVarint(a.attempt);
  }
  void operator()(const CommitArgs& a) {
    enc.PutU64(a.txn);
    enc.PutVarint(a.attempt);
  }
  void operator()(const CommitAckArgs& a) {
    enc.PutU64(a.txn);
    enc.PutVarint(a.attempt);
  }
  void operator()(const AbortArgs& a) {
    enc.PutU64(a.txn);
    enc.PutVarint(a.attempt);
  }
  void operator()(const CopyRequestArgs& a) {
    enc.PutU64(a.txn);
    enc.PutVector(a.items, PutItemId);
  }
  void operator()(const CopyReplyArgs& a) {
    enc.PutU64(a.txn);
    enc.PutVector(a.copies, PutItemCopy);
  }
  void operator()(const ClearFailLocksArgs& a) {
    enc.PutU64(a.txn);
    enc.PutU32(a.refreshed_site);
    enc.PutVector(a.items, PutItemId);
  }
  void operator()(const RecoveryAnnounceArgs& a) {
    enc.PutU32(a.recovering_site);
    enc.PutU64(a.new_session);
  }
  void operator()(const RecoveryInfoArgs& a) {
    enc.PutVector(a.session_vector, PutSessionEntry);
    enc.PutVector(a.fail_locks, PutFailLockRow);
  }
  void operator()(const FailureAnnounceArgs& a) {
    enc.PutVector(a.failed_sites, PutFailedSite);
  }
  void operator()(const CopyCreateArgs& a) {
    enc.PutU32(a.backup_site);
    enc.PutVector(a.copies, PutItemCopy);
  }
  void operator()(const FailSiteArgs&) {}
  void operator()(const RecoverSiteArgs&) {}
  void operator()(const ShutdownArgs&) {}
  void operator()(const ChannelAckArgs&) {}
};

// -- payload decoders --------------------------------------------------------

Status DecodePayload(MsgType type, Decoder& dec, Payload* out) {
  switch (type) {
    case MsgType::kTxnRequest: {
      TxnRequestArgs a;
      MINIRAID_RETURN_IF_ERROR(dec.GetU64(&a.txn.id));
      MINIRAID_RETURN_IF_ERROR(dec.GetVector(&a.txn.ops, GetOperation));
      MINIRAID_RETURN_IF_ERROR(dec.GetVector(&a.txn.declared_reads, GetItemId));
      MINIRAID_RETURN_IF_ERROR(
          dec.GetVector(&a.txn.declared_writes, GetItemId));
      *out = std::move(a);
      return Status::Ok();
    }
    case MsgType::kTxnReply: {
      TxnResult a;
      MINIRAID_RETURN_IF_ERROR(dec.GetU64(&a.txn));
      uint8_t outcome = 0;
      MINIRAID_RETURN_IF_ERROR(dec.GetU8(&outcome));
      if (outcome > static_cast<uint8_t>(TxnOutcome::kAbortedStaleView)) {
        return Status::Corruption("bad txn outcome");
      }
      a.outcome = static_cast<TxnOutcome>(outcome);
      MINIRAID_RETURN_IF_ERROR(dec.GetU32(&a.copier_count));
      MINIRAID_RETURN_IF_ERROR(dec.GetVector(&a.reads, GetItemCopy));
      *out = std::move(a);
      return Status::Ok();
    }
    case MsgType::kPrepare: {
      PrepareArgs a;
      MINIRAID_RETURN_IF_ERROR(dec.GetU64(&a.txn));
      MINIRAID_RETURN_IF_ERROR(dec.GetVector(&a.writes, GetItemWrite));
      MINIRAID_RETURN_IF_ERROR(
          dec.GetVector(&a.session_vector, GetSessionEntry));
      MINIRAID_RETURN_IF_ERROR(dec.GetVector(&a.participants, GetItemId));
      MINIRAID_RETURN_IF_ERROR(dec.GetVarint(&a.attempt));
      *out = std::move(a);
      return Status::Ok();
    }
    case MsgType::kPrepareAck: {
      PrepareAckArgs a;
      MINIRAID_RETURN_IF_ERROR(dec.GetU64(&a.txn));
      uint8_t accepted = 1;
      MINIRAID_RETURN_IF_ERROR(dec.GetU8(&accepted));
      a.accepted = accepted != 0;
      MINIRAID_RETURN_IF_ERROR(
          dec.GetVector(&a.session_vector, GetSessionEntry));
      MINIRAID_RETURN_IF_ERROR(dec.GetVarint(&a.attempt));
      *out = std::move(a);
      return Status::Ok();
    }
    case MsgType::kCommit: {
      CommitArgs a;
      MINIRAID_RETURN_IF_ERROR(dec.GetU64(&a.txn));
      MINIRAID_RETURN_IF_ERROR(dec.GetVarint(&a.attempt));
      *out = a;
      return Status::Ok();
    }
    case MsgType::kCommitAck: {
      CommitAckArgs a;
      MINIRAID_RETURN_IF_ERROR(dec.GetU64(&a.txn));
      MINIRAID_RETURN_IF_ERROR(dec.GetVarint(&a.attempt));
      *out = a;
      return Status::Ok();
    }
    case MsgType::kAbort: {
      AbortArgs a;
      MINIRAID_RETURN_IF_ERROR(dec.GetU64(&a.txn));
      MINIRAID_RETURN_IF_ERROR(dec.GetVarint(&a.attempt));
      *out = a;
      return Status::Ok();
    }
    case MsgType::kCopyRequest: {
      CopyRequestArgs a;
      MINIRAID_RETURN_IF_ERROR(dec.GetU64(&a.txn));
      MINIRAID_RETURN_IF_ERROR(dec.GetVector(&a.items, GetItemId));
      *out = std::move(a);
      return Status::Ok();
    }
    case MsgType::kCopyReply: {
      CopyReplyArgs a;
      MINIRAID_RETURN_IF_ERROR(dec.GetU64(&a.txn));
      MINIRAID_RETURN_IF_ERROR(dec.GetVector(&a.copies, GetItemCopy));
      *out = std::move(a);
      return Status::Ok();
    }
    case MsgType::kClearFailLocks: {
      ClearFailLocksArgs a;
      MINIRAID_RETURN_IF_ERROR(dec.GetU64(&a.txn));
      MINIRAID_RETURN_IF_ERROR(dec.GetU32(&a.refreshed_site));
      MINIRAID_RETURN_IF_ERROR(dec.GetVector(&a.items, GetItemId));
      *out = std::move(a);
      return Status::Ok();
    }
    case MsgType::kRecoveryAnnounce: {
      RecoveryAnnounceArgs a;
      MINIRAID_RETURN_IF_ERROR(dec.GetU32(&a.recovering_site));
      MINIRAID_RETURN_IF_ERROR(dec.GetU64(&a.new_session));
      *out = a;
      return Status::Ok();
    }
    case MsgType::kRecoveryInfo: {
      RecoveryInfoArgs a;
      MINIRAID_RETURN_IF_ERROR(
          dec.GetVector(&a.session_vector, GetSessionEntry));
      MINIRAID_RETURN_IF_ERROR(dec.GetVector(&a.fail_locks, GetFailLockRow));
      *out = std::move(a);
      return Status::Ok();
    }
    case MsgType::kFailureAnnounce: {
      FailureAnnounceArgs a;
      MINIRAID_RETURN_IF_ERROR(dec.GetVector(&a.failed_sites, GetFailedSite));
      *out = std::move(a);
      return Status::Ok();
    }
    case MsgType::kCopyCreate: {
      CopyCreateArgs a;
      MINIRAID_RETURN_IF_ERROR(dec.GetU32(&a.backup_site));
      MINIRAID_RETURN_IF_ERROR(dec.GetVector(&a.copies, GetItemCopy));
      *out = std::move(a);
      return Status::Ok();
    }
    case MsgType::kFailSite:
      *out = FailSiteArgs{};
      return Status::Ok();
    case MsgType::kRecoverSite:
      *out = RecoverSiteArgs{};
      return Status::Ok();
    case MsgType::kShutdown:
      *out = ShutdownArgs{};
      return Status::Ok();
    case MsgType::kChannelAck:
      *out = ChannelAckArgs{};
      return Status::Ok();
    case MsgType::kBatchPrepare:
    case MsgType::kBatchPrepareAck:
    case MsgType::kBatchCommit:
    case MsgType::kBatchCommitAck:
      break;  // retired group-commit types (DecodeMessage refuses them)
  }
  return Status::Corruption("unknown message type");
}

}  // namespace

std::string_view MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kTxnRequest:
      return "TxnRequest";
    case MsgType::kTxnReply:
      return "TxnReply";
    case MsgType::kPrepare:
      return "Prepare";
    case MsgType::kPrepareAck:
      return "PrepareAck";
    case MsgType::kCommit:
      return "Commit";
    case MsgType::kCommitAck:
      return "CommitAck";
    case MsgType::kAbort:
      return "Abort";
    case MsgType::kCopyRequest:
      return "CopyRequest";
    case MsgType::kCopyReply:
      return "CopyReply";
    case MsgType::kClearFailLocks:
      return "ClearFailLocks";
    case MsgType::kRecoveryAnnounce:
      return "RecoveryAnnounce";
    case MsgType::kRecoveryInfo:
      return "RecoveryInfo";
    case MsgType::kFailureAnnounce:
      return "FailureAnnounce";
    case MsgType::kCopyCreate:
      return "CopyCreate";
    case MsgType::kFailSite:
      return "FailSite";
    case MsgType::kRecoverSite:
      return "RecoverSite";
    case MsgType::kShutdown:
      return "Shutdown";
    case MsgType::kChannelAck:
      return "ChannelAck";
    case MsgType::kBatchPrepare:
      return "BatchPrepare";
    case MsgType::kBatchPrepareAck:
      return "BatchPrepareAck";
    case MsgType::kBatchCommit:
      return "BatchCommit";
    case MsgType::kBatchCommitAck:
      return "BatchCommitAck";
  }
  return "Unknown";
}

Message MakeMessage(SiteId from, SiteId to, Payload payload) {
  Message msg;
  msg.from = from;
  msg.to = to;
  // The Payload alternative order mirrors the MsgType enumerator order, so
  // the variant index is the wire type.
  msg.type = static_cast<MsgType>(payload.index());
  msg.payload = std::move(payload);
  return msg;
}

std::string Message::ToString() const {
  return StrFormat("%s %u->%u", std::string(MsgTypeName(type)).c_str(), from,
                   to);
}

std::vector<uint8_t> EncodeMessage(const Message& msg) {
  Encoder enc;
  EncodeMessageInto(msg, enc);
  return enc.TakeBuffer();
}

void EncodeMessageInto(const Message& msg, Encoder& enc) {
  MR_CHECK(static_cast<size_t>(msg.type) == msg.payload.index())
      << "message type does not match payload alternative";
  enc.Clear();
  // Header: type + from + to + the two varint channel fields. 16 bytes
  // covers the header plus the fixed prefix of every payload, so small
  // messages never grow the buffer twice.
  enc.reserve(16);
  enc.PutU8(static_cast<uint8_t>(msg.type));
  enc.PutU32(msg.from);
  enc.PutU32(msg.to);
  enc.PutVarint(msg.seq);
  enc.PutVarint(msg.ack);
  std::visit(PayloadEncoder{enc}, msg.payload);
}

Result<Message> DecodeMessage(const uint8_t* data, size_t size) {
  Decoder dec(data, size);
  uint8_t type_byte = 0;
  MINIRAID_RETURN_IF_ERROR(dec.GetU8(&type_byte));
  // kChannelAck is the last type with a payload; 18-21 are retired.
  if (type_byte > static_cast<uint8_t>(MsgType::kChannelAck)) {
    return Status::Corruption("unknown message type byte");
  }
  Message msg;
  msg.type = static_cast<MsgType>(type_byte);
  MINIRAID_RETURN_IF_ERROR(dec.GetU32(&msg.from));
  MINIRAID_RETURN_IF_ERROR(dec.GetU32(&msg.to));
  MINIRAID_RETURN_IF_ERROR(dec.GetVarint(&msg.seq));
  MINIRAID_RETURN_IF_ERROR(dec.GetVarint(&msg.ack));
  MINIRAID_RETURN_IF_ERROR(DecodePayload(msg.type, dec, &msg.payload));
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes after message payload");
  }
  return msg;
}

}  // namespace miniraid
