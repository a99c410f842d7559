#include "msg/message.h"

#include <gtest/gtest.h>

#include <set>
#include <variant>

#include "common/rng.h"

namespace miniraid {
namespace {

/// Round-trips a message through the wire codec and checks full equality.
void ExpectRoundTrip(const Message& msg) {
  const std::vector<uint8_t> wire = EncodeMessage(msg);
  const Result<Message> decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, msg) << msg.ToString();
}

/// One sample of every Payload alternative with every field, bools and
/// enums included, set to a value other than its default.
std::vector<Payload> EveryPayloadSample() {
  TxnRequestArgs request;
  request.txn.id = 42;
  request.txn.ops = {Operation::Write(5, -77), Operation::Write(6, 3)};
  request.txn.declared_reads = {3};
  request.txn.declared_writes = {5, 6};
  const SessionEntryWire recovering{9, SiteStatus::kWaitingToRecover};
  const SessionEntryWire terminating{4, SiteStatus::kTerminating};
  return {
      request,
      TxnResult{42, TxnOutcome::kAbortedLockConflict, 3,
                {ItemCopy{1, -10, 2}}},
      PrepareArgs{7, {ItemWrite{49, -9}}, {terminating}, {2, 5}, 300},
      PrepareAckArgs{7, /*accepted=*/false, {recovering}, 300},
      CommitArgs{8, 1},
      CommitAckArgs{9, 2},
      AbortArgs{10, 3},
      CopyRequestArgs{11, {4, 8}},
      CopyReplyArgs{12, {ItemCopy{4, 400, 12}}},
      ClearFailLocksArgs{13, 2, {4, 8}},
      RecoveryAnnounceArgs{3, 17},
      RecoveryInfoArgs{{SessionEntryWire{1, SiteStatus::kUp}},
                       {FailLockRow{49, 0b1010}}},
      FailureAnnounceArgs{{FailedSiteEntry{1, 4}}},
      CopyCreateArgs{2, {ItemCopy{11, 5, 3}}},
      FailSiteArgs{},
      RecoverSiteArgs{},
      ShutdownArgs{},
      ChannelAckArgs{},
  };
}

TEST(MessageTest, EveryPayloadAlternativeRoundTripsEveryField) {
  // The codec's symmetry guarantee: a decoder that skips or misreads any
  // field breaks equality, and a new alternative with no sample above
  // breaks the count.
  const std::vector<Payload> samples = EveryPayloadSample();
  std::set<size_t> alternatives;
  for (const Payload& payload : samples) {
    alternatives.insert(payload.index());
    Message msg = MakeMessage(3, 4, payload);
    msg.seq = 300;
    msg.ack = 70000;
    ExpectRoundTrip(msg);
  }
  EXPECT_EQ(samples.size(), std::variant_size_v<Payload>);
  EXPECT_EQ(alternatives.size(), std::variant_size_v<Payload>);
}

TEST(MessageTest, TypeMatchesPayloadAlternative) {
  EXPECT_EQ(MakeMessage(0, 1, PrepareArgs{}).type, MsgType::kPrepare);
  EXPECT_EQ(MakeMessage(0, 1, TxnResult{}).type, MsgType::kTxnReply);
  EXPECT_EQ(MakeMessage(0, 1, ShutdownArgs{}).type, MsgType::kShutdown);
  EXPECT_EQ(MakeMessage(0, 1, RecoveryInfoArgs{}).type,
            MsgType::kRecoveryInfo);
}

TEST(MessageTest, RoundTripTxnRequest) {
  TxnRequestArgs args;
  args.txn.id = 42;
  args.txn.ops = {Operation::Read(3), Operation::Write(5, -77),
                  Operation::Read(5)};
  ExpectRoundTrip(MakeMessage(4, 0, std::move(args)));
}

TEST(MessageTest, RoundTripTxnReply) {
  TxnResult args;
  args.txn = 42;
  args.outcome = TxnOutcome::kAbortedCopierFailed;
  args.copier_count = 3;
  args.reads = {ItemCopy{1, 10, 2}, ItemCopy{7, -4, 99}};
  ExpectRoundTrip(MakeMessage(0, 4, std::move(args)));
}

TEST(MessageTest, RoundTripTwoPhaseCommitMessages) {
  PrepareArgs prepare;
  prepare.txn = 7;
  prepare.writes = {ItemWrite{0, 1}, ItemWrite{49, -9}};
  prepare.session_vector = {SessionEntryWire{1, SiteStatus::kUp},
                            SessionEntryWire{4, SiteStatus::kDown}};
  prepare.participants = {0, 1};
  prepare.attempt = 5;
  ExpectRoundTrip(MakeMessage(0, 1, std::move(prepare)));
  ExpectRoundTrip(MakeMessage(1, 0, PrepareAckArgs{7, true, {}, 5}));
  // A session-vector veto: refused, with the participant's vector riding
  // back for the coordinator to merge.
  PrepareAckArgs veto{7, /*accepted=*/false,
                      {SessionEntryWire{2, SiteStatus::kUp}}, 5};
  ExpectRoundTrip(MakeMessage(1, 0, std::move(veto)));
  ExpectRoundTrip(MakeMessage(0, 1, CommitArgs{7, 5}));
  ExpectRoundTrip(MakeMessage(1, 0, CommitAckArgs{7, 5}));
  ExpectRoundTrip(MakeMessage(0, 1, AbortArgs{7, 5}));
  // The attempt is a varint; the widest one still round-trips.
  ExpectRoundTrip(MakeMessage(0, 1, AbortArgs{7, ~uint64_t{0}}));
}

TEST(MessageTest, RoundTripCopierMessages) {
  CopyRequestArgs request;
  request.txn = 9;
  request.items = {4, 8, 15, 16, 23, 42};
  ExpectRoundTrip(MakeMessage(2, 0, std::move(request)));

  CopyReplyArgs reply;
  reply.txn = 9;
  reply.copies = {ItemCopy{4, 400, 12}, ItemCopy{8, 800, 13}};
  ExpectRoundTrip(MakeMessage(0, 2, std::move(reply)));

  ClearFailLocksArgs clear;
  clear.txn = 9;
  clear.refreshed_site = 2;
  clear.items = {4, 8};
  ExpectRoundTrip(MakeMessage(2, 1, std::move(clear)));
}

TEST(MessageTest, RoundTripControlMessages) {
  ExpectRoundTrip(MakeMessage(3, 0, RecoveryAnnounceArgs{3, 17}));

  RecoveryInfoArgs info;
  info.session_vector = {SessionEntryWire{1, SiteStatus::kUp},
                         SessionEntryWire{4, SiteStatus::kDown},
                         SessionEntryWire{2, SiteStatus::kWaitingToRecover},
                         SessionEntryWire{9, SiteStatus::kTerminating}};
  info.fail_locks = {FailLockRow{0, 0b0101}, FailLockRow{49, 0b1000}};
  ExpectRoundTrip(MakeMessage(0, 3, std::move(info)));

  FailureAnnounceArgs failure;
  failure.failed_sites = {FailedSiteEntry{1, 4}, FailedSiteEntry{2, 1}};
  ExpectRoundTrip(MakeMessage(0, 3, std::move(failure)));

  CopyCreateArgs create;
  create.backup_site = 2;
  create.copies = {ItemCopy{11, 5, 3}};
  ExpectRoundTrip(MakeMessage(1, 2, std::move(create)));
}

TEST(MessageTest, RoundTripControlPlane) {
  ExpectRoundTrip(MakeMessage(4, 1, FailSiteArgs{}));
  ExpectRoundTrip(MakeMessage(4, 1, RecoverSiteArgs{}));
  ExpectRoundTrip(MakeMessage(4, 1, ShutdownArgs{}));
}

TEST(MessageTest, EmptyVectorsRoundTrip) {
  ExpectRoundTrip(MakeMessage(0, 1, PrepareArgs{1, {}, {}, {}}));
  ExpectRoundTrip(MakeMessage(0, 1, CopyReplyArgs{1, {}}));
  ExpectRoundTrip(MakeMessage(0, 1, RecoveryInfoArgs{{}, {}}));
}

TEST(MessageTest, UnknownTypeByteRejected) {
  Message msg = MakeMessage(0, 1, CommitArgs{5});
  std::vector<uint8_t> wire = EncodeMessage(msg);
  wire[0] = 250;  // no such MsgType
  EXPECT_EQ(DecodeMessage(wire).status().code(), StatusCode::kCorruption);

  // Frames of retired payloads, byte for byte as earlier builds encoded
  // them, no longer decode: the group-commit types (BatchPrepare,
  // BatchPrepareAck, BatchCommit, BatchCommitAck, then 22-25; their names
  // stay, now 18-21, with no payload) and the participant's decision query
  // for txn 42 (then 20, now the retired BatchCommit's byte). The three
  // acks nothing sent (then 10, 14 and 16) kept no name: their bytes now
  // carry the types that followed them.
  const std::vector<std::vector<uint8_t>> retired = {
      {0x16, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09,
       0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x02, 0x00, 0x00, 0x00,
       0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
       0x00, 0x01, 0x03, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02,
       0x00, 0x00, 0x00, 0x02, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
       0x02, 0x03, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
       0x00, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
       0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
       0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
      {0x17, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09,
       0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x01, 0x08, 0x00,
       0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
      {0x18, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09,
       0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x07, 0x00, 0x00, 0x00,
       0x00, 0x00, 0x00, 0x00, 0x01, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
       0x00},
      {0x19, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09,
       0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
      {0x14, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2a,
       0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
  };
  for (const std::vector<uint8_t>& frame : retired) {
    EXPECT_EQ(DecodeMessage(frame).status().code(), StatusCode::kCorruption)
        << MsgTypeName(static_cast<MsgType>(frame[0]));
  }
}

TEST(MessageTest, TrailingGarbageRejected) {
  std::vector<uint8_t> wire = EncodeMessage(MakeMessage(0, 1, CommitArgs{5}));
  wire.push_back(0x00);
  EXPECT_EQ(DecodeMessage(wire).status().code(), StatusCode::kCorruption);
}

TEST(MessageTest, BadEnumValuesRejected) {
  // Corrupt the operation kind inside a TxnRequest.
  TxnRequestArgs args;
  args.txn.id = 1;
  args.txn.ops = {Operation::Read(0)};
  std::vector<uint8_t> wire = EncodeMessage(MakeMessage(4, 0, args));
  // Layout: type(1) from(4) to(4) seq(varint=1) ack(varint=1) txn id(8)
  //         count(varint=1) kind(1) ...
  wire[19] = 9;  // invalid Operation::Kind
  EXPECT_EQ(DecodeMessage(wire).status().code(), StatusCode::kCorruption);
}

TEST(MessageTest, OutcomeBeyondLastTxnOutcomeRejected) {
  // kAbortedStaleView (7) is the last TxnOutcome, so any higher outcome
  // byte on the wire must decode as corrupt.
  std::vector<uint8_t> wire = EncodeMessage(
      MakeMessage(0, 4, TxnResult{42, TxnOutcome::kAbortedStaleView, 0, {}}));
  // Layout: type(1) from(4) to(4) seq(varint=1) ack(varint=1) txn id(8)
  //         outcome(1) ...
  constexpr size_t kOutcomeByte = 19;
  ASSERT_EQ(wire[kOutcomeByte], 7);
  ASSERT_TRUE(DecodeMessage(wire).ok());
  for (const int outcome : {8, 9}) {
    wire[kOutcomeByte] = static_cast<uint8_t>(outcome);
    EXPECT_EQ(DecodeMessage(wire).status().code(), StatusCode::kCorruption)
        << outcome;
  }
}

TEST(MessageTest, EveryTruncationFailsCleanly) {
  // Property: no prefix of a valid message decodes successfully, and none
  // crashes. Exercises bounds checks in every payload decoder.
  std::vector<Message> corpus;
  corpus.push_back(MakeMessage(
      0, 1,
      PrepareArgs{7,
                  {ItemWrite{3, 9}},
                  {SessionEntryWire{2, SiteStatus::kUp}},
                  {0, 1, 2}}));
  corpus.push_back(
      MakeMessage(0, 1, CopyReplyArgs{7, {ItemCopy{1, 2, 3}}}));
  RecoveryInfoArgs info;
  info.session_vector = {SessionEntryWire{1, SiteStatus::kUp}};
  info.fail_locks = {FailLockRow{5, 3}};
  corpus.push_back(MakeMessage(0, 1, std::move(info)));
  TxnRequestArgs txn;
  txn.txn.id = 2;
  txn.txn.ops = {Operation::Write(1, 2)};
  corpus.push_back(MakeMessage(4, 0, std::move(txn)));

  for (const Message& msg : corpus) {
    const std::vector<uint8_t> wire = EncodeMessage(msg);
    for (size_t cut = 0; cut < wire.size(); ++cut) {
      const Result<Message> decoded = DecodeMessage(wire.data(), cut);
      EXPECT_FALSE(decoded.ok()) << msg.ToString() << " cut=" << cut;
    }
  }
}

TEST(MessageTest, RandomBytesNeverCrashDecoder) {
  Rng rng(777);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> junk(rng.NextBounded(64));
    for (uint8_t& byte : junk) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    // Must return (either outcome), never crash or hang.
    (void)DecodeMessage(junk);
  }
}

TEST(MessageTest, MsgTypeNamesAreUnique) {
  // Bytes 0-17 carry payloads (kChannelAck last), 18-21 are the retired
  // group-commit names, and byte 22 has no name.
  ASSERT_EQ(static_cast<int>(MsgType::kChannelAck), 17);
  ASSERT_EQ(static_cast<int>(MsgType::kBatchCommitAck), 21);
  std::set<std::string_view> names;
  for (int t = 0; t <= static_cast<int>(MsgType::kBatchCommitAck); ++t) {
    names.insert(MsgTypeName(static_cast<MsgType>(t)));
  }
  EXPECT_EQ(names.size(), 22u);
  EXPECT_EQ(names.count("Unknown"), 0u);
  EXPECT_EQ(MsgTypeName(static_cast<MsgType>(22)), "Unknown");
}

TEST(MessageTest, ChannelSequenceNumbersRoundTrip) {
  // The reliable channel stamps seq/ack on every frame; both must survive
  // the codec, including multi-byte varint values.
  Message msg = MakeMessage(0, 1, CommitArgs{5});
  msg.seq = 300;     // two varint bytes
  msg.ack = 70000;   // three varint bytes
  ExpectRoundTrip(msg);
  ExpectRoundTrip(MakeMessage(1, 0, ChannelAckArgs{}));
}

}  // namespace
}  // namespace miniraid
