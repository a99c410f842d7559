// Microbenchmarks for the wire codec: encode/decode of the messages the
// protocol sends most often (phase-1 copy updates, copy replies, recovery
// info with a full fail-lock table).

#include <benchmark/benchmark.h>

#include "msg/codec.h"
#include "msg/message.h"
#include "txn/transaction.h"

namespace miniraid {
namespace {

Message MakePrepare(size_t n_writes) {
  PrepareArgs args;
  args.txn = 123456;
  for (size_t i = 0; i < n_writes; ++i) {
    args.writes.push_back(
        ItemWrite{static_cast<ItemId>(i), static_cast<Value>(i * 7919)});
  }
  return MakeMessage(0, 1, std::move(args));
}

Message MakeRecoveryInfo(size_t n_items) {
  RecoveryInfoArgs args;
  for (size_t i = 0; i < 4; ++i) {
    args.session_vector.push_back(SessionEntryWire{i + 1, SiteStatus::kUp});
  }
  for (size_t i = 0; i < n_items; ++i) {
    args.fail_locks.push_back(FailLockRow{static_cast<ItemId>(i), 0b1010});
  }
  return MakeMessage(0, 1, std::move(args));
}

void BM_EncodePrepare(benchmark::State& state) {
  const Message msg = MakePrepare(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeMessage(msg));
  }
}
BENCHMARK(BM_EncodePrepare)->Arg(3)->Arg(50);

void BM_DecodePrepare(benchmark::State& state) {
  const std::vector<uint8_t> wire =
      EncodeMessage(MakePrepare(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    Result<Message> decoded = DecodeMessage(wire);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(wire.size()));
}
BENCHMARK(BM_DecodePrepare)->Arg(3)->Arg(50);

void BM_RoundTripRecoveryInfo(benchmark::State& state) {
  const Message msg = MakeRecoveryInfo(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Result<Message> decoded = DecodeMessage(EncodeMessage(msg));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_RoundTripRecoveryInfo)->Arg(50)->Arg(4096);

void BM_RoundTripTxnRequest(benchmark::State& state) {
  TxnRequestArgs args;
  args.txn.id = 99;
  for (int i = 0; i < 10; ++i) {
    if (i % 2) {
      args.txn.ops.push_back(Operation::Write(i, WriteValueFor(99, i)));
    } else {
      args.txn.ops.push_back(Operation::Read(i));
    }
  }
  const Message msg = MakeMessage(4, 0, std::move(args));
  for (auto _ : state) {
    Result<Message> decoded = DecodeMessage(EncodeMessage(msg));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_RoundTripTxnRequest);

/// The PutFixed hot loop in isolation (the memcpy rewrite of the old
/// byte-at-a-time append).
void BM_PutFixedBulk(benchmark::State& state) {
  Encoder enc;
  for (auto _ : state) {
    enc.Clear();
    for (int i = 0; i < 64; ++i) {
      enc.PutU64(0x0123456789abcdefULL + static_cast<uint64_t>(i));
    }
    benchmark::DoNotOptimize(enc.buffer().data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * 64 * 8);
}
BENCHMARK(BM_PutFixedBulk);

}  // namespace
}  // namespace miniraid
