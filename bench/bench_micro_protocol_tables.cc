// Microbenchmarks for the remaining protocol tables: session vector
// operations (consulted on every commit and every control transaction),
// the trace log (to confirm tracing is cheap enough to leave on during
// experiments), and the per-transaction steps of a site's 2PC path: the
// item-lock release and a patience timer's schedule and cancel.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "metrics/trace.h"
#include "net/event_loop.h"
#include "replication/lock_manager.h"
#include "replication/placement.h"
#include "replication/session_vector.h"

namespace miniraid {
namespace {

void BM_SessionVectorOperationalSites(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  SessionVector vec(n);
  for (SiteId s = 0; s < n; s += 3) vec.MarkDown(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec.OperationalSites());
  }
}
BENCHMARK(BM_SessionVectorOperationalSites)->Arg(4)->Arg(64);

void BM_SessionVectorMerge(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  SessionVector local(n);
  SessionVector remote(n);
  for (SiteId s = 0; s < n; ++s) {
    remote.Set(s, s % 5 + 1, s % 2 ? SiteStatus::kUp : SiteStatus::kDown);
  }
  const auto wire = remote.ToWire();
  for (auto _ : state) {
    benchmark::DoNotOptimize(local.MergeFrom(wire));
  }
}
BENCHMARK(BM_SessionVectorMerge)->Arg(4)->Arg(64);

void BM_HoldersLookup(benchmark::State& state) {
  HoldersTable table(1 << 12, 16);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Holds(static_cast<ItemId>(rng.NextBounded(1 << 12)),
                    static_cast<SiteId>(rng.NextBounded(16))));
  }
}
BENCHMARK(BM_HoldersLookup);

void BM_TraceRecord(benchmark::State& state) {
  TraceLog log(1 << 16);
  TimePoint t = 0;
  for (auto _ : state) {
    log.Record(t += 9, 1, TraceEvent::kTxnCommitted, 42, 3);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecord);

void BM_TraceFilter(benchmark::State& state) {
  TraceLog log(1 << 16);
  Rng rng(1);
  for (int i = 0; i < (1 << 16); ++i) {
    log.Record(i, static_cast<SiteId>(rng.NextBounded(4)),
               static_cast<TraceEvent>(rng.NextBounded(16)), i, 0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Count(TraceEvent::kTxnCommitted));
  }
}
BENCHMARK(BM_TraceFilter);

// One participant's lock cycle for a three-item write, Acquire through
// ReleaseAll, while `range(0)` items stay locked by other transactions.
// The release should cost the same whatever the number of other locks.
void BM_LockManagerReleaseAll(benchmark::State& state) {
  LockManager locks;
  const auto unrelated = static_cast<ItemId>(state.range(0));
  for (ItemId i = 0; i < unrelated; ++i) {
    (void)locks.Acquire(1000 + i, 1 + i, LockManager::Mode::kExclusive,
                        nullptr);
  }
  TxnId txn = TxnId{1} << 40;
  for (auto _ : state) {
    for (ItemId item = 0; item < 3; ++item) {
      benchmark::DoNotOptimize(locks.Acquire(
          item, txn, LockManager::Mode::kExclusive, [&locks, txn] {
            benchmark::DoNotOptimize(locks.Holds(0, txn));
          }));
    }
    locks.ReleaseAll(txn++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockManagerReleaseAll)->Arg(0)->Arg(64)->Arg(1024);

// A patience timer's lifecycle on its own loop thread: ScheduleAfter with
// a two-word capture, then CancelTimer, while `range(0)` other timers are
// pending.
void BM_EventLoopScheduleCancel(benchmark::State& state) {
  EventLoop loop;
  const auto pending = state.range(0);
  uint64_t fired = 0;
  loop.PostAndWait([&] {
    for (int64_t i = 0; i < pending; ++i) {
      loop.ScheduleAfter(Seconds(3600) + i, [&fired] { ++fired; });
    }
    uint64_t txn = 0;
    for (auto _ : state) {
      const TimerId id = loop.ScheduleAfter(
          Seconds(10), [&fired, txn] { fired += txn; });
      loop.CancelTimer(id);
      ++txn;
    }
  });
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventLoopScheduleCancel)->Arg(0)->Arg(64)->Arg(1024)->UseRealTime();

}  // namespace
}  // namespace miniraid
