// Microbenchmarks for the remaining protocol tables: session vector
// operations (consulted on every commit and every control transaction),
// the trace log (to confirm tracing is cheap enough to leave on during
// experiments), and the per-transaction steps of a site's 2PC path: the
// item-lock release, a patience timer's schedule and cancel, and the
// in-process hand-over of many senders' messages to one site.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "metrics/trace.h"
#include "net/event_loop.h"
#include "net/inproc_transport.h"
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

/// Counts what it receives and wakes a waiter once an expected total has
/// arrived.
class FanInSink : public MessageHandler {
 public:
  /// Expects `n` more messages. Call before they are sent.
  void Expect(uint64_t n) {
    {
      MutexLock lock(mu_);
      done_ = false;
    }
    target_.fetch_add(n);
  }

  /// Blocks until every expected message has arrived.
  void Wait() {
    MutexLock lock(mu_);
    while (!done_) cv_.Wait(mu_);
  }

  void OnMessage(const Message& msg) override {
    benchmark::DoNotOptimize(msg.type);
    if (++received_ != target_.load()) return;
    {
      MutexLock lock(mu_);
      done_ = true;
    }
    cv_.NotifyOne();
  }

 private:
  uint64_t received_ = 0;  // only the receiving loop touches it
  std::atomic<uint64_t> target_{0};
  Mutex mu_;
  CondVar cv_;
  bool done_ MR_GUARDED_BY(mu_) = false;
};

// Fan-in on the in-process transport, the shape of a coordinator
// collecting its participants' acks: three sender loops each send
// `range(0)` CommitArgs frames per iteration, in one task, to one
// receiving loop. `ns_per_msg` is the wall time per message delivered.
void BM_InProcFanIn(benchmark::State& state) {
  constexpr SiteId kSenders = 3;
  const auto per_sender = static_cast<TxnId>(state.range(0));
  FanInSink sink;
  FanInSink idle;  // the senders receive nothing
  EventLoop receiver;
  std::vector<std::unique_ptr<EventLoop>> senders;
  InProcTransport transport;
  transport.Register(kSenders, &receiver, &sink);
  for (SiteId from = 0; from < kSenders; ++from) {
    senders.push_back(std::make_unique<EventLoop>());
    transport.Register(from, senders.back().get(), &idle);
  }
  TxnId txn = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    sink.Expect(kSenders * per_sender);
    for (SiteId from = 0; from < kSenders; ++from) {
      senders[from]->Post([&transport, from, first = txn, per_sender] {
        for (TxnId t = first; t < first + per_sender; ++t) {
          (void)transport.Send(MakeMessage(from, kSenders, CommitArgs{t}));
        }
      });
    }
    txn += per_sender;
    sink.Wait();
  }
  const double elapsed_ns = std::chrono::duration<double, std::nano>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  const double messages =
      static_cast<double>(state.iterations()) * kSenders * per_sender;
  state.counters["ns_per_msg"] = elapsed_ns / messages;
  state.SetItemsProcessed(static_cast<int64_t>(messages));
}
BENCHMARK(BM_InProcFanIn)->Arg(1)->Arg(16)->Arg(256)->UseRealTime();

}  // namespace
}  // namespace miniraid
