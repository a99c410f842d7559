#include "txn/driver.h"

#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace miniraid {

double DriverReport::CommittedPerSec() const {
  if (elapsed <= 0) return 0.0;
  return double(committed) / (double(elapsed) / double(Seconds(1)));
}

std::string DriverReport::Summary() const {
  std::string out = StrFormat(
      "txns=%llu committed=%llu aborted=%llu unreachable=%llu "
      "elapsed=%.1fms thrpt=%.1f/s",
      (unsigned long long)submitted, (unsigned long long)committed,
      (unsigned long long)aborted, (unsigned long long)unreachable,
      ToMillis(elapsed), CommittedPerSec());
  if (!latency.empty()) {
    out += StrFormat(" p50=%.2fms p95=%.2fms max=%.2fms",
                     ToMillis(latency.Percentile(0.5)),
                     ToMillis(latency.Percentile(0.95)),
                     ToMillis(latency.Max()));
  }
  if (!completed) out += " [TIMED OUT]";
  return out;
}

std::string DriverReport::ToJson(std::string_view label) const {
  return StrFormat(
      "{\"label\": \"%.*s\", \"submitted\": %llu, \"committed\": %llu, "
      "\"aborted\": %llu, \"unreachable\": %llu, \"elapsed_ms\": %.3f, "
      "\"committed_per_sec\": %.1f, \"latency_p50_ms\": %.3f, "
      "\"latency_p95_ms\": %.3f, \"latency_max_ms\": %.3f, "
      "\"completed\": %s}",
      int(label.size()), label.data(), (unsigned long long)submitted,
      (unsigned long long)committed, (unsigned long long)aborted,
      (unsigned long long)unreachable, ToMillis(elapsed), CommittedPerSec(),
      latency.empty() ? 0.0 : ToMillis(latency.Percentile(0.5)),
      latency.empty() ? 0.0 : ToMillis(latency.Percentile(0.95)),
      latency.empty() ? 0.0 : ToMillis(latency.Max()),
      completed ? "true" : "false");
}

namespace {

/// Per-run state; every field is touched only in the managing execution
/// context (submission closures and completion callbacks), so no locking.
/// Held by shared_ptr from every closure so a timed-out run can never leave
/// a callback with a dangling pointer.
struct RunCtx : std::enable_shared_from_this<RunCtx> {
  Cluster* cluster = nullptr;
  WorkloadGenerator* workload = nullptr;
  DriverOptions opts;
  uint64_t total = 0;
  std::function<SiteId(uint64_t)> coordinator_for;

  uint64_t issued = 0;
  uint64_t finished = 0;
  uint32_t inflight = 0;
  bool done = false;
  bool measure_started = false;
  TimePoint measure_start = 0;
  TimePoint last_reply = 0;
  DriverReport report;

  void Pump() {
    while (!done && inflight < opts.concurrency && issued < total) {
      IssueOne();
    }
  }

  void IssueOne() {
    if (done || issued >= total) return;
    const uint64_t index = issued++;
    const bool measured = index >= opts.warmup_txns;
    const TxnSpec txn = workload->Next();
    const SiteId coordinator = coordinator_for(index);
    const TimePoint t0 = cluster->Now();
    if (measured) {
      ++report.submitted;
      if (!measure_started) {
        measure_started = true;
        measure_start = t0;
      }
    }
    ++inflight;
    auto self = shared_from_this();
    cluster->SubmitTxn(txn, coordinator,
                       [self, measured, t0](const TxnResult& reply) {
                         self->OnReply(reply, measured, t0);
                       });
  }

  void OnReply(const TxnResult& reply, bool measured, TimePoint t0) {
    --inflight;
    ++finished;
    if (measured) {
      switch (reply.outcome) {
        case TxnOutcome::kCommitted:
          ++report.committed;
          break;
        case TxnOutcome::kCoordinatorUnreachable:
          ++report.unreachable;
          break;
        default:
          ++report.aborted;
          break;
      }
      const TimePoint now = cluster->Now();
      report.latency.Add(now - t0);
      last_reply = now;
      if (opts.record_outcomes) report.outcomes.push_back(reply.outcome);
    }
    if (finished == total) {
      done = true;
      return;
    }
    if (opts.arrival_per_sec <= 0) Pump();
  }

  void ScheduleNextArrival() {
    if (done || issued >= total) return;
    const double gap_sec = 1.0 / opts.arrival_per_sec;
    auto self = shared_from_this();
    cluster->ScheduleAfter(Duration(gap_sec * 1e9), [self] {
      self->IssueOne();
      self->ScheduleNextArrival();
    });
  }
};

}  // namespace

Driver::Driver(Cluster* cluster, WorkloadGenerator* workload,
               const DriverOptions& options)
    : cluster_(cluster), workload_(workload), options_(options) {}

DriverReport Driver::Run() {
  auto ctx = std::make_shared<RunCtx>();
  ctx->cluster = cluster_;
  ctx->workload = workload_;
  ctx->opts = options_;
  ctx->total = uint64_t(options_.warmup_txns) + options_.measure_txns;
  if (options_.coordinator_for) {
    ctx->coordinator_for = options_.coordinator_for;
  } else {
    const uint32_t n_sites = cluster_->n_sites();
    ctx->coordinator_for = [n_sites](uint64_t index) {
      return static_cast<SiteId>(index % n_sites);
    };
  }
  if (ctx->total == 0) {
    ctx->report.completed = true;
    return ctx->report;
  }

  cluster_->Post([ctx] {
    if (ctx->opts.arrival_per_sec > 0) {
      ctx->IssueOne();
      ctx->ScheduleNextArrival();
    } else {
      ctx->Pump();
    }
  });
  const bool finished =
      cluster_->Drive([ctx] { return ctx->done; }, options_.timeout);

  // Read the report in the managing context so a timed-out run cannot race
  // callbacks that are still arriving; setting `done` also stops any
  // not-yet-fired arrival timers from issuing more work.
  DriverReport report;
  bool extracted = false;
  // The by-ref captures cannot outlive this frame: the Drive() call below
  // blocks until `extracted` is set by this very lambda (with a CHECK on
  // the timeout path), so the posted task always completes before return.
  // miniraid-lint: allow(view-escape)
  cluster_->Post([&report, &extracted, ctx, finished] {
    ctx->done = true;
    ctx->report.completed = finished;
    ctx->report.elapsed =
        ctx->measure_started ? ctx->last_reply - ctx->measure_start : 0;
    report = ctx->report;
    extracted = true;
  });
  const bool read_back =
      cluster_->Drive([&extracted] { return extracted; }, Seconds(10));
  MR_CHECK(read_back) << "driver could not read back its report";
  return report;
}

}  // namespace miniraid
