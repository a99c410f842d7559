#include "measure.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/strings.h"

namespace e2ebench {

using miniraid::Cluster;
using miniraid::ClusterBackend;
using miniraid::Seconds;
using miniraid::SiteId;
using miniraid::TimePoint;
using miniraid::TxnOutcome;

namespace {

std::vector<SiteId> AllSites() {
  std::vector<SiteId> sites;
  for (SiteId id = 0; id < kSites; ++id) sites.push_back(id);
  return sites;
}

/// "site s believes t is down" for every live t (all but `down`) that some
/// site s considers down; empty when every view is right.
std::string WrongViews(Cluster& cluster, SiteId down) {
  std::string wrong;
  for (SiteId s = 0; s < kSites; ++s) {
    if (s == down) continue;
    cluster.WaitUntil(s, [&wrong, s, down](const miniraid::Site& site) {
      for (SiteId t = 0; t < kSites; ++t) {
        if (t != down && !site.session_vector().IsUp(t)) {
          wrong += miniraid::StrFormat("site %u believes live site %u is "
                                       "down; ",
                                       s, t);
        }
      }
      return true;
    });
  }
  return wrong;
}

/// Clock, process CPU and message count at one slice edge.
struct Mark {
  TimePoint t = 0;
  uint64_t cpu_us = 0;
  uint64_t msgs = 0;
};

Mark TakeMark(Cluster& cluster) {
  Mark mark;
  mark.msgs = cluster.Stats().messages_sent;
  mark.cpu_us = SampleProcess().cpu_us;
  mark.t = cluster.Now();
  return mark;
}

Slice SliceBetween(const Mark& a, const Mark& b) {
  return Slice{a.t, b.t, b.cpu_us - a.cpu_us, b.msgs - a.msgs};
}

/// Completions whose reply falls in slice `i` (replies are recorded in
/// arrival order, so the vector is sorted by reply time).
std::pair<size_t, size_t> SliceRange(const Window& w, size_t i) {
  const Slice& s = w.slices[i];
  auto by_reply = [](const Completion& c, TimePoint t) {
    return c.reply_ns < t;
  };
  const auto begin = std::lower_bound(w.completions.begin(),
                                      w.completions.end(), s.start_ns,
                                      by_reply);
  const auto end = std::lower_bound(begin, w.completions.end(), s.end_ns,
                                    by_reply);
  return {size_t(begin - w.completions.begin()),
          size_t(end - w.completions.begin())};
}

std::vector<double> LatenciesUs(const Window& w, const Chunk& chunk) {
  std::vector<double> latencies;
  latencies.reserve(chunk.end - chunk.begin);
  for (size_t k = chunk.begin; k < chunk.end; ++k) {
    const Completion& c = w.completions[k];
    latencies.push_back(double(c.reply_ns - c.submit_ns) / 1e3);
  }
  return latencies;
}

}  // namespace

miniraid::Result<std::unique_ptr<Cluster>> BuildCluster(
    const WorkloadSpec& workload, Tracer* tracer) {
  miniraid::Status last = miniraid::Status::Internal("not attempted");
  // A port found free can be taken before the transport binds it; retry
  // on a fresh range.
  for (int attempt = 0; attempt < 5; ++attempt) {
    uint16_t base = 0;
    if (workload.backend == ClusterBackend::kTcp) {
      base = PickFreeBasePort(kSites + 1);
      if (base == 0) {
        return miniraid::Status::Unavailable(
            "no free tcp port range below the ephemeral range");
      }
    }
    const miniraid::ClusterOptions options = OptionsFor(workload, base);
    if (tracer != nullptr) {
      auto traced = TracedCluster::Make(options, tracer);
      if (traced.ok()) {
        return std::unique_ptr<Cluster>(std::move(traced).value());
      }
      last = traced.status();
    } else {
      auto cluster = miniraid::MakeCluster(options);
      if (cluster.ok()) return cluster;
      last = cluster.status();
    }
  }
  return last;
}

bool CommitOnEveryCoordinator(ClosedLoop& loop) {
  std::vector<SiteId> pending = AllSites();
  for (int round = 0; round < 5 && !pending.empty(); ++round) {
    loop.ClearCompletions();
    // Round-robin over `pending` for exactly pending.size() transactions
    // sends one to each.
    if (!loop.RunPhase(pending, pending.size(), false, true, Seconds(30))) {
      return false;
    }
    std::vector<SiteId> still;
    for (SiteId site : pending) {
      const bool committed = std::any_of(
          loop.completions().begin(), loop.completions().end(),
          [site](const Completion& c) {
            return c.coordinator == site &&
                   c.outcome == TxnOutcome::kCommitted;
          });
      if (!committed) still.push_back(site);
    }
    pending.swap(still);
  }
  loop.ClearCompletions();
  return pending.empty();
}

Window MeasureWindow(Cluster& cluster, ClosedLoop& loop,
                     const WorkloadSpec& workload, int window_ms,
                     Tracer* tracer) {
  Window w;
  w.roles = DiscoverThreads(cluster);
  loop.ClearCompletions();
  const std::vector<SiteId> all = AllSites();

  w.counters_start = ReadCounters(cluster);
  const ThreadSamples threads_start = SampleThreads();
  if (tracer != nullptr) tracer->SetRecording(true);
  const Mark start = TakeMark(cluster);
  Mark prev = start;
  const TimePoint deadline = start.t + miniraid::Milliseconds(window_ms);

  if (!workload.failover) {
    loop.StartPhase(all, /*budget=*/0, false, true);
    const int slices = window_ms / kSliceMs;
    for (int i = 1; i <= slices; ++i) {
      const TimePoint edge = start.t + miniraid::Milliseconds(i * kSliceMs);
      const TimePoint wait = std::max<TimePoint>(0, edge - cluster.Now());
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      const Mark mark = TakeMark(cluster);
      w.slices.push_back(SliceBetween(prev, mark));
      prev = mark;
    }
  } else {
    for (uint32_t n = 0;; ++n) {
      const TimePoint now = cluster.Now();
      if (n >= kMinCycles && now >= deadline) break;
      // Whatever the machine's speed, leave room to drain and check.
      if (now - start.t >= Seconds(120)) break;
      Cycle cycle;
      cycle.victim = n % kSites;
      std::vector<SiteId> survivors;
      for (SiteId id : all) {
        if (id != cycle.victim) survivors.push_back(id);
      }
      const CounterTotals before = ReadCounters(cluster);
      cycle.fail_ns = cluster.Now();
      cluster.Fail(cycle.victim);
      if (!loop.RunPhase(survivors, kDegradedTxns, /*after_failure=*/true,
                         true, Seconds(60))) {
        w.error = "degraded phase did not drain";
        break;
      }
      cycle.degraded_phase = static_cast<uint32_t>(loop.phases().size() - 1);
      const CounterTotals degraded = ReadCounters(cluster);
      cycle.type2_announced =
          degraded.control2_initiated > before.control2_initiated;
      cycle.fail_locks_set = degraded.fail_locks_set - before.fail_locks_set;
      const std::string degraded_views = WrongViews(cluster, cycle.victim);
      if (!degraded_views.empty()) {
        cycle.false_suspicions = "with the victim down: " + degraded_views;
      }

      size_t recoveries = 0;
      cluster.WaitUntil(cycle.victim, [&recoveries](const miniraid::Site& s) {
        recoveries = s.counters().recovery_time.count();
        return true;
      });
      cluster.Recover(cycle.victim);
      cycle.type1_completed = cluster.WaitUntil(
          cycle.victim, [&cycle, recoveries](const miniraid::Site& s) {
            const miniraid::DurationStats& rt = s.counters().recovery_time;
            if (rt.count() <= recoveries) return false;
            cycle.recovery_ms = miniraid::ToMillis(rt.samples().back());
            cycle.recovery_rows = s.OwnFailLockCount();
            return true;
          });
      if (!cycle.type1_completed) {
        w.cycles.push_back(cycle);
        w.error = "Recover did not complete control type 1";
        break;
      }
      const std::string recovered_views =
          WrongViews(cluster, miniraid::kInvalidSite);
      if (!recovered_views.empty()) {
        cycle.false_suspicions += "after recovery: " + recovered_views;
      }
      if (!loop.RunPhase(all, kRecoveredTxns, false, true, Seconds(60))) {
        w.cycles.push_back(cycle);
        w.error = "phase after recovery did not drain";
        break;
      }
      const Mark mark = TakeMark(cluster);
      w.slices.push_back(SliceBetween(prev, mark));
      w.cycles.push_back(cycle);
      prev = mark;
    }
  }

  const ThreadSamples threads_end = SampleThreads();
  w.counters_end = ReadCounters(cluster);
  if (tracer != nullptr) tracer->SetRecording(false);
  loop.StopPhase();
  if (!loop.WaitDrained(Seconds(30)) && w.error.empty()) {
    w.error = "load did not drain after the window";
  }

  w.start_ns = start.t;
  w.end_ns = prev.t;
  w.proc_cpu_us = prev.cpu_us - start.cpu_us;
  w.managing = Delta(threads_start, threads_end, {w.roles.managing});
  w.sites = Delta(threads_start, threads_end, w.roles.sites);
  w.io = Delta(threads_start, threads_end, w.roles.io);
  PhaseSamplesSince(cluster, w.counters_start, &w.prepare_phase,
                    &w.commit_phase);
  for (const Completion& c : loop.completions()) {
    if (c.reply_ns >= w.start_ns && c.reply_ns < w.end_ns) {
      w.completions.push_back(c);
    }
  }
  return w;
}

uint64_t CountFailed(const Window& window, const ClosedLoop& loop,
                     const WorkloadSpec& workload) {
  uint64_t failed = 0;
  for (const Completion& c : window.completions) {
    // After an injected failure, a wait for ack_timeout and the
    // participant-failure abort it ends in are the protocol working.
    const bool injected = loop.phases()[c.phase].after_failure;
    switch (c.outcome) {
      case TxnOutcome::kCoordinatorUnreachable:
      case TxnOutcome::kRejectedInvalid:
      case TxnOutcome::kAbortedCoordinatorDown:
        ++failed;
        continue;
      case TxnOutcome::kAbortedParticipantFailed:
        if (!injected) ++failed;
        continue;
      default:
        break;
    }
    if (!injected && c.reply_ns - c.submit_ns >= workload.ack_timeout) {
      ++failed;
    }
  }
  return failed;
}

std::vector<GateCheck> CheckGate(Cluster& cluster, const ClosedLoop& loop,
                                 const WorkloadSpec& workload,
                                 const Window& window) {
  std::vector<GateCheck> checks;
  auto add = [&checks](std::string name, bool ok, std::string detail) {
    checks.push_back(GateCheck{std::move(name), ok, std::move(detail)});
  };
  add("window_drained", window.error.empty(),
      window.error.empty() ? "every bounded wait ended in time"
                           : window.error);

  const miniraid::ClusterStats stats = cluster.Stats();
  add("one_reply_per_txn",
      stats.inflight == 0 && stats.submitted == loop.submitted() &&
          stats.submitted ==
              stats.committed + stats.aborted + stats.unreachable,
      miniraid::StrFormat("submitted %llu, committed %llu, aborted %llu, "
                          "unreachable %llu, inflight %u",
                          (unsigned long long)stats.submitted,
                          (unsigned long long)stats.committed,
                          (unsigned long long)stats.aborted,
                          (unsigned long long)stats.unreachable,
                          stats.inflight));

  const miniraid::Status agreement = cluster.CheckReplicaAgreement();
  add("replica_agreement", agreement.ok(),
      agreement.ok() ? "ok" : agreement.ToString());
  const std::vector<miniraid::InvariantViolation> violations =
      cluster.CheckInvariants();
  add("invariants", violations.empty(),
      violations.empty() ? "no violation"
                         : miniraid::StrFormat(
                               "%zu violation(s); first: %s",
                               violations.size(),
                               violations.front().ToString().c_str()));
  const std::string oracle = loop.CheckOracle(cluster.SnapshotSites());
  add("read_and_copy_values", oracle.empty(),
      oracle.empty() ? "every read and copy holds a committed write"
                     : oracle);

  add("unreachable", stats.unreachable == 0,
      miniraid::StrFormat("%llu", (unsigned long long)stats.unreachable));
  const CounterTotals totals = ReadCounters(cluster);
  if (!workload.failover) {
    add("late_outcomes", stats.late_outcomes == 0,
        miniraid::StrFormat("%llu", (unsigned long long)stats.late_outcomes));
    add("control2_initiated", totals.control2_initiated == 0,
        miniraid::StrFormat("%llu",
                            (unsigned long long)totals.control2_initiated));
    add("txns_aborted_participant", totals.aborted_participant == 0,
        miniraid::StrFormat("%llu",
                            (unsigned long long)totals.aborted_participant));
  } else {
    size_t announced = 0;
    size_t recovered = 0;
    std::string suspicions;
    for (size_t i = 0; i < window.cycles.size(); ++i) {
      const Cycle& c = window.cycles[i];
      announced += c.type2_announced ? 1 : 0;
      recovered += c.type1_completed ? 1 : 0;
      if (suspicions.empty() && !c.false_suspicions.empty()) {
        suspicions = miniraid::StrFormat("cycle %zu (site %u failed): ", i,
                                         c.victim) +
                     c.false_suspicions;
      }
    }
    add("no_live_site_declared_failed", suspicions.empty(),
        suspicions.empty() ? "every view matched the injected failures"
                           : suspicions);
    add("type2_after_every_fail",
        !window.cycles.empty() && announced == window.cycles.size(),
        miniraid::StrFormat("%zu of %zu failures", announced,
                            window.cycles.size()));
    add("type1_after_every_recover",
        !window.cycles.empty() && recovered == window.cycles.size(),
        miniraid::StrFormat("%zu of %zu recoveries", recovered,
                            window.cycles.size()));
  }
  return checks;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(q * double(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

std::vector<Chunk> Chunks(const Window& w) {
  std::vector<Chunk> chunks;
  if (!w.cycles.empty()) {
    for (size_t i = 0; i < w.slices.size(); ++i) {
      const auto [begin, end] = SliceRange(w, i);
      chunks.push_back(
          Chunk{begin, end, w.slices[i].end_ns - w.slices[i].start_ns});
    }
    return chunks;
  }
  // Each chunk's span runs to the next chunk's first reply, so it holds
  // exactly kChunkTxns inter-reply gaps.
  for (size_t begin = 0; begin + kChunkTxns < w.completions.size();
       begin += kChunkTxns) {
    const size_t end = begin + kChunkTxns;
    chunks.push_back(Chunk{begin, end,
                           w.completions[end].reply_ns -
                               w.completions[begin].reply_ns});
  }
  return chunks;
}

double ChunkMedian(const std::vector<Window>& windows,
                   double (*f)(const Window&, const Chunk&)) {
  std::vector<double> values;
  for (const Window& window : windows) {
    for (const Chunk& chunk : Chunks(window)) {
      values.push_back(f(window, chunk));
    }
  }
  return Median(std::move(values));
}

double SliceMedian(const std::vector<Window>& windows,
                   double (*f)(const Window&, size_t slice)) {
  std::vector<double> values;
  for (const Window& window : windows) {
    for (size_t i = 0; i < window.slices.size(); ++i) {
      values.push_back(f(window, i));
    }
  }
  return Median(std::move(values));
}

double ChunkCommitTps(const Window& w, const Chunk& chunk) {
  size_t commits = 0;
  for (size_t k = chunk.begin; k < chunk.end; ++k) {
    commits += w.completions[k].outcome == TxnOutcome::kCommitted ? 1 : 0;
  }
  return chunk.span_ns > 0 ? double(commits) * 1e9 / double(chunk.span_ns)
                           : 0;
}

double ChunkLatencyP50Us(const Window& w, const Chunk& chunk) {
  return Percentile(LatenciesUs(w, chunk), 0.50);
}

double ChunkLatencyP99Us(const Window& w, const Chunk& chunk) {
  return Percentile(LatenciesUs(w, chunk), 0.99);
}

double SliceCpuUsPerTxn(const Window& w, size_t i) {
  const auto [begin, end] = SliceRange(w, i);
  return end > begin ? double(w.slices[i].cpu_us) / double(end - begin) : 0;
}

double SliceMsgsPerTxn(const Window& w, size_t i) {
  const auto [begin, end] = SliceRange(w, i);
  return end > begin ? double(w.slices[i].msgs) / double(end - begin) : 0;
}

std::vector<double> OutagesMs(const Window& window) {
  std::vector<double> outages;
  for (const Cycle& cycle : window.cycles) {
    TimePoint last = cycle.fail_ns;
    TimePoint longest = 0;
    for (const Completion& c : window.completions) {
      if (c.phase != cycle.degraded_phase ||
          c.outcome != TxnOutcome::kCommitted) {
        continue;
      }
      longest = std::max(longest, c.reply_ns - last);
      last = c.reply_ns;
    }
    outages.push_back(double(longest) / 1e6);
  }
  return outages;
}

}  // namespace e2ebench
