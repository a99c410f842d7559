// Lossy-network bench: sweeps message-loss rates over the deterministic
// simulator and measures what the reliable channel costs and buys —
// throughput, tail latency, per-2PC-phase latency, channel
// retransmissions/dedup, and (the acceptance bar) client timeouts, which
// must stay at zero at every swept loss rate.
//
// Each point runs the bench_failure_under_load scenario: pipelined load
// through a healthy phase, a phase with a failed site, and its recovery
// phase, on a fresh cluster with the given drop probability.
//
//   bench_lossy_network [--smoke] [--json[=PATH]] [--dup=P] [--loss=P]
//
// --smoke shrinks phases and the sweep for CI; --dup adds duplicate
// injection on top of every point; --loss replaces the sweep with a single
// point. Exit code 1 if any point saw a client timeout or broke replica
// agreement.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "core/cluster.h"
#include "txn/driver.h"
#include "txn/workload.h"

namespace miniraid {
namespace {

struct Config {
  uint32_t phase_txns = 300;
  uint32_t window = 8;
  double duplicate_probability = 0.0;
  double single_loss = -1.0;  // < 0 = use the sweep
  bool smoke = false;
  std::string json_path;  // empty = no JSON output
};

struct Point {
  double loss = 0.0;
  DriverReport healthy;
  DriverReport failed;
  DriverReport recovering;
  DurationStats prepare_phase;  // coordinator-side 2PC phase latencies
  DurationStats commit_phase;
  ClusterStats stats;
  bool agreement = false;

  uint64_t Unreachable() const {
    return healthy.unreachable + failed.unreachable + recovering.unreachable;
  }
  bool Pass() const { return Unreachable() == 0 && agreement; }
};

Point RunPoint(const Config& config, double loss) {
  ClusterOptions options;
  options.n_sites = 4;
  options.db_size = 50;
  options.max_inflight = config.window;
  options.site.costs = CostModel::PaperCalibrated();
  options.sim.shared_cpu = false;
  options.transport.message_latency = Milliseconds(9);
  options.faults.drop_probability = loss;
  options.faults.duplicate_probability = config.duplicate_probability;
  options.faults.seed = 7;
  // The repair under test: channel retransmission below the protocol,
  // the only layer that re-sends. ack_timeout is the coordinator's whole
  // wait, sized to cover the channel's repair (RTO 100 ms, doubling per
  // attempt) and still beat the client timeout; a prepared participant
  // waits 3x as long.
  options.reliable.enabled = true;
  options.site.ack_timeout = Milliseconds(2375);

  auto cluster = MakeSimCluster(options);

  UniformWorkloadOptions wopts;
  wopts.db_size = 50;
  wopts.max_txn_size = 10;
  UniformWorkload workload(wopts);

  DriverOptions dopts;
  dopts.concurrency = config.window;
  dopts.measure_txns = config.phase_txns;
  constexpr SiteId kVictim = 3;
  DriverOptions degraded = dopts;
  degraded.coordinator_for = [](uint64_t index) {
    return static_cast<SiteId>(index % 3);  // keep load off the down site
  };

  Point point;
  point.loss = loss;
  Driver healthy(cluster.get(), &workload, dopts);
  point.healthy = healthy.Run();
  cluster->Fail(kVictim);
  Driver failed(cluster.get(), &workload, degraded);
  point.failed = failed.Run();
  cluster->Recover(kVictim);
  Driver recovering(cluster.get(), &workload, dopts);
  point.recovering = recovering.Run();

  for (SiteId s = 0; s < options.n_sites; ++s) {
    point.prepare_phase.MergeFrom(
        cluster->site(s).counters().phase_prepare_time);
    point.commit_phase.MergeFrom(
        cluster->site(s).counters().phase_commit_time);
  }
  point.stats = cluster->Stats();
  point.agreement = cluster->CheckReplicaAgreement().ok();
  return point;
}

void PrintPoint(const Point& point) {
  std::printf("--- loss=%4.1f%% ---\n", point.loss * 100.0);
  std::printf("  %-10s | %s\n", "healthy", point.healthy.Summary().c_str());
  std::printf("  %-10s | %s\n", "failed", point.failed.Summary().c_str());
  std::printf("  %-10s | %s\n", "recovering",
              point.recovering.Summary().c_str());
  std::printf("  2pc phases | prepare p95=%.1fms commit p95=%.1fms\n",
              point.prepare_phase.empty()
                  ? 0.0
                  : ToMillis(point.prepare_phase.Percentile(0.95)),
              point.commit_phase.empty()
                  ? 0.0
                  : ToMillis(point.commit_phase.Percentile(0.95)));
  std::printf("  channel    | dropped=%llu retransmits=%llu "
              "dup_suppressed=%llu abandoned=%llu acks=%llu\n",
              (unsigned long long)point.stats.messages_dropped,
              (unsigned long long)point.stats.channel.retransmits,
              (unsigned long long)point.stats.channel.dup_suppressed,
              (unsigned long long)point.stats.channel.abandoned,
              (unsigned long long)point.stats.channel.acks_sent);
  std::printf("  clients    | unreachable=%llu late_outcomes=%llu "
              "agreement=%s -> %s\n",
              (unsigned long long)point.Unreachable(),
              (unsigned long long)point.stats.late_outcomes,
              point.agreement ? "ok" : "BROKEN",
              point.Pass() ? "pass" : "FAIL");
}

std::string PointJson(const Point& point) {
  std::string json = StrFormat(
      "{\"loss\": %.3f, \"healthy\": %s,\n     \"failed\": %s,\n     "
      "\"recovering\": %s,\n     \"prepare_p95_ms\": %.3f, "
      "\"commit_p95_ms\": %.3f, \"messages_dropped\": %llu, "
      "\"retransmits\": %llu, \"dup_suppressed\": %llu, \"abandoned\": "
      "%llu, \"unreachable\": %llu, \"late_outcomes\": %llu, "
      "\"agreement\": %s, \"pass\": %s}",
      point.loss, point.healthy.ToJson("healthy").c_str(),
      point.failed.ToJson("failed").c_str(),
      point.recovering.ToJson("recovering").c_str(),
      point.prepare_phase.empty()
          ? 0.0
          : ToMillis(point.prepare_phase.Percentile(0.95)),
      point.commit_phase.empty()
          ? 0.0
          : ToMillis(point.commit_phase.Percentile(0.95)),
      (unsigned long long)point.stats.messages_dropped,
      (unsigned long long)point.stats.channel.retransmits,
      (unsigned long long)point.stats.channel.dup_suppressed,
      (unsigned long long)point.stats.channel.abandoned,
      (unsigned long long)point.Unreachable(),
      (unsigned long long)point.stats.late_outcomes,
      point.agreement ? "true" : "false", point.Pass() ? "true" : "false");
  return json;
}

bool Run(const Config& config) {
  std::vector<double> sweep;
  if (config.single_loss >= 0.0) {
    sweep = {config.single_loss};
  } else if (config.smoke) {
    sweep = {0.0, 0.05, 0.10};
  } else {
    sweep = {0.0, 0.02, 0.05, 0.10, 0.20};
  }

  std::printf("=== Throughput and tail latency vs message loss "
              "(reliable channel on, ack_timeout=2375ms, window=%u, %u "
              "txns/phase, dup=%.0f%%) ===\n",
              config.window, config.phase_txns,
              config.duplicate_probability * 100.0);

  std::vector<Point> points;
  bool pass = true;
  for (double loss : sweep) {
    points.push_back(RunPoint(config, loss));
    PrintPoint(points.back());
    pass = pass && points.back().Pass();
  }

  std::printf("\nExpected shape: throughput degrades gracefully with loss "
              "(every drop costs one\nRTO, ~100ms, of tail latency) while "
              "unreachable stays at zero — the channel\nabsorbs loss "
              "before the client timeout fires.\n");

  if (!config.json_path.empty()) {
    std::ofstream out(config.json_path);
    out << "{\"bench\": \"lossy_network\", \"duplicate_probability\": "
        << config.duplicate_probability << ",\n \"points\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      out << "    " << PointJson(points[i])
          << (i + 1 < points.size() ? ",\n" : "\n");
    }
    out << " ],\n \"pass\": " << (pass ? "true" : "false") << "}\n";
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return pass;
}

}  // namespace
}  // namespace miniraid

int main(int argc, char** argv) {
  miniraid::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      config.smoke = true;
      config.phase_txns = 60;
    } else if (arg == "--json") {
      config.json_path = "BENCH_lossy_network.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      config.json_path = arg.substr(std::strlen("--json="));
    } else if (arg.rfind("--dup=", 0) == 0) {
      config.duplicate_probability = std::stod(arg.substr(6));
    } else if (arg.rfind("--loss=", 0) == 0) {
      config.single_loss = std::stod(arg.substr(7));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  return miniraid::Run(config) ? 0 : 1;
}
