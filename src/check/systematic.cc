#include "check/systematic.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "core/cluster.h"
#include "sim/event_queue.h"
#include "txn/transaction.h"

namespace miniraid::check {

namespace {

/// Chooser return value meaning "every continuation from here is covered by
/// an earlier sibling's subtree — end this execution".
constexpr size_t kAbortExecution = static_cast<size_t>(-1);

/// Identity of one scheduling option. Event ids are allocated
/// deterministically by the simulator, so the same id names the same
/// pending event across the re-executions of a common prefix.
struct OptionKey {
  bool action = false;  ///< inject the next external action
  EventQueue::EventId event = 0;
  SiteId site = kInvalidSite;

  bool operator==(const OptionKey& o) const {
    return action == o.action && event == o.event && site == o.site;
  }
};

/// Two options commute when they are deliveries bound to distinct site
/// contexts: each handler reads and writes only its own site's state, and
/// the messages either sends are ordered by their own later delivery
/// events, which the explorer branches on separately. Everything else
/// (external actions, global events) is conservatively dependent.
bool Independent(const OptionKey& a, const OptionKey& b) {
  if (a.action || b.action) return false;
  if (a.site == kInvalidSite || b.site == kInvalidSite) return false;
  return a.site != b.site;
}

bool InSet(const std::vector<OptionKey>& set, const OptionKey& k) {
  return std::find(set.begin(), set.end(), k) != set.end();
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

struct ExecutionOutcome {
  uint64_t steps = 0;
  uint32_t choice_points = 0;
  /// The invariant violations of the first violating quiescent cut, or the
  /// first committed read no scenario writer explains.
  std::vector<std::string> violations;
  bool aborted = false;
};

/// Injects `action`. A submission's reply goes through the read check;
/// `schedule` and `bad_reads` must outlive the cluster.
void Inject(SimCluster& cluster, const ScheduleAction& action,
            const std::vector<ScheduleAction>* schedule,
            std::vector<std::string>* bad_reads) {
  switch (action.kind) {
    case ScheduleAction::Kind::kSubmit:
      cluster.SubmitTxn(action.txn, action.site,
                        [schedule, bad_reads](const TxnResult& result) {
                          std::string bad =
                              CheckCommittedReads(result, *schedule);
                          if (!bad.empty()) bad_reads->push_back(bad);
                        });
      break;
    case ScheduleAction::Kind::kFail:
      cluster.managing().FailSite(action.site);
      break;
    case ScheduleAction::Kind::kRecover:
      cluster.managing().RecoverSite(action.site);
      break;
  }
}

/// Runs the schedule once over a fresh SimCluster. At every step the
/// enabled options are the events tied at the front virtual time (FIFO
/// order) plus — unless the next action is serial — injecting that action;
/// `choose` returns the index to take. The cluster-wide invariants are
/// asserted at every quiescent cut (event queue drained), and every
/// committed read as its reply arrives; the execution stops at the first
/// violation.
ExecutionOutcome RunOneExecution(
    const SystematicOptions& sopts,
    const std::function<size_t(const std::vector<OptionKey>&)>& choose) {
  // Declared before the cluster: its reply callbacks write here.
  std::vector<std::string> bad_reads;
  ClusterOptions copts;
  copts.backend = ClusterBackend::kSim;
  copts.n_sites = sopts.n_sites;
  copts.db_size = sopts.db_size;
  copts.site.concurrency = sopts.concurrency;
  // Zero latency folds each protocol exchange onto one virtual instant, so
  // the front-time tie set is exactly the delivery nondeterminism.
  copts.transport.message_latency = 0;
  // The explorer owns invariant checking; the cluster's own enforcement
  // would MR_CHECK-abort instead of reporting.
  copts.check_invariants = false;
  std::unique_ptr<SimCluster> cluster = MakeSimCluster(copts);
  InvariantChecker checker(sopts.invariants);

  ExecutionOutcome out;
  size_t next_action = 0;
  while (true) {
    if (!bad_reads.empty()) {
      out.violations = std::move(bad_reads);
      return out;
    }
    std::vector<EventQueue::FrontEvent> events =
        cluster->runtime().RunnableEvents();
    const bool have_action = next_action < sopts.actions.size();
    if (events.empty()) {
      // Quiescent cut: every message delivered, no timer pending.
      for (const InvariantViolation& v :
           checker.Check(cluster->SnapshotSites())) {
        out.violations.push_back(v.ToString());
      }
      if (!out.violations.empty() || !have_action) return out;
    }
    const ScheduleAction* next =
        have_action ? &sopts.actions[next_action] : nullptr;
    std::vector<OptionKey> options;
    options.reserve(events.size() + 1);
    for (const EventQueue::FrontEvent& e : events) {
      options.push_back(OptionKey{false, e.id, e.site});
    }
    if (next != nullptr && (events.empty() || !next->serial)) {
      options.push_back(OptionKey{true, 0, kInvalidSite});
    }
    MR_CHECK(!options.empty());
    size_t pick = choose(options);
    if (pick == kAbortExecution) {
      out.aborted = true;
      return out;
    }
    MR_CHECK(pick < options.size());
    if (options.size() > 1) ++out.choice_points;
    if (options[pick].action) {
      Inject(*cluster, *next, &sopts.actions, &bad_reads);
      ++next_action;
    } else {
      cluster->runtime().RunEventById(options[pick].event);
    }
    ++out.steps;
  }
}

uint64_t ExecutionFingerprint(const std::vector<uint32_t>& picks,
                              const std::vector<uint32_t>& fanouts,
                              uint64_t steps) {
  std::string key;
  key.reserve(picks.size() * 8 + 8);
  auto append32 = [&key](uint32_t v) {
    for (int i = 0; i < 4; ++i) key.push_back(static_cast<char>(v >> (8 * i)));
  };
  for (size_t i = 0; i < picks.size(); ++i) {
    append32(picks[i]);
    append32(fanouts[i]);
  }
  append32(static_cast<uint32_t>(steps));
  append32(static_cast<uint32_t>(steps >> 32));
  return Mix(Fnv1a(key));
}

TxnSpec WriteTxn(TxnId id, ItemId item) {
  TxnSpec txn;
  txn.id = id;
  txn.ops.push_back(Operation::Write(item, WriteValueFor(id, item)));
  return txn;
}

TxnSpec ReadTxn(TxnId id, ItemId item) {
  TxnSpec txn;
  txn.id = id;
  txn.ops.push_back(Operation::Read(item));
  return txn;
}

}  // namespace

std::string CheckCommittedReads(const TxnResult& result,
                                const std::vector<ScheduleAction>& schedule) {
  if (result.outcome != TxnOutcome::kCommitted) return {};
  auto scenario_wrote = [&schedule](TxnId writer, ItemId item) {
    for (const ScheduleAction& action : schedule) {
      if (action.kind != ScheduleAction::Kind::kSubmit ||
          action.txn.id != writer) {
        continue;
      }
      for (const Operation& op : action.txn.ops) {
        if (!op.is_read() && op.item == item) return true;
      }
    }
    return false;
  };
  for (const ItemCopy& read : result.reads) {
    const bool initial = read.value == 0 && read.version == 0;
    const bool written = scenario_wrote(read.version, read.item) &&
                         read.value == WriteValueFor(read.version, read.item);
    if (!initial && !written) {
      return StrFormat(
          "read: txn %llu committed a read of item %u as value %lld at "
          "version %llu, which no scenario writer wrote",
          static_cast<unsigned long long>(result.txn), read.item,
          static_cast<long long>(read.value),
          static_cast<unsigned long long>(read.version));
    }
  }
  return {};
}

SystematicResult ExploreSystematic(const SystematicOptions& sopts) {
  struct Branch {
    std::vector<OptionKey> options;
    std::vector<char> explored;  ///< alternatives whose subtree is finished
    size_t taken = 0;
    /// Sleep set on first arrival: options covered by an earlier sibling of
    /// some ancestor; never taken here.
    std::vector<OptionKey> base_sleep;
  };
  std::vector<Branch> stack;
  SystematicResult result;

  while (true) {
    if (result.executions >= sopts.max_executions) {
      result.execution_bounded = true;
      break;
    }
    size_t cursor = 0;             // next recorded branch to follow
    std::vector<OptionKey> sleep;  // current sleep set along this execution
    std::vector<uint32_t> picks;
    std::vector<uint32_t> fanouts;

    auto choose = [&](const std::vector<OptionKey>& options) -> size_t {
      // Branches were recorded only at genuine choice points (>= 2 options
      // outside the sleep set), so the prefix-replay cursor must advance on
      // exactly the same condition. The sleep set evolves deterministically
      // along the common prefix, so `allowed` is recomputed identically.
      const bool replaying = cursor < stack.size();
      std::vector<size_t> allowed;
      allowed.reserve(options.size());
      for (size_t i = 0; i < options.size(); ++i) {
        if (sopts.sleep_sets && InSet(sleep, options[i])) {
          if (!replaying) ++result.sleep_skips;
          continue;
        }
        allowed.push_back(i);
      }
      if (allowed.empty()) return kAbortExecution;  // covered elsewhere
      size_t pick;
      if (replaying && allowed.size() >= 2) {
        Branch& b = stack[cursor];
        MR_CHECK(b.options == options)
            << "systematic explorer: options diverged at recorded branch "
            << cursor << " — replay is not deterministic";
        pick = b.taken;
        // Sleep set for the continuation: inherited members plus siblings
        // already fully explored, restricted to those that commute with the
        // transition being taken (a dependent step invalidates coverage).
        std::vector<OptionKey> next_sleep;
        for (const OptionKey& u : b.base_sleep) {
          if (Independent(u, options[pick])) next_sleep.push_back(u);
        }
        for (size_t j = 0; j < options.size(); ++j) {
          if (b.explored[j] && j != pick &&
              Independent(options[j], options[pick]) &&
              !InSet(next_sleep, options[j])) {
            next_sleep.push_back(options[j]);
          }
        }
        sleep = std::move(next_sleep);
        ++cursor;
      } else {
        pick = allowed[0];
        if (!replaying && allowed.size() >= 2) {
          if (stack.size() < sopts.max_branch_points) {
            Branch b;
            b.options = options;
            b.explored.assign(options.size(), 0);
            b.taken = pick;
            b.base_sleep = sleep;
            stack.push_back(std::move(b));
            ++cursor;
            ++result.branch_points;
          } else {
            result.branch_bounded = true;
          }
        }
        std::vector<OptionKey> next_sleep;
        for (const OptionKey& u : sleep) {
          if (Independent(u, options[pick])) next_sleep.push_back(u);
        }
        sleep = std::move(next_sleep);
      }
      if (options.size() > 1) {
        picks.push_back(static_cast<uint32_t>(pick));
        fanouts.push_back(static_cast<uint32_t>(options.size()));
      }
      return pick;
    };

    ExecutionOutcome exec = RunOneExecution(sopts, choose);
    ++result.executions;
    result.steps_total += exec.steps;
    result.max_choice_points =
        std::max(result.max_choice_points, exec.choice_points);
    result.fingerprint ^= ExecutionFingerprint(picks, fanouts, exec.steps);

    if (!exec.violations.empty()) {
      CheckTrace trace;
      trace.n_sites = sopts.n_sites;
      trace.db_size = sopts.db_size;
      trace.concurrency = sopts.concurrency;
      trace.actions = sopts.actions;
      trace.picks = std::move(picks);
      trace.fanouts = std::move(fanouts);
      trace.note = StrFormat("counterexample (execution %lu): %s",
                             static_cast<unsigned long>(result.executions),
                             exec.violations.front().c_str());
      result.counterexample = std::move(trace);
      result.violations = std::move(exec.violations);
      break;
    }
    MR_CHECK(cursor == stack.size())
        << "execution ended before traversing every recorded branch";

    // Backtrack: flip the deepest branch with an untried, non-sleeping
    // alternative; discard exhausted branches.
    bool advanced = false;
    while (!stack.empty()) {
      Branch& b = stack.back();
      b.explored[b.taken] = 1;
      size_t next = b.options.size();
      for (size_t j = b.taken + 1; j < b.options.size(); ++j) {
        if (b.explored[j]) continue;
        if (sopts.sleep_sets && InSet(b.base_sleep, b.options[j])) {
          ++result.sleep_skips;
          continue;
        }
        next = j;
        break;
      }
      if (next < b.options.size()) {
        b.taken = next;
        advanced = true;
        break;
      }
      stack.pop_back();
    }
    if (!advanced) break;  // state space exhausted within the bounds
  }
  return result;
}

ReplayOutcome ReplayTrace(const CheckTrace& trace,
                          const InvariantChecker::Options& invariants) {
  SystematicOptions sopts;
  sopts.n_sites = trace.n_sites;
  sopts.db_size = trace.db_size;
  sopts.concurrency = trace.concurrency;
  sopts.actions = trace.actions;
  sopts.invariants = invariants;

  ReplayOutcome out;
  size_t next_pick = 0;
  auto choose = [&](const std::vector<OptionKey>& options) -> size_t {
    if (options.size() <= 1) return 0;
    ++out.choice_points;
    if (next_pick >= trace.picks.size()) return 0;  // past the recorded prefix
    if (trace.fanouts[next_pick] != options.size()) {
      out.matched = false;
      out.mismatch = StrFormat(
          "choice point %zu: trace recorded fanout %u but live execution "
          "offers %zu options",
          next_pick, trace.fanouts[next_pick], options.size());
      return kAbortExecution;
    }
    return trace.picks[next_pick++];
  };

  ExecutionOutcome exec = RunOneExecution(sopts, choose);
  out.steps = exec.steps;
  if (out.matched && next_pick < trace.picks.size()) {
    out.matched = false;
    out.mismatch = StrFormat(
        "execution ended with %zu of %zu recorded picks unconsumed",
        trace.picks.size() - next_pick, trace.picks.size());
  }
  out.violations = std::move(exec.violations);
  return out;
}

CheckTrace RecordGoldenTrace(const SystematicOptions& sopts) {
  std::vector<uint32_t> picks;
  std::vector<uint32_t> fanouts;
  uint64_t index = 0;
  auto choose = [&](const std::vector<OptionKey>& options) -> size_t {
    size_t pick = 0;
    if (options.size() > 1) {
      // Pseudo-deterministic non-FIFO picks: exercises reordering without
      // any randomness (determinism is the whole point of the trace).
      pick = static_cast<size_t>((index * 7 + 3) % options.size());
      picks.push_back(static_cast<uint32_t>(pick));
      fanouts.push_back(static_cast<uint32_t>(options.size()));
      ++index;
    }
    return pick;
  };
  ExecutionOutcome exec = RunOneExecution(sopts, choose);
  CheckTrace trace;
  trace.n_sites = sopts.n_sites;
  trace.db_size = sopts.db_size;
  trace.concurrency = sopts.concurrency;
  trace.actions = sopts.actions;
  trace.picks = std::move(picks);
  trace.fanouts = std::move(fanouts);
  trace.note =
      exec.violations.empty()
          ? StrFormat("golden schedule, %lu steps",
                      static_cast<unsigned long>(exec.steps))
          : StrFormat("golden schedule, VIOLATES: %s",
                      exec.violations.front().c_str());
  return trace;
}

InvariantChecker::Options SystematicOracleOptions() {
  InvariantChecker::Options options;
  options.check_fail_lock_agreement = false;  // see the header for why
  return options;
}

std::vector<std::string_view> ScenarioNames() {
  return {"smoke",           "recovery-skew",  "recovery-window",
          "double-failure",  "interleaved-2pl", "read-only-2pl"};
}

std::optional<SystematicOptions> ScenarioByName(std::string_view name) {
  SystematicOptions s;
  s.n_sites = 3;
  s.db_size = 2;
  s.invariants = SystematicOracleOptions();
  if (name == "smoke") {
    // One failure/recovery cycle with concurrent traffic; small enough to
    // exhaust in CI.
    s.actions = {
        ScheduleAction::Submit(WriteTxn(1, 0), 0, /*serial=*/true),
        ScheduleAction::Fail(2, /*serial=*/true),
        ScheduleAction::Submit(WriteTxn(2, 0), 1),
        ScheduleAction::Recover(2),
        ScheduleAction::Submit(WriteTxn(3, 1), 0),
    };
    s.max_branch_points = 10;
    s.max_executions = 2000;
    return s;
  }
  if (name == "recovery-skew") {
    // Deterministic prefix: site 0 fails, one commit fail-locks its copies.
    // Free suffix: a commit racing the recovery announcements, so one
    // participant can run commit-time maintenance under a pre-announce view
    // while another already saw the announce.
    s.actions = {
        ScheduleAction::Fail(0, /*serial=*/true),
        ScheduleAction::Submit(WriteTxn(1, 0), 1, /*serial=*/true),
        ScheduleAction::Submit(WriteTxn(2, 0), 1, /*serial=*/true),
        ScheduleAction::Recover(0, /*serial=*/true),
        ScheduleAction::Submit(WriteTxn(3, 0), 1),
    };
    s.max_branch_points = 18;
    s.max_executions = 60000;
    return s;
  }
  if (name == "recovery-window") {
    // Site 0 recovers while responder 2 is down, holding the recovery open
    // until the ack timeout; the free commit lands inside that window, so
    // its fail-lock maintenance at site 0 races the completion merge.
    s.actions = {
        ScheduleAction::Fail(0, /*serial=*/true),
        ScheduleAction::Submit(WriteTxn(1, 0), 1, /*serial=*/true),
        ScheduleAction::Submit(WriteTxn(2, 0), 1, /*serial=*/true),
        ScheduleAction::Fail(2, /*serial=*/true),
        ScheduleAction::Submit(WriteTxn(3, 0), 1, /*serial=*/true),
        ScheduleAction::Recover(0, /*serial=*/true),
        ScheduleAction::Submit(WriteTxn(4, 0), 1),
    };
    s.max_branch_points = 18;
    s.max_executions = 60000;
    return s;
  }
  if (name == "interleaved-2pl") {
    // Intra-site concurrency: with site 2 down, two coordinations with
    // conflicting write sets overlap at coordinator 0 (per-item 2PL,
    // wait-die — no lock timers, so every cut quiesces). Each commit runs
    // fail-lock maintenance for the dead site's copies while the other
    // executor is mid-flight on the same engine, so the explorer covers
    // lock hand-off, wait-die rejection, and maintenance/executor
    // interleavings; the serial recovery then re-checks the column merge.
    s.concurrency.mode = ConcurrencyMode::kTwoPhaseLocking;
    s.concurrency.max_executors = 2;
    s.actions = {
        ScheduleAction::Submit(WriteTxn(1, 0), 0, /*serial=*/true),
        ScheduleAction::Fail(2, /*serial=*/true),
        ScheduleAction::Submit(WriteTxn(2, 0), 0),
        ScheduleAction::Submit(WriteTxn(3, 0), 0),
        ScheduleAction::Recover(2, /*serial=*/true),
    };
    // Exhausts at ~51k executions / ~45k branch nodes (a couple of seconds);
    // the bounds leave headroom so the run reports a genuine full sweep.
    s.max_branch_points = 32;
    s.max_executions = 80000;
    return s;
  }
  if (name == "read-only-2pl") {
    // Read-only transactions finish at phase one under 2PL. A read-only
    // transaction detects site 2's failure (prepare timeout, control type
    // 2, no Abort to send). Then a read-only transaction at site 1 is
    // injected at every point of an older conflicting write of item 0
    // coordinated by site 0: the write's prepare at site 1 waits for the
    // reader's shared lock, or the reader dies under wait-die, or it reads
    // before or after the write. The write always commits and fail-locks
    // site 2's copy, so after the recovery the last read runs a copier at
    // site 2. Every committed read must return a scenario writer's value
    // (CheckCommittedReads). Exhausts at ~11k executions; a second
    // overlapping reader would take it past a million.
    s.concurrency.mode = ConcurrencyMode::kTwoPhaseLocking;
    s.concurrency.max_executors = 2;
    s.actions = {
        ScheduleAction::Submit(WriteTxn(1, 0), 0, /*serial=*/true),
        ScheduleAction::Fail(2, /*serial=*/true),
        ScheduleAction::Submit(ReadTxn(2, 0), 1, /*serial=*/true),
        ScheduleAction::Submit(WriteTxn(3, 0), 0, /*serial=*/true),
        ScheduleAction::Submit(ReadTxn(4, 0), 1),
        ScheduleAction::Recover(2, /*serial=*/true),
        ScheduleAction::Submit(ReadTxn(5, 0), 2, /*serial=*/true),
    };
    s.max_branch_points = 32;
    s.max_executions = 80000;
    return s;
  }
  if (name == "double-failure") {
    // Failure and recovery themselves injected at arbitrary points into
    // running traffic.
    s.actions = {
        ScheduleAction::Submit(WriteTxn(1, 0), 0, /*serial=*/true),
        ScheduleAction::Fail(1),
        ScheduleAction::Submit(WriteTxn(2, 0), 0),
        ScheduleAction::Recover(1),
        ScheduleAction::Submit(WriteTxn(3, 1), 2),
    };
    s.max_branch_points = 12;
    s.max_executions = 20000;
    return s;
  }
  return std::nullopt;
}

}  // namespace miniraid::check
