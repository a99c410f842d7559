// minicheck: exhaustive protocol state-space checker for mini-RAID.
//
//   minicheck abstract [--sites N] [--items M] [--depth D] [--bug NAME]
//       bounded exhaustive BFS over the abstract protocol model
//   minicheck systematic --scenario NAME
//       systematic execution of the real Site code under a schedule
//   minicheck --replay FILE
//       byte-for-byte replay of a recorded trace, re-asserting invariants
//   minicheck --record-golden NAME --out FILE
//       record a golden schedule for a named scenario
//   minicheck --smoke
//       CI entry: abstract + systematic, each run twice, determinism
//       compared; summary JSON via --json
//   minicheck --list
//       list scenario names
//   minicheck --effect-vocab FILE
//       dump the abstract action -> handler/effect vocabulary as JSON
//       (the contract miniraid-analyze's effect golden is checked against)
//
// Exit codes: 0 clean, 1 property/invariant violation, 2 usage or
// determinism failure.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "check/abstract_model.h"
#include "check/systematic.h"
#include "check/trace_io.h"
#include "common/strings.h"

namespace miniraid::check {
namespace {

struct Args {
  std::vector<std::string> positional;
  std::string scenario;
  std::string replay_path;
  std::string golden_scenario;
  std::string out_path;
  std::string json_path;
  std::string bug;
  bool check_agreement = false;
  bool interleaved = false;
  uint32_t sites = 3;
  uint32_t items = 2;
  uint32_t depth = 12;
  uint64_t max_executions = 0;  // 0 = scenario default
  uint32_t branch_points = 0;   // 0 = scenario default
  bool no_symmetry = false;
  bool smoke = false;
  bool list = false;
  std::string effect_vocab_path;
  bool effect_vocab = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: minicheck abstract|systematic [options]\n"
               "       minicheck --replay FILE | --record-golden NAME --out "
               "FILE | --smoke | --list | --effect-vocab FILE\n"
               "options: --sites N --items M --depth D --interleaved --bug "
               "drop-window|skip-merge|narrow-clear|skip-prospective "
               "--scenario NAME\n"
               "         --max-executions N --branch-points N --no-symmetry "
               "--json FILE --out FILE\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--smoke") {
      args->smoke = true;
    } else if (a == "--list") {
      args->list = true;
    } else if (a == "--effect-vocab") {
      const char* v = next();
      if (!v) return false;
      args->effect_vocab = true;
      args->effect_vocab_path = v;
    } else if (a == "--no-symmetry") {
      args->no_symmetry = true;
    } else if (a == "--check-agreement") {
      args->check_agreement = true;
    } else if (a == "--interleaved") {
      args->interleaved = true;
    } else if (a == "--replay") {
      const char* v = next();
      if (!v) return false;
      args->replay_path = v;
    } else if (a == "--record-golden") {
      const char* v = next();
      if (!v) return false;
      args->golden_scenario = v;
    } else if (a == "--out") {
      const char* v = next();
      if (!v) return false;
      args->out_path = v;
    } else if (a == "--json") {
      const char* v = next();
      if (!v) return false;
      args->json_path = v;
    } else if (a == "--scenario") {
      const char* v = next();
      if (!v) return false;
      args->scenario = v;
    } else if (a == "--bug") {
      const char* v = next();
      if (!v) return false;
      args->bug = v;
    } else if (a == "--sites") {
      const char* v = next();
      if (!v) return false;
      args->sites = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--items") {
      const char* v = next();
      if (!v) return false;
      args->items = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--depth") {
      const char* v = next();
      if (!v) return false;
      args->depth = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--max-executions") {
      const char* v = next();
      if (!v) return false;
      args->max_executions = std::strtoull(v, nullptr, 10);
    } else if (a == "--branch-points") {
      const char* v = next();
      if (!v) return false;
      args->branch_points = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (!a.empty() && a[0] != '-') {
      args->positional.push_back(a);
    } else {
      return false;
    }
  }
  return true;
}

bool WriteFileOrStdout(const std::string& path, const std::string& body) {
  if (path.empty() || path == "-") {
    std::fputs(body.c_str(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << body;
  return static_cast<bool>(out);
}

std::string AbstractSummaryJson(const AbstractConfig& cfg,
                                const AbstractResult& r, bool deterministic) {
  std::string s = "{\n";
  s += StrFormat("  \"mode\": \"abstract\",\n  \"n_sites\": %u,\n", cfg.n_sites);
  s += StrFormat("  \"n_items\": %u,\n  \"max_depth\": %u,\n", cfg.n_items,
                 cfg.max_depth);
  s += StrFormat("  \"states_visited\": %llu,\n",
                 static_cast<unsigned long long>(r.states_visited));
  s += StrFormat("  \"states_expanded\": %llu,\n",
                 static_cast<unsigned long long>(r.states_expanded));
  s += StrFormat("  \"transitions\": %llu,\n",
                 static_cast<unsigned long long>(r.transitions));
  s += StrFormat("  \"symmetry_hits\": %llu,\n",
                 static_cast<unsigned long long>(r.symmetry_hits));
  s += StrFormat("  \"max_depth_reached\": %u,\n", r.max_depth_reached);
  s += StrFormat("  \"depth_bounded\": %s,\n",
                 r.depth_bounded ? "true" : "false");
  s += StrFormat("  \"fingerprint\": \"%016llx\",\n",
                 static_cast<unsigned long long>(r.fingerprint));
  s += StrFormat("  \"deterministic\": %s,\n", deterministic ? "true" : "false");
  s += StrFormat("  \"violations\": %d\n}\n", r.violation ? 1 : 0);
  return s;
}

std::string SystematicSummaryJson(const SystematicResult& r,
                                  bool deterministic) {
  std::string s = "{\n  \"mode\": \"systematic\",\n";
  s += StrFormat("  \"executions\": %llu,\n",
                 static_cast<unsigned long long>(r.executions));
  s += StrFormat("  \"steps_total\": %llu,\n",
                 static_cast<unsigned long long>(r.steps_total));
  s += StrFormat("  \"branch_points\": %llu,\n",
                 static_cast<unsigned long long>(r.branch_points));
  s += StrFormat("  \"sleep_skips\": %llu,\n",
                 static_cast<unsigned long long>(r.sleep_skips));
  s += StrFormat("  \"max_choice_points\": %u,\n", r.max_choice_points);
  s += StrFormat("  \"execution_bounded\": %s,\n",
                 r.execution_bounded ? "true" : "false");
  s += StrFormat("  \"branch_bounded\": %s,\n",
                 r.branch_bounded ? "true" : "false");
  s += StrFormat("  \"fingerprint\": \"%016llx\",\n",
                 static_cast<unsigned long long>(r.fingerprint));
  s += StrFormat("  \"deterministic\": %s,\n", deterministic ? "true" : "false");
  s += StrFormat("  \"violations\": %zu\n}\n", r.violations.size());
  return s;
}

void PrintAbstractViolation(const AbstractViolation& v) {
  std::printf("VIOLATION: %s\n  %s\n  path (%zu actions):\n",
              std::string(AbstractPropertyName(v.property)).c_str(),
              v.detail.c_str(), v.path.size());
  for (const AbstractAction& a : v.path) {
    std::printf("    %s\n", a.ToString().c_str());
  }
  std::printf("  state:\n%s", v.state.c_str());
}

AbstractConfig AbstractConfigFromArgs(const Args& args) {
  AbstractConfig cfg;
  cfg.n_sites = args.sites;
  cfg.n_items = args.items;
  cfg.max_depth = args.depth;
  cfg.canonicalize = !args.no_symmetry;
  cfg.drop_recovery_window_updates = args.bug == "drop-window";
  cfg.skip_prepare_view_merge = args.bug == "skip-merge";
  cfg.narrow_clear_broadcast = args.bug == "narrow-clear";
  cfg.skip_prospective_faillocks = args.bug == "skip-prospective";
  // The prospective-fail-lock bug only exists when prepare and commit are
  // separate steps, so the toggle implies the interleaved transition set.
  cfg.interleaved_commits = args.interleaved || cfg.skip_prospective_faillocks;
  cfg.check_lock_agreement = args.check_agreement;
  return cfg;
}

int RunAbstract(const Args& args) {
  if (!args.bug.empty() && args.bug != "drop-window" &&
      args.bug != "skip-merge" && args.bug != "narrow-clear" &&
      args.bug != "skip-prospective") {
    std::fprintf(stderr, "unknown --bug %s\n", args.bug.c_str());
    return 2;
  }
  AbstractConfig cfg = AbstractConfigFromArgs(args);
  AbstractResult r = ExploreAbstract(cfg);
  std::printf(
      "abstract: %llu states (%llu expanded), %llu transitions, "
      "%llu symmetry hits, depth %u%s, fingerprint %016llx\n",
      static_cast<unsigned long long>(r.states_visited),
      static_cast<unsigned long long>(r.states_expanded),
      static_cast<unsigned long long>(r.transitions),
      static_cast<unsigned long long>(r.symmetry_hits), r.max_depth_reached,
      r.depth_bounded ? " (depth-bounded)" : "",
      static_cast<unsigned long long>(r.fingerprint));
  if (!args.json_path.empty()) {
    WriteFileOrStdout(args.json_path, AbstractSummaryJson(cfg, r, true));
  }
  if (r.violation) {
    PrintAbstractViolation(*r.violation);
    return 1;
  }
  std::printf("no violation\n");
  return 0;
}

int RunSystematic(const Args& args) {
  std::string name = args.scenario.empty() ? "smoke" : args.scenario;
  std::optional<SystematicOptions> opts = ScenarioByName(name);
  if (!opts) {
    std::fprintf(stderr, "unknown scenario %s (try --list)\n", name.c_str());
    return 2;
  }
  if (args.max_executions) opts->max_executions = args.max_executions;
  if (args.branch_points) opts->max_branch_points = args.branch_points;
  SystematicResult r = ExploreSystematic(*opts);
  std::printf(
      "systematic[%s]: %llu executions, %llu steps, %llu branch points, "
      "%llu sleep skips%s%s, fingerprint %016llx\n",
      name.c_str(), static_cast<unsigned long long>(r.executions),
      static_cast<unsigned long long>(r.steps_total),
      static_cast<unsigned long long>(r.branch_points),
      static_cast<unsigned long long>(r.sleep_skips),
      r.execution_bounded ? " (execution-bounded)" : "",
      r.branch_bounded ? " (branch-bounded)" : "",
      static_cast<unsigned long long>(r.fingerprint));
  if (!args.json_path.empty()) {
    WriteFileOrStdout(args.json_path, SystematicSummaryJson(r, true));
  }
  if (r.counterexample) {
    std::printf("VIOLATION:\n");
    for (const std::string& v : r.violations) {
      std::printf("  %s\n", v.c_str());
    }
    std::string path = args.out_path.empty() ? name + ".counterexample.json"
                                             : args.out_path;
    Status st = WriteTraceFile(path, *r.counterexample);
    if (st.ok()) {
      std::printf("counterexample trace written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace: %s\n",
                   st.ToString().c_str());
    }
    return 1;
  }
  std::printf("no violation\n");
  return 0;
}

int RunReplay(const Args& args) {
  Result<CheckTrace> trace = ReadTraceFile(args.replay_path);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
    return 2;
  }
  ReplayOutcome out = ReplayTrace(*trace, SystematicOracleOptions());
  std::printf("replay[%s]: %llu steps, %u choice points, %s\n",
              args.replay_path.c_str(),
              static_cast<unsigned long long>(out.steps), out.choice_points,
              out.matched ? "matched" : "DIVERGED");
  if (!out.matched) {
    std::printf("  %s\n", out.mismatch.c_str());
    return 2;
  }
  if (!out.violations.empty()) {
    std::printf("VIOLATION:\n");
    for (const std::string& v : out.violations) {
      std::printf("  %s\n", v.c_str());
    }
    return 1;
  }
  std::printf("no violation\n");
  return 0;
}

int RunRecordGolden(const Args& args) {
  std::optional<SystematicOptions> opts = ScenarioByName(args.golden_scenario);
  if (!opts) {
    std::fprintf(stderr, "unknown scenario %s (try --list)\n",
                 args.golden_scenario.c_str());
    return 2;
  }
  CheckTrace trace = RecordGoldenTrace(*opts);
  trace.note = StrFormat("golden schedule for scenario \"%s\"; %s",
                         args.golden_scenario.c_str(), trace.note.c_str());
  std::string body = TraceToJson(trace);
  if (!WriteFileOrStdout(args.out_path, body)) {
    std::fprintf(stderr, "cannot write %s\n", args.out_path.c_str());
    return 2;
  }
  return 0;
}

int RunSmoke(const Args& args) {
  // Abstract model, default 3 sites x 2 items, run twice: the second run
  // must reproduce the first bit for bit (state count and fingerprint).
  AbstractConfig cfg = AbstractConfigFromArgs(args);
  AbstractResult a1 = ExploreAbstract(cfg);
  AbstractResult a2 = ExploreAbstract(cfg);
  bool abstract_deterministic = a1.states_visited == a2.states_visited &&
                                a1.transitions == a2.transitions &&
                                a1.fingerprint == a2.fingerprint;
  std::printf(
      "abstract: %llu states, %llu transitions, depth %u%s, fingerprint "
      "%016llx, deterministic=%s\n",
      static_cast<unsigned long long>(a1.states_visited),
      static_cast<unsigned long long>(a1.transitions), a1.max_depth_reached,
      a1.depth_bounded ? " (depth-bounded)" : "",
      static_cast<unsigned long long>(a1.fingerprint),
      abstract_deterministic ? "true" : "false");

  std::optional<SystematicOptions> scen = ScenarioByName("smoke");
  SystematicResult s1 = ExploreSystematic(*scen);
  SystematicResult s2 = ExploreSystematic(*scen);
  bool systematic_deterministic = s1.executions == s2.executions &&
                                  s1.steps_total == s2.steps_total &&
                                  s1.fingerprint == s2.fingerprint;
  std::printf(
      "systematic[smoke]: %llu executions, %llu steps, fingerprint %016llx, "
      "deterministic=%s\n",
      static_cast<unsigned long long>(s1.executions),
      static_cast<unsigned long long>(s1.steps_total),
      static_cast<unsigned long long>(s1.fingerprint),
      systematic_deterministic ? "true" : "false");

  if (!args.json_path.empty()) {
    std::string body = "{\n  \"abstract\": ";
    std::string a = AbstractSummaryJson(cfg, a1, abstract_deterministic);
    std::string s = SystematicSummaryJson(s1, systematic_deterministic);
    // Indent the nested objects by two spaces for readability.
    body += a.substr(0, a.size() - 1);
    body += ",\n  \"systematic\": ";
    body += s.substr(0, s.size() - 1);
    body += "\n}\n";
    WriteFileOrStdout(args.json_path, body);
  }

  if (a1.violation) {
    PrintAbstractViolation(*a1.violation);
    return 1;
  }
  if (s1.counterexample) {
    std::printf("VIOLATION:\n");
    for (const std::string& v : s1.violations) {
      std::printf("  %s\n", v.c_str());
    }
    return 1;
  }
  if (!abstract_deterministic || !systematic_deterministic) {
    std::fprintf(stderr, "determinism check FAILED\n");
    return 2;
  }
  std::printf("smoke: clean and deterministic\n");
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (args.list) {
    for (std::string_view name : ScenarioNames()) {
      std::printf("%s\n", std::string(name).c_str());
    }
    return 0;
  }
  if (args.effect_vocab) {
    std::string body = "{\n";
    const auto& vocab = AbstractActionVocabulary();
    for (size_t i = 0; i < vocab.size(); ++i) {
      const ActionEffectVocabulary& v = vocab[i];
      body += StrFormat("  \"%s\": {\"handlers\": [",
                        std::string(v.name).c_str());
      for (size_t j = 0; j < v.handlers.size(); ++j) {
        body += StrFormat("%s\"%s\"", j ? ", " : "",
                          std::string(v.handlers[j]).c_str());
      }
      body += "], \"effects\": [";
      for (size_t j = 0; j < v.effects.size(); ++j) {
        body += StrFormat("%s\"%s\"", j ? ", " : "",
                          std::string(v.effects[j]).c_str());
      }
      body += StrFormat("]}%s\n", i + 1 < vocab.size() ? "," : "");
    }
    body += "}\n";
    if (!WriteFileOrStdout(args.effect_vocab_path, body)) {
      std::fprintf(stderr, "minicheck: cannot write %s\n",
                   args.effect_vocab_path.c_str());
      return 2;
    }
    return 0;
  }
  if (args.smoke) return RunSmoke(args);
  if (!args.replay_path.empty()) return RunReplay(args);
  if (!args.golden_scenario.empty()) return RunRecordGolden(args);
  if (args.positional.size() == 1 && args.positional[0] == "abstract") {
    return RunAbstract(args);
  }
  if (args.positional.size() == 1 && args.positional[0] == "systematic") {
    return RunSystematic(args);
  }
  return Usage();
}

}  // namespace
}  // namespace miniraid::check

int main(int argc, char** argv) { return miniraid::check::Main(argc, argv); }
