// Protocol-effect pass: effect summaries per MsgType handler.
//
// The dispatcher (`Site::OnMessage`) switches on MsgType; each case region is
// a protocol handler. Its effect summary is the union of effect tokens
// produced by the region's calls and everything they reach synchronously
// (call-graph closure via ResolveCallTargets). Lambda bodies are excluded on
// both sides: a timer continuation or posted closure is a *future* step of
// the protocol, not part of the handler's synchronous effect.
//
// Effect vocabulary (mirrors src/check/abstract_model.cc's action alphabet;
// see AbstractActionVocabulary() and the consistency test in
// tests/check_abstract_test.cc):
//
//   send:<kEnumerator>   a payload of that MsgType is transmitted (SendTo;
//                        payload classified from the last argument's type,
//                        through std::move and braced construction)
//   faillock.*           FailLockTable mutations (set / clear / merge)
//   session.*            SessionVector writes (set / mark_down / mark_up /
//                        merge)
//   lockmgr.*            item-lock manager ops (acquire / release)
//   outcome.record       transaction-outcome cache writes
//
// The computed map is diffed against a checked-in golden
// (tools/miniraid-analyze/effects_golden.txt); any drift — a handler gaining
// or losing an effect class, appearing, or disappearing — is a
// "protocol-effect" finding, so implementation drift from the verified
// abstract model fails the build instead of surfacing as a checker-smoke
// surprise.

#include <algorithm>
#include <sstream>

#include "analyzer.h"

namespace miniraid {
namespace analyze {

namespace {

// Effect tokens a single call produces, ignoring the call graph.
void DirectEffects(const Model& m, const CheckOptions& opts,
                   const CallSite& c, std::set<std::string>* out) {
  if (c.callee == opts.send_function && !opts.send_function.empty()) {
    std::string payload = m.ResolveAlias(c.last_arg_type);
    std::string enumerator;
    auto alias = opts.codec_aliases.find(payload);
    if (alias != opts.codec_aliases.end()) {
      enumerator = alias->second;
    } else if (payload.size() > 4 &&
               payload.compare(payload.size() - 4, 4, "Args") == 0) {
      enumerator = "k";
      enumerator.append(payload, 0, payload.size() - 4);
    }
    out->insert(enumerator.empty() ? "send:?" : "send:" + enumerator);
    return;
  }
  if (!c.is_member || c.receiver_type.empty()) return;
  std::string recv = m.ResolveAlias(c.receiver_type);
  for (const EffectRule& rule : opts.effect_rules) {
    if (rule.method != c.callee) continue;
    const std::string& target =
        rule.receiver.empty() ? opts.effect_class : rule.receiver;
    if (m.DerivesFrom(recv, target)) out->insert(rule.effect);
  }
}

struct EffectPass {
  const Model& m;
  const CheckOptions& opts;
  std::vector<std::set<std::string>> summaries;  // per function index

  void ComputeSummaries() {
    size_t n = m.functions.size();
    summaries.assign(n, {});
    for (size_t i = 0; i < n; ++i) {
      for (const CallSite& c : m.functions[i].calls) {
        if (c.in_lambda) continue;
        DirectEffects(m, opts, c, &summaries[i]);
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < n; ++i) {
        for (const CallSite& c : m.functions[i].calls) {
          if (c.in_lambda) continue;
          if (c.callee == opts.send_function) continue;  // already counted
          for (int t : ResolveCallTargets(m, c)) {
            for (const std::string& e : summaries[t]) {
              if (summaries[i].insert(e).second) changed = true;
            }
          }
        }
      }
    }
  }

  EffectMap Build() {
    EffectMap map;
    ComputeSummaries();
    const FunctionInfo* dispatcher = nullptr;
    for (const FunctionInfo& fn : m.functions) {
      if (fn.cls == opts.effect_class && fn.name == opts.dispatch_function) {
        dispatcher = &fn;
        break;
      }
    }
    if (dispatcher == nullptr) return map;
    map.file = dispatcher->file;
    map.line = dispatcher->line;

    for (const SwitchInfo& sw : dispatcher->switches) {
      std::vector<CaseLabel> labels;
      for (const CaseLabel& c : sw.cases) {
        if (opts.dispatch_enum.empty() ||
            c.enum_qual == opts.dispatch_enum) {
          labels.push_back(c);
        }
      }
      if (labels.empty()) continue;
      std::sort(labels.begin(), labels.end(),
                [](const CaseLabel& a, const CaseLabel& b) {
                  return a.tok < b.tok;
                });
      for (const CaseLabel& label : labels) {
        map.handlers[label.enumerator];  // ensure pure handlers appear
        map.handler_lines[label.enumerator] = label.line;
      }
      for (const CallSite& call : dispatcher->calls) {
        if (call.in_lambda) continue;
        // Attribute the call to the case region containing it: the last
        // case label before it in token order.
        const CaseLabel* owner = nullptr;
        for (const CaseLabel& label : labels) {
          if (label.tok < call.tok) {
            owner = &label;
          } else {
            break;
          }
        }
        if (owner == nullptr) continue;
        std::set<std::string>* effects = &map.handlers[owner->enumerator];
        DirectEffects(m, opts, call, effects);
        if (call.callee != opts.send_function) {
          for (int t : ResolveCallTargets(m, call)) {
            effects->insert(summaries[t].begin(), summaries[t].end());
          }
        }
      }
    }
    return map;
  }
};

}  // namespace

EffectMap BuildEffectMap(const Model& model, const CheckOptions& opts) {
  EffectPass pass{model, opts, {}};
  return pass.Build();
}

// The comment block the golden opens with. FormatEffectMap writes it, so
// `--effects out.txt` regenerates the golden byte for byte.
constexpr char kEffectGoldenHeader[] =
    R"(# Protocol-effect golden: the approved per-handler effect summary of
# Site::OnMessage (src/replication/site.cc), as computed by
# `miniraid-analyze --effects-golden` (see docs/ANALYSIS.md §8).
#
# Each line is `<MsgType enumerator>: <effect tokens>` ("-" = pure handler).
# Effects are the synchronous call-graph closure of the dispatch case:
# posted closures, timer continuations, and lock-grant callbacks are future
# protocol steps and deliberately excluded.
#
# The vocabulary mirrors the abstract model's action alphabet
# (src/check/abstract_model.cc, AbstractActionVocabulary()):
#   send:<k*>        message transmission       (abstract transition labels)
#   faillock.*       fail-lock table mutation   (kCommit / kEndRecovery /
#                                                kRefresh bookkeeping)
#   session.*        session-vector write       (kDetectFailure /
#                                                kBeginRecovery / kEndRecovery)
#   lockmgr.*        item-lock manager op       (kBeginCommit / kEndCommit)
#   outcome.record   transaction-outcome cache  (kCommit decision durability)
#
# Intentional drift fails CI ("protocol-effect" findings): update this file
# AND re-justify the change against the abstract model in src/check.
#
# Handler closures are wide by design: any handler that can complete a
# transaction (ReplyAndClear) also drains the queued-request path, so it
# inherits the coordinator effects (send:kPrepare, lockmgr.acquire, ...).

)";

std::string FormatEffectMap(const EffectMap& map) {
  std::ostringstream os;
  os << kEffectGoldenHeader;
  for (const auto& kv : map.handlers) {
    os << kv.first << ":";
    if (kv.second.empty()) {
      os << " -";
    } else {
      for (const std::string& e : kv.second) os << " " << e;
    }
    os << "\n";
  }
  return os.str();
}

std::map<std::string, std::set<std::string>> ParseEffectGolden(
    const std::string& text) {
  std::map<std::string, std::set<std::string>> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    name.erase(0, name.find_first_not_of(" \t"));
    name.erase(name.find_last_not_of(" \t") + 1);
    if (name.empty()) continue;
    std::set<std::string>& effects = out[name];
    std::istringstream rest(line.substr(colon + 1));
    std::string tok;
    while (rest >> tok) {
      if (tok != "-") effects.insert(tok);
    }
  }
  return out;
}

void DiffEffectsAgainstGolden(const EffectMap& map, const std::string& golden,
                              std::vector<Finding>* findings) {
  std::map<std::string, std::set<std::string>> want =
      ParseEffectGolden(golden);
  auto at = [&map](const std::string& handler) {
    auto it = map.handler_lines.find(handler);
    return it != map.handler_lines.end() ? it->second : map.line;
  };
  for (const auto& kv : map.handlers) {
    auto wit = want.find(kv.first);
    if (wit == want.end()) {
      Finding f;
      f.rule = "protocol-effect";
      f.file = map.file;
      f.line = at(kv.first);
      f.message = "handler " + kv.first +
                  " is not in the effect golden — new protocol step? update "
                  "effects_golden.txt and the abstract model";
      findings->push_back(std::move(f));
      continue;
    }
    std::set<std::string> missing, unexpected;
    for (const std::string& e : wit->second) {
      if (!kv.second.count(e)) missing.insert(e);
    }
    for (const std::string& e : kv.second) {
      if (!wit->second.count(e)) unexpected.insert(e);
    }
    if (missing.empty() && unexpected.empty()) continue;
    std::ostringstream msg;
    msg << "handler " << kv.first << " drifts from the effect golden:";
    if (!unexpected.empty()) {
      msg << " gained {";
      bool sep = false;
      for (const std::string& e : unexpected) {
        if (sep) msg << ", ";
        msg << e;
        sep = true;
      }
      msg << "}";
    }
    if (!missing.empty()) {
      msg << " lost {";
      bool sep = false;
      for (const std::string& e : missing) {
        if (sep) msg << ", ";
        msg << e;
        sep = true;
      }
      msg << "}";
    }
    Finding f;
    f.rule = "protocol-effect";
    f.file = map.file;
    f.line = at(kv.first);
    f.message = msg.str();
    findings->push_back(std::move(f));
  }
  for (const auto& kv : want) {
    if (map.handlers.count(kv.first)) continue;
    Finding f;
    f.rule = "protocol-effect";
    f.file = map.file;
    f.line = map.line;
    f.message = "handler " + kv.first +
                " is in the effect golden but has no dispatch case";
    findings->push_back(std::move(f));
  }
}

}  // namespace analyze
}  // namespace miniraid
