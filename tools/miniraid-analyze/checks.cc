// The model checks. All of them consume the Model built by the indexer:
//
//   cross-context-call  - call-graph reachability from every MR_RUNS_ON
//                         entry point; a root confined to one context must
//                         never reach a function confined to another
//                         (MR_RUNS_ON(any) callees are always permitted,
//                         annotated callees re-anchor the search).
//   context-coverage    - every public method of a class that annotates at
//                         least one method must itself be annotated, so the
//                         call-graph pass has no blind entry points.
//   blocking-call       - no sleep / blocking syscall (socket calls, poll,
//                         select, the epoll waits) / CondVar::Wait is
//                         reachable from a managing-, loop-, or any-context
//                         entry point.
//   fail-lock-mutation  - FailLockTable mutators called outside the owning
//   session-mutation      module (receiver types resolved through aliases,
//                         references, fields, and accessor chains).
//   msg-dispatch        - switches over MsgType without a default cover
//                         every enumerator, and every enumerator is handled
//                         by some OnMessage dispatch switch.

#include <algorithm>
#include <sstream>

#include "analyzer.h"

namespace miniraid {
namespace analyze {

namespace {

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string Join(const std::set<std::string>& items, const char* sep) {
  std::string out;
  for (const auto& s : items) {
    if (!out.empty()) out += sep;
    out += s;
  }
  return out;
}

// Returns the text of the last top-level argument of the call whose callee
// identifier is at `tok` (the mutex a CondVar wait releases, the value a
// container insert stores). Empty if the argument is not a lone identifier.
std::string LastArg(const SourceFile& file, size_t tok) {
  const std::vector<Token>& t = file.tokens;
  size_t open = tok + 1;
  if (open >= t.size() || t[open].text != "(") return "";
  int depth = 0;
  size_t last_start = open + 1;
  size_t close = open;
  for (size_t i = open; i < t.size(); ++i) {
    const std::string& x = t[i].text;
    if (x == "(" || x == "[" || x == "{") {
      ++depth;
    } else if (x == ")" || x == "]" || x == "}") {
      if (--depth == 0) {
        close = i;
        break;
      }
    } else if (x == "," && depth == 1) {
      last_start = i + 1;
    }
  }
  if (close <= last_start) return "";
  if (close - last_start == 1 && t[last_start].kind == Token::kIdent) {
    return t[last_start].text;
  }
  return "";
}

class Checker {
 public:
  Checker(const Model& m, const CheckOptions& opts) : m_(m), opts_(opts) {}

  std::vector<Finding> Run() {
    CheckCrossContext();
    CheckCoverage();
    CheckBlocking();
    CheckOwnership();
    CheckDispatch();
    std::sort(findings_.begin(), findings_.end());
    return std::move(findings_);
  }

 private:
  const FunctionInfo& Fn(int i) const { return m_.functions[i]; }

  void Report(const std::string& rule, const std::string& file, int line,
              const std::string& message) {
    std::ostringstream key;
    key << rule << '|' << file << '|' << line << '|' << message;
    if (!reported_.insert(key.str()).second) return;
    Finding f;
    f.rule = rule;
    f.file = file;
    f.line = line;
    f.message = message;
    findings_.push_back(std::move(f));
  }

  std::string FileOf(const CallSite& c) const {
    return c.file_index >= 0 ? m_.files[c.file_index].path : "";
  }

  std::vector<int> Targets(const CallSite& c) const {
    return ResolveCallTargets(m_, c);
  }

  // ---------------- cross-context-call ----------------
  void CheckCrossContext() {
    for (size_t r = 0; r < m_.functions.size(); ++r) {
      const FunctionInfo& root = Fn(static_cast<int>(r));
      if (root.ctx == Ctx::kNone) continue;
      std::set<int> visited;
      std::vector<int> stack{static_cast<int>(r)};
      visited.insert(static_cast<int>(r));
      while (!stack.empty()) {
        const FunctionInfo& fn = Fn(stack.back());
        stack.pop_back();
        for (const CallSite& call : fn.calls) {
          // Lambda bodies are separate execution scopes: the Post /
          // PostAndWait marshalling idiom moves them to another context by
          // design, so the confinement pass does not follow them.
          if (call.in_lambda) continue;
          for (int t : Targets(call)) {
            const FunctionInfo& callee = Fn(t);
            if (callee.ctx != Ctx::kNone) {
              if (callee.ctx != Ctx::kAny && callee.ctx != root.ctx) {
                std::ostringstream msg;
                msg << "'" << root.qual() << "' runs on the "
                    << CtxName(root.ctx) << " context but ";
                if (&fn != &root) msg << "transitively (via '" << fn.qual()
                                      << "') ";
                msg << "calls '" << callee.qual() << "', which is confined to "
                    << "the " << CtxName(callee.ctx) << " context";
                Report("cross-context-call", FileOf(call), call.line,
                       msg.str());
              }
              continue;  // annotated callee re-anchors the search
            }
            if (callee.is_defn && visited.insert(t).second) stack.push_back(t);
          }
        }
      }
    }
  }

  // ---------------- context-coverage ----------------
  void CheckCoverage() {
    std::set<std::string> aware;
    for (const FunctionInfo& fn : m_.functions) {
      if (!fn.cls.empty() && fn.ctx != Ctx::kNone && !fn.ctx_inherited) {
        aware.insert(fn.cls);
      }
    }
    for (const FunctionInfo& fn : m_.functions) {
      if (fn.cls.empty() || !aware.count(fn.cls)) continue;
      if (!fn.is_public || fn.is_ctor_dtor || fn.is_operator) continue;
      if (fn.ctx != Ctx::kNone) continue;
      Report("context-coverage", fn.file, fn.line,
             "public method '" + fn.qual() + "' of context-annotated class '" +
                 fn.cls + "' lacks an MR_RUNS_ON annotation");
    }
  }

  // ---------------- blocking-call ----------------
  bool IsBlocking(const CallSite& c) const {
    if (c.is_member) {
      if (c.receiver_type.empty()) return false;
      auto it = opts_.blocking_members.find(m_.ResolveAlias(c.receiver_type));
      return it != opts_.blocking_members.end() && it->second.count(c.callee);
    }
    return opts_.blocking_free.count(c.callee) > 0;
  }

  void CheckBlocking() {
    for (size_t r = 0; r < m_.functions.size(); ++r) {
      const FunctionInfo& root = Fn(static_cast<int>(r));
      if (root.ctx != Ctx::kManaging && root.ctx != Ctx::kLoop &&
          root.ctx != Ctx::kAny) {
        continue;
      }
      std::set<int> visited;
      std::vector<int> stack{static_cast<int>(r)};
      visited.insert(static_cast<int>(r));
      while (!stack.empty()) {
        const FunctionInfo& fn = Fn(stack.back());
        stack.pop_back();
        // The blocking pass *does* follow lambda bodies: a lambda created on
        // a loop thread (timer callbacks, deferred work) runs on that loop.
        for (const CallSite& call : fn.calls) {
          if (IsBlocking(call)) {
            std::ostringstream msg;
            msg << "blocking call '" << call.callee << "' is reachable from "
                << CtxName(root.ctx) << "-context entry '" << root.qual()
                << "'";
            if (&fn != &root) msg << " via '" << fn.qual() << "'";
            Report("blocking-call", FileOf(call), call.line, msg.str());
            continue;
          }
          for (int t : Targets(call)) {
            const FunctionInfo& callee = Fn(t);
            if (callee.ctx != Ctx::kNone) continue;  // re-anchored elsewhere
            if (callee.is_defn && visited.insert(t).second) stack.push_back(t);
          }
        }
      }
    }
  }

  // ---------------- fail-lock-mutation / session-mutation ----------------
  void CheckOwnership() {
    for (const FunctionInfo& fn : m_.functions) {
      for (const CallSite& call : fn.calls) {
        if (!call.is_member || call.receiver_type.empty()) continue;
        std::string recv = m_.ResolveAlias(call.receiver_type);
        for (const OwnershipRule& rule : opts_.ownership) {
          if (!rule.mutators.count(call.callee)) continue;
          if (!m_.DerivesFrom(recv, rule.receiver)) continue;
          std::string file = FileOf(call);
          if (rule.home_basenames.count(Basename(file))) continue;
          Report(rule.rule, file, call.line,
                 "'" + rule.receiver + "::" + call.callee +
                     "' mutates protocol state owned by the Site engine "
                     "(allowed only in: " +
                     Join(rule.home_basenames, ", ") + ")");
        }
      }
    }
  }

  // ---------------- msg-dispatch ----------------
  void CheckDispatch() {
    if (opts_.dispatch_enum.empty()) return;
    const EnumInfo* target = nullptr;
    for (const EnumInfo& e : m_.enums) {
      if (e.name == opts_.dispatch_enum) {
        if (target != nullptr) return;  // ambiguous: bail out
        target = &e;
      }
    }
    if (target == nullptr) return;
    std::set<std::string> all(target->enumerators.begin(),
                              target->enumerators.end());
    std::set<std::string> handled;
    for (const FunctionInfo& fn : m_.functions) {
      for (const SwitchInfo& sw : fn.switches) {
        std::set<std::string> cases;
        bool relevant = false;
        for (const CaseLabel& c : sw.cases) {
          if (c.enum_qual == opts_.dispatch_enum) {
            relevant = true;
            cases.insert(c.enumerator);
          }
        }
        if (!relevant) continue;
        if (fn.name == opts_.dispatch_function) {
          handled.insert(cases.begin(), cases.end());
        }
        if (sw.has_default) continue;
        std::set<std::string> missing;
        for (const std::string& e : all) {
          if (!cases.count(e)) missing.insert(e);
        }
        if (!missing.empty()) {
          Report("msg-dispatch",
                 sw.file_index >= 0 ? m_.files[sw.file_index].path : fn.file,
                 sw.line,
                 "switch on " + opts_.dispatch_enum + " in '" + fn.qual() +
                     "' has no default and does not handle: " +
                     Join(missing, ", "));
        }
      }
    }
    for (const std::string& e : all) {
      if (!handled.count(e)) {
        Report("msg-dispatch", target->file, target->line,
               opts_.dispatch_enum + "::" + e + " is not handled by any '" +
                   opts_.dispatch_function + "' dispatch switch");
      }
    }
  }

  const Model& m_;
  const CheckOptions& opts_;
  std::set<std::string> reported_;
  std::vector<Finding> findings_;
};

}  // namespace

// Call targets. An annotated method found through the receiver type is a
// contract: no virtual fan-out. An unannotated method fans out to every
// derived override so indirect dispatch is not a blind spot.
std::vector<int> ResolveCallTargets(const Model& m, const CallSite& c) {
  std::vector<int> out;
  if (c.is_member) {
    if (c.receiver_type.empty()) return out;
    std::string recv = m.ResolveAlias(c.receiver_type);
    int idx = m.FindMethod(recv, c.callee);
    if (idx < 0) return out;
    out.push_back(idx);
    if (m.functions[idx].ctx == Ctx::kNone) {
      const std::string& owner = m.functions[idx].cls;
      auto it = m.by_name.find(c.callee);
      if (it != m.by_name.end()) {
        for (int cand : it->second) {
          if (cand == idx || m.functions[cand].cls.empty()) continue;
          if (m.DerivesFrom(m.functions[cand].cls, owner)) out.push_back(cand);
        }
      }
    }
    return out;
  }
  auto it = m.by_name.find(c.callee);
  if (it != m.by_name.end()) {
    for (int cand : it->second) {
      if (m.functions[cand].cls.empty()) out.push_back(cand);
    }
  }
  return out;
}

std::string CallLastIdentArg(const Model& m, const CallSite& c) {
  return c.file_index >= 0 ? LastArg(m.files[c.file_index], c.tok) : "";
}

CheckOptions CheckOptions::Defaults() {
  CheckOptions opts;
  opts.ownership.push_back(OwnershipRule{
      "fail-lock-mutation",
      "FailLockTable",
      {"Set", "Clear", "MergeFrom"},
      {"site.cc", "site.h", "fail_locks.cc", "fail_locks.h"}});
  opts.ownership.push_back(OwnershipRule{
      "session-mutation",
      "SessionVector",
      {"Set", "MarkDown", "MarkUp", "MergeFrom"},
      {"site.cc", "site.h", "session_vector.cc", "session_vector.h"}});
  opts.blocking_free = {"sleep_for",  "sleep_until", "usleep",
                        "sleep",      "nanosleep",   "recv",
                        "send",       "accept",      "accept4",
                        "connect",    "poll",        "select",
                        "epoll_wait", "epoll_pwait", "epoll_pwait2",
                        "fsync",      "fdatasync",   "system"};
  opts.blocking_members = {{"CondVar", {"Wait", "WaitFor", "WaitUntil"}},
                           {"thread", {"join"}}};
  opts.dispatch_enum = "MsgType";
  opts.dispatch_function = "OnMessage";
  opts.codec_aliases = {{"TxnResult", "kTxnReply"}};
  // Item-lock layer ops that must not run under a mutex: Acquire enqueues a
  // waiter (a logical block point), ReleaseAll invokes grant callbacks
  // synchronously on the lock-release path.
  opts.item_lock_members = {{"LockManager", {"Acquire", "ReleaseAll"}}};
  opts.effect_class = "Site";
  opts.send_function = "SendTo";
  opts.effect_rules = {
      {"FailLockTable", "Set", "faillock.set"},
      {"FailLockTable", "Clear", "faillock.clear"},
      {"FailLockTable", "MergeFrom", "faillock.merge"},
      {"SessionVector", "Set", "session.set"},
      {"SessionVector", "MarkDown", "session.mark_down"},
      {"SessionVector", "MarkUp", "session.mark_up"},
      {"SessionVector", "MergeFrom", "session.merge"},
      {"LockManager", "Acquire", "lockmgr.acquire"},
      {"LockManager", "ReleaseAll", "lockmgr.release"},
  };
  // Deferred-execution sinks: a lambda handed to one of these runs later on
  // the stated context. PostAndWait and Drive complete before returning
  // (deferred = false), which is exactly why stack captures are legal there.
  opts.sinks = {
      {"EventLoop", "Post", Ctx::kLoop, true},
      {"EventLoop", "ScheduleAfter", Ctx::kLoop, true},
      {"EventLoop", "PostAndWait", Ctx::kLoop, false},
      {"Cluster", "Post", Ctx::kManaging, true},
      {"Cluster", "ScheduleAfter", Ctx::kManaging, true},
      {"Cluster", "SubmitTxn", Ctx::kManaging, true},
      {"Cluster", "Drive", Ctx::kNone, false},
      {"SiteRuntime", "Post", Ctx::kLoop, true},
      {"SiteRuntime", "ScheduleAfter", Ctx::kLoop, true},
  };
  // shared-state: internally synchronized (or lock) field types whose
  // accesses are not race evidence.
  opts.shared_state_exempt_types = {
      "atomic",       "Mutex",      "CondVar",   "once_flag",
      "mutex",        "shared_mutex", "condition_variable",
      "LockManager",  "EventLoop",
  };
  // Member calls that mutate their receiver: `items_.push_back(x)` is a
  // write of `items_` even though no assignment operator appears.
  opts.mutating_members = {
      "push_back", "emplace_back", "pop_back",  "pop_front", "push_front",
      "insert",    "emplace",      "erase",     "clear",     "resize",
      "assign",    "swap",         "reserve",   "Add",       "Record",
      "MergeFrom", "Set",          "Clear",     "Reset",     "append",
  };
  // view-escape vocabulary. `substr` on std::string returns an owning
  // string, so only data()/c_str() yield raw views of a buffer.
  opts.view_types = {"string_view", "Slice", "span"};
  opts.buffer_types = {"string", "vector", "deque", "array", "Buffer"};
  opts.view_source_calls = {"data", "c_str"};
  opts.container_inserts = {"push_back", "emplace_back", "insert", "emplace"};
  return opts;
}

std::vector<Finding> RunChecks(const Model& model, const CheckOptions& opts) {
  Checker checker(model, opts);
  return checker.Run();
}

}  // namespace analyze
}  // namespace miniraid
