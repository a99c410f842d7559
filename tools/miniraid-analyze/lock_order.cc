// Lock-order pass: the static analogue of the runtime deadlock policies.
//
// The engine layers two lock disciplines: OS mutexes (src/common/mutex.h,
// annotated with the MR_* capability vocabulary) and the per-item 2PL lock
// manager (src/core/lock_manager.h), whose grant callbacks run synchronously
// on lock-release paths. This pass builds a whole-program lock acquisition
// graph and reports (rule "lock-order"):
//
//   1. declared-order cycles — the MR_ACQUIRED_BEFORE/_AFTER annotations
//      must form a DAG;
//   2. unresolvable MR_ACQUIRED_BEFORE/_AFTER targets — a declared edge the
//      analysis cannot anchor is a typo waiting to deadlock;
//   3. observed acquisitions that contradict the declared order ("acquires A
//      while holding B" when A is declared before B);
//   4. observed acquisitions with no declared order at all (completeness:
//      every nested acquisition must be covered by an annotation);
//   5. paths that can block — CondVar::Wait on a different mutex, or an
//      item-lock operation (waiter enqueue / grant-callback dispatch) —
//      while holding a mutex, directly or through a call chain.
//
// Interprocedural machinery: a may-acquire and a may-block summary are
// computed per function by fixpoint over the call graph (ResolveCallTargets),
// then each function's body is replayed in token order against the scoped /
// manual acquisitions that are live at each call site. Lambda bodies are
// excluded on both sides: a deferred continuation neither holds its creator's
// scoped locks nor contributes to the creator's synchronous acquisitions.
//
// Conservatism: an acquisition or wait whose mutex identity does not resolve
// to a "Class::field" node produces no edge and no finding (matching the
// indexer's no-guess policy), with one exception — a CondVar wait with an
// unresolved mutex argument under two or more held locks is reported, since
// at most one of them can be the one the wait releases.

#include <algorithm>
#include <functional>
#include <sstream>

#include "analyzer.h"

namespace miniraid {
namespace analyze {

namespace {

std::string JoinChain(const std::vector<std::string>& chain) {
  std::string out;
  for (const std::string& c : chain) {
    if (!out.empty()) out += ".";
    out += c;
  }
  return out;
}

bool CapabilityType(const Model& m, const std::string& type) {
  auto it = m.classes.find(m.ResolveAlias(type));
  return it != m.classes.end() && it->second.is_capability;
}

}  // namespace

// Shared with the dataflow passes: the observable lock intervals of one
// function body, every lambda included (callers filter by lambda index).
std::vector<HeldInterval> ComputeHeldIntervals(const Model& m,
                                               const FunctionInfo& fn) {
  std::vector<HeldInterval> out;
  for (const ScopedAcquire& sa : fn.scoped_acquires) {
    if (sa.node.empty()) continue;
    out.push_back({sa.node, sa.tok, sa.release_tok, sa.lambda});
  }
  // Manual Lock/Unlock pairs on the same node, in token order, paired only
  // within the same lambda scope (a Lock in the body and an Unlock inside a
  // continuation are not a critical section).
  std::vector<const CallSite*> ops;
  for (const CallSite& c : fn.calls) {
    if (!c.is_member || c.receiver_node.empty()) continue;
    if ((c.callee == "Lock" || c.callee == "Unlock") &&
        CapabilityType(m, c.receiver_type)) {
      ops.push_back(&c);
    }
  }
  std::sort(ops.begin(), ops.end(),
            [](const CallSite* a, const CallSite* b) {
              return a->tok < b->tok;
            });
  // node|lambda -> Lock tok
  std::map<std::pair<std::string, int>, size_t> open;
  for (const CallSite* c : ops) {
    std::pair<std::string, int> key{c->receiver_node, c->lambda};
    if (c->callee == "Lock") {
      open[key] = c->tok;
    } else {
      auto it = open.find(key);
      if (it != open.end()) {
        out.push_back({c->receiver_node, it->second, c->tok, c->lambda});
        open.erase(it);
      }
    }
  }
  for (const auto& kv : open) {
    out.push_back({kv.first.first, kv.second, static_cast<size_t>(-1),
                   kv.first.second});
  }
  return out;
}

std::set<std::string> HeldNodesAt(const std::vector<HeldInterval>& intervals,
                                  size_t tok, int lambda) {
  std::set<std::string> out;
  for (const HeldInterval& h : intervals) {
    if (h.lambda == lambda && h.from < tok && tok < h.to) out.insert(h.node);
  }
  return out;
}

std::string ResolveLockNode(const Model& m, const std::string& cls,
                            const std::vector<std::string>& chain) {
  if (chain.empty()) return "";
  std::string owner = m.ResolveAlias(cls);
  if (chain.size() > 1) {
    std::string cur = m.FieldType(cls, chain[0]);
    for (size_t e = 1; e + 1 < chain.size() && !cur.empty(); ++e) {
      cur = m.FieldType(cur, chain[e]);
    }
    if (cur.empty()) return "";
    owner = m.ResolveAlias(cur);
  }
  if (!CapabilityType(m, m.FieldType(owner, chain.back()))) return "";
  return owner + "::" + chain.back();
}

namespace {

struct LockOrderPass {
  const Model& m;
  const CheckOptions& opts;
  std::vector<Finding>* findings;
  LockGraph graph;

  // declared adjacency: from -> set of to
  std::map<std::string, std::set<std::string>> declared;
  // per-function summaries, by function index
  std::vector<std::set<std::string>> may_acquire;
  std::vector<char> may_block;
  std::set<std::string> reported;  // dedup key: kind|from|to or kind|site

  bool IsCapabilityType(const std::string& type) const {
    auto it = m.classes.find(m.ResolveAlias(type));
    return it != m.classes.end() && it->second.is_capability;
  }

  void Report(const std::string& key, const std::string& file, int line,
              const std::string& message) {
    if (!reported.insert(key).second) return;
    Finding f;
    f.rule = "lock-order";
    f.file = file;
    f.line = line;
    f.message = message;
    findings->push_back(std::move(f));
  }

  std::string FileOf(const CallSite& c) const {
    return c.file_index >= 0 ? m.files[c.file_index].path : "";
  }

  // Resolves an annotation-target identifier chain relative to `cls` to a
  // lock node ("" if it does not land on a capability-typed field).
  std::string ResolveTarget(const std::string& cls,
                            const std::vector<std::string>& chain) const {
    return ResolveLockNode(m, cls, chain);
  }

  // --- phase 1: declared edges -------------------------------------------
  void CollectDeclared() {
    for (const auto& kv : m.classes) {
      const ClassInfo& ci = kv.second;
      for (const ClassInfo::LockEdge& e : ci.lock_edges) {
        std::string self = ci.name + "::" + e.field;
        std::string target = ResolveTarget(ci.name, e.target);
        const char* macro =
            e.before ? "MR_ACQUIRED_BEFORE" : "MR_ACQUIRED_AFTER";
        if (target.empty()) {
          Report("unresolved|" + self + "|" + JoinChain(e.target), ci.file,
                 e.line,
                 std::string(macro) + "(" + JoinChain(e.target) + ") on '" +
                     self + "' does not resolve to a mutex field");
          continue;
        }
        std::string from = e.before ? self : target;
        std::string to = e.before ? target : self;
        LockGraph::Edge edge;
        edge.from = from;
        edge.to = to;
        edge.kind = "declared";
        edge.file = ci.file;
        edge.line = e.line;
        graph.edges.push_back(std::move(edge));
        declared[from].insert(to);
      }
    }
  }

  // True if the declared order admits a path from -> to.
  bool DeclaredPath(const std::string& from, const std::string& to) const {
    std::vector<std::string> stack{from};
    std::set<std::string> seen;
    while (!stack.empty()) {
      std::string cur = stack.back();
      stack.pop_back();
      if (!seen.insert(cur).second) continue;
      auto it = declared.find(cur);
      if (it == declared.end()) continue;
      if (it->second.count(to)) return true;
      for (const std::string& n : it->second) stack.push_back(n);
    }
    return false;
  }

  void CheckDeclaredAcyclic() {
    // DFS with colors; report each back edge as a cycle.
    std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
    std::vector<std::string> path;
    std::function<void(const std::string&)> dfs =
        [&](const std::string& n) {
          color[n] = 1;
          path.push_back(n);
          auto it = declared.find(n);
          if (it != declared.end()) {
            for (const std::string& next : it->second) {
              if (color[next] == 1) {
                // Cycle: slice of `path` from `next` to n, closing on next.
                std::ostringstream msg;
                msg << "declared lock order forms a cycle: ";
                size_t start = 0;
                while (start < path.size() && path[start] != next) ++start;
                std::string cycle_key = "cycle";
                for (size_t i = start; i < path.size(); ++i) {
                  msg << path[i] << " -> ";
                  cycle_key += "|" + path[i];
                }
                msg << next;
                // Anchor at the declaration of the edge closing the cycle.
                std::string file;
                int line = 0;
                EdgeSite(n, next, &file, &line);
                Report(cycle_key, file, line, msg.str());
              } else if (color[next] == 0) {
                dfs(next);
              }
            }
          }
          path.pop_back();
          color[n] = 2;
        };
    for (const auto& kv : declared) {
      if (color[kv.first] == 0) dfs(kv.first);
    }
  }

  void EdgeSite(const std::string& from, const std::string& to,
                std::string* file, int* line) const {
    for (const LockGraph::Edge& e : graph.edges) {
      if (e.kind == "declared" && e.from == from && e.to == to) {
        *file = e.file;
        *line = e.line;
        return;
      }
    }
  }

  // --- phase 2: per-function summaries ------------------------------------
  // Direct acquisitions: scoped locks plus manual Mutex::Lock calls; both
  // excluded inside lambdas.
  std::set<std::string> DirectAcquires(const FunctionInfo& fn) const {
    std::set<std::string> out;
    for (const ScopedAcquire& sa : fn.scoped_acquires) {
      if (!sa.in_lambda && !sa.node.empty()) out.insert(sa.node);
    }
    for (const CallSite& c : fn.calls) {
      if (c.in_lambda || !c.is_member || c.receiver_node.empty()) continue;
      if (c.callee == "Lock" && IsCapabilityType(c.receiver_type)) {
        out.insert(c.receiver_node);
      }
    }
    return out;
  }

  bool IsCondVarWait(const CallSite& c) const {
    if (!c.is_member || c.receiver_type.empty()) return false;
    auto it = opts.blocking_members.find(m.ResolveAlias(c.receiver_type));
    return it != opts.blocking_members.end() && it->second.count(c.callee) &&
           c.callee.rfind("Wait", 0) == 0;
  }

  bool IsItemLockOp(const CallSite& c) const {
    if (!c.is_member || c.receiver_type.empty()) return false;
    std::string recv = m.ResolveAlias(c.receiver_type);
    for (const auto& kv : opts.item_lock_members) {
      if (m.DerivesFrom(recv, kv.first) && kv.second.count(c.callee)) {
        return true;
      }
    }
    return false;
  }

  void ComputeSummaries() {
    size_t n = m.functions.size();
    may_acquire.assign(n, {});
    may_block.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
      may_acquire[i] = DirectAcquires(m.functions[i]);
      for (const CallSite& c : m.functions[i].calls) {
        if (c.in_lambda) continue;
        if (IsCondVarWait(c) || IsItemLockOp(c)) may_block[i] = 1;
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < n; ++i) {
        for (const CallSite& c : m.functions[i].calls) {
          if (c.in_lambda) continue;
          for (int t : ResolveCallTargets(m, c)) {
            for (const std::string& node : may_acquire[t]) {
              if (may_acquire[i].insert(node).second) changed = true;
            }
            if (may_block[t] && !may_block[i]) {
              may_block[i] = 1;
              changed = true;
            }
          }
        }
      }
    }
  }

  // --- phase 3: replay each body against its live held set ---------------
  // This pass reasons about the synchronous body only, so every query uses
  // lambda == -1; the shared ComputeHeldIntervals records lambda intervals
  // too (the shared-state pass needs them).
  std::vector<HeldInterval> HeldIntervals(const FunctionInfo& fn) const {
    return ComputeHeldIntervals(m, fn);
  }

  std::set<std::string> HeldAt(const std::vector<HeldInterval>& intervals,
                               size_t tok) const {
    return HeldNodesAt(intervals, tok, -1);
  }

  void RecordObserved(const std::string& held, const std::string& acquired,
                      const std::string& via, const std::string& file,
                      int line) {
    if (held == acquired) return;
    std::string key = "observed|" + held + "|" + acquired;
    bool first = reported.find(key) == reported.end();
    if (first) {
      LockGraph::Edge edge;
      edge.from = held;
      edge.to = acquired;
      edge.kind = "observed";
      edge.via = via;
      edge.file = file;
      edge.line = line;
      graph.edges.push_back(edge);
    }
    std::ostringstream msg;
    if (DeclaredPath(acquired, held)) {
      msg << "acquires '" << acquired << "' while holding '" << held
          << "', contradicting the declared order (" << acquired
          << " is MR_ACQUIRED_BEFORE " << held << ")";
    } else if (!DeclaredPath(held, acquired)) {
      msg << "acquires '" << acquired << "' while holding '" << held
          << "' with no declared MR_ACQUIRED_BEFORE order between them";
    } else {
      reported.insert(key);
      return;  // covered by a declared edge
    }
    if (!via.empty()) msg << " (via '" << via << "')";
    Report(key, file, line, msg.str());
  }

  void ReplayFunction(const FunctionInfo& fn) {
    std::vector<HeldInterval> intervals = HeldIntervals(fn);

    // Direct acquisitions while something else is held. Lambda-scope
    // intervals are skipped: a continuation's acquisitions replay against
    // its own scope, not its creator's.
    for (const HeldInterval& h : intervals) {
      if (h.lambda != -1) continue;
      std::set<std::string> held = HeldAt(intervals, h.from);
      for (const std::string& other : held) {
        int line = fn.line;
        std::string file = fn.file;
        for (const ScopedAcquire& sa : fn.scoped_acquires) {
          if (sa.tok == h.from) {
            line = sa.line;
            if (sa.file_index >= 0) file = m.files[sa.file_index].path;
            break;
          }
        }
        for (const CallSite& c : fn.calls) {
          if (c.tok == h.from) {
            line = c.line;
            file = FileOf(c);
            break;
          }
        }
        RecordObserved(other, h.node, "", file, line);
      }
    }

    for (const CallSite& c : fn.calls) {
      if (c.in_lambda) continue;
      std::set<std::string> held = HeldAt(intervals, c.tok);
      if (held.empty()) continue;

      if (IsCondVarWait(c)) {
        // The wait releases its own mutex; anything else stays held while
        // the thread sleeps.
        std::string arg = CallLastIdentArg(m, c);
        std::string waited;
        if (!arg.empty() && !fn.cls.empty() &&
            IsCapabilityType(m.FieldType(fn.cls, arg))) {
          waited = m.ResolveAlias(fn.cls) + "::" + arg;
        }
        std::set<std::string> blocked = held;
        blocked.erase(waited);
        if (waited.empty() && blocked.size() < 2) continue;  // can't tell
        if (blocked.empty()) continue;
        std::ostringstream msg;
        msg << "'" << fn.qual() << "' blocks on " << c.receiver_type
            << "::" << c.callee << " while holding ";
        bool sep = false;
        for (const std::string& b : blocked) {
          if (sep) msg << ", ";
          msg << "'" << b << "'";
          sep = true;
        }
        msg << " — a waker needing that mutex deadlocks";
        Report("wait|" + fn.key + "|" + std::to_string(c.tok), FileOf(c),
               c.line, msg.str());
        continue;
      }

      if (IsItemLockOp(c)) {
        std::ostringstream msg;
        msg << "item-lock operation '" << c.receiver_type << "::" << c.callee
            << "' under mutex ";
        bool sep = false;
        for (const std::string& b : held) {
          if (sep) msg << ", ";
          msg << "'" << b << "'";
          sep = true;
        }
        msg << " — waiter enqueue and grant callbacks belong on the "
               "lock-release path, outside any mutex";
        Report("item|" + fn.key + "|" + std::to_string(c.tok), FileOf(c),
               c.line, msg.str());
        continue;
      }

      // Interprocedural: edges to everything the callee may acquire, plus a
      // finding if the callee can block.
      for (int t : ResolveCallTargets(m, c)) {
        const FunctionInfo& callee = m.functions[t];
        for (const std::string& node : may_acquire[t]) {
          for (const std::string& h : held) {
            RecordObserved(h, node, callee.qual(), FileOf(c), c.line);
          }
        }
        if (may_block[t]) {
          std::ostringstream msg;
          msg << "call to '" << callee.qual()
              << "' may block (CondVar wait or item-lock op) while holding ";
          bool sep = false;
          for (const std::string& b : held) {
            if (sep) msg << ", ";
            msg << "'" << b << "'";
            sep = true;
          }
          Report("blockvia|" + fn.key + "|" + std::to_string(c.tok),
                 FileOf(c), c.line, msg.str());
        }
      }
    }
  }

  void Run() {
    CollectDeclared();
    CheckDeclaredAcyclic();
    ComputeSummaries();
    for (const FunctionInfo& fn : m.functions) ReplayFunction(fn);
  }
};

}  // namespace

LockGraph BuildLockGraph(const Model& model, const CheckOptions& opts,
                         std::vector<Finding>* findings) {
  LockOrderPass pass{model, opts, findings, {}, {}, {}, {}, {}};
  pass.Run();
  return std::move(pass.graph);
}

}  // namespace analyze
}  // namespace miniraid
