// Dataflow passes: shared-state (guarded-by inference) and view-escape
// (buffer-lifetime analysis).
//
// shared-state generalizes the MR_RUNS_ON context discipline from annotated
// entry points to the whole program: the set of execution contexts reaching
// each function is the closure of the annotated context graph (annotated
// functions are contracts and re-anchor; unannotated functions accumulate
// their callers' contexts; a lambda handed to a deferred sink runs on that
// sink's context), and the set of mutexes observably held at each field
// access combines the lock-order pass's intra-procedural held intervals with
// an interprocedural entry-held fixpoint (MR_REQUIRES chains union the
// intersection over call sites of what each caller demonstrably holds).
// A field reachable from two or more contexts with writes, no common held
// mutex, no MR_GUARDED_BY, and no MR_CONTEXT_CONFINED waiver is a race
// finding; a field whose declared guard is provably absent from the common
// held set while some other mutex is always held is a guard-disagreement
// finding. Everything else gets a benign verdict in the report
// (single-context, read-only, annotated, confined, guarded).
//
// view-escape tracks string_view/Slice/span and raw character pointers
// derived from owning buffers (std::string, std::vector, ...) through local
// initializers (taint closure), and flags the four ways such a view can
// outlive its buffer: stored into a field, returned past the frame, inserted
// into a member container, or captured by a lambda handed to a *deferred*
// sink (Post/ScheduleAfter). By-reference captures into deferred lambdas are
// flagged unconditionally — that is the PR 8 gap (a stack reference smuggled
// into EventLoop::Post) folded into this rule. PostAndWait and Drive
// complete before returning, so their stack captures are the allowed idiom.
//
// Conservatism inherits the indexer's no-guess policy: an unresolved
// receiver, a hostless lambda (assigned to a variable and posted later), or
// an initializer the root extractor cannot pin down produces no finding.

#include <algorithm>
#include <iterator>
#include <sstream>

#include "analyzer.h"

namespace miniraid {
namespace analyze {

namespace {

// Context sets as bitmasks; kAny means callable from all three.
int CtxBit(Ctx c) {
  switch (c) {
    case Ctx::kManaging: return 1;
    case Ctx::kLoop: return 2;
    case Ctx::kClient: return 4;
    case Ctx::kAny: return 7;
    default: return 0;
  }
}

std::set<std::string> CtxMaskNames(int mask) {
  std::set<std::string> out;
  if (mask & 1) out.insert("managing");
  if (mask & 2) out.insert("loop");
  if (mask & 4) out.insert("client");
  return out;
}

int CtxCount(int mask) {
  return ((mask >> 0) & 1) + ((mask >> 1) & 1) + ((mask >> 2) & 1);
}

const CheckOptions::DeferredSink* MatchSink(const Model& m,
                                            const CheckOptions& opts,
                                            const std::string& receiver,
                                            const std::string& method) {
  if (receiver.empty()) return nullptr;
  std::string r = m.ResolveAlias(receiver);
  for (const CheckOptions::DeferredSink& s : opts.sinks) {
    if (s.method == method &&
        (s.receiver.empty() || m.DerivesFrom(r, s.receiver))) {
      return &s;
    }
  }
  return nullptr;
}


// Whole-program context and held-set inference, shared by both passes.
struct Dataflow {
  const Model& m;
  const CheckOptions& opts;

  std::vector<int> fctx;  // inferred context mask per function index
  std::vector<std::vector<HeldInterval>> intervals;
  std::vector<std::set<std::string>> entry;  // entry-held (includes requires)

  // Context a lambda body runs on: its deferred sink's context when the
  // lambda is a direct argument to one, the enclosing function's contexts
  // otherwise (synchronous callables — std::sort comparators, PostAndWait —
  // run on the caller's context).
  int LambdaCtx(size_t i, int l) const {
    const LambdaInfo& li = m.functions[i].lambdas[l];
    if (!li.host_callee.empty()) {
      const CheckOptions::DeferredSink* s =
          MatchSink(m, opts, li.host_receiver, li.host_callee);
      if (s != nullptr && s->runs_on != Ctx::kNone) {
        return CtxBit(s->runs_on);
      }
    }
    return fctx[i];
  }

  void InferContexts() {
    size_t n = m.functions.size();
    fctx.assign(n, 0);
    // Seeds: annotated functions; unannotated overrides inherit the base
    // method's contract as a seed (virtual dispatch from an annotated base
    // lands there even when no direct call edge names the override).
    for (size_t i = 0; i < n; ++i) {
      if (m.functions[i].ctx != Ctx::kNone) {
        fctx[i] = CtxBit(m.functions[i].ctx);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const FunctionInfo& fn = m.functions[i];
      if (fn.ctx != Ctx::kNone || fn.cls.empty()) continue;
      std::vector<std::string> stack;
      auto cit = m.classes.find(m.ResolveAlias(fn.cls));
      if (cit != m.classes.end()) stack = cit->second.bases;
      std::set<std::string> seen;
      while (!stack.empty()) {
        std::string b = stack.back();
        stack.pop_back();
        if (!seen.insert(b).second) continue;
        const FunctionInfo* bf = m.Find(b + "::" + fn.name);
        if (bf != nullptr && bf->ctx != Ctx::kNone) {
          fctx[i] |= CtxBit(bf->ctx);
          break;
        }
        auto bit = m.classes.find(b);
        if (bit == m.classes.end()) continue;
        for (const std::string& bb : bit->second.bases) stack.push_back(bb);
      }
    }
    // Closure: caller contexts flow into unannotated callees; annotated
    // callees re-anchor (their own declaration is the contract). Calls made
    // inside a lambda flow the lambda's context, not the frame's.
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < n; ++i) {
        for (const CallSite& c : m.functions[i].calls) {
          int src = c.lambda >= 0 ? LambdaCtx(i, c.lambda) : fctx[i];
          if (src == 0) continue;
          for (int t : ResolveCallTargets(m, c)) {
            if (m.functions[t].ctx != Ctx::kNone) continue;
            if ((fctx[t] | src) != fctx[t]) {
              fctx[t] |= src;
              changed = true;
            }
          }
        }
      }
    }
  }

  void ComputeHeldSets() {
    size_t n = m.functions.size();
    intervals.resize(n);
    std::vector<std::set<std::string>> requires_set(n);
    entry.assign(n, {});
    for (size_t i = 0; i < n; ++i) {
      intervals[i] = ComputeHeldIntervals(m, m.functions[i]);
      for (const auto& chain : m.functions[i].entry_locks) {
        std::string node = ResolveLockNode(m, m.functions[i].cls, chain);
        if (!node.empty()) requires_set[i].insert(node);
      }
      entry[i] = requires_set[i];
    }
    // Entry-held fixpoint, decreasing from top. A call site contributes
    // what is observably held there plus the caller's own entry set; call
    // sites inside lambdas contribute only lambda-local intervals (the
    // continuation does not run under its creator's locks). Functions with
    // no call sites keep their MR_REQUIRES set only.
    struct Site {
      int caller;
      size_t tok;
      int lambda;
    };
    std::vector<std::vector<Site>> callers(n);
    for (size_t i = 0; i < n; ++i) {
      for (const CallSite& c : m.functions[i].calls) {
        for (int t : ResolveCallTargets(m, c)) {
          callers[t].push_back({static_cast<int>(i), c.tok, c.lambda});
        }
      }
    }
    std::vector<char> top(n, 0);
    for (size_t i = 0; i < n; ++i) {
      if (!callers[i].empty()) top[i] = 1;
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < n; ++i) {
        if (callers[i].empty()) continue;
        bool meet_defined = false;
        std::set<std::string> meet;
        for (const Site& s : callers[i]) {
          if (s.lambda < 0 && top[s.caller]) continue;  // still unconstrained
          std::set<std::string> contrib =
              HeldNodesAt(intervals[s.caller], s.tok, s.lambda);
          if (s.lambda < 0) {
            contrib.insert(entry[s.caller].begin(), entry[s.caller].end());
          }
          if (!meet_defined) {
            meet = std::move(contrib);
            meet_defined = true;
          } else {
            std::set<std::string> inter;
            std::set_intersection(meet.begin(), meet.end(), contrib.begin(),
                                  contrib.end(),
                                  std::inserter(inter, inter.begin()));
            meet = std::move(inter);
          }
          if (meet.empty()) break;
        }
        if (!meet_defined) continue;  // every caller still at top
        std::set<std::string> next = requires_set[i];
        next.insert(meet.begin(), meet.end());
        if (top[i]) {
          top[i] = 0;
          entry[i] = std::move(next);
          changed = true;
        } else if (next != entry[i]) {
          entry[i] = std::move(next);
          changed = true;
        }
      }
    }
    // Functions whose callers never grounded (call cycles unreachable from
    // any rooted entry) fall back to their MR_REQUIRES set.
    for (size_t i = 0; i < n; ++i) {
      if (top[i]) entry[i] = requires_set[i];
    }
  }

  std::set<std::string> HeldAtAccess(size_t i, const FieldAccess& a) const {
    if (a.lambda >= 0) {
      // A deferred continuation holds only what it acquires itself.
      return HeldNodesAt(intervals[i], a.tok, a.lambda);
    }
    std::set<std::string> out = entry[i];
    std::set<std::string> local = HeldNodesAt(intervals[i], a.tok, -1);
    out.insert(local.begin(), local.end());
    return out;
  }
};

std::string JoinSet(const std::set<std::string>& s) {
  std::string out;
  for (const std::string& e : s) {
    if (!out.empty()) out += ", ";
    out += e;
  }
  return out;
}

std::string JoinChain(const std::vector<std::string>& chain) {
  std::string out;
  for (const std::string& c : chain) {
    if (!out.empty()) out += ".";
    out += c;
  }
  return out;
}

}  // namespace

SharedStateReport BuildSharedStateReport(const Model& m,
                                         const CheckOptions& opts,
                                         std::vector<Finding>* findings) {
  SharedStateReport report;
  Dataflow df{m, opts, {}, {}, {}};
  df.InferContexts();
  df.ComputeHeldSets();

  struct Acc {
    int ctx_mask = 0;
    int reads = 0;
    int writes = 0;
    bool held_defined = false;
    std::set<std::string> common_held;
  };
  std::map<std::pair<std::string, std::string>, Acc> acc;

  for (size_t i = 0; i < m.functions.size(); ++i) {
    const FunctionInfo& fn = m.functions[i];
    for (const FieldAccess& a : fn.accesses) {
      // Construction and destruction are single-owner phases; a lambda
      // created there still escapes, so only frame accesses are excluded.
      if (fn.is_ctor_dtor && a.lambda < 0) continue;
      Acc& f = acc[{a.cls, a.field}];
      bool write = a.is_write || (!a.via_call.empty() &&
                                  opts.mutating_members.count(a.via_call));
      if (write) {
        ++f.writes;
      } else {
        ++f.reads;
      }
      int actx = a.lambda >= 0 ? df.LambdaCtx(i, a.lambda) : df.fctx[i];
      if (actx == 0) continue;  // unreachable from any annotated root
      f.ctx_mask |= actx;
      std::set<std::string> held = df.HeldAtAccess(i, a);
      if (!f.held_defined) {
        f.common_held = std::move(held);
        f.held_defined = true;
      } else {
        std::set<std::string> inter;
        std::set_intersection(f.common_held.begin(), f.common_held.end(),
                              held.begin(), held.end(),
                              std::inserter(inter, inter.begin()));
        f.common_held = std::move(inter);
      }
    }
  }

  for (const auto& kv : acc) {
    const std::string& cls = kv.first.first;
    const std::string& field = kv.first.second;
    const Acc& f = kv.second;
    auto cit = m.classes.find(cls);
    if (cit == m.classes.end()) continue;
    const ClassInfo& ci = cit->second;
    auto tit = ci.fields.find(field);
    std::string ftype =
        tit != ci.fields.end() ? m.ResolveAlias(tit->second) : "";
    // Internally synchronized and lock-typed fields are not race evidence.
    if (opts.shared_state_exempt_types.count(ftype)) continue;
    auto fcls = m.classes.find(ftype);
    if (fcls != m.classes.end() && (fcls->second.is_capability ||
                                    fcls->second.is_scoped_capability)) {
      continue;
    }

    SharedStateReport::Field out;
    out.cls = cls;
    out.field = field;
    out.file = ci.file;
    auto lit = ci.field_lines.find(field);
    out.line = lit != ci.field_lines.end() ? lit->second : ci.line;
    out.contexts = CtxMaskNames(f.ctx_mask);
    if (f.held_defined) out.common_guards = f.common_held;

    auto git = ci.field_guards.find(field);
    if (git != ci.field_guards.end()) {
      out.declared_guard = ResolveLockNode(m, cls, git->second);
      if (out.declared_guard.empty()) {
        out.declared_guard = JoinChain(git->second);  // unresolved, verbatim
      }
    }
    auto wit = ci.field_confined.find(field);
    if (wit != ci.field_confined.end()) out.waiver = CtxName(wit->second);

    if (git != ci.field_guards.end()) {
      // Declared MR_GUARDED_BY is trusted (clang TSA is the authority on
      // enforcement) — unless the observably-held evidence names a common
      // mutex and the declared one is not in it.
      bool resolvable = !ResolveLockNode(m, cls, git->second).empty();
      if (resolvable && f.held_defined && !f.common_held.empty() &&
          !f.common_held.count(out.declared_guard)) {
        out.verdict = "guard-disagreement";
        Finding fd;
        fd.rule = "shared-state";
        fd.file = out.file;
        fd.line = out.line;
        std::ostringstream msg;
        msg << "field '" << cls << "::" << field << "' is declared "
            << "MR_GUARDED_BY '" << out.declared_guard
            << "' but every observed access holds '"
            << JoinSet(f.common_held)
            << "' instead — annotation and locking disagree";
        fd.message = msg.str();
        findings->push_back(std::move(fd));
      } else {
        out.verdict = "annotated";
      }
    } else if (!out.waiver.empty()) {
      out.verdict = "confined";
    } else if (CtxCount(f.ctx_mask) < 2) {
      out.verdict = "single-context";
    } else if (f.writes == 0) {
      out.verdict = "read-only";
    } else if (f.held_defined && !f.common_held.empty()) {
      out.verdict = "guarded";
    } else {
      out.verdict = "race";
      Finding fd;
      fd.rule = "shared-state";
      fd.file = out.file;
      fd.line = out.line;
      std::ostringstream msg;
      msg << "field '" << cls << "::" << field << "' ("
          << (ftype.empty() ? "unknown type" : ftype)
          << ") is written and reachable from contexts {"
          << JoinSet(out.contexts)
          << "} with no common mutex held, no MR_GUARDED_BY, and no "
             "MR_CONTEXT_CONFINED waiver";
      fd.message = msg.str();
      findings->push_back(std::move(fd));
    }
    report.fields.push_back(std::move(out));
  }
  return report;
}

void CheckViewEscape(const Model& m, const CheckOptions& opts,
                     std::vector<Finding>* findings) {
  auto path_of = [&](int fi, const FunctionInfo& fn) {
    return fi >= 0 && fi < static_cast<int>(m.files.size())
               ? m.files[fi].path
               : fn.file;
  };
  auto report = [&](const std::string& file, int line,
                    const std::string& message) {
    Finding f;
    f.rule = "view-escape";
    f.file = file;
    f.line = line;
    f.message = message;
    findings->push_back(std::move(f));
  };

  for (const FunctionInfo& fn : m.functions) {
    if (fn.locals.empty() && fn.field_stores.empty() && fn.returns.empty() &&
        fn.lambdas.empty()) {
      continue;
    }
    std::map<std::string, const LocalVar*> locals;
    for (const LocalVar& lv : fn.locals) locals[lv.name] = &lv;
    auto local_type = [&](const std::string& name) -> std::string {
      auto it = locals.find(name);
      return it != locals.end() ? it->second->type : "";
    };
    auto is_buffer_local = [&](const std::string& name) {
      return opts.buffer_types.count(local_type(name)) > 0;
    };

    // Taint closure: locals that are views of (or raw pointers into) a
    // function-local owning buffer. Separately, locals that are views of a
    // *member* buffer (the arena pattern) are member-anchored: storing one
    // into a field of the same object is lifetime-sound.
    std::set<std::string> tainted, member_anchored;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const LocalVar& lv : fn.locals) {
        if (lv.init_root.empty()) continue;
        bool viewy = opts.view_types.count(lv.type) > 0;
        bool src_call = !lv.init_call.empty() &&
                        opts.view_source_calls.count(lv.init_call) > 0;
        if (!viewy && !src_call) continue;
        bool root_hot =
            tainted.count(lv.init_root) || is_buffer_local(lv.init_root);
        if (root_hot && tainted.insert(lv.name).second) changed = true;
        bool root_member = member_anchored.count(lv.init_root) ||
                           (locals.count(lv.init_root) == 0 &&
                            !m.FieldOwner(fn.cls, lv.init_root).empty());
        if (root_member && member_anchored.insert(lv.name).second) {
          changed = true;
        }
      }
    }

    // (1) view stored into a field. Member-rooted RHS is allowed (a view of
    // the object's own buffer shares its lifetime); anything rooted in the
    // frame — a local, a parameter, a tainted chain — escapes it.
    if (!fn.is_ctor_dtor && !fn.is_operator) {
      for (const FieldStore& fs : fn.field_stores) {
        std::string ftype = m.FieldType(fs.cls, fs.field);
        bool view_field = opts.view_types.count(ftype) > 0;
        bool ptr_field = ftype == "char" || ftype == "uint8_t";
        if (!view_field && !ptr_field) continue;
        if (fs.rhs_root.empty()) continue;
        bool member_rooted =
            member_anchored.count(fs.rhs_root) > 0 ||
            (locals.count(fs.rhs_root) == 0 &&
             !m.FieldOwner(fn.cls, fs.rhs_root).empty());
        bool rhs_tainted = tainted.count(fs.rhs_root) > 0;
        bool src_call = !fs.rhs_call.empty() &&
                        opts.view_source_calls.count(fs.rhs_call) > 0;
        bool hot = rhs_tainted ||
                   (view_field && !member_rooted) ||
                   (ptr_field && src_call && !member_rooted);
        if (!hot) continue;
        std::ostringstream msg;
        msg << "'" << fn.qual() << "' stores a view rooted at '"
            << fs.rhs_root << "' into field '" << fs.cls << "::" << fs.field
            << "' — the field outlives the buffer the view points into";
        report(path_of(fs.file_index, fn), fs.line, msg.str());
      }
    }

    // (2) view returned past the frame.
    bool ret_view = opts.view_types.count(fn.ret_type) > 0;
    bool ret_ptr = fn.ret_type == "char" || fn.ret_type == "uint8_t" ||
                   fn.ret_type == "byte";
    for (const ReturnInfo& r : fn.returns) {
      if (r.lambda >= 0 || r.root.empty()) continue;
      bool root_tainted = tainted.count(r.root) > 0;
      bool root_local_buffer = is_buffer_local(r.root);
      bool src_call = !r.call.empty() &&
                      opts.view_source_calls.count(r.call) > 0;
      bool hot = (ret_view && (root_tainted || root_local_buffer)) ||
                 (ret_ptr && src_call && (root_tainted || root_local_buffer));
      if (!hot) continue;
      std::ostringstream msg;
      msg << "'" << fn.qual() << "' returns a view of function-local buffer '"
          << r.root << "' — it dangles as soon as the frame is gone";
      report(path_of(r.file_index, fn), r.line, msg.str());
    }

    // (3) view inserted into a member container.
    for (const CallSite& c : fn.calls) {
      if (!c.is_member || c.receiver_node.empty()) continue;
      if (!opts.container_inserts.count(c.callee)) continue;
      std::string arg = CallLastIdentArg(m, c);
      if (arg.empty() || !tainted.count(arg)) continue;
      std::ostringstream msg;
      msg << "'" << fn.qual() << "' inserts view-of-local-buffer '" << arg
          << "' into member container '" << c.receiver_node
          << "' — the container outlives the buffer";
      report(path_of(c.file_index, fn), c.line, msg.str());
    }

    // (4) captures escaping into a deferred lambda. `this` is fine (the
    // continuation runs on the object's own context); references and views
    // of frame state are not — the frame is gone when the lambda runs.
    for (const LambdaInfo& li : fn.lambdas) {
      if (li.host_callee.empty()) continue;
      const CheckOptions::DeferredSink* sink =
          MatchSink(m, opts, li.host_receiver, li.host_callee);
      if (sink == nullptr || !sink->deferred) continue;
      std::string file = path_of(li.file_index, fn);
      std::string via = (li.host_receiver.empty() ? std::string()
                                                  : li.host_receiver + "::") +
                        li.host_callee;
      if (li.capture_default == '&') {
        std::ostringstream msg;
        msg << "'" << fn.qual() << "' captures the enclosing frame by "
            << "reference ([&]) in a lambda deferred via '" << via
            << "' — the frame may be gone when it runs";
        report(file, li.line, msg.str());
      }
      for (const LambdaInfo::Capture& cap : li.captures) {
        if (cap.by_ref) {
          std::ostringstream msg;
          msg << "'" << fn.qual() << "' captures '" << cap.name
              << "' by reference in a lambda deferred via '" << via
              << "' — stack capture outliving its frame (use PostAndWait "
                 "for synchronous handoff, or capture by value)";
          report(file, li.line, msg.str());
        } else if (tainted.count(cap.name)) {
          std::ostringstream msg;
          msg << "'" << fn.qual() << "' captures view-of-local-buffer '"
              << cap.name << "' by value in a lambda deferred via '" << via
              << "' — the copy still points into the dead frame's buffer";
          report(file, li.line, msg.str());
        }
      }
    }
  }
}

}  // namespace analyze
}  // namespace miniraid
