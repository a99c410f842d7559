#ifndef MINIRAID_TOOLS_MINIRAID_ANALYZE_ANALYZER_H_
#define MINIRAID_TOOLS_MINIRAID_ANALYZE_ANALYZER_H_

// miniraid-analyze: the repository's static analysis (docs/ANALYSIS.md §7).
// The lexer (lexer.cc) turns each file into tokens plus the preprocessor
// facts the per-file rules need (file_rules.cc); the indexer (indexer.cc)
// extracts facts about the whole program (classes, functions, calls with
// resolved receiver types, switches, lock scopes) into a `Model`; the model
// passes (checks.cc, effects.cc, lock_order.cc, dataflow.cc) run on it.
// Analyze() (analyze.cc) runs the whole pipeline.

#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace miniraid {
namespace analyze {

// ---------------------------------------------------------------------------
// Execution contexts (the MR_RUNS_ON vocabulary).
//
//   managing - the managing site's execution context: ManagingSite,
//              SubmitWindow, and everything transitively confined to the
//              coordinator's protocol state.
//   loop     - a site's event-loop context: Site and the protocol engine.
//   client   - caller/driver threads and dedicated IO threads; blocking is
//              permitted here, touching loop- or managing-confined state is
//              not (marshal through EventLoop::Post / PostAndWait instead).
//   any      - callable from every context; must itself stay confinement-
//              and blocking-clean.
// ---------------------------------------------------------------------------
enum class Ctx { kNone = 0, kManaging, kLoop, kClient, kAny };

const char* CtxName(Ctx ctx);
Ctx ParseCtx(const std::string& name);  // "managing" -> kManaging, ...

// ---------------------------------------------------------------------------
// Findings and suppression.
// ---------------------------------------------------------------------------
struct Finding {
  std::string rule;     // e.g. "cross-context-call"
  std::string file;
  int line = 0;
  std::string message;
  bool suppressed = false;

  bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    if (rule != o.rule) return rule < o.rule;
    return message < o.message;
  }
};

// ---------------------------------------------------------------------------
// Tokens.
// ---------------------------------------------------------------------------
struct Token {
  enum Kind { kIdent, kNumber, kString, kPunct };
  Kind kind = kPunct;
  std::string text;
  int line = 0;
};

struct SourceFile {
  std::string path;
  std::vector<Token> tokens;
  // Preprocessor lines stay out of the token stream; the per-file rules
  // read these two facts from them. `includes` holds each quoted
  // `#include "dir/file.h"` target with its line; `guard` is the macro of
  // an opening `#ifndef X` / `#define X` pair ("" if the file has none).
  std::vector<std::pair<std::string, int>> includes;
  std::string guard;
  // line -> rules allowed on that line ("*" = all). A `// miniraid-lint:
  // allow(rule)` comment covers its own line and the next line.
  std::map<int, std::set<std::string>> allow;
};

// Lexes `content`; records suppression comments, include targets and the
// include guard, and keeps other preprocessor lines out of the tokens.
SourceFile LexFile(const std::string& path, const std::string& content);

// ---------------------------------------------------------------------------
// Program model.
// ---------------------------------------------------------------------------
struct CallSite {
  std::string callee;         // unqualified name ("Set", "Wait", "sleep_for")
  std::string receiver_type;  // resolved class of the receiver, "" if none or
                              // unresolvable
  std::string receiver_node;  // receiver identity when the chain ends in a
                              // field: "OwnerClass::field" ("" otherwise);
                              // the lock-order pass keys mutex ops on it
  std::string last_arg_type;  // resolved core type of the last argument
                              // (through std::move and braced construction);
                              // the effect pass reads SendTo payloads off it
  bool is_member = false;     // x.f() / x->f() / implicit this
  bool qualified = false;     // ::f() or ns::f()
  bool in_lambda = false;     // call happens inside a lambda body
  int lambda = -1;            // index into FunctionInfo::lambdas, -1 = body
  int line = 0;
  int file_index = -1;
  size_t tok = 0;             // index of the callee token in the file stream
};

// A read or write of a class field observed in a function (or lambda) body.
// Only root-level accesses to fields of the *enclosing* class are recorded
// (`count_`, `this->count_`, `report.latency.Add(..)` records `report`);
// accesses through unrelated objects go through that object's own methods
// and are attributed there. `via_call` is the trailing member call on the
// access chain ("push_back" in `items_.push_back(x)`): whether it mutates is
// the shared-state pass's decision (CheckOptions::mutating_members), not the
// indexer's.
struct FieldAccess {
  std::string cls;       // class that declares the field (may be a base)
  std::string field;
  bool is_write = false; // syntactic write: assignment or ++/--
  std::string via_call;  // trailing member call on the chain, "" if none
  int line = 0;
  int file_index = -1;
  size_t tok = 0;
  int lambda = -1;       // index into FunctionInfo::lambdas, -1 = body proper
};

// A lambda literal in a function body. When the lambda is written directly
// as a call argument (`loop_->Post([this] {...})`), `host_callee` /
// `host_receiver` identify that call so the dataflow passes can map the
// lambda to the execution context it will run on (CheckOptions::sinks) and
// flag stack captures that outlive the frame.
struct LambdaInfo {
  struct Capture {
    std::string name;     // captured identifier ("this" handled separately)
    bool by_ref = false;
    bool is_init = false; // [x = expr] init-capture
  };
  char capture_default = 0;    // '&', '=', or 0
  bool captures_this = false;
  std::vector<Capture> captures;
  std::string host_callee;     // "" when not a direct call argument
  std::string host_receiver;   // resolved receiver class of the host call
  int line = 0;
  int file_index = -1;
  size_t tok = 0;
};

// A local variable declaration with its initializer's dataflow roots: in
// `std::string_view v(buf.data(), n);` the root is `buf` and the trailing
// call is `data`. The view-escape pass chains these to decide whether a
// view is derived from a function-local buffer.
struct LocalVar {
  std::string name;
  std::string type;       // resolved core type ("string_view", "string")
  std::string init_root;  // first identifier of the initializer ("" = none)
  std::string init_call;  // trailing member call in the initializer
  int line = 0;
  int file_index = -1;
  size_t tok = 0;
  int lambda = -1;
};

// A direct assignment to a field of the enclosing class (`f_ = expr;`),
// with the RHS's dataflow root. Only length-1 access chains are recorded:
// stores *into* a field's own members are a different hazard class.
struct FieldStore {
  std::string cls;        // class that declares the field
  std::string field;
  std::string rhs_root;   // first identifier of the RHS ("" = unresolved)
  std::string rhs_call;   // trailing member call of the RHS ("data", ...)
  int line = 0;
  int file_index = -1;
  size_t tok = 0;
  int lambda = -1;
};

// A return statement's dataflow root (`return buf.data();` -> root "buf",
// call "data").
struct ReturnInfo {
  std::string root;
  std::string call;
  int line = 0;
  int file_index = -1;
  size_t tok = 0;
  int lambda = -1;
};

struct CaseLabel {
  std::string enum_qual;   // "MsgType" in `case MsgType::kPrepare:`
  std::string enumerator;  // "kPrepare"
  int line = 0;
  size_t tok = 0;
};

struct SwitchInfo {
  std::vector<CaseLabel> cases;
  bool has_default = false;
  int line = 0;
  int file_index = -1;
};

// A scoped lock acquisition: `MutexLock lock(mu_);`. The lock is held from
// `tok` until the enclosing block closes at `release_tok` (both token
// indices, like CallSite::tok, so lock ops and calls interleave by simple
// comparison).
struct ScopedAcquire {
  std::string node;        // "OwnerClass::field" of the locked mutex, "" if
                           // the constructor argument did not resolve
  size_t tok = 0;
  size_t release_tok = 0;  // position of the enclosing block's closing brace
  int line = 0;
  int file_index = -1;
  bool in_lambda = false;
  int lambda = -1;  // index into FunctionInfo::lambdas, -1 = body proper
};

struct FunctionInfo {
  std::string cls;   // enclosing class, "" for free functions
  std::string name;  // unqualified ("OnMessage", "operator()")
  std::string key;   // merge key: cls::name, operator() adds "@<param0>"
  std::string file;  // declaration site (header when available)
  int line = 0;
  int file_index = -1;
  Ctx ctx = Ctx::kNone;
  bool ctx_inherited = false;  // ctx propagated from an annotated base method
  bool is_public = false;
  bool is_defn = false;        // a body was seen
  bool is_ctor_dtor = false;
  bool is_operator = false;
  bool is_static = false;
  std::string param0_type;     // resolved core type of the first parameter
  std::string ret_type;        // resolved core return type ("" = unresolved)
  std::vector<CallSite> calls;
  std::vector<SwitchInfo> switches;
  std::vector<ScopedAcquire> scoped_acquires;
  // Dataflow facts for the shared-state and view-escape passes.
  std::vector<FieldAccess> accesses;
  std::vector<LambdaInfo> lambdas;
  std::vector<LocalVar> locals;
  std::vector<FieldStore> field_stores;
  std::vector<ReturnInfo> returns;
  // MR_REQUIRES target chains: mutexes guaranteed held on entry.
  std::vector<std::vector<std::string>> entry_locks;

  std::string qual() const { return cls.empty() ? name : cls + "::" + name; }
};

struct ClassInfo {
  std::string name;
  bool is_struct = false;
  bool is_capability = false;         // MR_CAPABILITY
  bool is_scoped_capability = false;  // MR_SCOPED_CAPABILITY
  std::vector<std::string> bases;
  std::map<std::string, std::string> fields;      // field name -> core type
  std::map<std::string, int> field_lines;         // field name -> decl line
  // MR_GUARDED_BY argument as an identifier chain, per field.
  std::map<std::string, std::vector<std::string>> field_guards;
  // MR_CONTEXT_CONFINED waivers: field -> the context it is confined to.
  std::map<std::string, Ctx> field_confined;
  std::map<std::string, std::string> method_ret;  // method -> core return type
  std::set<std::string> methods;
  std::string file;
  int line = 0;

  // A lock-order edge declared on a mutex field with MR_ACQUIRED_BEFORE /
  // MR_ACQUIRED_AFTER. `target` is the annotation argument as an identifier
  // chain (`loop_->mu_` -> {"loop_", "mu_"}); resolution to a lock node
  // happens in the lock-order pass once the whole model is built.
  struct LockEdge {
    std::string field;                // annotated mutex field
    std::vector<std::string> target;  // identifier chain of the argument
    bool before = true;               // MR_ACQUIRED_BEFORE vs _AFTER
    int line = 0;
  };
  std::vector<LockEdge> lock_edges;
};

struct EnumInfo {
  std::string name;       // simple name ("MsgType")
  std::string scope;      // enclosing class, "" at namespace scope
  std::vector<std::string> enumerators;
  std::string file;
  int line = 0;
};

struct Model {
  std::vector<SourceFile> files;
  std::map<std::string, ClassInfo> classes;       // by simple name
  std::vector<EnumInfo> enums;
  std::map<std::string, std::string> aliases;     // using A = B; A -> B

  std::vector<FunctionInfo> functions;
  std::map<std::string, std::vector<int>> by_key;   // merge key -> index
  std::map<std::string, std::vector<int>> by_name;  // unqualified -> indices

  // Resolves `name` through the alias map (bounded, cycle-safe).
  std::string ResolveAlias(const std::string& name) const;
  // True if `cls` is `base` or derives (transitively) from it.
  bool DerivesFrom(const std::string& cls, const std::string& base) const;
  // Looks up a method in `cls` or its bases; returns function index or -1.
  int FindMethod(const std::string& cls, const std::string& name) const;
  // Field type in `cls` or its bases ("" if unknown).
  std::string FieldType(const std::string& cls, const std::string& field) const;
  // The class (in `cls`'s base walk) that declares `field` ("" if none).
  std::string FieldOwner(const std::string& cls, const std::string& field)
      const;
  const FunctionInfo* Find(const std::string& key) const;
};

// ---------------------------------------------------------------------------
// Built-in indexer: builds a Model from lexed sources (two passes:
// declarations, then bodies).
// ---------------------------------------------------------------------------
class Indexer {
 public:
  void AddFile(SourceFile file) { files_.push_back(std::move(file)); }
  Model Build();

 private:
  std::vector<SourceFile> files_;
};

// ---------------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------------
struct OwnershipRule {
  std::string rule;                     // finding rule name
  std::string receiver;                 // owning type ("FailLockTable")
  std::set<std::string> mutators;       // {"Set", "Clear", "MergeFrom"}
  std::set<std::string> home_basenames; // files allowed to mutate
};

// Maps a (receiver class, method) pair to a protocol-effect token; receivers
// match through inheritance like OwnershipRule.
struct EffectRule {
  std::string receiver;  // "" matches methods of the dispatcher class itself
  std::string method;
  std::string effect;    // e.g. "faillock.set"
};

struct CheckOptions {
  std::vector<OwnershipRule> ownership;
  std::set<std::string> blocking_free;  // free-call names that block
  std::map<std::string, std::set<std::string>> blocking_members;
  std::string dispatch_enum;            // enum checked for exhaustiveness
  std::string dispatch_function;        // name of dispatch entry points
  // Wire payload types whose name does not follow the `<Enumerator>Args`
  // convention, mapped to their dispatch enumerator (e.g. "TxnResult" ->
  // "kTxnReply").
  std::map<std::string, std::string> codec_aliases;

  // --- lock-order pass -----------------------------------------------------
  // Item-lock layer: methods that enqueue waiters or run grant callbacks
  // synchronously; calling them (directly or transitively) while holding a
  // mutex is flagged, because grant callbacks execute on lock-release paths.
  std::map<std::string, std::set<std::string>> item_lock_members;

  // --- protocol-effect pass ------------------------------------------------
  // Dispatcher class whose `dispatch_function` switch defines the handlers
  // ("Site"), and the call that transmits a payload ("SendTo").
  std::string effect_class;
  std::string send_function;
  std::vector<EffectRule> effect_rules;
  // Parsed golden text (one `handler: effects...` line per handler). Empty
  // means "compute the map but do not diff" — protocol-effect findings are
  // only produced against a golden.
  std::string effects_golden;

  // --- deferred execution sinks (dataflow passes) --------------------------
  // A method that takes a callable and runs it later on a known execution
  // context. `runs_on == kNone` means the callable runs on the caller's own
  // context; `deferred == false` means it completes before the call returns
  // (EventLoop::PostAndWait), so stack captures are safe.
  struct DeferredSink {
    std::string receiver;  // receiver class (matched through inheritance)
    std::string method;
    Ctx runs_on = Ctx::kNone;
    bool deferred = true;
  };
  std::vector<DeferredSink> sinks;

  // --- shared-state pass ---------------------------------------------------
  // Field types that are internally synchronized (or are themselves locks);
  // their accesses are not evidence of a race.
  std::set<std::string> shared_state_exempt_types;
  // Member calls that mutate their receiver (container writes, stat sinks);
  // `items_.push_back(x)` counts as a write of `items_`.
  std::set<std::string> mutating_members;

  // --- view-escape pass ----------------------------------------------------
  std::set<std::string> view_types;         // string_view, Slice, span
  std::set<std::string> buffer_types;       // string, vector, ...
  std::set<std::string> view_source_calls;  // data, c_str: yield raw views
  std::set<std::string> container_inserts;  // push_back, insert, ...

  static CheckOptions Defaults();
};

// Per-file rules (file_rules.cc): raw-mutex, callback-under-lock, layering
// and header-guard. They read one file's path, tokens and preprocessor facts,
// and apply only to files under a `src/` directory.
void CheckFileRules(const SourceFile& file, std::vector<Finding>* findings);

std::vector<Finding> RunChecks(const Model& model, const CheckOptions& opts);

// Call-target resolution shared by every interprocedural pass (checks.cc):
// annotated methods found through the receiver type are contracts (no
// virtual fan-out); unannotated methods fan out to derived overrides.
std::vector<int> ResolveCallTargets(const Model& m, const CallSite& c);
// The call's last argument when it is a lone identifier, "" otherwise.
std::string CallLastIdentArg(const Model& m, const CallSite& c);

// ---------------------------------------------------------------------------
// Lock-order pass (lock_order.cc).
//
// Nodes are mutex-typed fields of capability classes ("EventLoop::mu_").
// Declared edges come from MR_ACQUIRED_BEFORE/_AFTER annotations; observed
// edges from interprocedural replay of scoped/manual acquisitions ("holds A
// while acquiring B", possibly through a call chain). Findings (rule
// "lock-order"): declared-order cycles, observed edges that contradict the
// declared order, observed edges with no declared order (completeness), and
// paths that can block (CondVar wait, item-lock op) while holding a mutex.
// ---------------------------------------------------------------------------
struct LockGraph {
  struct Edge {
    std::string from;
    std::string to;
    std::string kind;  // "declared" | "observed"
    std::string via;   // observed: call chain hint ("EventLoop::Post")
    std::string file;
    int line = 0;
  };
  std::vector<Edge> edges;
};

LockGraph BuildLockGraph(const Model& model, const CheckOptions& opts,
                         std::vector<Finding>* findings);

// ---------------------------------------------------------------------------
// Protocol-effect pass (effects.cc).
//
// For each `case MsgType::kX:` region of the dispatcher's switch, the effect
// summary is the union of effect tokens produced by the region's calls and
// their transitive callees (lambda bodies excluded: deferred continuations
// are not part of the handler's synchronous effect). Tokens: "send:<kEnum>",
// "faillock.*", "session.*", "lockmgr.*".
// ---------------------------------------------------------------------------
struct EffectMap {
  // dispatch enumerator -> sorted effect tokens (empty set = pure handler)
  std::map<std::string, std::set<std::string>> handlers;
  std::map<std::string, int> handler_lines;  // case label line per handler
  std::string file;  // dispatcher definition file
  int line = 0;      // dispatcher definition line
};

EffectMap BuildEffectMap(const Model& model, const CheckOptions& opts);
// The golden's comment header, then one `kEnumerator: effect effect...` line
// per handler ("-" when pure).
std::string FormatEffectMap(const EffectMap& map);
// Parses golden text into handler -> effects: `kEnumerator: effect effect`
// per line, "-" for a pure handler, '#' starts a comment, blank lines are
// ignored.
std::map<std::string, std::set<std::string>> ParseEffectGolden(
    const std::string& text);
// Diffs `map` against golden text ('#' comments allowed); appends one
// "protocol-effect" finding per drifted, missing, or unexpected handler.
void DiffEffectsAgainstGolden(const EffectMap& map, const std::string& golden,
                              std::vector<Finding>* findings);

// ---------------------------------------------------------------------------
// Shared held-set machinery (lock_order.cc, reused by the dataflow passes).
//
// A held interval is the token range of one function body over which a lock
// node is observably held: a scoped acquire's scope, or a manual Lock()
// paired with the next Unlock() on the same node. Intervals carry the lambda
// index they were recorded in so a pass can ask for the held set either of
// the enclosing function proper (lambda == -1) or of one lambda body.
// ---------------------------------------------------------------------------
struct HeldInterval {
  std::string node;
  size_t from = 0;
  size_t to = 0;  // exclusive; SIZE_MAX for an unmatched manual Lock
  int lambda = -1;
};

std::vector<HeldInterval> ComputeHeldIntervals(const Model& m,
                                               const FunctionInfo& fn);
// Lock nodes held at token position `tok` within lambda `lambda` (-1 = the
// function body outside any lambda). Lambda bodies see only their own
// intervals: a deferred continuation does not run under the scopes that were
// live when it was created.
std::set<std::string> HeldNodesAt(const std::vector<HeldInterval>& intervals,
                                  size_t tok, int lambda);
// Resolves a dotted identifier chain ("mu_", "loop_.mu_", "EventLoop::mu_")
// against class `cls` to a lock-graph node name, or "" when it does not
// reach a capability-typed field.
std::string ResolveLockNode(const Model& m, const std::string& cls,
                            const std::vector<std::string>& chain);

// ---------------------------------------------------------------------------
// Dataflow passes (dataflow.cc).
//
// shared-state: for every class field, infer the set of execution contexts
// reaching each access (context-graph closure extended to unannotated
// functions and posted lambdas) and the set of mutexes observably held;
// flag multi-context fields with no common guard, no MR_GUARDED_BY, and no
// MR_CONTEXT_CONFINED waiver, plus fields whose inferred guard disagrees
// with their declared MR_GUARDED_BY.
//
// view-escape: flag string_view/Slice/span/raw-pointer values derived from
// owning buffers that escape their buffer's scope -- stored into a field,
// returned past the frame, inserted into a member container, or captured by
// a lambda handed to a deferred sink (Post/ScheduleAfter).
// ---------------------------------------------------------------------------
struct SharedStateReport {
  struct Field {
    std::string cls;
    std::string field;
    std::string file;
    int line = 0;
    std::set<std::string> contexts;       // context names reaching accesses
    std::set<std::string> common_guards;  // lock nodes held at every access
    std::string declared_guard;           // resolved MR_GUARDED_BY node
    std::string waiver;                   // MR_CONTEXT_CONFINED ctx name
    // "single-context" | "read-only" | "annotated" | "confined" |
    // "guarded" | "race" | "guard-disagreement"
    std::string verdict;
  };
  std::vector<Field> fields;
};

SharedStateReport BuildSharedStateReport(const Model& model,
                                         const CheckOptions& opts,
                                         std::vector<Finding>* findings);

void CheckViewEscape(const Model& model, const CheckOptions& opts,
                     std::vector<Finding>* findings);

// ---------------------------------------------------------------------------
// The pipeline (analyze.cc): the one entry point of the CLI and the tests.
// ---------------------------------------------------------------------------
struct Source {
  std::string path;  // as reported in findings; the per-file rules key on it
  std::string content;
};

struct Analysis {
  std::vector<Finding> findings;  // sorted; suppressed ones marked, not gone
  EffectMap effects;
  LockGraph lock_graph;
  SharedStateReport shared_state;
};

// Lexes and indexes `sources`, then runs every pass: the per-file rules, the
// model checks, the effect-golden diff (when opts.effects_golden is set),
// lock-order, shared-state and view-escape; last, it applies the
// `// miniraid-lint: allow(...)` suppressions.
Analysis Analyze(const std::vector<Source>& sources, const CheckOptions& opts);

// Prints unsuppressed findings as clickable file:line diagnostics; returns
// the number of unsuppressed findings.
int PrintFindings(const std::vector<Finding>& findings, std::ostream& os);

}  // namespace analyze
}  // namespace miniraid

#endif  // MINIRAID_TOOLS_MINIRAID_ANALYZE_ANALYZER_H_
