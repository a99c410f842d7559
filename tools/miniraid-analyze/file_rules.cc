// Per-file rules. Each reads one file's path, tokens and preprocessor facts,
// never the model, and applies only under a `src/` directory (the path is
// keyed on the part after the last `src/`, wherever the tree is checked out):
//
//   raw-mutex            standard-library synchronization types
//                        (std::mutex, std::condition_variable,
//                        std::lock_guard, ...) outside src/common/. The rest
//                        of the tree uses the annotated wrappers in
//                        common/mutex.h, so clang-tsa can prove the lock
//                        discipline at compile time.
//   callback-under-lock  a user callback (`callback(`, `cb(`, `task(`,
//                        `.fn(`) or a condvar notify invoked while a scoped
//                        lock guard is in scope, in src/core, src/txn and
//                        src/net, the layers that hand replies back to
//                        callers. Foreign code under a lock deadlocks on
//                        re-entrant submission and wakes waiters into a
//                        still-held mutex (the notify-after-unlock rule).
//   layering             an `#include "<dir>/..."` may point only at the
//                        including file's own component or at one of
//                        strictly lower rank in the architecture DAG.
//   header-guard         every header opens with the include guard
//                        MINIRAID_<PATH>_H_ derived from its path under src/.

#include <cctype>
#include <map>

#include "analyzer.h"

namespace miniraid {
namespace analyze {

namespace {

// The architecture DAG, bottom (0) to top.
const std::map<std::string, int>& LayerRanks() {
  static const auto* kRanks = new std::map<std::string, int>{
      {"common", 0},
      {"db", 1},          {"metrics", 1}, {"sim", 1}, {"txn", 1},
      {"msg", 2},
      {"net", 3},         {"storage", 3},
      {"replication", 4},
      {"core", 5},
      {"baselines", 6},   {"driver", 6},
      {"check", 7}};
  return *kRanks;
}

// The path under src/ ("core/site.cc"), or "" for a file outside it.
std::string SrcRelative(const std::string& path) {
  for (size_t at = path.rfind("src/"); at != std::string::npos;
       at = at == 0 ? std::string::npos : path.rfind("src/", at - 1)) {
    if (at == 0 || path[at - 1] == '/') return path.substr(at + 4);
  }
  return "";
}

// The DAG component of a path under src/. The workload driver lives in txn/
// but is its own library (miniraid_driver), layered above core.
std::string Component(const std::string& rel) {
  if (rel == "txn/driver.h" || rel == "txn/driver.cc") return "driver";
  const size_t slash = rel.find('/');
  return slash == std::string::npos ? "" : rel.substr(0, slash);
}

class FileRules {
 public:
  FileRules(const SourceFile& file, std::vector<Finding>* findings)
      : file_(file), rel_(SrcRelative(file.path)), findings_(findings) {}

  void Run() {
    if (rel_.empty()) return;
    const std::string component = Component(rel_);
    if (component != "common") CheckRawMutex();
    if (component == "core" || component == "txn" || component == "net") {
      CheckCallbackUnderLock();
    }
    CheckLayering(component);
    if (rel_.size() > 2 && rel_.compare(rel_.size() - 2, 2, ".h") == 0) {
      CheckHeaderGuard();
    }
  }

 private:
  const std::string& Text(size_t i) const {
    static const std::string kEmpty;
    return i < file_.tokens.size() ? file_.tokens[i].text : kEmpty;
  }

  // One finding per rule and line, however many matches the line holds.
  void Report(const std::string& rule, int line, const std::string& message) {
    if (!findings_->empty() && findings_->back().rule == rule &&
        findings_->back().file == file_.path &&
        findings_->back().line == line) {
      return;
    }
    findings_->push_back(Finding{rule, file_.path, line, message});
  }

  // `std::<name>` starting at token i.
  bool IsStd(size_t i, const std::set<std::string>& names) const {
    return Text(i) == "std" && Text(i + 1) == "::" && names.count(Text(i + 2));
  }

  void CheckRawMutex() {
    static const std::set<std::string> kRaw = {
        "mutex", "timed_mutex", "recursive_mutex", "recursive_timed_mutex",
        "shared_mutex", "shared_timed_mutex", "condition_variable",
        "condition_variable_any", "lock_guard", "unique_lock", "scoped_lock",
        "shared_lock"};
    for (size_t i = 0; i < file_.tokens.size(); ++i) {
      if (!IsStd(i, kRaw)) continue;
      Report("raw-mutex", file_.tokens[i].line,
             "raw standard-library synchronization outside src/common/; use "
             "the annotated Mutex / MutexLock / CondVar wrappers "
             "(common/mutex.h) so clang-tsa can check the lock discipline");
    }
  }

  // A scoped guard declaration: the guard type followed, on the same line
  // and before any ';', by the '(' of its constructor call.
  bool IsGuardDecl(size_t i) const {
    static const std::set<std::string> kStdGuards = {
        "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};
    size_t j = i + 1;
    if (IsStd(i, kStdGuards)) {
      j = i + 3;
    } else if (Text(i) != "MutexLock") {
      return false;
    }
    const int line = file_.tokens[i].line;
    for (; j < file_.tokens.size() && file_.tokens[j].line == line; ++j) {
      if (Text(j) == "(") return true;
      if (Text(j) == ";") return false;
    }
    return false;
  }

  bool IsCallbackCall(size_t i) const {
    static const std::set<std::string> kCallbacks = {"callback", "cb", "task"};
    static const std::set<std::string> kMembers = {
        "fn", "NotifyOne", "NotifyAll", "notify_one", "notify_all"};
    if (Text(i + 1) != "(") return false;
    if (kCallbacks.count(Text(i))) return true;
    return i > 0 && (Text(i - 1) == "." || Text(i - 1) == "->") &&
           kMembers.count(Text(i));
  }

  void CheckCallbackUnderLock() {
    int depth = 0;
    std::vector<int> guard_depths;  // brace depth of each live guard
    for (size_t i = 0; i < file_.tokens.size(); ++i) {
      const std::string& t = Text(i);
      if (t == "{") {
        ++depth;
      } else if (t == "}") {
        --depth;
        while (!guard_depths.empty() && guard_depths.back() > depth) {
          guard_depths.pop_back();
        }
      } else if (IsGuardDecl(i)) {
        guard_depths.push_back(depth);
      } else if (!guard_depths.empty() && IsCallbackCall(i)) {
        Report("callback-under-lock", file_.tokens[i].line,
               "callback / condvar notify invoked while a scoped lock guard "
               "is in scope; release the lock first (notify-after-unlock "
               "rule)");
      }
    }
  }

  void CheckLayering(const std::string& component) {
    auto rank = LayerRanks().find(component);
    if (rank == LayerRanks().end()) return;
    for (const auto& [target, line] : file_.includes) {
      const std::string dir = Component(target);
      auto target_rank = LayerRanks().find(dir);
      if (target_rank == LayerRanks().end() || dir == component ||
          target_rank->second < rank->second) {
        continue;
      }
      Report("layering", line,
             "include of " + dir + "/ (rank " +
                 std::to_string(target_rank->second) + ") from " + component +
                 "/ (rank " + std::to_string(rank->second) +
                 ") points upward or sideways in the architecture DAG");
    }
  }

  void CheckHeaderGuard() {
    std::string guard = "MINIRAID_";
    for (size_t i = 0; i + 2 < rel_.size(); ++i) {
      const unsigned char c = static_cast<unsigned char>(rel_[i]);
      guard.push_back(std::isalnum(c) ? static_cast<char>(std::toupper(c))
                                      : '_');
    }
    guard += "_H_";
    if (file_.guard == guard) return;
    Report("header-guard", 1,
           "expected the header to open with include guard " + guard);
  }

  const SourceFile& file_;
  const std::string rel_;
  std::vector<Finding>* findings_;
};

}  // namespace

void CheckFileRules(const SourceFile& file, std::vector<Finding>* findings) {
  FileRules(file, findings).Run();
}

}  // namespace analyze
}  // namespace miniraid
