#include "check/trace_io.h"

#include <cctype>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace miniraid::check {

namespace {

std::string_view KindToken(ScheduleAction::Kind kind) {
  switch (kind) {
    case ScheduleAction::Kind::kSubmit:
      return "submit";
    case ScheduleAction::Kind::kFail:
      return "fail";
    case ScheduleAction::Kind::kRecover:
      return "recover";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// A minimal JSON value + recursive-descent parser. Traces are small and the
// container must not grow third-party dependencies, so this supports exactly
// what the trace format needs: objects, arrays, strings with the common
// escapes, non-negative integers, booleans, null.

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue, std::less<>>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  int64_t number = 0;
  std::string string;
  std::shared_ptr<JsonArray> array;
  std::shared_ptr<JsonObject> object;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view input) : input_(input) {}

  Result<JsonValue> Parse() {
    MINIRAID_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipSpace();
    if (pos_ != input_.size()) return Error("trailing characters");
    return value;
  }

 private:
  Status Error(std::string_view what) const {
    return Status::InvalidArgument(
        StrFormat("trace JSON: %s at offset %zu", std::string(what).c_str(),
                  pos_));
  }

  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < input_.size() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    SkipSpace();
    if (input_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= input_.size()) return Error("unexpected end of input");
    char c = input_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumber();
    }
    JsonValue v;
    if (ConsumeWord("true")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (ConsumeWord("false")) {
      v.type = JsonValue::Type::kBool;
      return v;
    }
    if (ConsumeWord("null")) return v;
    return Error("unrecognized token");
  }

  Result<JsonValue> ParseObject() {
    if (!Consume('{')) return Error("expected '{'");
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    v.object = std::make_shared<JsonObject>();
    if (Consume('}')) return v;
    while (true) {
      MINIRAID_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      if (!Consume(':')) return Error("expected ':'");
      MINIRAID_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      (*v.object)[key.string] = std::move(value);
      if (Consume(',')) continue;
      if (Consume('}')) return v;
      return Error("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray() {
    if (!Consume('[')) return Error("expected '['");
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    v.array = std::make_shared<JsonArray>();
    if (Consume(']')) return v;
    while (true) {
      MINIRAID_ASSIGN_OR_RETURN(JsonValue item, ParseValue());
      v.array->push_back(std::move(item));
      if (Consume(',')) continue;
      if (Consume(']')) return v;
      return Error("expected ',' or ']'");
    }
  }

  Result<JsonValue> ParseString() {
    SkipSpace();
    if (pos_ >= input_.size() || input_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    JsonValue v;
    v.type = JsonValue::Type::kString;
    while (pos_ < input_.size()) {
      char c = input_[pos_++];
      if (c == '"') return v;
      if (c == '\\') {
        if (pos_ >= input_.size()) return Error("unterminated escape");
        char e = input_[pos_++];
        switch (e) {
          case '"':
            v.string.push_back('"');
            break;
          case '\\':
            v.string.push_back('\\');
            break;
          case '/':
            v.string.push_back('/');
            break;
          case 'n':
            v.string.push_back('\n');
            break;
          case 't':
            v.string.push_back('\t');
            break;
          case 'r':
            v.string.push_back('\r');
            break;
          default:
            return Error("unsupported escape");
        }
        continue;
      }
      v.string.push_back(c);
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    SkipSpace();
    size_t start = pos_;
    if (pos_ < input_.size() && input_[pos_] == '-') ++pos_;
    while (pos_ < input_.size() &&
           std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected number");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = 0;
    bool negative = input_[start] == '-';
    for (size_t i = start + (negative ? 1 : 0); i < pos_; ++i) {
      v.number = v.number * 10 + (input_[i] - '0');
    }
    if (negative) v.number = -v.number;
    return v;
  }

  std::string_view input_;
  size_t pos_ = 0;
};

// Typed field accessors over a parsed object.

Result<int64_t> GetNumber(const JsonObject& obj, std::string_view key) {
  auto it = obj.find(key);
  if (it == obj.end() || it->second.type != JsonValue::Type::kNumber) {
    return Status::InvalidArgument(
        StrFormat("trace JSON: missing numeric field \"%s\"",
                  std::string(key).c_str()));
  }
  return it->second.number;
}

int64_t GetNumberOr(const JsonObject& obj, std::string_view key,
                    int64_t fallback) {
  auto it = obj.find(key);
  if (it == obj.end() || it->second.type != JsonValue::Type::kNumber) {
    return fallback;
  }
  return it->second.number;
}

std::string GetStringOr(const JsonObject& obj, std::string_view key,
                        std::string fallback) {
  auto it = obj.find(key);
  if (it == obj.end() || it->second.type != JsonValue::Type::kString) {
    return fallback;
  }
  return it->second.string;
}

bool GetBoolOr(const JsonObject& obj, std::string_view key, bool fallback) {
  auto it = obj.find(key);
  if (it == obj.end() || it->second.type != JsonValue::Type::kBool) {
    return fallback;
  }
  return it->second.boolean;
}

Result<std::vector<uint32_t>> GetUintArray(const JsonObject& obj,
                                           std::string_view key) {
  std::vector<uint32_t> out;
  auto it = obj.find(key);
  if (it == obj.end()) return out;  // optional, defaults empty
  if (it->second.type != JsonValue::Type::kArray) {
    return Status::InvalidArgument(StrFormat(
        "trace JSON: field \"%s\" must be an array", std::string(key).c_str()));
  }
  for (const JsonValue& v : *it->second.array) {
    if (v.type != JsonValue::Type::kNumber || v.number < 0) {
      return Status::InvalidArgument(
          StrFormat("trace JSON: field \"%s\" must hold non-negative integers",
                    std::string(key).c_str()));
    }
    out.push_back(static_cast<uint32_t>(v.number));
  }
  return out;
}

Result<ScheduleAction> ActionFromJson(const JsonValue& value) {
  if (value.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("trace JSON: action must be an object");
  }
  const JsonObject& obj = *value.object;
  std::string op = GetStringOr(obj, "op", "");
  ScheduleAction action;
  MINIRAID_ASSIGN_OR_RETURN(int64_t site, GetNumber(obj, "site"));
  action.site = static_cast<SiteId>(site);
  action.serial = GetBoolOr(obj, "serial", false);
  if (op == "fail") {
    action.kind = ScheduleAction::Kind::kFail;
    return action;
  }
  if (op == "recover") {
    action.kind = ScheduleAction::Kind::kRecover;
    return action;
  }
  if (op != "submit") {
    return Status::InvalidArgument(
        StrFormat("trace JSON: unknown action op \"%s\"", op.c_str()));
  }
  action.kind = ScheduleAction::Kind::kSubmit;
  action.txn.id = static_cast<TxnId>(GetNumberOr(obj, "txn", 0));
  auto ops_it = obj.find("ops");
  if (ops_it == obj.end() || ops_it->second.type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("trace JSON: submit action needs \"ops\"");
  }
  for (const JsonValue& opv : *ops_it->second.array) {
    if (opv.type != JsonValue::Type::kObject) {
      return Status::InvalidArgument("trace JSON: op must be an object");
    }
    const JsonObject& o = *opv.object;
    std::string kind = GetStringOr(o, "kind", "");
    MINIRAID_ASSIGN_OR_RETURN(int64_t item, GetNumber(o, "item"));
    if (kind == "read") {
      action.txn.ops.push_back(Operation::Read(static_cast<ItemId>(item)));
    } else if (kind == "write") {
      MINIRAID_ASSIGN_OR_RETURN(int64_t v, GetNumber(o, "value"));
      action.txn.ops.push_back(Operation::Write(static_cast<ItemId>(item),
                                                static_cast<Value>(v)));
    } else {
      return Status::InvalidArgument(
          StrFormat("trace JSON: unknown op kind \"%s\"", kind.c_str()));
    }
  }
  return action;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendUintArray(std::string* out, const std::vector<uint32_t>& values) {
  out->push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) *out += ", ";
    *out += StrFormat("%u", values[i]);
  }
  out->push_back(']');
}

}  // namespace

std::string ScheduleAction::ToString() const {
  switch (kind) {
    case Kind::kSubmit:
      return StrFormat("submit(%s @%u)", txn.ToString().c_str(), site);
    case Kind::kFail:
      return StrFormat("fail(%u)", site);
    case Kind::kRecover:
      return StrFormat("recover(%u)", site);
  }
  return "?";
}

std::string TraceToJson(const CheckTrace& trace) {
  std::string out;
  out += "{\n";
  out += StrFormat("  \"version\": %u,\n", trace.version);
  out += "  \"kind\": \"systematic\",\n";
  out += StrFormat("  \"n_sites\": %u,\n", trace.n_sites);
  out += StrFormat("  \"db_size\": %u,\n", trace.db_size);
  // Emitted only for non-serial executions so pre-concurrency golden traces
  // stay byte-identical.
  if (trace.concurrency.locking()) {
    out += StrFormat(
        "  \"concurrency\": {\"mode\": \"2pl\", \"max_executors\": %u},\n",
        trace.concurrency.max_executors);
  }
  out += "  \"note\": ";
  AppendJsonString(&out, trace.note);
  out += ",\n  \"actions\": [\n";
  for (size_t i = 0; i < trace.actions.size(); ++i) {
    const ScheduleAction& a = trace.actions[i];
    out += StrFormat("    {\"op\": \"%s\", \"site\": %u",
                     std::string(KindToken(a.kind)).c_str(), a.site);
    if (a.serial) out += ", \"serial\": true";
    if (a.kind == ScheduleAction::Kind::kSubmit) {
      out += StrFormat(", \"txn\": %lu, \"ops\": [",
                       static_cast<unsigned long>(a.txn.id));
      for (size_t j = 0; j < a.txn.ops.size(); ++j) {
        const Operation& op = a.txn.ops[j];
        if (j) out += ", ";
        if (op.is_read()) {
          out += StrFormat("{\"kind\": \"read\", \"item\": %u}", op.item);
        } else {
          out += StrFormat("{\"kind\": \"write\", \"item\": %u, \"value\": %ld}",
                           op.item, static_cast<long>(op.value));
        }
      }
      out += "]";
    }
    out += "}";
    if (i + 1 < trace.actions.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n  \"picks\": ";
  AppendUintArray(&out, trace.picks);
  out += ",\n  \"fanouts\": ";
  AppendUintArray(&out, trace.fanouts);
  out += "\n}\n";
  return out;
}

Result<CheckTrace> TraceFromJson(std::string_view json) {
  JsonParser parser(json);
  MINIRAID_ASSIGN_OR_RETURN(JsonValue root, parser.Parse());
  if (root.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("trace JSON: top level must be an object");
  }
  const JsonObject& obj = *root.object;
  CheckTrace trace;
  trace.version = static_cast<uint32_t>(GetNumberOr(obj, "version", 1));
  if (trace.version != 1) {
    return Status::InvalidArgument(
        StrFormat("trace JSON: unsupported version %u", trace.version));
  }
  MINIRAID_ASSIGN_OR_RETURN(int64_t n_sites, GetNumber(obj, "n_sites"));
  MINIRAID_ASSIGN_OR_RETURN(int64_t db_size, GetNumber(obj, "db_size"));
  trace.n_sites = static_cast<uint32_t>(n_sites);
  trace.db_size = static_cast<uint32_t>(db_size);
  trace.note = GetStringOr(obj, "note", "");
  // Optional: absent = serial (traces predating the concurrency extension).
  if (auto conc_it = obj.find("concurrency");
      conc_it != obj.end() && conc_it->second.type == JsonValue::Type::kObject) {
    const JsonObject& conc = *conc_it->second.object;
    const std::string mode = GetStringOr(conc, "mode", "serial");
    if (mode == "2pl") {
      trace.concurrency.mode = ConcurrencyMode::kTwoPhaseLocking;
    } else if (mode != "serial") {
      return Status::InvalidArgument(StrFormat(
          "trace JSON: unknown concurrency mode \"%s\"", mode.c_str()));
    }
    trace.concurrency.max_executors = static_cast<uint32_t>(
        GetNumberOr(conc, "max_executors", trace.concurrency.max_executors));
    // Older traces name their deadlock policy and a lock-wait timeout,
    // which is ignored. Wait-die is the engine's only policy, so a trace
    // recorded under any other cannot replay.
    const std::string policy = GetStringOr(conc, "deadlock_policy", "wait-die");
    if (policy != "wait-die") {
      return Status::InvalidArgument(StrFormat(
          "trace JSON: deadlock policy \"%s\" is not supported (the engine "
          "has only wait-die)",
          policy.c_str()));
    }
  }
  // Older traces may carry a "batching" block. Every transaction now
  // commits in its own 2PC round, so a trace recorded with group commit on
  // cannot replay.
  if (auto bat_it = obj.find("batching");
      bat_it != obj.end() && bat_it->second.type == JsonValue::Type::kObject) {
    const int64_t max_batch =
        GetNumberOr(*bat_it->second.object, "max_batch", 1);
    if (max_batch > 1) {
      return Status::InvalidArgument(StrFormat(
          "trace JSON: \"batching\" with max_batch %ld is not supported (the "
          "engine has no group commit)",
          static_cast<long>(max_batch)));
    }
  }
  auto actions_it = obj.find("actions");
  if (actions_it == obj.end() ||
      actions_it->second.type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("trace JSON: missing \"actions\" array");
  }
  for (const JsonValue& av : *actions_it->second.array) {
    MINIRAID_ASSIGN_OR_RETURN(ScheduleAction action, ActionFromJson(av));
    trace.actions.push_back(std::move(action));
  }
  MINIRAID_ASSIGN_OR_RETURN(trace.picks, GetUintArray(obj, "picks"));
  MINIRAID_ASSIGN_OR_RETURN(trace.fanouts, GetUintArray(obj, "fanouts"));
  if (trace.picks.size() != trace.fanouts.size()) {
    return Status::InvalidArgument(
        "trace JSON: \"picks\" and \"fanouts\" lengths differ");
  }
  for (size_t i = 0; i < trace.picks.size(); ++i) {
    if (trace.picks[i] >= trace.fanouts[i]) {
      return Status::InvalidArgument(StrFormat(
          "trace JSON: pick %zu (= %u) out of range for fanout %u", i,
          trace.picks[i], trace.fanouts[i]));
    }
  }
  return trace;
}

Result<CheckTrace> ReadTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError(StrFormat("cannot open %s", path.c_str()));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return TraceFromJson(buf.str());
}

Status WriteTraceFile(const std::string& path, const CheckTrace& trace) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError(StrFormat("cannot open %s for write", path.c_str()));
  }
  out << TraceToJson(trace);
  out.flush();
  if (!out) return Status::IoError(StrFormat("write to %s failed", path.c_str()));
  return Status::Ok();
}

}  // namespace miniraid::check
