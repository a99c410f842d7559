// The indexer: a two-pass syntactic parser that builds the analysis Model
// without a compiler. Pass 1 records declarations (classes, bases,
// fields, method signatures, enums, aliases, MR_RUNS_ON annotations); pass 2
// parses function bodies, resolving member-call receivers through locals,
// parameters, fields (including inherited ones), accessor return types, and
// type aliases. It is deliberately conservative: anything it cannot resolve
// produces *no* call edge rather than a guess.

#include <algorithm>
#include <cassert>
#include <functional>

#include "analyzer.h"

namespace miniraid {
namespace analyze {

namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

bool IsTypeKeyword(const std::string& s) {
  static const std::set<std::string>* kWords = new std::set<std::string>{
      "void", "bool", "char", "int", "unsigned", "signed", "short", "long",
      "float", "double", "auto", "wchar_t", "size_t", "int8_t", "uint8_t",
      "int16_t", "uint16_t", "int32_t", "uint32_t", "int64_t", "uint64_t"};
  return kWords->count(s) > 0;
}

bool IsDeclSkipWord(const std::string& s) {
  static const std::set<std::string>* kWords = new std::set<std::string>{
      "const",    "constexpr", "static",   "inline",   "mutable",
      "volatile", "virtual",   "explicit", "unsigned", "signed",
      "struct",   "class",     "enum",     "typename", "register",
      "extern",   "thread_local", "override", "final",  "noexcept",
      "long",     "short"};
  return kWords->count(s) > 0;
}

bool IsStmtKeyword(const std::string& s) {
  static const std::set<std::string>* kWords = new std::set<std::string>{
      "if",       "for",         "while",    "do",         "else",
      "return",   "break",       "continue", "goto",       "new",
      "delete",   "throw",       "try",      "catch",      "sizeof",
      "alignof",  "decltype",    "typename", "template",   "true",
      "false",    "nullptr",     "const",    "constexpr",  "static",
      "struct",   "class",       "enum",     "public",     "private",
      "protected", "static_cast", "dynamic_cast", "const_cast",
      "reinterpret_cast", "static_assert", "co_return", "co_await",
      "co_yield", "operator",    "noexcept", "mutable",    "inline",
      "volatile", "unsigned",    "signed",   "long",       "short",
      "else"};
  return kWords->count(s) > 0;
}

// All-caps identifiers are macro invocations (MR_CHECK, EXPECT_EQ, ...);
// their argument tokens are still scanned, but the name itself is not a call.
bool IsMacroName(const std::string& s) {
  if (s.size() < 2) return false;
  bool has_alpha = false;
  for (char c : s) {
    if (std::islower(static_cast<unsigned char>(c))) return false;
    if (std::isupper(static_cast<unsigned char>(c))) has_alpha = true;
  }
  return has_alpha;
}

// std:: vocabulary the dataflow passes track as locals: owning buffers, the
// view types that can dangle into them, and the character types raw-pointer
// views are spelled with (`const char* p = buf.data()`).
bool IsTrackedStdType(const std::string& s) {
  static const std::set<std::string>* kTypes = new std::set<std::string>{
      "string", "string_view", "vector", "span",
      "deque",  "array",       "char",   "uint8_t"};
  return kTypes->count(s) > 0;
}

struct Parser {
  Model* model;
  SourceFile* file;
  int file_index;
  bool bodies;  // pass 2?

  const std::vector<Token>& toks() const { return file->tokens; }
  size_t size() const { return file->tokens.size(); }
  const std::string& Text(size_t i) const {
    static const std::string kEmpty;
    return i < size() ? file->tokens[i].text : kEmpty;
  }
  Token::Kind Kind(size_t i) const {
    return i < size() ? file->tokens[i].kind : Token::kPunct;
  }
  int Line(size_t i) const {
    return i < size() ? file->tokens[i].line : 0;
  }

  // `i` is at an opening ( { [ ; returns the index *after* the matching
  // closer (clamped to end on malformed input).
  size_t SkipBalanced(size_t i) const {
    const std::string& open = Text(i);
    std::string close = open == "(" ? ")" : open == "{" ? "}" : "]";
    int depth = 0;
    for (; i < size(); ++i) {
      if (Text(i) == open) {
        ++depth;
      } else if (Text(i) == close) {
        if (--depth == 0) return i + 1;
      }
    }
    return size();
  }

  // `i` is at '<'; returns index after the matching '>'. Bails out (returns
  // i + 1) if the run hits ';' or '{', which means this was a comparison.
  size_t SkipAngles(size_t i) const {
    int depth = 0;
    size_t start = i;
    for (; i < size(); ++i) {
      const std::string& t = Text(i);
      if (t == "<") {
        ++depth;
      } else if (t == ">") {
        if (--depth == 0) return i + 1;
      } else if (t == ";" || t == "{") {
        return start + 1;
      }
    }
    return start + 1;
  }

  // Extracts the "core" user-type name from a declaration-ish token span:
  // skips cv/storage keywords and attribute macros, takes the first
  // identifier chain (a::b::c<...>), and returns its last component.
  std::string CoreType(size_t begin, size_t end) const {
    for (size_t i = begin; i < end; ++i) {
      if (Kind(i) != Token::kIdent) continue;
      const std::string& t = Text(i);
      if (IsDeclSkipWord(t)) continue;
      if (t == "MR_RUNS_ON" || (IsMacroName(t) && Text(i + 1) == "(")) {
        if (Text(i + 1) == "(") i = SkipBalanced(i + 1) - 1;
        continue;
      }
      // Identifier chain.
      std::string last = t;
      size_t j = i + 1;
      while (j + 1 < end) {
        if (Text(j) == "<") {
          j = SkipAngles(j);
          continue;
        }
        if (Text(j) == "::" && Kind(j + 1) == Token::kIdent) {
          last = Text(j + 1);
          j += 2;
          continue;
        }
        break;
      }
      return last;
    }
    return "";
  }

  ClassInfo* GetClass(const std::string& name) {
    ClassInfo& c = model->classes[name];
    if (c.name.empty()) {
      c.name = name;
      c.file = file->path;
    }
    return &c;
  }

  FunctionInfo* GetFunction(const std::string& key) {
    auto it = model->by_key.find(key);
    if (it != model->by_key.end()) {
      return &model->functions[it->second.front()];
    }
    model->functions.emplace_back();
    int idx = static_cast<int>(model->functions.size()) - 1;
    model->by_key[key].push_back(idx);
    FunctionInfo* fn = &model->functions[idx];
    fn->key = key;
    return fn;
  }

  // ------------------------------------------------------------------
  // Declaration scope (namespace / file / class body).
  // ------------------------------------------------------------------
  void ParseDeclScope(size_t begin, size_t end, const std::string& cls,
                      bool is_struct) {
    std::string access = cls.empty() || is_struct ? "public" : "private";
    size_t i = begin;
    while (i < end) {
      const std::string& t = Text(i);
      if (t == ";" || t == "}") {
        ++i;
        continue;
      }
      if (Kind(i) == Token::kIdent) {
        if (t == "namespace") {
          i = ParseNamespace(i, end);
          continue;
        }
        if (t == "template") {
          ++i;
          if (Text(i) == "<") i = SkipAngles(i);
          continue;
        }
        if (t == "extern") {
          if (Kind(i + 1) == Token::kString && Text(i + 2) == "{") {
            size_t close = SkipBalanced(i + 2);
            ParseDeclScope(i + 3, close - 1, cls, is_struct);
            i = close;
            continue;
          }
          ++i;
          continue;
        }
        if (t == "using" || t == "typedef") {
          i = ParseAlias(i, end);
          continue;
        }
        if (t == "friend" || t == "static_assert") {
          while (i < end && Text(i) != ";") {
            if (Text(i) == "{") {
              i = SkipBalanced(i);
              break;
            }
            ++i;
          }
          ++i;
          continue;
        }
        if ((t == "public" || t == "private" || t == "protected") &&
            Text(i + 1) == ":") {
          access = t;
          i += 2;
          continue;
        }
        if (t == "enum") {
          i = ParseEnum(i, end, cls);
          continue;
        }
        if ((t == "class" || t == "struct") && LooksLikeClassDef(i, end)) {
          i = ParseClass(i, end);
          continue;
        }
        i = ParseDeclaration(i, end, cls, access);
        continue;
      }
      if (t == "[" && Text(i + 1) == "[") {
        i = SkipBalanced(i);
        continue;
      }
      ++i;
    }
  }

  size_t ParseNamespace(size_t i, size_t end) {
    ++i;  // 'namespace'
    while (i < end && (Kind(i) == Token::kIdent || Text(i) == "::")) ++i;
    if (Text(i) == "=") {  // namespace alias
      while (i < end && Text(i) != ";") ++i;
      return i + 1;
    }
    if (Text(i) == "{") {
      size_t close = SkipBalanced(i);
      ParseDeclScope(i + 1, close - 1, "", false);
      return close;
    }
    return i + 1;
  }

  size_t ParseAlias(size_t i, size_t end) {
    bool is_typedef = Text(i) == "typedef";
    size_t begin = i + 1;
    size_t semi = begin;
    while (semi < end && Text(semi) != ";") {
      if (Text(semi) == "{") {
        semi = SkipBalanced(semi) - 1;
      }
      ++semi;
    }
    if (is_typedef) {
      // typedef <type tokens> NAME;
      if (semi > begin + 1 && Kind(semi - 1) == Token::kIdent) {
        std::string target = CoreType(begin, semi - 1);
        if (!target.empty()) model->aliases[Text(semi - 1)] = target;
      }
    } else if (Text(begin) != "namespace") {
      // using NAME = <type tokens>;
      if (Kind(begin) == Token::kIdent && Text(begin + 1) == "=") {
        std::string target = CoreType(begin + 2, semi);
        if (!target.empty()) model->aliases[Text(begin)] = target;
      }
    }
    return semi + 1;
  }

  size_t ParseEnum(size_t i, size_t end, const std::string& cls) {
    ++i;  // 'enum'
    if (Text(i) == "class" || Text(i) == "struct") ++i;
    std::string name;
    if (Kind(i) == Token::kIdent) {
      name = Text(i);
      ++i;
    }
    while (i < end && Text(i) != "{" && Text(i) != ";") ++i;  // ': uint8_t'
    if (i >= end || Text(i) == ";") return i + 1;
    size_t close = SkipBalanced(i);
    if (!bodies && !name.empty()) {
      EnumInfo info;
      info.name = name;
      info.scope = cls;
      info.file = file->path;
      info.line = Line(i);
      // Enumerators: identifiers directly after '{' or ','.
      bool expect = true;
      int depth = 0;
      for (size_t j = i + 1; j + 1 < close; ++j) {
        const std::string& t = Text(j);
        if (t == "(" || t == "{" || t == "[") {
          j = SkipBalanced(j) - 1;
          continue;
        }
        if (t == ",") {
          expect = true;
          continue;
        }
        if (expect && Kind(j) == Token::kIdent) {
          info.enumerators.push_back(t);
          expect = false;
        }
      }
      (void)depth;
      model->enums.push_back(std::move(info));
    }
    return close;
  }

  bool LooksLikeClassDef(size_t i, size_t end) const {
    // 'class'/'struct' introduces a definition or forward declaration if a
    // '{' or ';' appears before any '=' or '(' — otherwise it is an
    // elaborated type in some declaration. Attribute-macro arguments
    // (`class MR_CAPABILITY("mutex") Mutex`) do not count as the '('.
    for (size_t j = i + 1; j < end && j < i + 24; ++j) {
      const std::string& t = Text(j);
      if (Kind(j) == Token::kIdent && IsMacroName(t) && Text(j + 1) == "(") {
        j = SkipBalanced(j + 1) - 1;
        continue;
      }
      if (t == "{" || t == ";") return true;
      if (t == "=" || t == "(" || t == ")") return false;
    }
    return false;
  }

  size_t ParseClass(size_t i, size_t end) {
    bool is_struct = Text(i) == "struct";
    ++i;
    // Skip attribute macros, take the name. Capability annotations on the
    // class head make it a lock type for the lock-order pass.
    std::string name;
    bool capability = false, scoped_capability = false;
    while (i < end) {
      if (Kind(i) == Token::kIdent) {
        if (IsMacroName(Text(i))) {
          if (Text(i) == "MR_CAPABILITY") capability = true;
          if (Text(i) == "MR_SCOPED_CAPABILITY") scoped_capability = true;
          // Attribute macros may be parenless (MR_SCOPED_CAPABILITY).
          i = Text(i + 1) == "(" ? SkipBalanced(i + 1) : i + 1;
          continue;
        }
        if (Text(i) == "final") {
          ++i;
          continue;
        }
        name = Text(i);
        ++i;
        break;
      }
      if (Text(i) == "[" && Text(i + 1) == "[") {
        i = SkipBalanced(i);
        continue;
      }
      break;
    }
    if (Text(i) == "final") ++i;
    if (Text(i) == ";") return i + 1;  // forward declaration
    std::vector<std::string> bases;
    if (Text(i) == ":") {
      size_t base_begin = ++i;
      while (i < end && Text(i) != "{" && Text(i) != ";") ++i;
      // Split base-clause on top-level ','.
      size_t seg = base_begin;
      for (size_t j = base_begin; j <= i; ++j) {
        if (j == i || Text(j) == ",") {
          // CoreType takes the first identifier, so the access specifier
          // must be stepped over, not filtered out after the fact.
          size_t s = seg;
          while (s < j && (Text(s) == "public" || Text(s) == "protected" ||
                           Text(s) == "private" || Text(s) == "virtual")) {
            ++s;
          }
          std::string b = CoreType(s, j);
          if (!b.empty()) bases.push_back(b);
          seg = j + 1;
        } else if (Text(j) == "<") {
          j = SkipAngles(j) - 1;
        }
      }
    }
    if (Text(i) != "{") return i + 1;
    size_t close = SkipBalanced(i);
    if (!name.empty()) {
      ClassInfo* info = GetClass(name);
      info->is_struct = is_struct;
      info->is_capability = info->is_capability || capability;
      info->is_scoped_capability = info->is_scoped_capability ||
                                   scoped_capability;
      if (!bodies) {
        info->line = Line(i);
        info->file = file->path;
        for (const std::string& b : bases) {
          if (std::find(info->bases.begin(), info->bases.end(), b) ==
              info->bases.end()) {
            info->bases.push_back(b);
          }
        }
      }
      ParseDeclScope(i + 1, close - 1, name, is_struct);
    } else {
      ParseDeclScope(i + 1, close - 1, "", true);
    }
    // Optional trailing declarator: `} instance_;`
    size_t j = close;
    while (j < end && Kind(j) == Token::kIdent) ++j;
    if (j < end && Text(j) == ";") return j + 1;
    return close;
  }

  // ------------------------------------------------------------------
  // A single declaration at class or namespace scope: field, alias-free
  // variable, or function (with optional body).
  // ------------------------------------------------------------------
  size_t ParseDeclaration(size_t i, size_t end, const std::string& cls,
                          const std::string& access) {
    size_t start = i;
    int paren = 0;
    size_t paren_open = kNpos, paren_close = kNpos;
    bool seen_eq = false, after_params = false, expect_params = false;
    bool has_body = false, is_defaulted = false;
    size_t body_open = kNpos;
    Ctx ctx = Ctx::kNone;
    bool is_static = false, is_operator = false;
    std::string op_name;
    size_t j = i;
    size_t last_ident = kNpos;  // candidate field name
    // MR_ACQUIRED_BEFORE/_AFTER edges seen on this declaration; attached to
    // the field below once the declaration turns out to be a field.
    std::vector<ClassInfo::LockEdge> edges;
    // MR_GUARDED_BY / MR_CONTEXT_CONFINED on a field; MR_REQUIRES chains on
    // a function.
    std::vector<std::string> guard_chain;
    Ctx confined = Ctx::kNone;
    std::vector<std::vector<std::string>> req_chains;

    while (j < end) {
      const std::string& t = Text(j);
      if (Kind(j) == Token::kIdent) {
        if (t == "MR_RUNS_ON" && Text(j + 1) == "(" &&
            Kind(j + 2) == Token::kIdent && Text(j + 3) == ")") {
          ctx = ParseCtx(Text(j + 2));
          j += 4;
          continue;
        }
        if ((t == "MR_ACQUIRED_BEFORE" || t == "MR_ACQUIRED_AFTER") &&
            Text(j + 1) == "(" && paren == 0) {
          size_t close = SkipBalanced(j + 1);
          ParseEdgeTargets(j + 2, close - 1, t == "MR_ACQUIRED_BEFORE",
                           Line(j), &edges);
          j = close;
          continue;
        }
        if ((t == "MR_GUARDED_BY" || t == "MR_PT_GUARDED_BY") &&
            Text(j + 1) == "(" && paren == 0) {
          size_t close = SkipBalanced(j + 1);
          guard_chain.clear();
          for (size_t k = j + 2; k + 1 < close; ++k) {
            if (Kind(k) == Token::kIdent && Text(k) != "this") {
              guard_chain.push_back(Text(k));
            }
          }
          j = close;
          continue;
        }
        if (t == "MR_CONTEXT_CONFINED" && Text(j + 1) == "(" &&
            Kind(j + 2) == Token::kIdent && Text(j + 3) == ")" &&
            paren == 0) {
          confined = ParseCtx(Text(j + 2));
          j += 4;
          continue;
        }
        if ((t == "MR_REQUIRES" || t == "MR_REQUIRES_SHARED") &&
            Text(j + 1) == "(" && paren == 0) {
          size_t close = SkipBalanced(j + 1);
          ParseReqTargets(j + 2, close - 1, &req_chains);
          j = close;
          continue;
        }
        if (IsMacroName(t) && Text(j + 1) == "(" && paren == 0) {
          j = SkipBalanced(j + 1);
          continue;
        }
        if (t == "static" && paren == 0) is_static = true;
        if (t == "operator" && paren == 0 && !seen_eq) {
          is_operator = true;
          op_name = "operator";
          size_t k = j + 1;
          if (Text(k) == "(" && Text(k + 1) == ")") {
            op_name += "()";
            k += 2;
          } else {
            while (k < end && Kind(k) == Token::kPunct && Text(k) != "(" &&
                   Text(k) != ";") {
              op_name += Text(k);
              ++k;
            }
            if (Kind(k) == Token::kIdent) {
              // conversion operator: `operator bool()`
              op_name += " " + Text(k);
              ++k;
            }
          }
          expect_params = true;
          j = k;
          continue;
        }
        if (paren == 0 && !seen_eq && !IsDeclSkipWord(t)) last_ident = j;
        ++j;
        continue;
      }
      if (t == "(") {
        if (paren == 0 && paren_open == kNpos && !seen_eq &&
            (expect_params ||
             (j > start && Kind(j - 1) == Token::kIdent &&
              !IsTypeKeyword(Text(j - 1)) && !IsDeclSkipWord(Text(j - 1))))) {
          paren_open = j;
        }
        ++paren;
        ++j;
        continue;
      }
      if (t == ")") {
        --paren;
        if (paren == 0 && paren_open != kNpos && paren_close == kNpos) {
          paren_close = j;
          after_params = true;
        }
        ++j;
        continue;
      }
      if (paren > 0) {
        ++j;
        continue;
      }
      if (t == "<" && !seen_eq && !after_params) {
        j = SkipAngles(j);
        continue;
      }
      if (t == "[") {
        j = SkipBalanced(j);
        continue;
      }
      if (t == "=") {
        if (after_params) {
          is_defaulted = true;  // = default / = delete / = 0
        } else {
          seen_eq = true;
        }
        ++j;
        continue;
      }
      if (t == ":" && after_params) {
        // Constructor initializer list: consume until the body '{'.
        ++j;
        while (j < end && Text(j) != "{" && Text(j) != ";") {
          if (Text(j) == "(" || Text(j) == "[") {
            j = SkipBalanced(j);
          } else if (Text(j) == "<") {
            j = SkipAngles(j);
          } else {
            ++j;
          }
        }
        continue;
      }
      if (t == "{") {
        if (after_params && !is_defaulted) {
          has_body = true;
          body_open = j;
          break;
        }
        j = SkipBalanced(j);  // brace initializer
        continue;
      }
      if (t == ";") break;
      ++j;
    }

    size_t next_i = j < end ? j + 1 : end;
    if (has_body) next_i = SkipBalanced(body_open);
    if (next_i <= i) next_i = i + 1;

    const bool is_function = paren_open != kNpos;
    if (!is_function) {
      // Field / variable.
      if (!bodies && !cls.empty() && last_ident != kNpos) {
        std::string fname = Text(last_ident);
        std::string ftype = CoreType(start, last_ident);
        if (!fname.empty() && !ftype.empty()) {
          ClassInfo* ci = GetClass(cls);
          ci->fields[fname] = ftype;
          ci->field_lines[fname] = Line(last_ident);
          if (!guard_chain.empty()) ci->field_guards[fname] = guard_chain;
          if (confined != Ctx::kNone) ci->field_confined[fname] = confined;
          for (ClassInfo::LockEdge& e : edges) {
            e.field = fname;
            ci->lock_edges.push_back(std::move(e));
          }
        }
      }
      return next_i;
    }

    // Function name (and possibly out-of-class qualifier).
    std::string name, fn_cls = cls;
    bool ctor_dtor = false;
    if (is_operator) {
      name = op_name;
      // Out-of-class operator definitions: `Foo::operator()(...)`.
      // (Scan back from 'operator' is skipped; in-class is the common case.)
    } else {
      size_t k = paren_open - 1;
      if (Kind(k) != Token::kIdent) return next_i;
      name = Text(k);
      if (k > start && Text(k - 1) == "~") {
        name = "~" + name;
        ctor_dtor = true;
        --k;
      }
      // Qualified name: A::B::name — last qualifier is the class.
      while (k >= 2 && Text(k - 1) == "::" && Kind(k - 2) == Token::kIdent) {
        fn_cls = Text(k - 2);
        k -= 2;
        break;  // only the innermost qualifier matters
      }
      if (IsTypeKeyword(name) || IsStmtKeyword(name)) return next_i;
      if (name == fn_cls) ctor_dtor = true;
    }

    // First parameter's core type (for operator() keying and codec helpers).
    std::string param0;
    {
      size_t p_end = paren_close;
      for (size_t k = paren_open + 1; k < paren_close; ++k) {
        if (Text(k) == "(" || Text(k) == "[" || Text(k) == "{") {
          k = SkipBalanced(k) - 1;
        } else if (Text(k) == "<") {
          k = SkipAngles(k) - 1;
        } else if (Text(k) == ",") {
          p_end = k;
          break;
        }
      }
      param0 = CoreType(paren_open + 1, p_end);
    }

    std::string key = fn_cls.empty() ? name : fn_cls + "::" + name;
    if (name == "operator()") key += "@" + param0;

    FunctionInfo* fn = GetFunction(key);
    if (!bodies) {
      if (fn->name.empty()) {
        fn->cls = fn_cls;
        fn->name = name;
        fn->file = file->path;
        fn->line = Line(start);
        fn->file_index = file_index;
        fn->param0_type = param0;
      }
      if (ctx != Ctx::kNone && fn->ctx == Ctx::kNone) {
        fn->ctx = ctx;
        fn->ctx_inherited = false;
      }
      if (fn->ret_type.empty() && !ctor_dtor && !is_operator) {
        fn->ret_type = CoreType(start, paren_open - 1);
      }
      if (fn->entry_locks.empty() && !req_chains.empty()) {
        fn->entry_locks = std::move(req_chains);
      }
      if (!cls.empty()) {
        fn->is_public = fn->is_public || access == "public";
        fn->is_ctor_dtor = fn->is_ctor_dtor || ctor_dtor;
        fn->is_operator = fn->is_operator || is_operator;
        fn->is_static = fn->is_static || is_static;
        ClassInfo* ci = GetClass(cls);
        ci->methods.insert(name);
        if (!ctor_dtor) {
          std::string ret = CoreType(start, is_operator ? paren_open
                                                        : paren_open - 1);
          if (!ret.empty()) ci->method_ret[name] = ret;
        }
      }
      if (has_body) fn->is_defn = true;
    } else if (has_body) {
      // Parameters seed the local symbol table.
      std::map<std::string, std::string> locals;
      SeedParams(paren_open, paren_close, &locals);
      size_t body_close = SkipBalanced(body_open);
      ParseStmts(body_open + 1, body_close - 1, fn_cls, &locals, -1,
                 nullptr, fn);
    }
    return next_i;
  }

  void SeedParams(size_t open, size_t close,
                  std::map<std::string, std::string>* locals) {
    size_t seg = open + 1;
    for (size_t j = open + 1; j <= close; ++j) {
      if (j == close || (Text(j) == "," && j < close)) {
        if (j > seg + 1) {
          // name = last identifier; type = core of the rest.
          size_t name_idx = kNpos;
          for (size_t k = j; k-- > seg;) {
            if (Kind(k) == Token::kIdent && !IsDeclSkipWord(Text(k))) {
              name_idx = k;
              break;
            }
          }
          if (name_idx != kNpos && name_idx > seg) {
            std::string ty = CoreType(seg, name_idx);
            if (!ty.empty()) (*locals)[Text(name_idx)] = ty;
          }
        }
        seg = j + 1;
        continue;
      }
      if (Text(j) == "(" || Text(j) == "[" || Text(j) == "{") {
        j = SkipBalanced(j) - 1;
      } else if (Text(j) == "<") {
        j = SkipAngles(j) - 1;
      }
    }
  }

  // Capture list of a lambda literal: tokens in [begin, end_tok) between
  // the '[' and its ']'. Splits on top-level commas; recognizes the capture
  // defaults '&' and '=', `this` / `*this`, by-reference and init captures.
  void ParseCaptures(size_t begin, size_t end_tok, LambdaInfo* li) const {
    size_t seg = begin;
    for (size_t k = begin; k <= end_tok; ++k) {
      if (k < end_tok &&
          (Text(k) == "(" || Text(k) == "[" || Text(k) == "{")) {
        k = SkipBalanced(k) - 1;
        continue;
      }
      if (k < end_tok && Text(k) != ",") continue;
      size_t b = seg;
      seg = k + 1;
      if (b >= k) continue;
      if (Text(b) == "&" && b + 1 == k) {
        li->capture_default = '&';
        continue;
      }
      if (Text(b) == "=" && b + 1 == k) {
        li->capture_default = '=';
        continue;
      }
      if (Text(b) == "this" ||
          (Text(b) == "*" && Text(b + 1) == "this")) {
        li->captures_this = true;
        continue;
      }
      LambdaInfo::Capture cap;
      size_t m = b;
      if (Text(m) == "&") {
        cap.by_ref = true;
        ++m;
      }
      if (Kind(m) != Token::kIdent) continue;
      cap.name = Text(m);
      cap.is_init = m + 1 < k && Text(m + 1) == "=";
      li->captures.push_back(std::move(cap));
    }
  }

  // When the lambda literal at `lam_tok` is written directly as a call
  // argument (`loop_->Post(0, [this] {...})`), records that call's callee
  // and resolved receiver class so the dataflow passes can map the lambda
  // to a deferred-execution sink. Lambdas first assigned to a variable and
  // posted later stay hostless (conservative: no context, no escape rule).
  void DetectLambdaHost(size_t lam_tok, const std::string& cls,
                        const std::map<std::string, std::string>& locals,
                        LambdaInfo* li) const {
    int depth = 0;
    size_t k = lam_tok;
    while (k > 0) {
      --k;
      const std::string& t = Text(k);
      if (t == ")" || t == "]" || t == "}") {
        ++depth;
      } else if (t == "(" || t == "[" || t == "{") {
        if (depth == 0) {
          if (t != "(") return;  // brace-init / subscript: not a call arg
          break;
        }
        --depth;
      } else if (depth == 0 && (t == ";" || t == "=" || t == "{")) {
        return;  // statement or assignment boundary reached first
      }
      if (k == 0) return;
    }
    if (k == 0 || Kind(k - 1) != Token::kIdent) return;
    size_t callee_tok = k - 1;
    const std::string& callee = Text(callee_tok);
    if (IsMacroName(callee) || IsStmtKeyword(callee)) return;
    li->host_callee = callee;
    const std::string& prev = callee_tok > 0 ? Text(callee_tok - 1) : "";
    if (prev == "." || prev == "->") {
      li->host_receiver = ResolveReceiver(callee_tok - 1, cls, locals);
    } else if (prev != "::" && !cls.empty() &&
               model->FindMethod(cls, callee) >= 0) {
      li->host_receiver = cls;  // implicit this
    }
  }

  // Splits an MR_ACQUIRED_BEFORE/_AFTER argument span on top-level commas;
  // each target becomes an identifier chain (`loop_->mu_` -> {loop_, mu_}).
  void ParseEdgeTargets(size_t begin, size_t end_tok, bool before, int line,
                        std::vector<ClassInfo::LockEdge>* out) const {
    ClassInfo::LockEdge cur;
    cur.before = before;
    cur.line = line;
    for (size_t k = begin; k <= end_tok; ++k) {
      if (k == end_tok || Text(k) == ",") {
        if (!cur.target.empty()) out->push_back(cur);
        cur.target.clear();
        continue;
      }
      if (Text(k) == "(" || Text(k) == "[" || Text(k) == "{") {
        k = SkipBalanced(k) - 1;
        continue;
      }
      if (Kind(k) == Token::kIdent && Text(k) != "this") {
        cur.target.push_back(Text(k));
      }
    }
  }

  // Splits an MR_REQUIRES argument span on top-level commas; each target
  // becomes an identifier chain (resolved to a lock node by the passes,
  // once the whole model exists).
  void ParseReqTargets(size_t begin, size_t end_tok,
                       std::vector<std::vector<std::string>>* out) const {
    std::vector<std::string> cur;
    for (size_t k = begin; k <= end_tok; ++k) {
      if (k == end_tok || Text(k) == ",") {
        if (!cur.empty()) out->push_back(cur);
        cur.clear();
        continue;
      }
      if (Text(k) == "(" || Text(k) == "[" || Text(k) == "{") {
        k = SkipBalanced(k) - 1;
        continue;
      }
      if (Kind(k) == Token::kIdent && Text(k) != "this") cur.push_back(Text(k));
    }
  }

  // Dataflow root of an expression span: the first identifier that is not a
  // wrapper (std::move, a constructor of a tracked type, a macro), plus the
  // last member call on it (`Slice(buf.data(), n)` -> root "buf", call
  // "data"). Used for local initializers, field-store RHS, and returns.
  void ExtractRootCall(size_t begin, size_t end_tok, std::string* root,
                       std::string* call) const {
    for (size_t k = begin; k < end_tok; ++k) {
      const std::string& t = Text(k);
      if (t == "<" && root->empty()) {
        k = SkipAngles(k) - 1;
        continue;
      }
      if (Kind(k) != Token::kIdent) continue;
      if (t == "std" || t == "this" || IsStmtKeyword(t) || IsDeclSkipWord(t)) {
        continue;
      }
      if (t == "move" && Text(k + 1) == "(") continue;
      std::string core = model->ResolveAlias(t);
      if ((model->classes.count(core) || IsTrackedStdType(core)) &&
          (Text(k + 1) == "(" || Text(k + 1) == "{")) {
        continue;  // constructor wrapper: the root is inside its arguments
      }
      if (IsMacroName(t)) {
        if (Text(k + 1) == "(") k = SkipBalanced(k + 1) - 1;
        continue;
      }
      if (root->empty()) *root = t;
      if (k > begin && (Text(k - 1) == "." || Text(k - 1) == "->") &&
          Text(k + 1) == "(") {
        *call = t;
      }
    }
  }

  // Resolves an identifier chain (tokens in [begin, end_tok), punctuation
  // ignored) to a lock node "OwnerClass::field". Locals that are themselves
  // mutexes have no cross-function identity and resolve to "".
  std::string ResolveNodeChain(size_t begin, size_t end_tok,
                               const std::string& cls,
                               const std::map<std::string, std::string>& locals)
      const {
    std::vector<std::string> chain;
    for (size_t k = begin; k < end_tok; ++k) {
      if (Kind(k) == Token::kIdent && Text(k) != "this") {
        chain.push_back(Text(k));
      } else if (Text(k) == "(" || Text(k) == "[" || Text(k) == "{") {
        k = SkipBalanced(k) - 1;
      }
    }
    return ResolveChainToNode(chain, cls, locals);
  }

  std::string ResolveChainToNode(
      const std::vector<std::string>& chain, const std::string& cls,
      const std::map<std::string, std::string>& locals) const {
    if (chain.empty()) return "";
    std::string owner;  // class owning the final field
    if (chain.size() == 1) {
      if (locals.count(chain[0])) return "";  // function-local mutex
      owner = model->ResolveAlias(cls);
    } else {
      auto it = locals.find(chain[0]);
      std::string cur = it != locals.end()
                            ? it->second
                            : model->FieldType(cls, chain[0]);
      if (cur.empty()) return "";
      for (size_t e = 1; e + 1 < chain.size(); ++e) {
        cur = model->FieldType(cur, chain[e]);
        if (cur.empty()) return "";
      }
      owner = model->ResolveAlias(cur);
    }
    if (owner.empty()) return "";
    if (model->FieldType(owner, chain.back()).empty()) return "";
    return owner + "::" + chain.back();
  }

  // Position of the '}' closing the block that encloses `from` (file end if
  // the scan runs out — the function's own closing brace at the latest).
  size_t FindScopeEnd(size_t from) const {
    int depth = 0;
    for (size_t k = from; k < size(); ++k) {
      if (Text(k) == "{") {
        ++depth;
      } else if (Text(k) == "}") {
        if (--depth < 0) return k;
      }
    }
    return size();
  }

  // Resolved core type of the last top-level argument of the call whose
  // callee token is at `callee_tok` — through std::move and braced/paren
  // construction. Used for SendTo payload classification; "" when the type
  // cannot be pinned down.
  std::string ResolveLastArgType(
      size_t callee_tok, const std::string& cls,
      const std::map<std::string, std::string>& locals) const {
    size_t open = callee_tok + 1;
    if (Text(open) != "(") return "";
    size_t close = SkipBalanced(open) - 1;
    size_t seg = open + 1;
    for (size_t k = open + 1; k < close; ++k) {
      if (Text(k) == "(" || Text(k) == "[" || Text(k) == "{") {
        k = SkipBalanced(k) - 1;
      } else if (Text(k) == "<") {
        k = SkipAngles(k) - 1;
      } else if (Text(k) == ",") {
        seg = k + 1;
      }
    }
    return ResolveArgType(seg, close, cls, locals);
  }

  std::string ResolveArgType(
      size_t begin, size_t end_tok, const std::string& cls,
      const std::map<std::string, std::string>& locals) const {
    if (begin >= end_tok) return "";
    // std::move(x) / move(x): the inner expression's type.
    size_t k = begin;
    if (Text(k) == "std" && Text(k + 1) == "::") k += 2;
    if (Text(k) == "move" && Text(k + 1) == "(") {
      return ResolveArgType(k + 2, SkipBalanced(k + 1) - 1, cls, locals);
    }
    // Type{...} / Type(...): direct construction of a known class.
    for (size_t m = begin; m < end_tok; ++m) {
      if (Kind(m) != Token::kIdent) continue;
      std::string core = model->ResolveAlias(Text(m));
      if (model->classes.count(core) &&
          (Text(m + 1) == "{" || Text(m + 1) == "(")) {
        return core;
      }
      break;
    }
    // Lone identifier (or x.y chain): a local, parameter, or field.
    std::vector<std::string> chain;
    for (size_t m = begin; m < end_tok; ++m) {
      if (Kind(m) == Token::kIdent) {
        if (IsStmtKeyword(Text(m))) return "";
        chain.push_back(Text(m));
      } else if (Text(m) != "." && Text(m) != "->" && Text(m) != "*" &&
                 Text(m) != "&") {
        return "";
      }
    }
    if (chain.empty()) return "";
    auto it = locals.find(chain[0]);
    std::string cur = it != locals.end() ? it->second
                                         : model->FieldType(cls, chain[0]);
    for (size_t e = 1; e < chain.size() && !cur.empty(); ++e) {
      cur = model->FieldType(cur, chain[e]);
    }
    return model->ResolveAlias(cur);
  }

  // ------------------------------------------------------------------
  // Statement scope (function and lambda bodies).
  // ------------------------------------------------------------------
  // `lambda` is the index into fn->lambdas of the enclosing lambda literal
  // (-1 = the function body proper); every recorded fact carries it so the
  // dataflow passes can tell deferred-continuation code from frame code.
  void ParseStmts(size_t begin, size_t end, const std::string& cls,
                  std::map<std::string, std::string>* locals, int lambda,
                  SwitchInfo* sw, FunctionInfo* fn) {
    size_t j = begin;
    while (j < end) {
      const std::string& t = Text(j);
      if (Kind(j) == Token::kIdent) {
        if (t == "switch") {
          // Condition (scan for calls), then the switch body.
          size_t cond_open = j + 1;
          if (Text(cond_open) == "(") {
            size_t cond_close = SkipBalanced(cond_open);
            ParseStmts(cond_open + 1, cond_close - 1, cls, locals, lambda,
                       sw, fn);
            j = cond_close;
          } else {
            ++j;
          }
          if (Text(j) == "{") {
            size_t close = SkipBalanced(j);
            SwitchInfo inner;
            inner.line = Line(j);
            inner.file_index = file_index;
            ParseStmts(j + 1, close - 1, cls, locals, lambda, &inner, fn);
            fn->switches.push_back(std::move(inner));
            j = close;
          }
          continue;
        }
        if (t == "case" && sw != nullptr) {
          size_t k = j + 1;
          std::vector<std::string> chain;
          while (k < end && Text(k) != ":" && Text(k) != ";") {
            if (Kind(k) == Token::kIdent) chain.push_back(Text(k));
            ++k;
          }
          if (!chain.empty()) {
            CaseLabel label;
            label.enumerator = chain.back();
            if (chain.size() >= 2) label.enum_qual = chain[chain.size() - 2];
            label.line = Line(j);
            label.tok = j;
            sw->cases.push_back(std::move(label));
          }
          j = k + 1;
          continue;
        }
        if (t == "default" && sw != nullptr && Text(j + 1) == ":") {
          sw->has_default = true;
          j += 2;
          continue;
        }
        if (t == "using" || t == "typedef") {
          while (j < end && Text(j) != ";") ++j;
          continue;
        }
        if (IsMacroName(t)) {
          ++j;  // macro name is not a call; its arguments are still scanned
          continue;
        }
        if (t == "return" && fn != nullptr) {
          // Record the returned expression's dataflow root. The expression
          // tokens are NOT skipped: calls and accesses inside it still
          // index normally on subsequent iterations.
          size_t semi = j + 1;
          while (semi < end && Text(semi) != ";") {
            if (Text(semi) == "(" || Text(semi) == "[" ||
                Text(semi) == "{") {
              semi = SkipBalanced(semi);
            } else {
              ++semi;
            }
          }
          if (semi > j + 1) {
            ReturnInfo ri;
            ri.line = Line(j);
            ri.file_index = file_index;
            ri.tok = j;
            ri.lambda = lambda;
            ExtractRootCall(j + 1, semi, &ri.root, &ri.call);
            fn->returns.push_back(std::move(ri));
          }
          ++j;
          continue;
        }
        if (IsStmtKeyword(t)) {
          ++j;
          continue;
        }
        // Local declaration: KnownType [<...>] [&*const] name {; = ( ,}
        // `std::`-qualified buffer/view types are tracked alongside the
        // model's own classes so view lifetimes can be chained.
        size_t type_tok = j;
        std::string tname = t;
        if (t == "std" && Text(j + 1) == "::" &&
            Kind(j + 2) == Token::kIdent) {
          tname = Text(j + 2);
          type_tok = j + 2;
        }
        std::string core = model->ResolveAlias(tname);
        bool known_class = model->classes.count(core) > 0;
        if ((known_class || IsTrackedStdType(core)) &&
            Text(type_tok + 1) != "(" && Text(type_tok + 1) != "." &&
            Text(type_tok + 1) != "->") {
          size_t k = type_tok + 1;
          if (Text(k) == "<") k = SkipAngles(k);
          while (Text(k) == "&" || Text(k) == "*" || Text(k) == "const") ++k;
          if (Kind(k) == Token::kIdent && !IsStmtKeyword(Text(k))) {
            const std::string& nxt = Text(k + 1);
            if (nxt == ";" || nxt == "=" || nxt == "{" || nxt == "(" ||
                nxt == ",") {
              (*locals)[Text(k)] = core;
              if (fn != nullptr) {
                LocalVar lv;
                lv.name = Text(k);
                lv.type = core;
                lv.line = Line(j);
                lv.file_index = file_index;
                lv.tok = j;
                lv.lambda = lambda;
                if (nxt == "=" || nxt == "(" || nxt == "{") {
                  size_t ib = k + 2, ie;
                  if (nxt == "=") {
                    ie = ib;
                    while (ie < end && Text(ie) != ";" && Text(ie) != ",") {
                      if (Text(ie) == "(" || Text(ie) == "[" ||
                          Text(ie) == "{") {
                        ie = SkipBalanced(ie);
                      } else {
                        ++ie;
                      }
                    }
                  } else {
                    ie = SkipBalanced(k + 1) - 1;
                  }
                  ExtractRootCall(ib, ie, &lv.init_root, &lv.init_call);
                }
                fn->locals.push_back(std::move(lv));
              }
              // Scoped lock: `MutexLock lock(mu_);` holds the constructor-
              // argument mutex until the enclosing block closes.
              if (known_class &&
                  model->classes.find(core)->second.is_scoped_capability &&
                  (nxt == "(" || nxt == "{")) {
                size_t args_close = SkipBalanced(k + 1);
                ScopedAcquire sa;
                sa.node = ResolveNodeChain(k + 2, args_close - 1, cls,
                                           *locals);
                sa.tok = j;
                sa.release_tok = FindScopeEnd(args_close);
                sa.line = Line(j);
                sa.file_index = file_index;
                sa.in_lambda = lambda >= 0;
                sa.lambda = lambda;
                fn->scoped_acquires.push_back(std::move(sa));
              }
              j = k + 1;
              continue;
            }
          }
        }
        // Call?
        if (Text(j + 1) == "(") {
          const std::string& prev = j > 0 ? Text(j - 1) : "";
          CallSite call;
          call.callee = t;
          call.line = Line(j);
          call.file_index = file_index;
          call.tok = j;
          call.in_lambda = lambda >= 0;
          call.lambda = lambda;
          if (prev == "." || prev == "->") {
            call.is_member = true;
            call.receiver_type =
                ResolveReceiver(j - 1, cls, *locals, &call.receiver_node);
          } else if (prev == "::") {
            call.qualified = true;
          } else if (!cls.empty() &&
                     model->FindMethod(cls, t) >= 0) {
            call.is_member = true;  // implicit this
            call.receiver_type = cls;
          }
          call.last_arg_type = ResolveLastArgType(j, cls, *locals);
          fn->calls.push_back(std::move(call));
          ++j;
          continue;
        }
        // Plain identifier: a root-level access to a field of the enclosing
        // class? (Locals shadow fields; member chains off other objects are
        // attributed to that object's own methods, not here.)
        if (fn != nullptr && !cls.empty() && locals->count(t) == 0) {
          const std::string& prev = j > 0 ? Text(j - 1) : "";
          bool rooted = prev != "." && prev != "::" &&
                        (prev != "->" || (j >= 2 && Text(j - 2) == "this"));
          std::string owner = rooted ? model->FieldOwner(cls, t) : "";
          if (!owner.empty()) {
            FieldAccess fa;
            fa.cls = owner;
            fa.field = t;
            fa.line = Line(j);
            fa.file_index = file_index;
            fa.tok = j;
            fa.lambda = lambda;
            // Walk the member/subscript chain to find a trailing call and
            // the token that follows the whole access expression.
            size_t n = j + 1;
            std::string last_member;
            bool chain_is_call = false;
            int hops = 0;
            while (n < end) {
              if (Text(n) == "[" && Text(n + 1) != "[") {
                n = SkipBalanced(n);
                continue;
              }
              if ((Text(n) == "." || Text(n) == "->") &&
                  Kind(n + 1) == Token::kIdent) {
                last_member = Text(n + 1);
                chain_is_call = false;
                ++hops;
                n += 2;
                if (Text(n) == "(") {
                  chain_is_call = true;
                  n = SkipBalanced(n);
                }
                continue;
              }
              break;
            }
            // A call one hop deep operates on the field itself
            // (counters_.Add(...)); deeper chains mutate some other object
            // reached through it (options_.trace->Record(...)).
            if (chain_is_call && hops == 1) fa.via_call = last_member;
            // Mutation: an assignment operator after the chain, or ++/--
            // on either side. The lexer splits compound operators into
            // single-character punctuation ("+=" is "+" "="), so these are
            // token-sequence matches.
            const std::string& a = Text(n);
            const std::string& b = Text(n + 1);
            const std::string& c = Text(n + 2);
            bool is_assign =
                (a == "=" && b != "=") ||
                ((a == "+" || a == "-" || a == "*" || a == "/" || a == "%" ||
                  a == "&" || a == "|" || a == "^") &&
                 b == "=" && c != "=") ||
                (a == "<" && b == "<" && c == "=") ||
                (a == ">" && b == ">" && c == "=") ||
                (a == "+" && b == "+") || (a == "-" && b == "-");
            bool pre_incdec =
                j >= 2 && ((Text(j - 1) == "+" && Text(j - 2) == "+") ||
                           (Text(j - 1) == "-" && Text(j - 2) == "-"));
            fa.is_write = is_assign || pre_incdec;
            fn->accesses.push_back(std::move(fa));
            // Direct store `field_ = expr;`: record the RHS's dataflow
            // root for the view-escape pass.
            if (last_member.empty() && a == "=" && b != "=") {
              FieldStore fs;
              fs.cls = owner;
              fs.field = t;
              fs.line = Line(j);
              fs.file_index = file_index;
              fs.tok = j;
              fs.lambda = lambda;
              size_t semi = n + 1;
              while (semi < end && Text(semi) != ";") {
                if (Text(semi) == "(" || Text(semi) == "[" ||
                    Text(semi) == "{") {
                  semi = SkipBalanced(semi);
                } else {
                  ++semi;
                }
              }
              ExtractRootCall(n + 1, semi, &fs.rhs_root, &fs.rhs_call);
              fn->field_stores.push_back(std::move(fs));
            }
          }
        }
        ++j;
        continue;
      }
      if (t == "[") {
        if (Text(j + 1) == "[") {  // [[attribute]]
          j = SkipBalanced(j);
          continue;
        }
        const std::string& prev = j > begin ? Text(j - 1) : "";
        bool subscript = (j > begin) && (Kind(j - 1) == Token::kIdent ||
                                         Kind(j - 1) == Token::kNumber ||
                                         prev == ")" || prev == "]");
        if (!subscript) {
          // Structured binding, not a lambda: `auto [a, b]`, `auto& [a, b]`,
          // `auto&& [a, b]`. Mistaking it for a lambda would swallow the
          // rest of the enclosing statement (e.g. a for-loop body) into a
          // phantom lambda body and hide its calls from every pass.
          if (prev == "auto" ||
              ((prev == "&" || prev == "&&") && j >= begin + 2 &&
               Text(j - 2) == "auto")) {
            j = SkipBalanced(j);
            continue;
          }
          // Lambda: [captures] (params)? specifiers? { body }
          size_t cap_close = SkipBalanced(j);
          LambdaInfo li;
          li.line = Line(j);
          li.file_index = file_index;
          li.tok = j;
          ParseCaptures(j + 1, cap_close - 1, &li);
          DetectLambdaHost(j, cls, *locals, &li);
          size_t k = cap_close;
          std::map<std::string, std::string> inner_locals = *locals;
          if (Text(k) == "(") {
            size_t p_close = SkipBalanced(k) - 1;
            SeedParams(k, p_close, &inner_locals);
            k = p_close + 1;
          }
          while (k < end && Text(k) != "{" && Text(k) != ";") ++k;
          if (Text(k) == "{") {
            size_t body_close = SkipBalanced(k);
            int lam_idx = -1;
            if (fn != nullptr) {
              fn->lambdas.push_back(std::move(li));
              lam_idx = static_cast<int>(fn->lambdas.size()) - 1;
            }
            ParseStmts(k + 1, body_close - 1, cls, &inner_locals, lam_idx,
                       nullptr, fn);
            j = body_close;
            continue;
          }
          j = k;
          continue;
        }
        ++j;
        continue;
      }
      ++j;
    }
  }

  // Resolves the receiver chain ending at the '.' or '->' at `sep`. When
  // `node` is non-null and the chain ends in a field, it receives the
  // receiver's identity as "OwnerClass::field" (the lock-order pass keys
  // mutex Lock/Unlock/Wait ops on it).
  std::string ResolveReceiver(size_t sep,
                              const std::string& cls,
                              const std::map<std::string, std::string>& locals,
                              std::string* node = nullptr)
      const {
    struct Elem {
      enum Kind { kIdent, kCall, kThis, kIndex } kind;
      std::string name;
    };
    std::vector<Elem> chain;
    size_t k = sep;
    while (true) {
      if (k == 0) break;
      --k;  // token before the separator / previous element
      const std::string& t = Text(k);
      if (t == "this") {
        chain.push_back({Elem::kThis, ""});
      } else if (t == ")") {
        // find matching '('
        int depth = 0;
        size_t m = k;
        while (true) {
          if (Text(m) == ")") ++depth;
          if (Text(m) == "(") {
            if (--depth == 0) break;
          }
          if (m == 0) return "";
          --m;
        }
        if (m == 0 || Kind(m - 1) != Token::kIdent) return "";
        chain.push_back({Elem::kCall, Text(m - 1)});
        k = m - 1;
      } else if (t == "]") {
        int depth = 0;
        size_t m = k;
        while (true) {
          if (Text(m) == "]") ++depth;
          if (Text(m) == "[") {
            if (--depth == 0) break;
          }
          if (m == 0) return "";
          --m;
        }
        chain.push_back({Elem::kIndex, ""});
        k = m;
        continue;  // the indexed expression continues to the left
      } else if (Kind(k) == Token::kIdent) {
        if (IsStmtKeyword(t)) return "";
        chain.push_back({Elem::kIdent, t});
      } else {
        return "";
      }
      // Is there another chain element to the left?
      if (k == 0) break;
      const std::string& prev = Text(k - 1);
      if (prev == "." || prev == "->") {
        k -= 1;  // loop decrements onto the element before the separator
        continue;
      }
      if (prev == "::") {
        // Namespace-qualified variable: drop the qualifier.
        size_t m = k - 1;
        while (m >= 1 && Text(m) == "::" && Kind(m - 1) == Token::kIdent) {
          if (m < 2) break;
          m -= 2;
        }
        break;
      }
      break;
    }
    if (chain.empty()) return "";
    std::reverse(chain.begin(), chain.end());

    std::string cur;
    std::string node_candidate;  // "Owner::field" when the element is a field
    for (size_t e = 0; e < chain.size(); ++e) {
      const Elem& el = chain[e];
      node_candidate.clear();
      if (e == 0) {
        switch (el.kind) {
          case Elem::kThis:
            cur = cls;
            break;
          case Elem::kIdent: {
            auto it = locals.find(el.name);
            if (it != locals.end()) {
              cur = it->second;
            } else if (!cls.empty()) {
              cur = model->FieldType(cls, el.name);
              if (!cur.empty()) {
                node_candidate = model->ResolveAlias(cls) + "::" + el.name;
              }
            }
            break;
          }
          case Elem::kCall: {
            if (!cls.empty()) cur = MethodRet(cls, el.name);
            break;
          }
          case Elem::kIndex:
            return "";
        }
      } else {
        if (cur.empty()) return "";
        switch (el.kind) {
          case Elem::kIdent: {
            std::string owner = cur;
            cur = model->FieldType(cur, el.name);
            if (!cur.empty()) node_candidate = owner + "::" + el.name;
            break;
          }
          case Elem::kCall:
            cur = MethodRet(cur, el.name);
            break;
          case Elem::kIndex:
          case Elem::kThis:
            return "";
        }
      }
      if (cur.empty()) return "";
      cur = model->ResolveAlias(cur);
    }
    if (node != nullptr) *node = node_candidate;
    return cur;
  }

  std::string MethodRet(const std::string& cls, const std::string& name)
      const {
    // Walk the class and its bases for a recorded return type.
    std::vector<std::string> stack{model->ResolveAlias(cls)};
    std::set<std::string> seen;
    while (!stack.empty()) {
      std::string c = stack.back();
      stack.pop_back();
      if (!seen.insert(c).second) continue;
      auto it = model->classes.find(c);
      if (it == model->classes.end()) continue;
      auto rit = it->second.method_ret.find(name);
      if (rit != it->second.method_ret.end()) {
        return model->ResolveAlias(rit->second);
      }
      for (const std::string& b : it->second.bases) stack.push_back(b);
    }
    return "";
  }
};

}  // namespace

std::string Model::ResolveAlias(const std::string& name) const {
  std::string cur = name;
  for (int i = 0; i < 8; ++i) {
    auto it = aliases.find(cur);
    if (it == aliases.end()) return cur;
    cur = it->second;
  }
  return cur;
}

bool Model::DerivesFrom(const std::string& cls, const std::string& base)
    const {
  if (cls == base) return true;
  std::vector<std::string> stack{cls};
  std::set<std::string> seen;
  while (!stack.empty()) {
    std::string c = stack.back();
    stack.pop_back();
    if (!seen.insert(c).second) continue;
    auto it = classes.find(c);
    if (it == classes.end()) continue;
    for (const std::string& b : it->second.bases) {
      if (b == base) return true;
      stack.push_back(b);
    }
  }
  return false;
}

int Model::FindMethod(const std::string& cls, const std::string& name) const {
  std::vector<std::string> stack{ResolveAlias(cls)};
  std::set<std::string> seen;
  while (!stack.empty()) {
    std::string c = stack.back();
    stack.pop_back();
    if (!seen.insert(c).second) continue;
    auto key = by_key.find(c + "::" + name);
    if (key != by_key.end()) return key->second.front();
    auto it = classes.find(c);
    if (it == classes.end()) continue;
    for (const std::string& b : it->second.bases) stack.push_back(b);
  }
  return -1;
}

std::string Model::FieldOwner(const std::string& cls,
                              const std::string& field) const {
  std::vector<std::string> stack{ResolveAlias(cls)};
  std::set<std::string> seen;
  while (!stack.empty()) {
    std::string c = stack.back();
    stack.pop_back();
    if (!seen.insert(c).second) continue;
    auto it = classes.find(c);
    if (it == classes.end()) continue;
    if (it->second.fields.count(field)) return c;
    for (const std::string& b : it->second.bases) stack.push_back(b);
  }
  return "";
}

std::string Model::FieldType(const std::string& cls, const std::string& field)
    const {
  std::vector<std::string> stack{ResolveAlias(cls)};
  std::set<std::string> seen;
  while (!stack.empty()) {
    std::string c = stack.back();
    stack.pop_back();
    if (!seen.insert(c).second) continue;
    auto it = classes.find(c);
    if (it == classes.end()) continue;
    auto fit = it->second.fields.find(field);
    if (fit != it->second.fields.end()) return ResolveAlias(fit->second);
    for (const std::string& b : it->second.bases) stack.push_back(b);
  }
  return "";
}

const FunctionInfo* Model::Find(const std::string& key) const {
  auto it = by_key.find(key);
  if (it == by_key.end()) return nullptr;
  return &functions[it->second.front()];
}

Model Indexer::Build() {
  Model model;
  // Headers first so declaration sites (annotations, access) win over
  // out-of-class definitions when records merge.
  std::stable_sort(files_.begin(), files_.end(),
                   [](const SourceFile& a, const SourceFile& b) {
                     auto is_header = [](const std::string& p) {
                       return p.size() > 2 && p.compare(p.size() - 2, 2, ".h")
                                                  == 0;
                     };
                     return is_header(a.path) > is_header(b.path);
                   });
  model.files = std::move(files_);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t f = 0; f < model.files.size(); ++f) {
      Parser p{&model, &model.files[f], static_cast<int>(f), pass == 1};
      p.ParseDeclScope(0, model.files[f].tokens.size(), "", false);
    }
  }
  // Note: annotations are NOT auto-propagated from base methods to
  // overrides. An annotated base method is a caller-side contract (virtual
  // dispatch stops there); each concrete class states its own contexts so
  // that backends which deliberately collapse contexts (the single-threaded
  // SimCluster drives Site, ManagingSite, and client code on one thread)
  // are not forced into a vocabulary that cannot describe them.
  model.by_name.clear();
  for (size_t i = 0; i < model.functions.size(); ++i) {
    model.by_name[model.functions[i].name].push_back(static_cast<int>(i));
  }
  return model;
}

}  // namespace analyze
}  // namespace miniraid
