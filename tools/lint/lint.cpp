#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace rr::lint {

namespace {

// ---------------------------------------------------------------- lexing

/// One significant token: an identifier/number, or a single punctuation
/// character. Comments and literals never become tokens, but comment text
/// is scanned for the lint directives before being dropped.
struct Token {
  std::string text;
  int line = 0;
  bool is_ident = false;
};

/// Per-line directive state gathered from comments.
struct LineDirectives {
  std::unordered_map<int, std::set<std::string>> allows;  // rropt-lint: allow
  std::unordered_set<int> hot_ok;                         // RROPT_HOT_OK
  std::unordered_set<int> hot_begin;                      // RROPT_HOT_BEGIN
  std::unordered_set<int> hot_end;                        // RROPT_HOT_END
};

struct Include {
  std::string target;  // between the quotes/brackets
  int line = 0;
};

struct LexedFile {
  std::vector<Token> tokens;
  LineDirectives directives;
  std::vector<Include> includes;
  bool has_pragma_once = false;
  int last_line = 1;
};

void scan_comment(std::string_view comment, int line, LineDirectives& out) {
  if (comment.find("RROPT_HOT_BEGIN") != std::string_view::npos) {
    out.hot_begin.insert(line);
  }
  if (comment.find("RROPT_HOT_END") != std::string_view::npos) {
    out.hot_end.insert(line);
  }
  if (comment.find("RROPT_HOT_OK") != std::string_view::npos) {
    out.hot_ok.insert(line);
  }
  // rropt-lint: allow(rule-a, rule-b)
  const auto at = comment.find("rropt-lint:");
  if (at == std::string_view::npos) return;
  const auto open = comment.find('(', at);
  const auto close = comment.find(')', at);
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    return;
  }
  std::string rule;
  for (std::size_t i = open + 1; i <= close; ++i) {
    const char c = comment[i];
    if (c == ',' || c == ')') {
      if (!rule.empty()) out.allows[line].insert(rule);
      rule.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      rule.push_back(c);
    }
  }
}

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

LexedFile lex(std::string_view src) {
  LexedFile out;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  bool at_line_start = true;  // only whitespace seen on this line so far

  auto advance_newline = [&](char c) {
    if (c == '\n') {
      ++line;
      at_line_start = true;
    }
  };

  while (i < n) {
    const char c = src[i];

    // Preprocessor directives (collect includes / pragma once, then skip
    // the directive name token so "include" never reaches the rules).
    if (at_line_start && c == '#') {
      std::size_t j = i;
      const std::size_t eol = src.find('\n', i);
      const std::size_t end = eol == std::string_view::npos ? n : eol;
      std::string_view directive = src.substr(j, end - j);
      if (directive.find("pragma") != std::string_view::npos &&
          directive.find("once") != std::string_view::npos) {
        out.has_pragma_once = true;
      }
      const auto inc = directive.find("include");
      if (inc != std::string_view::npos) {
        std::size_t k = inc + 7;
        while (k < directive.size() &&
               std::isspace(static_cast<unsigned char>(directive[k]))) {
          ++k;
        }
        if (k < directive.size() &&
            (directive[k] == '"' || directive[k] == '<')) {
          const char closer = directive[k] == '"' ? '"' : '>';
          const auto stop = directive.find(closer, k + 1);
          if (stop != std::string_view::npos) {
            out.includes.push_back(
                {std::string{directive.substr(k + 1, stop - k - 1)}, line});
          }
        }
      }
      // A directive can still carry a trailing comment with directives.
      const auto slashes = directive.find("//");
      if (slashes != std::string_view::npos) {
        scan_comment(directive.substr(slashes), line, out.directives);
      }
      // Respect line continuations inside the directive.
      i = end;
      continue;  // the '\n' (if any) is consumed by the generic path below
    }

    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t eol = src.find('\n', i);
      const std::size_t end = eol == std::string_view::npos ? n : eol;
      scan_comment(src.substr(i, end - i), line, out.directives);
      i = end;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t close = src.find("*/", i + 2);
      const std::size_t end = close == std::string_view::npos ? n : close + 2;
      // Block comments may span lines; scan each line for directives.
      std::size_t start = i;
      int comment_line = line;
      for (std::size_t k = i; k < end; ++k) {
        if (src[k] == '\n' || k + 1 == end) {
          scan_comment(src.substr(start, k + 1 - start), comment_line,
                       out.directives);
          start = k + 1;
          if (src[k] == '\n') {
            ++line;
            comment_line = line;
          }
        }
      }
      i = end;
      at_line_start = false;
      continue;
    }

    // Raw string literal: R"delim( ... )delim"
    if (c == 'R' && i + 1 < n && src[i + 1] == '"' &&
        (out.tokens.empty() || !ident_char(src[i - 1]))) {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(' && delim.size() < 16) {
        delim.push_back(src[j++]);
      }
      const std::string closer = ")" + delim + "\"";
      const auto stop = src.find(closer, j);
      const std::size_t end =
          stop == std::string_view::npos ? n : stop + closer.size();
      for (std::size_t k = i; k < end; ++k) advance_newline(src[k]);
      i = end;
      continue;
    }

    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        advance_newline(src[j]);
        ++j;
      }
      i = j < n ? j + 1 : n;
      at_line_start = false;
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      // Consume the whole numeric literal including 1'000 separators and
      // suffixes, so embedded quotes never open a char literal.
      std::size_t j = i;
      while (j < n && (ident_char(src[j]) || src[j] == '.' ||
                       src[j] == '\'')) {
        ++j;
      }
      out.tokens.push_back({std::string{src.substr(i, j - i)}, line, false});
      i = j;
      at_line_start = false;
      continue;
    }

    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      out.tokens.push_back({std::string{src.substr(i, j - i)}, line, true});
      i = j;
      at_line_start = false;
      continue;
    }

    if (c == '\n') {
      ++line;
      at_line_start = true;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }

    // NB: parens, not braces — std::string{1, c} would pick the
    // initializer_list<char> constructor and mint a two-char token.
    out.tokens.push_back({std::string(1, c), line, false});
    ++i;
    at_line_start = false;
  }
  out.last_line = line;
  return out;
}

// ------------------------------------------------------------- rule scope

struct Scope {
  bool determinism = false;  // sim/, measure/, routing/
  bool hot_io = false;       // + packet/, probe/, netbase/
  bool util = false;         // util/ may hold raw std::mutex
  bool data = false;         // data/ freezes dataset bytes (taint sinks)
  bool header = false;       // *.h / *.hpp
  bool umbrella = false;     // the umbrella header itself
};

Scope classify(const std::string& path) {
  Scope scope;
  std::filesystem::path p{path};
  for (const auto& part : p) {
    const std::string name = part.string();
    if (name == "sim" || name == "measure" || name == "routing") {
      scope.determinism = true;
      scope.hot_io = true;
    }
    if (name == "packet" || name == "probe" || name == "netbase") {
      scope.hot_io = true;
    }
    if (name == "util") scope.util = true;
    if (name == "data") scope.data = true;
  }
  const std::string ext = p.extension().string();
  scope.header = ext == ".h" || ext == ".hpp";
  scope.umbrella = p.filename() == "rropt.h";
  return scope;
}

// ---------------------------------------------------------------- checks

/// Nondeterminism-source identifier sets, shared by the per-token rules
/// (no-rand / no-wallclock) and the taint pass (which tracks where the
/// values *flow*).
const std::unordered_set<std::string>& rand_idents() {
  static const std::unordered_set<std::string> kSet{
      "rand", "srand", "random", "drand48", "lrand48", "random_device",
      "random_shuffle"};
  return kSet;
}
const std::unordered_set<std::string>& wallclock_idents() {
  static const std::unordered_set<std::string> kSet{
      "system_clock", "steady_clock", "high_resolution_clock",
      "gettimeofday", "clock_gettime", "timespec_get", "localtime",
      "gmtime"};
  return kSet;
}

class Checker {
 public:
  Checker(const std::string& path, const LexedFile& lexed)
      : path_(path), scope_(classify(path)), lexed_(lexed) {}

  std::vector<Finding> run() {
    check_includes();
    check_pragma_once();
    check_tokens();
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                return a.line < b.line;
              });
    return std::move(findings_);
  }

 private:
  void report(int line, const char* rule, std::string message) {
    const auto it = lexed_.directives.allows.find(line);
    if (it != lexed_.directives.allows.end() && it->second.count(rule) > 0) {
      return;  // waived in place
    }
    findings_.push_back({path_, line, rule, std::move(message)});
  }

  void check_includes() {
    for (const Include& inc : lexed_.includes) {
      if (!scope_.umbrella && inc.target == "rropt.h") {
        report(inc.line, "umbrella-include",
               "including the umbrella header \"rropt.h\" from inside the "
               "library creates an include cycle; include the specific "
               "subsystem headers instead");
      }
      if (scope_.hot_io && !scope_.util &&
          (inc.target == "iostream" || inc.target == "ostream" ||
           inc.target == "istream")) {
        report(inc.line, "no-stream-io",
               "<" + inc.target + "> is banned in hot-path subsystems; "
               "drivers log through util/log.h");
      }
    }
  }

  void check_pragma_once() {
    if (scope_.header && !lexed_.has_pragma_once) {
      report(1, "pragma-once", "header is missing #pragma once");
    }
  }

  [[nodiscard]] bool member_access_before(std::size_t i) const {
    if (i == 0) return false;
    const std::string& prev = lexed_.tokens[i - 1].text;
    if (prev == "." || prev == ":") return true;  // ":" covers "::"
    if (prev == ">" && i >= 2 && lexed_.tokens[i - 2].text == "-") {
      return true;
    }
    return false;
  }

  [[nodiscard]] bool call_follows(std::size_t i) const {
    return i + 1 < lexed_.tokens.size() && lexed_.tokens[i + 1].text == "(";
  }

  [[nodiscard]] bool std_qualified(std::size_t i) const {
    return i >= 2 && lexed_.tokens[i - 1].text == ":" &&
           lexed_.tokens[i - 2].text == ":" &&
           (i < 3 || lexed_.tokens[i - 3].text == "std");
  }

  /// One `<name>(...) ... { ... }` function *definition* found in the
  /// file, with the body's line span and the token index range of the
  /// whole construct (name through closing brace). Calls and declarations
  /// (which hit ';', ',', '=' or a closing paren before any '{') are never
  /// recorded.
  struct FnDef {
    std::string name;
    int body_begin = 0;
    int body_end = 0;
    std::size_t first_token = 0;  // the name token
    std::size_t last_token = 0;   // the closing '}' (or end of file)
  };

  /// Scans the token stream for function definitions — free functions,
  /// member definitions (the name is the last identifier before the
  /// parameter list), qualified out-of-line definitions. Control-flow
  /// keywords that look like `name(...) {` are excluded. Between the
  /// parameter list and a definition's '{' only qualifiers may appear
  /// (const, noexcept(...), ref-qualifiers, a trailing return type, a
  /// constructor's member-init list).
  [[nodiscard]] std::vector<FnDef> collect_fn_defs() const {
    static const std::unordered_set<std::string> kNotFnNames{
        "if",        "for",      "while",    "switch",   "catch",
        "do",        "else",     "return",   "sizeof",   "alignof",
        "alignas",   "decltype", "noexcept", "constexpr", "new",
        "delete",    "throw",    "assert",   "static_assert", "defined",
        "co_await",  "co_return", "co_yield"};
    std::vector<FnDef> defs;
    const auto& toks = lexed_.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!toks[i].is_ident || kNotFnNames.count(toks[i].text) > 0 ||
          toks[i + 1].text != "(") {
        continue;
      }
      std::size_t j = i + 1;
      int depth = 0;
      while (j < toks.size()) {
        if (toks[j].text == "(") ++depth;
        if (toks[j].text == ")" && --depth == 0) break;
        ++j;
      }
      if (j >= toks.size()) break;
      ++j;  // past the parameter list's ')'
      bool definition = false;
      int paren = 0;
      for (; j < toks.size(); ++j) {
        const std::string& t = toks[j].text;
        if (t == "(") {
          ++paren;
        } else if (t == ")") {
          if (paren == 0) break;
          --paren;
        } else if (paren > 0) {
          continue;
        } else if (t == "{") {
          definition = true;
          break;
        } else if (t == ";" || t == "," || t == "=") {
          break;
        }
      }
      if (!definition) continue;
      FnDef def;
      def.name = toks[i].text;
      def.first_token = i;
      def.body_begin = toks[j].line;
      int braces = 0;
      for (; j < toks.size(); ++j) {
        if (toks[j].text == "{") ++braces;
        if (toks[j].text == "}" && --braces == 0) break;
      }
      def.body_end = j < toks.size() ? toks[j].line : lexed_.last_line;
      def.last_token = j < toks.size() ? j : toks.size() - 1;
      defs.push_back(std::move(def));
    }
    return defs;
  }

  void check_tokens() {
    // Hot-region line map: lines strictly between a BEGIN marker line and
    // the matching END marker line are hot (markers live in comments, so
    // the marker lines themselves carry no tokens).
    std::vector<char> marker_hot(
        static_cast<std::size_t>(lexed_.last_line) + 2, 0);
    {
      bool hot = false;
      for (int l = 1; l <= lexed_.last_line; ++l) {
        if (lexed_.directives.hot_end.count(l) > 0) hot = false;
        if (lexed_.directives.hot_begin.count(l) > 0) hot = true;
        marker_hot[static_cast<std::size_t>(l)] = hot ? 1 : 0;
      }
    }
    const auto in_marker_hot = [&marker_hot](int line) {
      return line >= 1 &&
             static_cast<std::size_t>(line) < marker_hot.size() &&
             marker_hot[static_cast<std::size_t>(line)] != 0;
    };

    const std::vector<FnDef> defs = collect_fn_defs();

    // Dataplane element process() bodies are implicitly hot (the contract
    // of sim/element.h), and so is the hop walk every leg runs
    // (sim/pipeline.cpp's walk_hops): every such body obeys the same
    // no-allocation rule as a marker-delimited RROPT_HOT region, without
    // each function needing its own markers. RROPT_HOT_OK waives
    // individual lines as usual.
    static const std::unordered_set<std::string> kImplicitHotFns{
        "process", "walk_hops"};
    std::vector<std::pair<int, int>> process_bodies;
    if (scope_.determinism) {
      for (const FnDef& def : defs) {
        if (kImplicitHotFns.count(def.name) > 0) {
          process_bodies.emplace_back(def.body_begin, def.body_end);
        }
      }
    }
    const auto in_process_body = [&](int line) {
      for (const auto& [begin, end] : process_bodies) {
        if (line >= begin && line <= end) return true;
      }
      return false;
    };

    // Cross-function hot-region closure: a function *called* (one level,
    // same-file user-function resolution) from inside a primary hot
    // region — a marker-delimited region or an implicit hot body —
    // inherits the no-hot-alloc rule. One level is deliberate: the
    // resolution is name-based and same-file only, so deeper closure
    // would compound the imprecision (DESIGN.md §14 records the caveat).
    std::vector<std::pair<int, int>> closure_bodies;
    std::vector<std::string> closure_names;
    {
      const auto primary_hot = [&](int line) {
        return in_marker_hot(line) || in_process_body(line);
      };
      const auto& toks = lexed_.tokens;
      for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!toks[i].is_ident || toks[i + 1].text != "(" ||
            !primary_hot(toks[i].line) || member_access_before(i)) {
          continue;
        }
        for (const FnDef& def : defs) {
          if (def.name != toks[i].text) continue;
          if (kImplicitHotFns.count(def.name) > 0) continue;
          // The call site must be outside the callee's own construct
          // (otherwise this is the definition itself, or recursion).
          if (i >= def.first_token && i <= def.last_token) continue;
          if (primary_hot(def.body_begin)) continue;  // already hot
          closure_bodies.emplace_back(def.body_begin, def.body_end);
          closure_names.push_back(def.name);
        }
      }
    }
    const auto in_closure_body = [&](int line) -> const std::string* {
      for (std::size_t k = 0; k < closure_bodies.size(); ++k) {
        if (line >= closure_bodies[k].first &&
            line <= closure_bodies[k].second) {
          return &closure_names[k];
        }
      }
      return nullptr;
    };

    if (scope_.determinism || scope_.data) check_taint_flow();

    const std::unordered_set<std::string>& kRandIdents = rand_idents();
    const std::unordered_set<std::string>& kWallClockIdents =
        wallclock_idents();
    static const std::unordered_set<std::string> kEngines{
        "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
        "default_random_engine", "ranlux24", "ranlux48", "knuth_b"};
    static const std::unordered_set<std::string> kStreamIo{
        "printf", "fprintf", "vprintf", "vfprintf", "puts", "putchar",
        "cout", "cerr", "clog"};
    static const std::unordered_set<std::string> kHotAlloc{
        "new",       "make_unique",  "make_shared", "malloc", "calloc",
        "realloc",   "push_back",    "emplace_back"};
    static const std::unordered_set<std::string> kMutexTypes{
        "mutex", "recursive_mutex", "timed_mutex", "recursive_timed_mutex",
        "shared_mutex", "shared_timed_mutex"};

    const auto& tokens = lexed_.tokens;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const Token& tok = tokens[i];
      if (!tok.is_ident) continue;

      if (scope_.determinism) {
        if (kRandIdents.count(tok.text) > 0 && !member_access_excludes(i)) {
          report(tok.line, "no-rand",
                 "'" + tok.text + "' is a nondeterminism source; use "
                 "counter-based draws via util::Rng / util::mix64");
        }
        if (kWallClockIdents.count(tok.text) > 0) {
          report(tok.line, "no-wallclock",
                 "'" + tok.text + "' reads the wall clock; simulator and "
                 "measurement time is virtual (probe schedule)");
        }
        if (tok.text == "time" && call_follows(i) &&
            !member_access_excludes(i)) {
          report(tok.line, "no-wallclock",
                 "'time(...)' reads the wall clock; simulator and "
                 "measurement time is virtual (probe schedule)");
        }
        if (kEngines.count(tok.text) > 0 && unseeded_engine(i)) {
          report(tok.line, "no-unseeded-rng",
                 "'" + tok.text + "' is default-constructed; seeds must be "
                 "explicit and derived from the run config");
        }
      }

      if (scope_.hot_io && !scope_.util && kStreamIo.count(tok.text) > 0 &&
          !member_access_excludes(i)) {
        report(tok.line, "no-stream-io",
               "'" + tok.text + "' in a hot-path subsystem; drivers log "
               "through util/log.h");
      }

      if (kHotAlloc.count(tok.text) > 0 &&
          lexed_.directives.hot_ok.count(tok.line) == 0) {
        if (in_marker_hot(tok.line) || in_process_body(tok.line)) {
          report(tok.line, "no-hot-alloc",
                 "'" + tok.text + "' allocates inside a hot region "
                 "(RROPT_HOT markers, an element process() body, or the "
                 "hop walk — those are hot by contract); "
                 "preallocate, or waive the line with "
                 "'// RROPT_HOT_OK: <why this is steady-state-free>'");
        } else if (const std::string* caller = in_closure_body(tok.line)) {
          report(tok.line, "no-hot-alloc",
                 "'" + tok.text + "' allocates inside '" + *caller +
                 "', which is called from a hot region and inherits its "
                 "no-allocation rule (cross-function closure, one level); "
                 "preallocate, or waive the line with "
                 "'// RROPT_HOT_OK: <why this is steady-state-free>'");
        }
      }

      if (!scope_.util && kMutexTypes.count(tok.text) > 0 &&
          std_qualified(i)) {
        report(tok.line, "raw-mutex",
               "raw std::" + tok.text + " outside util/; use util::Mutex "
               "(util/mutex.h) so the thread-safety analysis sees the "
               "locks");
      }
    }
  }

  // ------------------------------------------------------------ taint v2
  //
  // File-scope symbol-flow pass (rule "taint"): identifiers assigned from
  // banned nondeterminism sources — wall-clock reads, process-global RNG,
  // pointer-as-integer casts — or bound by range-for iteration over an
  // unordered container are *tainted*; a tainted value (or a direct
  // source) reaching a hash / serialization / telemetry sink is reported.
  // Runs in the determinism subsystems plus data/ (where dataset bytes
  // freeze). Deliberately modest by design: one forward pass (no
  // fixpoint), same-file resolution, single-identifier tracking — the
  // soundness caveats live in DESIGN.md §14. Waive a provably
  // order-insensitive flow with `// rropt-lint: allow(taint)` on the sink
  // line.
  void check_taint_flow() {
    static const std::unordered_set<std::string> kUnorderedContainers{
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    static const std::unordered_set<std::string> kTaintSinks{
        "content_hash", "serialize", "save",         "mix64",
        "splitmix64",   "hash_str",  "fnv_fold",     "record_value",
        "record_phase", "note_telemetry"};
    static const std::unordered_set<std::string> kPtrIntTypes{
        "uintptr_t", "intptr_t", "size_t", "uint64_t", "uint32_t",
        "int64_t",   "int32_t",  "unsigned", "long",   "int"};
    const auto& toks = lexed_.tokens;

    // Same-file declarations of unordered containers: `unordered_map<...>
    // name`. A member declared in another header does not resolve here —
    // iteration over it goes unseen (documented caveat).
    std::unordered_set<std::string> unordered_names;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!toks[i].is_ident ||
          kUnorderedContainers.count(toks[i].text) == 0) {
        continue;
      }
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].text == "<") {
        int depth = 1;
        ++j;
        while (j < toks.size() && depth > 0) {
          if (toks[j].text == "<") ++depth;
          if (toks[j].text == ">") --depth;
          ++j;
        }
      }
      // Skip ref/cv qualifiers so reference parameters resolve too:
      // `const unordered_map<...>& name`.
      while (j < toks.size() &&
             (toks[j].text == "&" || toks[j].text == "const")) {
        ++j;
      }
      if (j < toks.size() && toks[j].is_ident) {
        unordered_names.insert(toks[j].text);
      }
    }

    std::unordered_map<std::string, std::string> tainted;  // ident -> origin

    // A direct nondeterminism source at token j ("" when none).
    const auto source_at = [&](std::size_t j) -> std::string {
      const Token& t = toks[j];
      if (!t.is_ident) return {};
      if (wallclock_idents().count(t.text) > 0) {
        return "wall-clock '" + t.text + "'";
      }
      if (t.text == "time" && call_follows(j) &&
          !member_access_excludes(j)) {
        return "wall-clock 'time(...)'";
      }
      if (rand_idents().count(t.text) > 0 && !member_access_excludes(j)) {
        return "process-global RNG '" + t.text + "'";
      }
      if (t.text == "uintptr_t" || t.text == "intptr_t") {
        return "pointer-width integer '" + t.text + "'";
      }
      if (t.text == "reinterpret_cast" && j + 1 < toks.size() &&
          toks[j + 1].text == "<") {
        // reinterpret_cast to an *integer* type is pointer-as-integer
        // hashing fuel (ASLR makes the value run-dependent); casts whose
        // target mentions '*' or '&' are pointer/reference reshapes.
        bool integer = false;
        bool pointer = false;
        int depth = 1;
        for (std::size_t k = j + 2; k < toks.size() && depth > 0; ++k) {
          if (toks[k].text == "<") ++depth;
          else if (toks[k].text == ">") --depth;
          else if (toks[k].text == "*" || toks[k].text == "&") {
            pointer = true;
          } else if (toks[k].is_ident &&
                     kPtrIntTypes.count(toks[k].text) > 0) {
            integer = true;
          }
        }
        if (integer && !pointer) return "pointer-as-integer cast";
      }
      return {};
    };

    // First taint origin found in [begin, end) — a direct source or a
    // tainted identifier ("" when clean).
    const auto taint_in_range = [&](std::size_t begin,
                                    std::size_t end) -> std::string {
      for (std::size_t k = begin; k < end && k < toks.size(); ++k) {
        if (!toks[k].is_ident) continue;
        if (!member_access_before(k)) {
          const auto it = tainted.find(toks[k].text);
          if (it != tainted.end()) {
            return it->second + " (via '" + toks[k].text + "')";
          }
        }
        const std::string src = source_at(k);
        if (!src.empty()) return src;
      }
      return {};
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& tok = toks[i];
      if (!tok.is_ident) continue;

      // Range-for over an unordered container: the binding order of the
      // loop variables is the container's (seed/ASLR-dependent) bucket
      // order, so the variables are tainted.
      if (tok.text == "for" && i + 1 < toks.size() &&
          toks[i + 1].text == "(") {
        std::size_t colon = 0;
        std::size_t close = 0;
        int depth = 0;
        for (std::size_t k = i + 1; k < toks.size(); ++k) {
          const std::string& t = toks[k].text;
          if (t == "(") {
            ++depth;
          } else if (t == ")") {
            if (--depth == 0) {
              close = k;
              break;
            }
          } else if (t == ";" && depth == 1) {
            break;  // classic three-clause for
          } else if (t == ":" && depth == 1 && colon == 0 &&
                     toks[k - 1].text != ":" &&
                     (k + 1 >= toks.size() || toks[k + 1].text != ":")) {
            colon = k;
          }
        }
        if (colon != 0 && close != 0) {
          std::string container;
          for (std::size_t k = colon + 1; k < close; ++k) {
            if (toks[k].is_ident &&
                unordered_names.count(toks[k].text) > 0) {
              container = toks[k].text;
              break;
            }
          }
          if (!container.empty()) {
            // The declared loop variables sit just before ',', ']' (a
            // structured binding) or the ':' itself.
            for (std::size_t k = i + 2; k + 1 <= colon; ++k) {
              if (!toks[k].is_ident) continue;
              const std::string& next = toks[k + 1].text;
              if (next == "," || next == "]" || next == ":") {
                tainted[toks[k].text] =
                    "iteration order of unordered container '" + container +
                    "'";
              }
            }
          }
        }
      }

      // Assignment / compound assignment / initialization: `x = rhs;`,
      // `x ^= rhs;`. `==` lexes as two '=' tokens and is excluded; `<=`
      // `>=` `!=` never start with '='.
      if (i + 1 < toks.size()) {
        const std::string& n1 = toks[i + 1].text;
        const std::string n2 = i + 2 < toks.size() ? toks[i + 2].text : "";
        std::size_t rhs_begin = 0;
        if (n1 == "=" && n2 != "=") {
          rhs_begin = i + 2;
        } else if ((n1 == "+" || n1 == "-" || n1 == "*" || n1 == "/" ||
                    n1 == "%" || n1 == "&" || n1 == "|" || n1 == "^") &&
                   n2 == "=") {
          rhs_begin = i + 3;
        }
        if (rhs_begin != 0) {
          std::size_t end = rhs_begin;
          while (end < toks.size() && toks[end].text != ";") ++end;
          const std::string origin = taint_in_range(rhs_begin, end);
          if (!origin.empty()) tainted[tok.text] = origin;
        }
      }

      // Sink: a tainted value (or a direct source) in the arguments of a
      // hash / serialization / telemetry call.
      if (kTaintSinks.count(tok.text) > 0 && call_follows(i)) {
        std::size_t close = toks.size();
        int depth = 0;
        for (std::size_t k = i + 1; k < toks.size(); ++k) {
          if (toks[k].text == "(") ++depth;
          if (toks[k].text == ")" && --depth == 0) {
            close = k;
            break;
          }
        }
        const std::string origin = taint_in_range(i + 2, close);
        if (!origin.empty()) {
          report(tok.line, "taint",
                 "value tainted by " + origin + " reaches determinism "
                 "sink '" + tok.text + "'; frozen dataset / telemetry "
                 "bytes must not depend on nondeterminism sources (waive "
                 "a provably order-insensitive flow with '// rropt-lint: "
                 "allow(taint)')");
        }
      }
    }
  }

  /// `foo.rand` / `foo->random` are member accesses of unrelated types;
  /// `std::rand` must still be flagged.
  [[nodiscard]] bool member_access_excludes(std::size_t i) const {
    if (!member_access_before(i)) return false;
    return !std_qualified(i);
  }

  /// True when the engine at token i is declared without a seed:
  /// `mt19937 gen;` or `mt19937 gen{};` or `mt19937 gen();`.
  [[nodiscard]] bool unseeded_engine(std::size_t i) const {
    const auto& tokens = lexed_.tokens;
    std::size_t j = i + 1;
    // Skip template arguments of e.g. independent_bits_engine uses.
    if (j < tokens.size() && tokens[j].text == "<") {
      int depth = 1;
      ++j;
      while (j < tokens.size() && depth > 0) {
        if (tokens[j].text == "<") ++depth;
        if (tokens[j].text == ">") --depth;
        ++j;
      }
    }
    // Variable name (skip qualifiers the declaration may carry).
    while (j < tokens.size() && tokens[j].is_ident) ++j;
    if (j >= tokens.size()) return false;
    const std::string& after = tokens[j].text;
    if (after == ";") return true;  // `mt19937 gen;`
    if (after == "(" || after == "{") {
      const std::string closer = after == "(" ? ")" : "}";
      return j + 1 < tokens.size() && tokens[j + 1].text == closer;
    }
    return false;
  }

  std::string path_;
  Scope scope_;
  const LexedFile& lexed_;
  std::vector<Finding> findings_;
};

bool lintable_extension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

}  // namespace

std::string format(const Finding& finding) {
  std::ostringstream out;
  out << finding.file << ":" << finding.line << ": [" << finding.rule << "] "
      << finding.message;
  return out.str();
}

std::vector<Finding> lint_file(const std::string& path,
                               std::string_view content) {
  const LexedFile lexed = lex(content);
  return Checker{path, lexed}.run();
}

std::vector<Finding> lint_paths(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::vector<Finding> findings;
  for (const auto& root : paths) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it{root, ec}, end;
           it != end && !ec; it.increment(ec)) {
        if (it->is_regular_file(ec) && lintable_extension(it->path())) {
          files.push_back(it->path().string());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else {
      findings.push_back({root, 0, "io", "path does not exist"});
    }
  }
  std::sort(files.begin(), files.end());

  for (const auto& file : files) {
    std::ifstream in{file, std::ios::binary};
    if (!in) {
      findings.push_back({file, 0, "io", "unreadable file"});
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string content = buffer.str();
    auto file_findings = lint_file(file, content);
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  return findings;
}

std::vector<std::string> rule_descriptions() {
  return {
      "no-rand — rand()/random_device & friends banned in sim/, measure/, "
      "routing/ (randomness is counter-based via util::Rng)",
      "no-wallclock — time()/system_clock/... banned in sim/, measure/, "
      "routing/ (time is virtual, from the probe schedule)",
      "no-unseeded-rng — default-constructed std engines banned in sim/, "
      "measure/, routing/ (seeds are explicit, config-derived)",
      "no-stream-io — <iostream>/printf/cout banned in packet/, sim/, "
      "probe/, netbase/, routing/, measure/",
      "no-hot-alloc — allocation keywords banned between RROPT_HOT_BEGIN "
      "and RROPT_HOT_END, inside dataplane element process() bodies, and "
      "inside the hop walk (walk_hops) in sim/, measure/, routing/, "
      "unless waived with RROPT_HOT_OK",
      "raw-mutex — std::mutex members only under util/ (use util::Mutex "
      "so Clang TSA sees the locks)",
      "umbrella-include — \"rropt.h\" must not be included from inside "
      "the library (include cycle)",
      "pragma-once — every header must carry #pragma once",
      "taint — values flowing from nondeterminism sources (wall-clock, "
      "process-global RNG, pointer-as-integer casts, unordered-container "
      "iteration order) must not reach hash/serialization/telemetry sinks "
      "in sim/, measure/, routing/, data/",
  };
}

}  // namespace rr::lint
