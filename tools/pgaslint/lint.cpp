#include "pgaslint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <iterator>
#include <map>
#include <utility>

namespace pgaslint {
namespace {

bool isIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when repo-relative (or absolute) `path` lies under directory
/// `dir`, matched as a whole path component.
bool underDir(const std::string& path, const char* dir) {
  std::string p = path;
  while (p.rfind("./", 0) == 0) p = p.substr(2);
  const std::string d = std::string(dir) + "/";
  return p.rfind(d, 0) == 0 || p.find("/" + d) != std::string::npos;
}

/// The lexed view of one file: `code` is a same-length copy with
/// comments and literal *bodies* blanked to spaces (offsets preserved,
/// ordinary string literals keep their quote characters), `raw` is the
/// untouched input (for reading literal contents), and `allows` is the
/// suppression table collected from `pgaslint:allow(...)` comments.
struct Lexed {
  std::string code;
  const std::string* raw = nullptr;
  std::vector<std::size_t> line_starts;
  // (line, rule): `rule` is suppressed on `line` and on `line + 1`.
  std::vector<std::pair<int, std::string>> allows;

  int lineOf(std::size_t offset) const {
    auto it = std::upper_bound(line_starts.begin(), line_starts.end(), offset);
    return static_cast<int>(it - line_starts.begin());
  }

  bool suppressed(const std::string& rule, int line) const {
    for (const auto& [l, r] : allows) {
      if (r == rule && (l == line || l + 1 == line)) return true;
    }
    return false;
  }
};

/// Records every `pgaslint:allow(a,b)` inside a comment's text.
void collectAllows(const std::string& comment, int line, Lexed* out) {
  static const std::string kTag = "pgaslint:allow(";
  std::size_t at = comment.find(kTag);
  while (at != std::string::npos) {
    const std::size_t open = at + kTag.size();
    const std::size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    std::string rule;
    for (std::size_t i = open; i <= close; ++i) {
      const char c = comment[i];
      if (c == ',' || c == ')') {
        if (!rule.empty()) out->allows.emplace_back(line, rule);
        rule.clear();
      } else if (c != ' ') {
        rule += c;
      }
    }
    at = comment.find(kTag, close);
  }
}

void blank(std::string* s, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end && i < s->size(); ++i) {
    if ((*s)[i] != '\n') (*s)[i] = ' ';
  }
}

Lexed lex(const std::string& s) {
  Lexed out;
  out.code = s;
  out.raw = &s;
  out.line_starts.push_back(0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\n') out.line_starts.push_back(i + 1);
  }

  const std::size_t n = s.size();
  std::size_t i = 0;
  while (i < n) {
    const char c = s[i];
    if (c == '/' && i + 1 < n && s[i + 1] == '/') {
      std::size_t end = i;
      while (end < n && s[end] != '\n') ++end;
      collectAllows(s.substr(i, end - i), out.lineOf(i), &out);
      blank(&out.code, i, end);
      i = end;
    } else if (c == '/' && i + 1 < n && s[i + 1] == '*') {
      std::size_t end = s.find("*/", i + 2);
      end = (end == std::string::npos) ? n : end + 2;
      // A block comment's allow() anchors to the line the comment
      // *ends* on (and the next), matching the trailing/preceding-line
      // conventions.
      collectAllows(s.substr(i, end - i), out.lineOf(end - 1), &out);
      blank(&out.code, i, end);
      i = end;
    } else if (c == '"') {
      // Raw string literal? (R"delim(...)delim" — blanked entirely; no
      // lint-relevant literal is ever raw.)
      const bool raw = i > 0 && s[i - 1] == 'R' &&
                       (i < 2 || !isIdentChar(s[i - 2]) ||
                        s[i - 2] == 'u' || s[i - 2] == 'U' ||
                        s[i - 2] == 'L' || s[i - 2] == '8');
      if (raw) {
        std::size_t p = i + 1;
        std::string delim;
        while (p < n && s[p] != '(') delim += s[p++];
        const std::string closer = ")" + delim + "\"";
        std::size_t end = s.find(closer, p);
        end = (end == std::string::npos) ? n : end + closer.size();
        blank(&out.code, i - 1, end);
        i = end;
      } else {
        // Ordinary literal: keep the quotes (rules use them to locate
        // the literal's extent in `raw`) but blank the body.
        std::size_t p = i + 1;
        while (p < n && s[p] != '"') {
          if (s[p] == '\\' && p + 1 < n) ++p;
          if (s[p] == '\n') break;  // unterminated — bail at EOL
          ++p;
        }
        blank(&out.code, i + 1, p);
        i = (p < n) ? p + 1 : n;
      }
    } else if (c == '\'') {
      // Digit separator (1'000'000) — not a literal.
      if (i > 0 && std::isalnum(static_cast<unsigned char>(s[i - 1])) != 0) {
        ++i;
        continue;
      }
      std::size_t p = i + 1;
      while (p < n && s[p] != '\'') {
        if (s[p] == '\\' && p + 1 < n) ++p;
        ++p;
      }
      blank(&out.code, i + 1, p);
      i = (p < n) ? p + 1 : n;
    } else {
      ++i;
    }
  }
  return out;
}

/// Next whole-word occurrence of `w` in `code` at or after `from`.
std::size_t findWord(const std::string& code, const std::string& w,
                     std::size_t from) {
  std::size_t at = code.find(w, from);
  while (at != std::string::npos) {
    const bool left_ok = at == 0 || !isIdentChar(code[at - 1]);
    const std::size_t end = at + w.size();
    const bool right_ok = end >= code.size() || !isIdentChar(code[end]);
    if (left_ok && right_ok) return at;
    at = code.find(w, at + 1);
  }
  return std::string::npos;
}

std::size_t skipSpace(const std::string& code, std::size_t i) {
  while (i < code.size() &&
         (code[i] == ' ' || code[i] == '\t' || code[i] == '\n')) {
    ++i;
  }
  return i;
}

std::size_t prevNonSpace(const std::string& code, std::size_t i) {
  while (i > 0) {
    --i;
    if (code[i] != ' ' && code[i] != '\t' && code[i] != '\n') return i;
  }
  return std::string::npos;
}

/// From the '<' at `open`, the offset just past the matching '>' — or
/// npos when this is a comparison, not a template argument list
/// (heuristic: a ';', '{' or '}' intervenes).
std::size_t matchAngle(const std::string& code, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '<') {
      ++depth;
    } else if (c == '>') {
      --depth;
      if (depth == 0) return i + 1;
    } else if (c == ';' || c == '{' || c == '}') {
      return std::string::npos;
    }
  }
  return std::string::npos;
}

void addFinding(std::vector<Finding>* out, const Lexed& lx,
                const std::string& path, std::size_t offset,
                const std::string& rule, std::string message) {
  const int line = lx.lineOf(offset);
  if (lx.suppressed(rule, line)) return;
  out->push_back(Finding{path, line, rule, std::move(message)});
}

// ---- rule: nondet-rand --------------------------------------------------

void ruleNondetRand(const std::string& path, const Lexed& lx,
                    std::vector<Finding>* out) {
  static const char* kBanned[] = {"rand",    "srand",   "rand_r",
                                  "drand48", "lrand48", "random_device",
                                  "getentropy"};
  for (const char* w : kBanned) {
    for (std::size_t at = findWord(lx.code, w, 0); at != std::string::npos;
         at = findWord(lx.code, w, at + 1)) {
      addFinding(out, lx, path, at, "nondet-rand",
                 std::string("banned nondeterminism API '") + w +
                     "' — sim results must be seed-deterministic; draw "
                     "from a seeded std::mt19937 instead");
    }
  }
}

// ---- rule: nondet-clock -------------------------------------------------

void ruleNondetClock(const std::string& path, const Lexed& lx,
                     std::vector<Finding>* out) {
  static const char* kBanned[] = {"system_clock",           "steady_clock",
                                  "high_resolution_clock",  "__DATE__",
                                  "__TIME__",               "__TIMESTAMP__"};
  for (const char* w : kBanned) {
    for (std::size_t at = findWord(lx.code, w, 0); at != std::string::npos;
         at = findWord(lx.code, w, at + 1)) {
      addFinding(out, lx, path, at, "nondet-clock",
                 std::string("wall-clock source '") + w +
                     "' in simulator sources — simulated time comes from "
                     "sim::Simulator::now(), never the host clock");
    }
  }
}

// ---- rule: unordered-iter -----------------------------------------------

void ruleUnorderedIter(const std::string& path, const Lexed& lx,
                       std::vector<Finding>* out) {
  // Pass 1: names declared (or taken as parameters) with an unordered
  // container type anywhere in this file.
  std::vector<std::string> names;
  for (const char* ty : {"unordered_map", "unordered_set",
                         "unordered_multimap", "unordered_multiset"}) {
    const std::string type_name = ty;
    for (std::size_t at = findWord(lx.code, type_name, 0);
         at != std::string::npos;
         at = findWord(lx.code, type_name, at + 1)) {
      std::size_t p = skipSpace(lx.code, at + type_name.size());
      if (p >= lx.code.size() || lx.code[p] != '<') continue;
      p = matchAngle(lx.code, p);
      if (p == std::string::npos) continue;
      p = skipSpace(lx.code, p);
      while (p < lx.code.size() && (lx.code[p] == '&' || lx.code[p] == '*')) {
        p = skipSpace(lx.code, p + 1);
      }
      std::string name;
      while (p < lx.code.size() && isIdentChar(lx.code[p])) {
        name += lx.code[p++];
      }
      if (name.empty() || name == "const") continue;
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
  }
  // Pass 2: iteration over those names — a range-for (`: name)`) or a
  // direct `.begin(`.  Keyed access (find/count/operator[]) stays
  // allowed: only the *visit order* is implementation-defined.
  for (const auto& name : names) {
    for (std::size_t at = findWord(lx.code, name, 0); at != std::string::npos;
         at = findWord(lx.code, name, at + 1)) {
      const std::size_t prev = prevNonSpace(lx.code, at);
      const std::size_t next = skipSpace(lx.code, at + name.size());
      const bool range_for =
          prev != std::string::npos && lx.code[prev] == ':' &&
          (prev == 0 || lx.code[prev - 1] != ':') && next < lx.code.size() &&
          lx.code[next] == ')';
      const bool begin_call = next + 6 <= lx.code.size() &&
                              lx.code.compare(next, 6, ".begin") == 0;
      if (range_for || begin_call) {
        addFinding(out, lx, path, at, "unordered-iter",
                   "iteration over unordered container '" + name +
                       "' — the visit order is implementation-defined and "
                       "leaks into reports/CSVs/event schedules; iterate a "
                       "sorted copy or key an ordered container");
      }
    }
  }
}

// ---- rule: func-hot-path ------------------------------------------------

void ruleFuncHotPath(const std::string& path, const Lexed& lx,
                     std::vector<Finding>* out) {
  for (std::size_t at = findWord(lx.code, "function", 0);
       at != std::string::npos; at = findWord(lx.code, "function", at + 1)) {
    // Only the `std::function` template, not the word.
    if (at < 2 || lx.code.compare(at - 2, 2, "::") != 0) continue;
    const std::size_t q = prevNonSpace(lx.code, at - 2);
    if (q == std::string::npos || q < 2 ||
        lx.code.compare(q - 2, 3, "std") != 0) {
      continue;
    }
    addFinding(out, lx, path, at, "func-hot-path",
               "std::function in the sim-core hot path — event callbacks "
               "use the small-buffer sim::EventFn (the PR 6 invariant: no "
               "per-event heap allocation)");
  }
}

// ---- rule: ptr-key-ordered ----------------------------------------------

void rulePtrKeyOrdered(const std::string& path, const Lexed& lx,
                       std::vector<Finding>* out) {
  for (const char* ty : {"map", "set", "multimap", "multiset"}) {
    const std::string type_name = ty;
    for (std::size_t at = findWord(lx.code, type_name, 0);
         at != std::string::npos;
         at = findWord(lx.code, type_name, at + 1)) {
      // Require the std:: qualifier so member names and the project's
      // own types stay out of scope.
      if (at < 5 || lx.code.compare(at - 2, 2, "::") != 0 ||
          lx.code.compare(at - 5, 3, "std") != 0) {
        continue;
      }
      std::size_t p = skipSpace(lx.code, at + type_name.size());
      if (p >= lx.code.size() || lx.code[p] != '<') continue;
      const std::size_t close = matchAngle(lx.code, p);
      if (close == std::string::npos) continue;
      // First template argument: up to a depth-0 comma (or the close).
      std::size_t arg_end = close - 1;
      int depth = 0;
      for (std::size_t i = p + 1; i + 1 < close; ++i) {
        const char c = lx.code[i];
        if (c == '<' || c == '(') {
          ++depth;
        } else if (c == '>' || c == ')') {
          --depth;
        } else if (c == ',' && depth == 0) {
          arg_end = i;
          break;
        }
      }
      std::string arg = lx.code.substr(p + 1, arg_end - p - 1);
      if (arg.find('*') == std::string::npos) continue;
      // Normalize whitespace for the message.
      std::string flat;
      for (const char c : arg) {
        if (c == '\n' || c == '\t') continue;
        if (c == ' ' && (flat.empty() || flat.back() == ' ')) continue;
        flat += c;
      }
      addFinding(out, lx, path, at, "ptr-key-ordered",
                 std::string("pointer-keyed ordered container 'std::") + ty +
                     "<" + flat +
                     ", ...>' — iteration order follows allocation "
                     "addresses, which vary run to run; key by a stable id "
                     "(or dedup with a vector)");
    }
  }
}

// ---- rule: kernel-mem-effects -------------------------------------------

/// Top-level brace regions (function/class definitions), treating
/// namespace braces as transparent so a file is not one region.
std::vector<std::pair<std::size_t, std::size_t>> braceRegions(
    const std::string& code) {
  std::vector<std::pair<std::size_t, std::size_t>> regions;
  std::vector<bool> ns_stack;
  bool pending_namespace = false;
  std::string word;
  int depth = 0;  // non-namespace depth
  std::size_t region_start = 0;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (isIdentChar(c)) {
      word += c;
      continue;
    }
    if (word == "namespace") pending_namespace = true;
    word.clear();
    if (c == ';' && depth == 0) pending_namespace = false;
    if (c == '{') {
      ns_stack.push_back(pending_namespace && depth == 0);
      if (!ns_stack.back()) {
        if (depth == 0) region_start = i;
        ++depth;
      }
      pending_namespace = false;
    } else if (c == '}') {
      if (!ns_stack.empty()) {
        const bool was_ns = ns_stack.back();
        ns_stack.pop_back();
        if (!was_ns && depth > 0) {
          --depth;
          if (depth == 0) regions.emplace_back(region_start, i + 1);
        }
      }
    }
  }
  return regions;
}

void ruleKernelMemEffects(const std::string& path, const Lexed& lx,
                          const Options& opts, std::vector<Finding>* out) {
  const auto regions = braceRegions(lx.code);
  auto regionOf = [&](std::size_t at) {
    for (const auto& r : regions) {
      if (at >= r.first && at < r.second) return r;
    }
    return std::make_pair(std::size_t{0}, lx.code.size());
  };
  for (std::size_t at = findWord(lx.code, "name", 0); at != std::string::npos;
       at = findWord(lx.code, "name", at + 1)) {
    // Match a member assignment `<expr>.name = <rhs>` (not `==`).
    const std::size_t prev = prevNonSpace(lx.code, at);
    if (prev == std::string::npos || lx.code[prev] != '.') continue;
    const std::size_t eq = skipSpace(lx.code, at + 4);
    if (eq >= lx.code.size() || lx.code[eq] != '=' ||
        (eq + 1 < lx.code.size() && lx.code[eq + 1] == '=')) {
      continue;
    }
    const auto [rb, re] = regionOf(at);
    const std::string region = lx.code.substr(rb, re - rb);
    // Only KernelDesc construction sites are in scope.
    if (findWord(region, "KernelDesc", 0) == std::string::npos) continue;
    // Declared effects anywhere in the enclosing definition satisfy
    // the rule.
    if (findWord(region, "mem_effects", 0) != std::string::npos ||
        findWord(region, "put_effects", 0) != std::string::npos) {
      continue;
    }
    // Extract the literal kernel-name prefix, when the RHS is one.
    const std::size_t rhs = skipSpace(lx.code, eq + 1);
    if (rhs < lx.code.size() && lx.code[rhs] == '"') {
      const std::size_t close = lx.code.find('"', rhs + 1);
      if (close != std::string::npos) {
        const std::string literal =
            lx.raw->substr(rhs + 1, close - rhs - 1);
        const bool allowed = std::any_of(
            opts.pure_kernels.begin(), opts.pure_kernels.end(),
            [&](const std::string& prefix) {
              return !prefix.empty() && literal.rfind(prefix, 0) == 0;
            });
        if (allowed) continue;
        addFinding(out, lx, path, at, "kernel-mem-effects",
                   "kernel '" + literal +
                       "' is built without declaring mem_effects — simsan "
                       "cannot see its memory footprint; declare the "
                       "effects, or list the kernel in "
                       "tools/pgaslint/pure_kernels.allow if it is pure "
                       "compute");
        continue;
      }
    }
    addFinding(out, lx, path, at, "kernel-mem-effects",
               "KernelDesc built with a computed name and no mem_effects "
               "declaration — simsan cannot see its memory footprint; "
               "declare the effects or suppress with a rationale");
  }
}

// ---- rule: unused-decl (whole-repo pass) ---------------------------------

/// Where a file's references count: production code (every directory
/// that ships or measures the system), tests, or neither.
enum class RefScope { kProduction, kTests, kNone };

RefScope refScope(const std::string& path) {
  for (const char* dir : {"src", "bench", "perfbench", "examples", "tools"}) {
    if (underDir(path, dir)) return RefScope::kProduction;
  }
  return underDir(path, "tests") ? RefScope::kTests : RefScope::kNone;
}

/// Copy of `code` with preprocessor lines (and their backslash
/// continuations) blanked, so `#include <x>` and macro bodies never look
/// like declarations.
std::string blankPreprocessor(std::string code) {
  bool directive = false;
  bool line_start = true;
  char prev = '\0';  // the previous character before blanking
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '\n') {
      directive = directive && prev == '\\';
      line_start = true;
    } else {
      if (line_start && c == '#') directive = true;
      if (c != ' ' && c != '\t') line_start = false;
      if (directive) code[i] = ' ';
    }
    prev = c;
  }
  return code;
}

/// Words that can precede a '(' in a declaration statement without
/// naming a function.
bool notAFunctionName(const std::string& w) {
  static const char* kWords[] = {
      "if",     "for",     "while",   "switch",   "return",   "sizeof",
      "alignof", "alignas", "decltype", "noexcept", "void",    "throw",
      "catch",  "new",     "delete",  "typeid",   "requires", "explicit",
      "__attribute__"};
  return std::find(std::begin(kWords), std::end(kWords), w) !=
         std::end(kWords);
}

/// One name a declaration or definition introduces: the first
/// `identifier (` of a statement in namespace or class scope.
struct DeclSite {
  std::string name;
  std::size_t offset = 0;
  /// An unqualified, non-constructor function name: what unused-decl
  /// checks when the file is a src/ header.
  bool candidate = false;
};

/// The declaration site of statement [begin, end), if it declares or
/// defines a function. Variables with initializers, using/typedef/
/// friend statements, operators and destructors introduce none.
void statementDecl(const std::string& code, std::size_t begin,
                   std::size_t end, const std::string& class_name,
                   std::vector<DeclSite>* out) {
  int angle = 0;
  int bracket = 0;
  bool after_ident = false;
  std::string ident;
  std::size_t ident_at = 0;
  for (std::size_t j = begin; j < end;) {
    const char c = code[j];
    if (isIdentChar(c)) {
      std::size_t k = j;
      while (k < end && isIdentChar(code[k])) ++k;
      const bool word = std::isdigit(static_cast<unsigned char>(c)) == 0;
      if (word && angle == 0 && bracket == 0) {
        ident = code.substr(j, k - j);
        for (const char* stop :
             {"using", "typedef", "friend", "static_assert", "operator"}) {
          if (ident == stop) return;
        }
        ident_at = j;
        after_ident = true;
      }
      j = k;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\n') {
      ++j;
      continue;
    }
    if (c == '<') {
      ++angle;
    } else if (c == '>') {
      if (angle > 0 && (j == 0 || code[j - 1] != '-')) --angle;
    } else if (c == '[') {
      ++bracket;
    } else if (c == ']') {
      if (bracket > 0) --bracket;
    } else if (angle == 0 && bracket == 0) {
      if (c == '=') return;  // a variable and its initializer
      if (c == '(') {
        if (!after_ident || notAFunctionName(ident)) return;
        const std::size_t p = prevNonSpace(code, ident_at);
        const bool has_prev = p != std::string::npos && p >= begin;
        if (has_prev && (code[p] == '.' || code[p] == '~' ||
                         (code[p] == '>' && p > 0 && code[p - 1] == '-'))) {
          return;  // a call on an object, or a destructor
        }
        const bool qualified =
            has_prev && p > begin && code[p] == ':' && code[p - 1] == ':';
        out->push_back({ident, ident_at, !qualified && ident != class_name});
        return;
      }
    }
    after_ident = false;
    ++j;
  }
}

/// True when the '{' ending statement [begin, end) opens a namespace,
/// class, struct or union body (whose statements are declarations);
/// `name` receives the class name. False for function bodies, lambdas,
/// enums and brace initializers.
bool opensScope(const std::string& code, std::size_t begin, std::size_t end,
                std::string* name) {
  int angle = 0;
  int paren = 0;
  bool scope = false;
  bool want_name = false;
  for (std::size_t j = begin; j < end;) {
    const char c = code[j];
    if (isIdentChar(c)) {
      std::size_t k = j;
      while (k < end && isIdentChar(code[k])) ++k;
      const std::string w = code.substr(j, k - j);
      j = k;
      if (angle > 0 || paren > 0) continue;
      if (w == "enum") return false;
      if (w == "namespace" || w == "class" || w == "struct" ||
          w == "union") {
        scope = true;
        want_name = true;
        name->clear();
      } else if (w == "extern") {
        scope = true;  // extern "C" { ... }
      } else if (want_name && w != "final") {
        *name = w;
        want_name = false;
      }
      continue;
    }
    if (c == '<') {
      ++angle;
    } else if (c == '>') {
      if (angle > 0 && (j == 0 || code[j - 1] != '-')) --angle;
    } else if (c == '(') {
      if (angle == 0 && paren == 0) return false;  // a function body
      ++paren;
    } else if (c == ')') {
      if (paren > 0) --paren;
    } else if (c == ':' && angle == 0 && paren == 0) {
      want_name = false;  // base clause
    }
    ++j;
  }
  return scope;
}

/// Every declaration site in `code` (comments, literals and
/// preprocessor lines blanked). Statements are only read in namespace
/// and class scope; function bodies and initializers are skipped whole,
/// so every name inside them is a reference.
std::vector<DeclSite> declSites(const std::string& code) {
  struct Scope {
    bool declarations;
    std::string class_name;
  };
  std::vector<DeclSite> out;
  std::vector<Scope> scopes = {{true, ""}};
  std::size_t stmt = 0;
  int paren = 0;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (!scopes.back().declarations) {
      if (c == '{') {
        scopes.push_back({false, ""});
      } else if (c == '}') {
        scopes.pop_back();
        if (scopes.back().declarations) stmt = i + 1;
      }
      continue;
    }
    if (c == '(') {
      ++paren;
    } else if (c == ')') {
      if (paren > 0) --paren;
    } else if (paren > 0) {
      continue;
    } else if (c == ';') {
      statementDecl(code, stmt, i, scopes.back().class_name, &out);
      stmt = i + 1;
    } else if (c == '{') {
      std::string name;
      if (opensScope(code, stmt, i, &name)) {
        scopes.push_back({true, name});
      } else {
        statementDecl(code, stmt, i, scopes.back().class_name, &out);
        scopes.push_back({false, ""});
      }
      stmt = i + 1;
    } else if (c == '}') {
      if (scopes.size() > 1) scopes.pop_back();
      stmt = i + 1;
    }
  }
  return out;
}

/// Whole-word identifier occurrences in `code`, minus the file's own
/// declaration sites: what the file references by name.
std::map<std::string, int> references(const std::string& code,
                                      const std::vector<DeclSite>& sites) {
  std::map<std::string, int> refs;
  for (std::size_t i = 0; i < code.size();) {
    if (!isIdentChar(code[i])) {
      ++i;
      continue;
    }
    std::size_t k = i;
    while (k < code.size() && isIdentChar(code[k])) ++k;
    if (std::isdigit(static_cast<unsigned char>(code[i])) == 0) {
      ++refs[code.substr(i, k - i)];
    }
    i = k;
  }
  for (const auto& site : sites) --refs[site.name];
  return refs;
}

void ruleUnusedDecl(const std::vector<SourceFile>& files,
                    std::vector<Finding>* out) {
  struct Candidate {
    std::size_t file;
    DeclSite site;
  };
  std::vector<Lexed> lexed;
  lexed.reserve(files.size());
  std::vector<Candidate> candidates;
  std::map<std::string, int> production;
  std::map<std::string, int> tests;
  for (std::size_t f = 0; f < files.size(); ++f) {
    lexed.push_back(lex(files[f].content));
    const std::string& code = lexed.back().code;
    const auto sites = declSites(blankPreprocessor(code));
    const RefScope scope = refScope(files[f].path);
    if (scope != RefScope::kNone) {
      auto& into = scope == RefScope::kProduction ? production : tests;
      for (const auto& [name, n] : references(code, sites)) into[name] += n;
    }
    if (!ruleAppliesTo("unused-decl", files[f].path)) continue;
    for (const auto& site : sites) {
      if (site.candidate) candidates.push_back({f, site});
    }
  }
  for (const auto& [f, site] : candidates) {
    if (production[site.name] > 0) continue;
    const bool test_seam = tests[site.name] > 0;
    addFinding(out, lexed[f], files[f].path, site.offset, "unused-decl",
               test_seam
                   ? "function '" + site.name +
                         "' is called only from tests/ — a test seam in a "
                         "production header; delete it, or keep it with "
                         "// pgaslint:allow(unused-decl) and the reason "
                         "(e.g. a test oracle)"
                   : "function '" + site.name +
                         "' is declared but nothing in src/, bench/, "
                         "perfbench/, examples/, tools/ or tests/ calls "
                         "it; delete it");
  }
}

}  // namespace

const std::vector<std::string>& allRules() {
  static const std::vector<std::string> kRules = {
      "nondet-rand",     "nondet-clock",    "unordered-iter",
      "func-hot-path",   "ptr-key-ordered", "kernel-mem-effects",
      "unused-decl",
  };
  return kRules;
}

std::string ruleDescription(const std::string& rule) {
  if (rule == "nondet-rand") {
    return "banned nondeterministic RNG APIs (rand, random_device, ...) in "
           "src/";
  }
  if (rule == "nondet-clock") {
    return "wall-clock sources (system/steady/high_resolution_clock, "
           "__DATE__/__TIME__) in src/";
  }
  if (rule == "unordered-iter") {
    return "iteration over std::unordered_{map,set} in src/ and bench/ "
           "(order leaks into reports and event schedules)";
  }
  if (rule == "func-hot-path") {
    return "std::function in the sim-core hot path (src/sim/) — use "
           "sim::EventFn";
  }
  if (rule == "ptr-key-ordered") {
    return "pointer-keyed std::map/std::set (iteration order follows "
           "allocation addresses)";
  }
  if (rule == "kernel-mem-effects") {
    return "KernelDesc construction without a mem_effects declaration "
           "(checked against the pure-compute allowlist)";
  }
  if (rule == "unused-decl") {
    return "function declared in a src/ header that no production code "
           "calls (whole-repo pass; test-only callers need an allow)";
  }
  return "";
}

bool ruleAppliesTo(const std::string& rule, const std::string& path) {
  const auto under = [&path](const char* dir) { return underDir(path, dir); };
  if (rule == "nondet-rand" || rule == "nondet-clock" ||
      rule == "kernel-mem-effects") {
    return under("src");
  }
  if (rule == "unused-decl") {
    return under("src") && path.size() > 4 &&
           path.compare(path.size() - 4, 4, ".hpp") == 0;
  }
  if (rule == "unordered-iter") return under("src") || under("bench");
  if (rule == "func-hot-path") return under("src/sim");
  if (rule == "ptr-key-ordered") {
    return under("src") || under("bench") || under("tests") || under("tools");
  }
  return false;
}

std::vector<Finding> lintFile(const std::string& path,
                              const std::string& content,
                              const Options& opts) {
  const Lexed lx = lex(content);
  const auto enabled = [&](const char* rule) {
    if (!opts.rules.empty() &&
        std::find(opts.rules.begin(), opts.rules.end(), rule) ==
            opts.rules.end()) {
      return false;
    }
    return ruleAppliesTo(rule, path);
  };
  std::vector<Finding> out;
  if (enabled("nondet-rand")) ruleNondetRand(path, lx, &out);
  if (enabled("nondet-clock")) ruleNondetClock(path, lx, &out);
  if (enabled("unordered-iter")) ruleUnorderedIter(path, lx, &out);
  if (enabled("func-hot-path")) ruleFuncHotPath(path, lx, &out);
  if (enabled("ptr-key-ordered")) rulePtrKeyOrdered(path, lx, &out);
  if (enabled("kernel-mem-effects")) ruleKernelMemEffects(path, lx, opts, &out);
  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return out;
}

std::vector<Finding> lintRepo(const std::vector<SourceFile>& files,
                              const Options& opts) {
  std::vector<Finding> out;
  if (!opts.rules.empty() &&
      std::find(opts.rules.begin(), opts.rules.end(), "unused-decl") ==
          opts.rules.end()) {
    return out;
  }
  ruleUnusedDecl(files, &out);
  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.file != b.file ? a.file < b.file
                                             : a.line < b.line;
                   });
  return out;
}

std::vector<std::string> parseAllowlist(const std::string& content) {
  std::vector<std::string> out;
  std::string line;
  for (std::size_t i = 0; i <= content.size(); ++i) {
    if (i == content.size() || content[i] == '\n') {
      // Trim and drop comments / blanks.
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line = line.substr(0, hash);
      while (!line.empty() && (line.back() == ' ' || line.back() == '\r' ||
                               line.back() == '\t')) {
        line.pop_back();
      }
      std::size_t start = 0;
      while (start < line.size() &&
             (line[start] == ' ' || line[start] == '\t')) {
        ++start;
      }
      line = line.substr(start);
      if (!line.empty()) out.push_back(line);
      line.clear();
    } else {
      line += content[i];
    }
  }
  return out;
}

}  // namespace pgaslint
