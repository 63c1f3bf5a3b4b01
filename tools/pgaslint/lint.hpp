// pgaslint — project-specific static analysis for the pgasemb simulator.
//
// A lightweight C++ lexer/matcher (no libclang) that enforces the
// repo's determinism and declared-effects invariants as named,
// suppressible rules.  It is deliberately a *project* linter: the rules
// encode conventions of this codebase (seed-determinism, the PR 6
// EventFn invariant, simsan's declared-effects contract), not general
// C++ style.  See DESIGN.md §11 for the rule catalogue.
//
// Suppression syntax: a comment `// pgaslint:allow(<rule>[,<rule>...])`
// silences the named rules on its own line and on the next line, so it
// works both trailing the offending statement and on the line above it.
#pragma once

#include <string>
#include <vector>

namespace pgaslint {

struct Finding {
  std::string file;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;
};

struct Options {
  /// Kernel-name prefixes exempt from the kernel-mem-effects rule
  /// (pure-compute kernels that read/write no tracked device memory).
  std::vector<std::string> pure_kernels;
  /// When non-empty, only these rules run.
  std::vector<std::string> rules;
};

/// All rule names, in report order.
const std::vector<std::string>& allRules();

/// One-line description of a rule (empty for unknown names).
std::string ruleDescription(const std::string& rule);

/// True when `rule` is checked for a file at repo-relative `path`.
/// Rules are scoped: the nondeterminism rules cover src/ only (benches
/// legitimately measure wall-clock), func-hot-path covers src/sim/,
/// ptr-key-ordered covers src/, bench/, tests/, and tools/, and
/// unused-decl reports on src/ headers.
bool ruleAppliesTo(const std::string& rule, const std::string& path);

/// Lints one file's contents. `path` should be repo-relative: it picks
/// which rules apply and is echoed in findings.
std::vector<Finding> lintFile(const std::string& path,
                              const std::string& content,
                              const Options& opts);

/// One file of a whole-repo pass.
struct SourceFile {
  std::string path;  ///< repo-relative
  std::string content;
};

/// Runs the rules that need every file at once — today unused-decl:
/// a function declared in a src/ header whose name appears in code
/// (outside comments and strings) only at its own declarations and
/// definitions. References count from src/, bench/, perfbench/,
/// examples/ and tools/; a function only tests/ call is flagged as a
/// test seam. Matching is by name, so an overloaded or common name
/// counts as used. `files` must be the whole lint set.
std::vector<Finding> lintRepo(const std::vector<SourceFile>& files,
                              const Options& opts);

/// Parses a pure-kernel allowlist (one name prefix per line; blank
/// lines and lines starting with '#' are ignored).
std::vector<std::string> parseAllowlist(const std::string& content);

}  // namespace pgaslint
