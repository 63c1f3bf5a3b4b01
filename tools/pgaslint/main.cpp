// pgaslint CLI — lints the repo's C++ sources against the project
// invariants (see lint.hpp / DESIGN.md §11).
//
//   pgaslint [--allowlist FILE] [--rules a,b] [--list-rules] PATH...
//
// PATHs are files or directories (recursed for *.cpp / *.hpp) and
// should be repo-relative — the rule scoping keys off the path prefix,
// so run it from the repository root:
//
//   pgaslint --allowlist tools/pgaslint/pure_kernels.allow
//            src bench tests examples tools perfbench
//
// unused-decl is a whole-repo pass: it sees only the PATHs given, so
// pass every directory whose calls should count.
//
// Exit codes: 0 clean, 1 violations found, 2 usage / IO error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pgaslint/lint.hpp"

namespace {

namespace fs = std::filesystem;

bool readFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool lintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

std::vector<std::string> splitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else if (c != ' ') {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--allowlist FILE] [--rules a,b] [--list-rules] "
               "PATH...\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pgaslint::Options opts;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const auto& rule : pgaslint::allRules()) {
        std::printf("%-20s %s\n", rule.c_str(),
                    pgaslint::ruleDescription(rule).c_str());
      }
      return 0;
    }
    if (arg == "--allowlist") {
      if (++i >= argc) return usage(argv[0]);
      std::string content;
      if (!readFile(argv[i], &content)) {
        std::fprintf(stderr, "pgaslint: cannot read allowlist '%s'\n",
                     argv[i]);
        return 2;
      }
      opts.pure_kernels = pgaslint::parseAllowlist(content);
    } else if (arg == "--rules") {
      if (++i >= argc) return usage(argv[0]);
      opts.rules = splitCommas(argv[i]);
      for (const auto& rule : opts.rules) {
        if (pgaslint::ruleDescription(rule).empty()) {
          std::fprintf(stderr, "pgaslint: unknown rule '%s'\n", rule.c_str());
          return 2;
        }
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) return usage(argv[0]);

  // Expand the roots into a sorted file list (determinism: the lint
  // tool practices what it enforces).
  std::vector<std::string> files;
  for (const auto& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (it->is_regular_file(ec) && lintableExtension(it->path())) {
          files.push_back(it->path().generic_string());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else {
      std::fprintf(stderr, "pgaslint: no such file or directory '%s'\n",
                   root.c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<pgaslint::SourceFile> sources;
  for (const auto& file : files) {
    std::string content;
    if (!readFile(file, &content)) {
      std::fprintf(stderr, "pgaslint: cannot read '%s'\n", file.c_str());
      return 2;
    }
    sources.push_back({file, std::move(content)});
  }
  std::vector<pgaslint::Finding> findings;
  for (const auto& source : sources) {
    const auto found = pgaslint::lintFile(source.path, source.content, opts);
    findings.insert(findings.end(), found.begin(), found.end());
  }
  const auto repo_wide = pgaslint::lintRepo(sources, opts);
  findings.insert(findings.end(), repo_wide.begin(), repo_wide.end());

  std::vector<std::string> dirty;
  for (const auto& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
    dirty.push_back(f.file);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  if (!findings.empty()) {
    std::printf("pgaslint: %zu violation(s) in %zu file(s) (%zu scanned)\n",
                findings.size(), dirty.size(), files.size());
    return 1;
  }
  std::printf("pgaslint: clean (%zu files, %zu rules)\n", files.size(),
              pgaslint::allRules().size());
  return 0;
}
