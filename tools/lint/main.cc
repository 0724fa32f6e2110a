// cxl_lint CLI — see tools/lint/lint.h for the rule set.
//
// Usage (`cxl_lint --help` prints the flags; each value flag takes
// `--flag V` or `--flag=V`):
//   cxl_lint [--root=DIR] [--baseline=FILE] [--write-baseline=FILE]
//            [--json] [--json-out=FILE] [--exclude=SUBSTR]... [--list-rules]
//            [--rules=PREFIX[,PREFIX...]] [--strict-baseline] [paths...]
//
// --rules restricts the run to rule IDs matching any given prefix (e.g.
// --rules=CXL-U runs only the unit/dimension pass); baseline entries and
// stale-entry accounting are filtered the same way, so a focused pass never
// complains about the other families' grandfathers. --strict-baseline
// promotes stale baseline entries (no finding matched) from a warning to a
// gate failure — CI runs with it so fixed hazards cannot leave exemptions
// behind.
//
// With no explicit paths, scans src/, bench/, tests/, tools/, examples/
// under --root (default: the current directory). tests/lint/fixtures/ is
// always excluded — those files violate the rules on purpose.
//
// Exit codes: 0 clean (all findings suppressed or baselined), 1 actionable
// findings, 2 usage or I/O error (including a malformed baseline).
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/flags.h"
#include "tools/lint/baseline.h"
#include "tools/lint/lint.h"
#include "tools/lint/report.h"

namespace fs = std::filesystem;

namespace {

constexpr const char* kDefaultScanDirs[] = {"src", "bench", "tests", "tools",
                                            "examples"};
constexpr const char* kAlwaysExcluded = "tests/lint/fixtures";

bool HasSuffix(const std::string& s, const char* suffix) {
  size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

std::string ToRelative(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(file, root, ec);
  std::string out = (ec || rel.empty()) ? file.generic_string() : rel.generic_string();
  return out;
}

bool MatchesRuleFilter(const std::vector<std::string>& prefixes,
                       const std::string& rule_id) {
  if (prefixes.empty()) {
    return true;
  }
  for (const std::string& p : prefixes) {
    if (rule_id.rfind(p, 0) == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string baseline_path;
  std::string write_baseline_path;
  std::string json_out_path;
  bool json = false;
  bool list_rules = false;
  bool strict_baseline = false;
  std::vector<std::string> rule_prefixes;
  std::vector<std::string> excludes = {kAlwaysExcluded};

  const auto set_root = [&root](const std::string& value) {
    root = value;
    return cxl::Status::Ok();
  };
  const auto add_rules = [&rule_prefixes](const std::string& list) {
    std::istringstream prefixes(list);
    for (std::string prefix; std::getline(prefixes, prefix, ',');) {
      if (!prefix.empty()) {
        rule_prefixes.push_back(prefix);
      }
    }
    return rule_prefixes.empty()
               ? cxl::Status::InvalidArgument("want at least one rule-ID prefix")
               : cxl::Status::Ok();
  };
  const auto add_exclude = [&excludes](const std::string& value) {
    excludes.push_back(value);
    return cxl::Status::Ok();
  };
  cxl::ParseFlags(
      &argc, argv,
      {{"--root", "DIR", set_root,
        "scan src/, bench/, tests/, tools/, examples/ under DIR (default: .)"},
       {"--baseline", "FILE", cxl::Store(&baseline_path), "silence the findings FILE lists"},
       {"--write-baseline", "FILE", cxl::Store(&write_baseline_path),
        "write every finding to FILE as a baseline"},
       {"--json", "", cxl::Store(&json), "print the findings as JSON"},
       {"--json-out", "FILE", cxl::Store(&json_out_path), "also write the JSON report to FILE"},
       {"--exclude", "SUBSTR", add_exclude,
        "skip paths containing SUBSTR (repeatable; tests/lint/fixtures always)"},
       {"--rules", "PREFIX[,PREFIX...]", add_rules, "run only the rules with these ID prefixes"},
       {"--strict-baseline", "", cxl::Store(&strict_baseline),
        "fail on baseline entries no finding matches"},
       {"--list-rules", "", cxl::Store(&list_rules), "print the rule catalogue and exit"}},
      "[paths...]");
  const std::vector<std::string> paths(argv + 1, argv + argc);

  if (list_rules) {
    for (const cxl::lint::RuleInfo& r : cxl::lint::RuleCatalogue()) {
      std::cout << r.id << "  " << r.name << "\n    " << r.summary << "\n";
    }
    return 0;
  }

  // Collect the file set.
  std::vector<fs::path> scan_roots;
  if (paths.empty()) {
    for (const char* d : kDefaultScanDirs) {
      fs::path p = root / d;
      if (fs::exists(p)) {
        scan_roots.push_back(p);
      }
    }
  } else {
    for (const std::string& p : paths) {
      fs::path abs = fs::path(p).is_absolute() ? fs::path(p) : root / p;
      if (!fs::exists(abs)) {
        std::cerr << "error: no such path: " << p << '\n';
        return 2;
      }
      scan_roots.push_back(abs);
    }
  }

  std::vector<fs::path> files;
  for (const fs::path& sr : scan_roots) {
    if (fs::is_regular_file(sr)) {
      files.push_back(sr);
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(sr)) {
      if (!entry.is_regular_file()) {
        continue;
      }
      std::string name = entry.path().filename().string();
      if (!(HasSuffix(name, ".cc") || HasSuffix(name, ".h") ||
            HasSuffix(name, ".cpp") || HasSuffix(name, ".hpp"))) {
        continue;
      }
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  cxl::lint::Baseline baseline;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::cerr << "error: cannot read baseline " << baseline_path << '\n';
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    if (!baseline.Parse(text.str(), &error)) {
      std::cerr << "error: " << baseline_path << ": " << error << '\n';
      return 2;
    }
  }

  std::vector<cxl::lint::Finding> actionable;
  std::vector<cxl::lint::Finding> all_findings;  // pre-baseline, for --write-baseline
  cxl::lint::RunSummary summary;
  for (const fs::path& file : files) {
    std::string rel = ToRelative(file, root);
    bool skip = false;
    for (const std::string& ex : excludes) {
      if (rel.find(ex) != std::string::npos) {
        skip = true;
        break;
      }
    }
    if (skip) {
      continue;
    }
    std::ifstream in(file);
    if (!in) {
      std::cerr << "error: cannot read " << file.string() << '\n';
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    cxl::lint::FileReport report = cxl::lint::LintText(rel, text.str());
    ++summary.files_scanned;
    summary.suppressed += report.suppressed;
    for (cxl::lint::Finding& f : report.findings) {
      if (!MatchesRuleFilter(rule_prefixes, f.rule_id)) {
        continue;
      }
      all_findings.push_back(f);
      if (baseline.Matches(f)) {
        ++summary.baselined;
      } else {
        actionable.push_back(std::move(f));
      }
    }
  }
  summary.findings = static_cast<int>(actionable.size());

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path);
    if (!out) {
      std::cerr << "error: cannot write " << write_baseline_path << '\n';
      return 2;
    }
    out << cxl::lint::Baseline::Render(all_findings);
    std::cerr << "cxl_lint: wrote " << all_findings.size()
              << " baseline entries to " << write_baseline_path
              << " — fill in the reasons\n";
  }

  if (!json_out_path.empty()) {
    std::ofstream out(json_out_path);
    if (!out) {
      std::cerr << "error: cannot write " << json_out_path << '\n';
      return 2;
    }
    cxl::lint::WriteJson(out, actionable, summary);
  }
  if (json) {
    cxl::lint::WriteJson(std::cout, actionable, summary);
  } else {
    cxl::lint::WritePretty(std::cout, actionable, summary);
  }

  // Stale baseline entries mean the hazard was fixed but the exemption
  // lingers. Default: warn. --strict-baseline: fail the gate, so exemptions
  // cannot outlive the code they excused. Entries outside the --rules filter
  // never count as stale — that pass did not look for them.
  bool stale = false;
  for (const cxl::lint::BaselineEntry& e : baseline.UnmatchedEntries()) {
    if (!MatchesRuleFilter(rule_prefixes, e.rule_id)) {
      continue;
    }
    stale = true;
    std::cerr << "cxl_lint: " << (strict_baseline ? "error" : "warning")
              << ": stale baseline entry " << e.rule_id << " " << e.path
              << " (no finding matches; remove it)\n";
  }
  if (strict_baseline && stale) {
    return 1;
  }

  return actionable.empty() ? 0 : 1;
}
