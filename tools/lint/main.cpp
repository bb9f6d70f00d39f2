// overhaul-lint CLI.
//
// Exit codes: 0 = clean, 1 = findings (or a missing --explain witness),
// 2 = usage/configuration error.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ir.h"
#include "lint.h"
#include "rules_flow.h"
#include "sarif.h"

namespace {

constexpr const char* kVersion = "7.0";

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: overhaul-lint --root DIR [--root DIR ...] --rules FILE\n"
      "                     [--baseline FILE] [--cache FILE] [--sarif OUT]\n"
      "                     [--explain RULE[:FUNCTION]] [--stats] [--quiet]\n"
      "\n"
      "Mediation-completeness analyzer for the Overhaul tree. Scans the\n"
      "roots for C++ sources, builds a whole-tree call graph plus per-\n"
      "function dataflow CFGs, and enforces rules R1-R13 from the rules\n"
      "file.\n"
      "\n"
      "  --baseline FILE  vetted findings (rule file symbol reason); stale\n"
      "                   entries are themselves findings\n"
      "  --cache FILE     incremental IR cache (keyed by source content +\n"
      "                   rules/baseline hash); safe to delete at any time\n"
      "  --sarif OUT      also write findings as SARIF 2.1.0 JSON\n"
      "  --explain SPEC   print witness call chains instead of linting:\n"
      "                   R5 (all seeds), R5:<function>, R6:<function>,\n"
      "                   R9:<function> (nondet-order taint witness),\n"
      "                   R11[:<function>] (clock-domain witness)\n"
      "  --stats          print file/function/edge/cache counters and the\n"
      "                   wall time of each rule family\n"
      "  --quiet          suppress per-finding lines (exit code only)\n");
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace overhaul::lint;

  std::vector<std::string> roots;
  std::string rules_path, baseline_path, cache_path, sarif_path, explain_spec;
  bool quiet = false, stats = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "overhaul-lint: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--root") {
      const char* v = value("--root");
      if (v == nullptr) return 2;
      roots.push_back(v);
    } else if (arg == "--rules") {
      const char* v = value("--rules");
      if (v == nullptr) return 2;
      rules_path = v;
    } else if (arg == "--baseline") {
      const char* v = value("--baseline");
      if (v == nullptr) return 2;
      baseline_path = v;
    } else if (arg == "--cache") {
      const char* v = value("--cache");
      if (v == nullptr) return 2;
      cache_path = v;
    } else if (arg == "--sarif") {
      const char* v = value("--sarif");
      if (v == nullptr) return 2;
      sarif_path = v;
    } else if (arg == "--explain") {
      const char* v = value("--explain");
      if (v == nullptr) return 2;
      explain_spec = v;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "overhaul-lint: unknown argument '%s'\n",
                   arg.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (roots.empty() || rules_path.empty()) {
    usage(stderr);
    return 2;
  }

  std::string rules_text;
  if (!read_file(rules_path, &rules_text)) {
    std::fprintf(stderr, "overhaul-lint: cannot open rules file: %s\n",
                 rules_path.c_str());
    return 2;
  }
  std::string error;
  const auto config = parse_rules(rules_text, &error);
  if (!config.has_value()) {
    std::fprintf(stderr, "overhaul-lint: %s\n", error.c_str());
    return 2;
  }

  TreeOptions opts;
  opts.roots = roots;
  opts.config = *config;
  std::string baseline_text;
  if (!baseline_path.empty()) {
    if (!read_file(baseline_path, &baseline_text)) {
      std::fprintf(stderr, "overhaul-lint: cannot open baseline file: %s\n",
                   baseline_path.c_str());
      return 2;
    }
    const auto baseline = parse_baseline(baseline_text, &error);
    if (!baseline.has_value()) {
      std::fprintf(stderr, "overhaul-lint: %s\n", error.c_str());
      return 2;
    }
    opts.baseline = *baseline;
  }
  // Cache key covers the rules and baseline text plus the tool version (an
  // analyzer change may change what the IR records; a rules or baseline edit
  // must never serve stale verdicts from the cache).
  opts.rules_hash = fnv1a64(std::string(kVersion) + "\n" + rules_text + "\n" +
                            baseline_text);
  opts.cache_path = cache_path;

  const TreeResult result = run_tree(opts);

  if (!explain_spec.empty()) {
    const ExplainOutcome out = explain(result.program, *config, explain_spec);
    std::fputs(out.text.c_str(), stdout);
    return out.exit_code;
  }

  if (!quiet) {
    for (const Finding& f : result.findings)
      std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
  }
  if (stats) {
    std::printf(
        "overhaul-lint: %zu files (%zu reparsed, %zu evicted, %zu "
        "invalidated_by_config), %zu functions, %zu call edges, %zu findings "
        "(%zu suppressed, %zu baselined)\n",
        result.stats.files, result.stats.reparsed, result.stats.evicted,
        result.stats.invalidated_by_config, result.stats.functions,
        result.stats.call_edges, result.findings.size(),
        result.stats.suppressed, result.stats.baselined);
    std::printf("overhaul-lint: ms: ir %.2f, call graph %.2f",
                result.stats.ir_ms, result.stats.callgraph_ms);
    for (std::size_t i = 0; i < result.stats.rule_ms.size(); ++i)
      std::printf(", R%zu %.2f", i + 1, result.stats.rule_ms[i]);
    std::printf("\n");
  } else if (!quiet) {
    std::fprintf(stderr,
                 "overhaul-lint: %zu finding(s) in %zu file(s) scanned\n",
                 result.findings.size(), result.stats.files);
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "overhaul-lint: cannot write SARIF to %s\n",
                   sarif_path.c_str());
      return 2;
    }
    out << to_sarif(result.findings, kVersion) << "\n";
  }

  return result.findings.empty() ? 0 : 1;
}
