// Whole-tree analysis pipeline: file discovery, the incremental cache, the
// inter-procedural rules (R5 mediation-reachability, R6 interaction-taint),
// the dataflow rules (R8 shared-state, R9 nondet-order, R10 lock discipline;
// dataflow.h), suppression/baseline filtering, and the --explain witness
// printer.
//
// R5: every seeded resource-acquisition entry point (r5.seed file:function)
// must transitively reach a permission-monitor sink (r5.sink) through the
// call graph. A sink is a definition whose qualified name matches the entry,
// or — for sinks defined outside the scanned tree — any function that calls
// the entry by name. Seeds whose file or function vanished are findings too:
// a renamed entry point must not pass silently.
//
// R6: interaction-state mints (r6.mint, bare callee names) may only be
// invoked from functions reachable from the sanctioned hardware-input
// sources (r6.source, qualified-name suffixes). r6.allow entries (qname
// suffix or path) exempt deliberate non-input callers, e.g. the kernel-side
// handler installer whose lambdas the extractor attributes to it.
//
// R12: decision/audit completeness — the dual of R5. Every seeded
// verdict-producing entry point (r12.seed file:function) must transitively
// reach BOTH an audit-append sink (r12.audit) and a metrics-increment sink
// (r12.metrics): a deny path that short-circuits past the audit append is a
// silent accountability loss. One finding per seed, naming the missing
// trace(s).
//
// R13: barrier discipline. From every worker-lane entry point (r13.entry
// file:function) the call graph must not reach a function annotated
// OVERHAUL_COORDINATOR_ONLY, except through an OVERHAUL_LANE_SAFE boundary
// (the audited deferred-outbox surface), whose callees are not expanded.
// One finding per (entry, coordinator-only function) pair, anchored at the
// entry, naming the offending path.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "callgraph.h"
#include "ir.h"
#include "lint.h"

namespace overhaul::lint {

// One vetted finding: `rule file symbol reason...` (whitespace-separated;
// reason mandatory). Matched by exact rule + path_matches(file) + exact
// symbol, so baselines survive line drift. Unmatched entries are reported as
// stale — a baseline may only shrink by deleting its line.
struct BaselineEntry {
  std::string rule;
  std::string file;
  std::string symbol;
  std::string reason;
};

std::optional<std::vector<BaselineEntry>> parse_baseline(
    const std::string& text, std::string* error);
std::optional<std::vector<BaselineEntry>> load_baseline_file(
    const std::string& path, std::string* error);

struct TreeOptions {
  std::vector<std::string> roots;
  RuleConfig config;
  // Hash of the rules-file text; part of the cache key so editing the rules
  // invalidates every cached FileIR.
  std::uint64_t rules_hash = 0;
  std::string cache_path;  // empty: no incremental cache
  std::vector<BaselineEntry> baseline;
};

struct TreeStats {
  std::size_t files = 0;
  std::size_t reparsed = 0;  // files not served from the cache
  std::size_t evicted = 0;   // cache entries whose file vanished from disk
  // Cached entries discarded because the config hash (rules/baseline text)
  // changed — distinguishes a config-forced cold pass from source edits.
  std::size_t invalidated_by_config = 0;
  std::size_t functions = 0;
  std::size_t call_edges = 0;
  std::size_t suppressed = 0;  // findings dropped by inline suppressions
  std::size_t baselined = 0;   // findings dropped by the baseline
  // Wall time, in ms, of each rule family and of the two phases they share:
  // reading the tree into IR (cache included) and building the call graph
  // that R5, R6, R8, R12 and R13 walk.
  RuleTimes rule_ms{};
  double ir_ms = 0;
  double callgraph_ms = 0;
};

struct TreeResult {
  std::vector<Finding> findings;
  TreeStats stats;
  ProgramIR program;  // kept for --explain and tests
};

// Scans roots, (re)builds the per-file IR through the cache, runs every rule
// family, applies suppressions and the baseline. Findings are sorted by
// (file, line, rule).
TreeResult run_tree(const TreeOptions& options);

// In-memory variant for tests and benches: (path, source) pairs, no I/O.
TreeResult run_tree_mem(
    const std::vector<std::pair<std::string, std::string>>& files,
    const RuleConfig& config,
    const std::vector<BaselineEntry>& baseline = {});

// --explain: prints witness call chains. `spec` is "R5", "R5:<function>",
// "R6:<function>", "R9:<function>" (taint witness: nondet origin -> sink),
// or "R11[:<function>]" (domain witness: mint -> flow -> mixing site).
// exit_code: 0 = every requested witness exists, 1 = at least one chain is
// missing, 2 = bad spec.
struct ExplainOutcome {
  int exit_code = 0;
  std::string text;
};
ExplainOutcome explain(const ProgramIR& program, const RuleConfig& config,
                       const std::string& spec);

}  // namespace overhaul::lint
