#include "rules_flow.h"

#include "dataflow.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>
#include <unordered_map>

namespace overhaul::lint {

namespace fs = std::filesystem;

namespace {

bool has_cpp_ext(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".h" || ext == ".hpp";
}

std::vector<std::string> discover(const std::vector<std::string>& roots,
                                  std::vector<Finding>* findings) {
  std::vector<std::string> paths;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      paths.push_back(root);
      continue;
    }
    if (!fs::is_directory(root, ec)) {
      findings->push_back(
          {root, 0, "io", "root is neither a file nor a directory", root});
      continue;
    }
    for (fs::recursive_directory_iterator it(root, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->is_regular_file(ec) && has_cpp_ext(it->path()))
        paths.push_back(it->path().generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  return paths;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamsize n = in.tellg();
  if (n < 0) return false;
  out->resize(static_cast<std::size_t>(n));
  in.seekg(0);
  return n == 0 || static_cast<bool>(in.read(out->data(), n));
}

const std::set<std::string>& known_rules() {
  static const std::set<std::string> rules = {"R1", "R2",  "R3",  "R4",  "R5",
                                              "R6", "R7",  "R8",  "R9",  "R10",
                                              "R11", "R12", "R13"};
  return rules;
}

bool in_list(const std::string& s, const std::vector<std::string>& v) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

// Whether graph node `v` satisfies one of the R5 sinks: its own definition
// matches, or it calls a sink that has no definition in the scanned tree.
// The per-call-site check rejects on the sink's unqualified tail first so
// the common miss costs one string compare, not a concatenation — this
// runs over every node for every sink list, on every (warm) run.
bool is_sink_node(const CallGraph& g, int v,
                  const std::vector<std::string>& sinks) {
  const CallGraph::Node& node = g.nodes()[v];
  for (const std::string& sink : sinks) {
    if (qname_matches(node.qname, sink)) return true;
    const auto sep = sink.rfind("::");
    const bool bare = sep == std::string::npos;
    const std::string_view tail =
        bare ? std::string_view(sink) : std::string_view(sink).substr(sep + 2);
    for (const CallSite& cs : node.fn->call_sites) {
      if (cs.name != tail) continue;
      if (bare) return true;
      if (!cs.qualifier.empty() &&
          qname_matches(cs.qualifier + "::" + cs.name, sink))
        return true;
    }
  }
  return false;
}

std::string chain_text(const CallGraph& g, const std::vector<int>& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += " -> ";
    out += g.nodes()[path[i]].qname;
  }
  return out;
}

std::string join(const std::vector<std::string>& v, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += sep;
    out += v[i];
  }
  return out;
}

// R5 over the whole program. Seeds with a missing file/function are findings
// (a rename must not silently drop a mediation obligation).
void run_r5(const ProgramIR& program, const CallGraph& g,
            const RuleConfig& cfg, std::vector<Finding>* findings) {
  // Sink membership is per-node, not per-seed: memoize it once so each
  // seed's BFS tests a flag instead of rescanning call sites.
  std::vector<char> is_sink(g.nodes().size(), 0);
  for (std::size_t v = 0; v < g.nodes().size(); ++v)
    is_sink[v] = is_sink_node(g, static_cast<int>(v), cfg.r5_sinks) ? 1 : 0;
  for (const SeedPoint& seed : cfg.r5_seeds) {
    const bool file_seen =
        std::any_of(program.files.begin(), program.files.end(),
                    [&](const FileIR& f) {
                      return path_matches(f.path, seed.file);
                    });
    if (!file_seen) {
      findings->push_back({seed.file, 1, "R5",
                           "seed file for '" + seed.function +
                               "' was never scanned (moved? update "
                               "overhaul_lint.rules)",
                           seed.function});
      continue;
    }
    const int start = g.find_in_file(seed.file, seed.function);
    if (start < 0) {
      findings->push_back({seed.file, 1, "R5",
                           "seed function '" + seed.function +
                               "' not found (renamed away? update "
                               "overhaul_lint.rules)",
                           seed.function});
      continue;
    }
    const std::vector<int> path =
        g.shortest_path(start, [&](int v) { return is_sink[v] != 0; });
    if (path.empty()) {
      const CallGraph::Node& node = g.nodes()[start];
      findings->push_back(
          {node.file, node.line, "R5",
           "'" + node.qname +
               "' acquires a mediated resource but no call path reaches a "
               "permission-monitor sink (" +
               join(cfg.r5_sinks, ", ") + ") — run --explain R5:" +
               seed.function + " for the search frontier",
           node.qname});
    }
  }
}

// R6 over the whole program.
void run_r6(const CallGraph& g, const RuleConfig& cfg,
            std::vector<Finding>* findings) {
  if (cfg.r6_mints.empty()) return;
  std::vector<int> sources;
  for (const std::string& s : cfg.r6_sources)
    for (const int v : g.find_qname(s)) sources.push_back(v);
  const std::vector<char> reach = g.reachable_from(sources);

  for (std::size_t i = 0; i < g.nodes().size(); ++i) {
    const CallGraph::Node& node = g.nodes()[i];
    for (const CallSite& cs : node.fn->call_sites) {
      if (!in_list(cs.name, cfg.r6_mints)) continue;
      if (reach[i]) continue;
      const bool allowed = std::any_of(
          cfg.r6_allow.begin(), cfg.r6_allow.end(), [&](const std::string& a) {
            return qname_matches(node.qname, a) || path_matches(node.file, a);
          });
      if (allowed) continue;
      findings->push_back(
          {node.file, cs.line, "R6",
           "interaction mint '" + cs.name + "' called from '" + node.qname +
               "', which is not reachable from any sanctioned input source (" +
               join(cfg.r6_sources, ", ") + ")",
           node.qname});
    }
  }
}

// Resolves a seed/entry point to its call-graph node; a vanished file or
// function is itself a finding (a rename must not silently drop an
// obligation). Shared by R12/R13, mirroring run_r5's handling.
int resolve_seed(const ProgramIR& program, const CallGraph& g,
                 const SeedPoint& seed, const char* rule,
                 std::vector<Finding>* findings) {
  const bool file_seen = std::any_of(
      program.files.begin(), program.files.end(),
      [&](const FileIR& f) { return path_matches(f.path, seed.file); });
  if (!file_seen) {
    findings->push_back({seed.file, 1, rule,
                         "seed file for '" + seed.function +
                             "' was never scanned (moved? update "
                             "overhaul_lint.rules)",
                         seed.function});
    return -1;
  }
  const int start = g.find_in_file(seed.file, seed.function);
  if (start < 0) {
    findings->push_back({seed.file, 1, rule,
                         "seed function '" + seed.function +
                             "' not found (renamed away? update "
                             "overhaul_lint.rules)",
                         seed.function});
  }
  return start;
}

// R12: decision/audit completeness — every verdict-producing seed must reach
// both an audit-append sink and a metrics increment. One finding per seed,
// naming the missing trace(s).
void run_r12(const ProgramIR& program, const CallGraph& g,
             const RuleConfig& cfg, std::vector<Finding>* findings) {
  if (cfg.r12_seeds.empty()) return;
  std::vector<char> is_audit(g.nodes().size(), 0);
  std::vector<char> is_metric(g.nodes().size(), 0);
  for (std::size_t v = 0; v < g.nodes().size(); ++v) {
    is_audit[v] = is_sink_node(g, static_cast<int>(v), cfg.r12_audit) ? 1 : 0;
    is_metric[v] =
        is_sink_node(g, static_cast<int>(v), cfg.r12_metrics) ? 1 : 0;
  }
  for (const SeedPoint& seed : cfg.r12_seeds) {
    const int start = resolve_seed(program, g, seed, "R12", findings);
    if (start < 0) continue;
    // One BFS per seed, stopping as soon as both traces are found: the clean
    // (common) case reaches the monitor's append + counter within a few hops,
    // so most seeds never pay for their full reachable closure.
    std::vector<char> seen(g.nodes().size(), 0);
    std::vector<int> queue{start};
    seen[start] = 1;
    bool audit = false, metric = false;
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const int v = queue[qi];
      if (is_audit[v] != 0) audit = true;
      if (is_metric[v] != 0) metric = true;
      if (audit && metric) break;
      for (const int w : g.out_edges()[v]) {
        if (seen[w] == 0) {
          seen[w] = 1;
          queue.push_back(w);
        }
      }
    }
    if (audit && metric) continue;
    const CallGraph::Node& node = g.nodes()[start];
    std::string missing;
    if (!audit)
      missing = "an audit-append sink (" + join(cfg.r12_audit, ", ") + ")";
    if (!metric) {
      if (!missing.empty()) missing += " or ";
      missing += "a metrics increment (" + join(cfg.r12_metrics, ", ") + ")";
    }
    findings->push_back(
        {node.file, node.line, "R12",
         "'" + node.qname +
             "' produces a mediation verdict but no call path reaches " +
             missing + " — every decision must leave an audit and metrics "
             "trace (silent accountability loss)",
         node.qname});
  }
}

// R13: barrier discipline — worker-lane entry points must not reach
// OVERHAUL_COORDINATOR_ONLY functions; OVERHAUL_LANE_SAFE marks an audited
// boundary (e.g. the deferred outbox) whose callees are not expanded.
void run_r13(const ProgramIR& program, const CallGraph& g,
             const RuleConfig& cfg, std::vector<Finding>* findings) {
  if (cfg.r13_entries.empty()) return;
  const auto allowed = [&](const CallGraph::Node& n) {
    return std::any_of(cfg.r13_allow.begin(), cfg.r13_allow.end(),
                       [&](const std::string& a) {
                         return qname_matches(n.qname, a) ||
                                path_matches(n.file, a);
                       });
  };
  for (const SeedPoint& entry : cfg.r13_entries) {
    const int start = resolve_seed(program, g, entry, "R13", findings);
    if (start < 0) continue;
    const CallGraph::Node& enode = g.nodes()[start];
    if (allowed(enode)) continue;

    // BFS with parent tracking so a finding can name its shortest path.
    std::vector<int> parent(g.nodes().size(), -2);
    std::vector<int> queue{start};
    parent[start] = -1;
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const int v = queue[qi];
      const CallGraph::Node& node = g.nodes()[v];
      if (v != start && node.fn != nullptr) {
        if (node.fn->lane_anno == FnAnno::kCoordinatorOnly) {
          if (!allowed(node)) {
            std::vector<int> path;
            for (int c = v; c != -1; c = parent[c]) path.push_back(c);
            std::reverse(path.begin(), path.end());
            findings->push_back(
                {enode.file, enode.line, "R13",
                 "worker-lane entry '" + enode.qname +
                     "' reaches coordinator-only '" + node.qname +
                     "' outside the barrier: " + chain_text(g, path) +
                     " — route through the deferred outbox or mark the "
                     "audited boundary OVERHAUL_LANE_SAFE",
                 enode.qname});
          }
          continue;  // never expand past a coordinator function
        }
        if (node.fn->lane_anno == FnAnno::kLaneSafe)
          continue;  // audited boundary: lane-safe by contract
      }
      for (const int w : g.out_edges()[v]) {
        if (parent[w] == -2) {
          parent[w] = v;
          queue.push_back(w);
        }
      }
    }
  }
}

// Applies inline suppressions and the baseline; appends hygiene findings
// (rule "sup") for malformed/unused suppressions and stale baseline entries.
void filter_findings(const ProgramIR& program,
                     const std::vector<BaselineEntry>& baseline,
                     std::vector<Finding>* findings, TreeStats* stats) {
  struct SupRef {
    const FileIR* file;
    const Suppression* sup;
    bool used = false;
  };
  std::vector<SupRef> sups;
  for (const FileIR& f : program.files)
    for (const Suppression& s : f.suppressions) sups.push_back({&f, &s});

  std::erase_if(*findings, [&](const Finding& fd) {
    for (SupRef& ref : sups) {
      if (ref.file->path != fd.file) continue;
      const Suppression& s = *ref.sup;
      if (s.rule != fd.rule || s.reason.empty()) continue;
      if (s.line == fd.line || s.line + 1 == fd.line) {
        ref.used = true;
        ++stats->suppressed;
        return true;
      }
    }
    return false;
  });

  std::vector<bool> base_used(baseline.size(), false);
  std::erase_if(*findings, [&](const Finding& fd) {
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      const BaselineEntry& e = baseline[i];
      if (e.rule == fd.rule && e.symbol == fd.symbol &&
          path_matches(fd.file, e.file)) {
        base_used[i] = true;
        ++stats->baselined;
        return true;
      }
    }
    return false;
  });

  for (const SupRef& ref : sups) {
    const Suppression& s = *ref.sup;
    if (s.rule.empty() || known_rules().count(s.rule) == 0) {
      findings->push_back({ref.file->path, s.line, "sup",
                           "malformed suppression — want // overhaul-lint: "
                           "allow(R<n>: reason)",
                           s.rule});
    } else if (s.reason.empty()) {
      findings->push_back({ref.file->path, s.line, "sup",
                           "suppression for " + s.rule +
                               " has no reason — reasons are mandatory",
                           s.rule});
    } else if (!ref.used) {
      findings->push_back({ref.file->path, s.line, "sup",
                           "unused suppression for " + s.rule +
                               " — the finding it silenced is gone; delete it",
                           s.rule});
    }
  }
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    if (base_used[i]) continue;
    const BaselineEntry& e = baseline[i];
    findings->push_back({e.file, 1, "sup",
                         "stale baseline entry [" + e.rule + " " + e.file +
                             " " + e.symbol +
                             "] — the finding is gone; delete the line",
                         e.symbol});
  }
}

TreeResult analyze_program(ProgramIR program, const RuleConfig& cfg,
                           const std::vector<BaselineEntry>& baseline,
                           std::vector<Finding> findings, TreeStats stats) {
  stats.files = program.files.size();
  for (const FileIR& f : program.files) {
    stats.functions += f.functions.size();
    std::vector<Finding> fs = run_file_rules(f, cfg, &stats.rule_ms);
    findings.insert(findings.end(), fs.begin(), fs.end());
  }

  const auto timed = [&](int rule, auto&& run) {
    const RuleTimer t(&stats.rule_ms, rule);
    run();
  };
  // R2 anchors whose file never showed up.
  timed(2, [&] {
    for (const MediationPoint& point : cfg.r2_points) {
      const bool seen = std::any_of(
          program.files.begin(), program.files.end(),
          [&](const FileIR& f) { return path_matches(f.path, point.file); });
      if (!seen) {
        findings.push_back({point.file, 1, "R2",
                            "mediation point '" + point.function +
                                "' not found: its file was never scanned "
                                "(moved? update overhaul_lint.rules)",
                            point.function});
      }
    }
  });

  const CallGraph graph = [&] {
    const RuleTimer t(&stats.callgraph_ms);
    return CallGraph::build(program, cfg);
  }();
  stats.call_edges = graph.edge_count();
  timed(5, [&] { run_r5(program, graph, cfg, &findings); });
  timed(6, [&] { run_r6(graph, cfg, &findings); });
  timed(8, [&] { run_r8(program, graph, cfg, &findings); });
  timed(9, [&] { run_r9(program, cfg, &findings); });
  timed(10, [&] { run_r10(program, cfg, &findings); });
  timed(11, [&] { run_r11(program, cfg, &findings); });
  timed(12, [&] { run_r12(program, graph, cfg, &findings); });
  timed(13, [&] { run_r13(program, graph, cfg, &findings); });
  filter_findings(program, baseline, &findings, &stats);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });

  TreeResult res;
  res.findings = std::move(findings);
  res.stats = stats;
  res.program = std::move(program);
  return res;
}

}  // namespace

std::optional<std::vector<BaselineEntry>> parse_baseline(
    const std::string& text, std::string* error) {
  std::vector<BaselineEntry> out;
  std::istringstream iss(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(iss, raw)) {
    ++lineno;
    if (const auto hash = raw.find('#'); hash != std::string::npos)
      raw.erase(hash);
    std::istringstream ls(raw);
    BaselineEntry e;
    if (!(ls >> e.rule)) continue;  // blank line
    std::string reason_word;
    if (!(ls >> e.file >> e.symbol >> reason_word)) {
      if (error != nullptr)
        *error = "baseline:" + std::to_string(lineno) +
                 ": want `rule file symbol reason...` (reason is mandatory)";
      return std::nullopt;
    }
    if (known_rules().count(e.rule) == 0) {
      if (error != nullptr)
        *error = "baseline:" + std::to_string(lineno) + ": unknown rule '" +
                 e.rule + "'";
      return std::nullopt;
    }
    e.reason = reason_word;
    std::string rest;
    std::getline(ls, rest);
    e.reason += rest;
    out.push_back(std::move(e));
  }
  return out;
}

std::optional<std::vector<BaselineEntry>> load_baseline_file(
    const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open baseline file: " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_baseline(buf.str(), error);
}

namespace {

// Reads the tree into IR: cached entries for unchanged files, fresh parses
// for the rest. Rewrites the cache when it changed.
ProgramIR load_program(const TreeOptions& options,
                       std::vector<Finding>* findings, TreeStats* stats) {
  const std::vector<std::string> paths = discover(options.roots, findings);

  std::vector<FileIR> cached;
  if (!options.cache_path.empty()) {
    std::string blob;
    if (read_file(options.cache_path, &blob))
      parse_cache(blob, options.rules_hash, &cached,
                  &stats->invalidated_by_config);
  }
  std::unordered_map<std::string_view, FileIR*> by_path;
  by_path.reserve(cached.size());
  for (FileIR& f : cached) by_path.emplace(f.path, &f);

  // Cache hygiene: entries for files that vanished from the tree are counted
  // and dropped (the rewrite below serializes only scanned files, so an
  // evicted entry never comes back).
  for (const FileIR& f : cached)
    if (!std::binary_search(paths.begin(), paths.end(), f.path))
      ++stats->evicted;

  ProgramIR program;
  program.files.reserve(paths.size());
  std::size_t hits = 0;
  for (const std::string& path : paths) {
    std::string source;
    if (!read_file(path, &source)) {
      findings->push_back({path, 0, "io", "cannot read file", path});
      continue;
    }
    const std::uint64_t hash = fnv1a64(source);
    const auto it = by_path.find(path);
    if (it != by_path.end() && it->second->source_hash == hash) {
      // Each path appears at most once, so moving out of the cache is safe
      // and spares a deep copy of the whole IR on warm runs.
      program.files.push_back(std::move(*it->second));
      ++hits;
    } else {
      ++stats->reparsed;
      program.files.push_back(build_file_ir(path, source, options.config));
    }
  }

  // Rewrite the cache only when it would change: a fully-warm run where every
  // cached entry was used byte-for-byte skips the serialize + write entirely.
  const bool cache_unchanged = stats->reparsed == 0 && hits == cached.size();
  if (!options.cache_path.empty() && !cache_unchanged) {
    std::ofstream out(options.cache_path, std::ios::binary | std::ios::trunc);
    if (out) out << serialize_cache(program.files, options.rules_hash);
  }
  return program;
}

}  // namespace

TreeResult run_tree(const TreeOptions& options) {
  std::vector<Finding> findings;
  TreeStats stats;
  ProgramIR program;
  {
    const RuleTimer t(&stats.ir_ms);
    program = load_program(options, &findings, &stats);
  }
  return analyze_program(std::move(program), options.config, options.baseline,
                         std::move(findings), stats);
}

TreeResult run_tree_mem(
    const std::vector<std::pair<std::string, std::string>>& files,
    const RuleConfig& config, const std::vector<BaselineEntry>& baseline) {
  ProgramIR program;
  TreeStats stats;
  {
    const RuleTimer t(&stats.ir_ms);
    for (const auto& [path, source] : files) {
      ++stats.reparsed;
      program.files.push_back(build_file_ir(path, source, config));
    }
  }
  return analyze_program(std::move(program), config, baseline, {}, stats);
}

ExplainOutcome explain(const ProgramIR& program, const RuleConfig& cfg,
                       const std::string& spec) {
  ExplainOutcome out;
  std::string rule = spec, function;
  if (const auto colon = spec.find(':'); colon != std::string::npos) {
    rule = spec.substr(0, colon);
    function = spec.substr(colon + 1);
  }
  if (rule != "R5" && rule != "R6" && rule != "R9" && rule != "R11") {
    out.exit_code = 2;
    out.text =
        "--explain understands R5[:<function>], R6:<function>, "
        "R9:<function>, and R11[:<function>]\n";
    return out;
  }
  if (rule == "R9") {
    if (function.empty()) {
      out.exit_code = 2;
      out.text = "--explain R9 wants a function: --explain R9:<function>\n";
      return out;
    }
    out.text = explain_r9(program, cfg, function, &out.exit_code);
    return out;
  }
  if (rule == "R11") {
    out.text = explain_r11(program, cfg, function, &out.exit_code);
    return out;
  }

  const CallGraph g = CallGraph::build(program, cfg);
  std::ostringstream text;

  if (rule == "R5") {
    bool any = false;
    for (const SeedPoint& seed : cfg.r5_seeds) {
      if (!function.empty() && seed.function != function) continue;
      any = true;
      const int start = g.find_in_file(seed.file, seed.function);
      if (start < 0) {
        text << "R5 " << seed.file << ":" << seed.function
             << ": seed not found in the scanned tree\n";
        out.exit_code = 1;
        continue;
      }
      const CallGraph::Node& node = g.nodes()[start];
      const std::vector<int> path = g.shortest_path(
          start, [&](int v) { return is_sink_node(g, v, cfg.r5_sinks); });
      text << "R5 " << node.qname << " (" << node.file << ":" << node.line
           << ")\n";
      if (path.empty()) {
        text << "  NO PATH to any sink: " << join(cfg.r5_sinks, ", ") << "\n";
        text << "  direct callees:";
        for (const int v : g.out_edges()[start])
          text << " " << g.nodes()[v].qname;
        text << "\n";
        out.exit_code = 1;
      } else {
        text << "  " << chain_text(g, path);
        // Name the sink the chain lands on.
        const CallGraph::Node& last = g.nodes()[path.back()];
        for (const std::string& sink : cfg.r5_sinks) {
          if (qname_matches(last.qname, sink)) {
            text << "  [sink]";
            break;
          }
          const bool bare = sink.find("::") == std::string::npos;
          const bool via_call = std::any_of(
              last.fn->call_sites.begin(), last.fn->call_sites.end(),
              [&](const CallSite& cs) {
                return bare ? cs.name == sink
                            : (!cs.qualifier.empty() &&
                               qname_matches(cs.qualifier + "::" + cs.name,
                                             sink));
              });
          if (via_call) {
            text << " -> " << sink << "()  [sink]";
            break;
          }
        }
        text << "\n";
      }
    }
    if (!any) {
      text << "no R5 seed named '" << function << "'\n";
      out.exit_code = 2;
    }
  } else {  // R6
    if (function.empty()) {
      out.exit_code = 2;
      out.text = "--explain R6 wants a function: --explain R6:<function>\n";
      return out;
    }
    std::vector<int> sources;
    for (const std::string& s : cfg.r6_sources)
      for (const int v : g.find_qname(s)) sources.push_back(v);
    const std::vector<int> targets = g.find_qname(function);
    if (targets.empty()) {
      text << "R6: no definition of '" << function << "' in the tree\n";
      out.exit_code = 1;
    }
    for (const int target : targets) {
      const CallGraph::Node& node = g.nodes()[target];
      text << "R6 " << node.qname << " (" << node.file << ":" << node.line
           << ")\n";
      std::vector<int> best;
      for (const int s : sources) {
        const std::vector<int> p =
            g.shortest_path(s, [&](int v) { return v == target; });
        if (!p.empty() && (best.empty() || p.size() < best.size())) best = p;
      }
      if (best.empty()) {
        text << "  NOT reachable from any source: "
             << join(cfg.r6_sources, ", ") << "\n";
        out.exit_code = 1;
      } else {
        text << "  " << chain_text(g, best) << "\n";
      }
    }
  }
  out.text = text.str();
  return out;
}

// Legacy single-call entry point (declared in lint.h): the whole-tree
// pipeline without cache or baseline.
std::vector<Finding> run_lint(const std::vector<std::string>& roots,
                              const RuleConfig& config,
                              std::size_t* files_scanned) {
  TreeOptions opts;
  opts.roots = roots;
  opts.config = config;
  TreeResult res = run_tree(opts);
  if (files_scanned != nullptr) *files_scanned = res.stats.files;
  return std::move(res.findings);
}

}  // namespace overhaul::lint
