// Unit tests for overhaul-lint: tokenizer, function/member/flow extraction,
// rules parsing, the whole-tree call graph, the thirteen invariants
// (mediation R1-R7, concurrency/determinism R8-R10, domain-aware R11-R13)
// over deliberately broken fixture sources (tests/lint/fixtures/),
// suppressions, baselines, the incremental cache (including eviction of
// deleted files and config-hash invalidation), SARIF output, and --explain
// witnesses.
#include "lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "callgraph.h"
#include "ir.h"
#include "obs/json.h"
#include "rules_flow.h"
#include "sarif.h"

namespace lint = overhaul::lint;

namespace {

std::string fixture_dir(const std::string& sub) {
  return std::string(LINT_FIXTURES_DIR) + "/" + sub;
}

lint::RuleConfig fixture_rules() {
  std::string error;
  auto cfg = lint::load_rules_file(
      std::string(LINT_FIXTURES_DIR) + "/fixtures.rules", &error);
  EXPECT_TRUE(cfg.has_value()) << error;
  return cfg.value_or(lint::RuleConfig{});
}

std::vector<std::string> call_names(const lint::FunctionInfo& fn) {
  return fn.calls;
}

bool has_call(const lint::FunctionInfo& fn, const std::string& name) {
  return std::find(fn.calls.begin(), fn.calls.end(), name) != fn.calls.end();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Builds a ProgramIR from inline (path, source) pairs.
lint::ProgramIR make_program(
    const std::vector<std::pair<std::string, std::string>>& files,
    const lint::RuleConfig& cfg) {
  lint::ProgramIR program;
  for (const auto& [path, source] : files)
    program.files.push_back(lint::build_file_ir(path, source, cfg));
  return program;
}

int count_rule(const std::vector<lint::Finding>& findings,
               const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const lint::Finding& f) { return f.rule == rule; }));
}

// First finding for `rule` (the fixture rules reference files outside a
// single-file run_tree_mem tree, so index 0 is often a missing-file finding).
const lint::Finding& first_rule(const std::vector<lint::Finding>& findings,
                                const std::string& rule) {
  static const lint::Finding none{};
  for (const auto& f : findings)
    if (f.rule == rule) return f;
  return none;
}

}  // namespace

// --- tokenizer ---------------------------------------------------------------

TEST(Tokenizer, SkipsCommentsStringsAndPreprocessor) {
  const auto toks = lint::tokenize(
      "#include <chrono>\n"
      "// stamp_on_send in a comment\n"
      "/* propagate_on_recv\n   in a block comment */\n"
      "auto s = \"stamp_on_send(x)\";\n");
  for (const auto& t : toks) {
    if (t.kind == lint::TokKind::kIdent) {
      EXPECT_NE(t.text, "stamp_on_send");
      EXPECT_NE(t.text, "propagate_on_recv");
      EXPECT_NE(t.text, "chrono");
      EXPECT_NE(t.text, "include");
    }
  }
}

TEST(Tokenizer, DistinguishesAssignmentFromComparison) {
  const auto toks = lint::tokenize("a == b; c = d; e <= f; g += h;");
  std::vector<std::string> puncts;
  for (const auto& t : toks)
    if (t.kind == lint::TokKind::kPunct) puncts.push_back(t.text);
  EXPECT_EQ(puncts, (std::vector<std::string>{"==", ";", "=", ";", "<=", ";",
                                              "+=", ";"}));
}

TEST(Tokenizer, TracksLineNumbers) {
  const auto toks = lint::tokenize("one\ntwo\n\nthree");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 4);
}

TEST(Tokenizer, RawStringContentsStayOpaque) {
  // Unbalanced braces/quotes inside a raw string must not desynchronize the
  // extractor, and its identifiers must not look like calls.
  const auto toks = lint::tokenize(
      "auto s = R\"(stamp_on_send( { \" ))\" ; \n"
      "int after = 1;\n");
  for (const auto& t : toks) {
    if (t.kind == lint::TokKind::kIdent) {
      EXPECT_NE(t.text, "stamp_on_send");
    }
  }
  const auto after = std::find_if(
      toks.begin(), toks.end(),
      [](const lint::Token& t) { return t.text == "after"; });
  ASSERT_NE(after, toks.end());
  EXPECT_EQ(after->line, 2);
}

TEST(Tokenizer, RawStringEncodingPrefixes) {
  const auto toks = lint::tokenize(
      "auto a = LR\"x(check( })x\";\n"
      "auto b = u8R\"(check()\";\n"
      "auto c = uR\"(check()\";\n");
  for (const auto& t : toks) {
    if (t.kind == lint::TokKind::kIdent) {
      EXPECT_NE(t.text, "check");
    }
  }
}

TEST(Tokenizer, IdentEndingInRIsNotARawString) {
  const auto toks = lint::tokenize("int fooR = 2; str = \"plain\";");
  const auto id = std::find_if(
      toks.begin(), toks.end(),
      [](const lint::Token& t) { return t.text == "fooR"; });
  EXPECT_NE(id, toks.end());
}

TEST(Tokenizer, MultilineRawStringKeepsLineNumbers) {
  const auto toks = lint::tokenize("auto s = R\"(a\nb\nc)\";\nint last;\n");
  const auto last = std::find_if(
      toks.begin(), toks.end(),
      [](const lint::Token& t) { return t.text == "last"; });
  ASSERT_NE(last, toks.end());
  EXPECT_EQ(last->line, 4);
}

// --- function extraction -----------------------------------------------------

TEST(ExtractFunctions, FindsQualifiedDefinitionAndCalls) {
  const auto fns = lint::extract_functions(lint::tokenize(
      "Result<int> Pipe::write(Task& w, int n) {\n"
      "  if (full()) return fail();\n"
      "  stamp_on_send(w);\n"
      "  return n;\n"
      "}\n"));
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].qualified_name, "Pipe::write");
  EXPECT_EQ(fns[0].name, "write");
  EXPECT_EQ(fns[0].line, 1);
  EXPECT_TRUE(has_call(fns[0], "stamp_on_send"));
  EXPECT_TRUE(has_call(fns[0], "full"));
  // Control keywords never count as calls.
  for (const auto& c : call_names(fns[0])) EXPECT_NE(c, "if");
}

TEST(ExtractFunctions, DeclarationsDoNotCount) {
  const auto fns = lint::extract_functions(lint::tokenize(
      "Status write(Task& w, std::string data);\n"
      "Status read(Task& r);\n"));
  EXPECT_TRUE(fns.empty());
}

TEST(ExtractFunctions, HandlesConstructorInitLists) {
  const auto fns = lint::extract_functions(lint::tokenize(
      "Kernel::Kernel(Clock& c, Config cfg)\n"
      "    : clock_(c), monitor_(p_, c, Audit{}), policy_{cfg.enabled} {\n"
      "  monitor_.set_threshold(cfg.delta);\n"
      "}\n"));
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].qualified_name, "Kernel::Kernel");
  EXPECT_TRUE(has_call(fns[0], "set_threshold"));
}

TEST(ExtractFunctions, MemberCallsRecordUnqualifiedName) {
  const auto fns = lint::extract_functions(lint::tokenize(
      "void f() { pipe_end->pipe()->write(x); server_.ask_monitor(c); }\n"));
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_TRUE(has_call(fns[0], "write"));
  EXPECT_TRUE(has_call(fns[0], "ask_monitor"));
}

TEST(ExtractFunctions, TemplateArgumentsInQualifiedNames) {
  // PR 5 tokenizer-gap regression: template angle brackets in signatures
  // used to mis-split the definition chain.
  const auto fns = lint::extract_functions(lint::tokenize(
      "void Cache<int>::reset() { purge(); }\n"
      "template <typename T>\n"
      "T* Cache<T>::find(Key k) { return probe(k); }\n"));
  ASSERT_EQ(fns.size(), 2u);
  EXPECT_EQ(fns[0].qualified_name, "Cache::reset");
  EXPECT_TRUE(has_call(fns[0], "purge"));
  EXPECT_EQ(fns[1].qualified_name, "Cache::find");
  EXPECT_TRUE(fns[1].ret_is_ptr);
  EXPECT_TRUE(has_call(fns[1], "probe"));
}

TEST(ExtractFunctions, TemplatedCallsKeepTheBareName) {
  const auto fns = lint::extract_functions(lint::tokenize(
      "void f() { auto x = get<int>(v); lt(a < b, c > d); }\n"));
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_TRUE(has_call(fns[0], "get"));
  // A genuine comparison must not be eaten as template arguments.
  EXPECT_TRUE(has_call(fns[0], "lt"));
}

TEST(ExtractFunctions, OperatorCallDefinition) {
  const auto fns = lint::extract_functions(lint::tokenize(
      "bool Functor::operator()(int x) { return check(x); }\n"
      "bool Wrap::operator==(const Wrap& o) { return eq(o); }\n"));
  ASSERT_EQ(fns.size(), 2u);
  EXPECT_EQ(fns[0].qualified_name, "Functor::operator()");
  EXPECT_EQ(fns[0].name, "operator()");
  EXPECT_TRUE(has_call(fns[0], "check"));
  EXPECT_EQ(fns[1].qualified_name, "Wrap::operator==");
  EXPECT_TRUE(has_call(fns[1], "eq"));
}

TEST(ExtractFunctions, InClassDefinitionsGetClassQualifiedNames) {
  const auto facts = lint::extract_facts(lint::tokenize(
      "class Widget {\n"
      " public:\n"
      "  void poke() { wiggle(); }\n"
      "  struct Inner { void jab() { stab(); } };\n"
      "};\n"
      "void loose() { roam(); }\n"));
  ASSERT_EQ(facts.functions.size(), 3u);
  EXPECT_EQ(facts.functions[0].qualified_name, "Widget::poke");
  EXPECT_EQ(facts.functions[1].qualified_name, "Widget::Inner::jab");
  EXPECT_EQ(facts.functions[2].qualified_name, "loose");
}

TEST(ExtractFunctions, PointerFieldsAtClassScopeOnly) {
  const auto facts = lint::extract_facts(lint::tokenize(
      "class Reg {\n"
      "  TaskStruct* cached_ = nullptr;\n"
      "  TaskStruct* find(Key k);\n"  // declaration, not a field
      "  void use() { TaskStruct* local = get(); touch(local); }\n"
      "};\n"
      "TaskStruct* g_loose;\n"));  // namespace scope: not a class field
  ASSERT_EQ(facts.pointer_fields.size(), 1u);
  EXPECT_EQ(facts.pointer_fields[0].type, "TaskStruct");
  EXPECT_EQ(facts.pointer_fields[0].name, "cached_");
}

TEST(ExtractFunctions, ReturnTypeRecovery) {
  const auto fns = lint::extract_functions(lint::tokenize(
      "TaskStruct* Table::get(H h) { return slot(h); }\n"
      "const TaskStruct& Table::ref(H h) { return *slot(h); }\n"));
  ASSERT_EQ(fns.size(), 2u);
  EXPECT_TRUE(fns[0].ret_is_ptr);
  EXPECT_EQ(fns[0].ret_type, "TaskStruct");
  EXPECT_FALSE(fns[1].ret_is_ptr);
}

TEST(ExtractFunctions, QualifiedCallSitesRecordTheQualifier) {
  const auto facts = lint::extract_facts(lint::tokenize(
      "void f() { IpcObject::stamp_on_send(x); plain(); }\n"));
  ASSERT_EQ(facts.functions.size(), 1u);
  const auto& sites = facts.functions[0].call_sites;
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].name, "stamp_on_send");
  EXPECT_EQ(sites[0].qualifier, "IpcObject");
  EXPECT_EQ(sites[1].qualifier, "");
}

// --- member extraction -------------------------------------------------------

TEST(ExtractMembers, RecordsAnnotationsMutabilityAndGuards) {
  const auto facts = lint::extract_facts(lint::tokenize(
      "class Hub {\n"
      "  OVERHAUL_SHARD_LOCAL int depth_ = 0;\n"
      "  OVERHAUL_SHARED(connect|drop) std::vector<int> channels_;\n"
      "  OVERHAUL_GUARDED_BY(mu_) std::uint64_t total_;\n"
      "  std::map<int, int> plain_;\n"
      "  const int limit_ = 4;\n"
      "  static constexpr int kCap = 8;\n"
      "  Table& table_;\n"
      "};\n"));
  ASSERT_EQ(facts.members.size(), 7u);
  EXPECT_EQ(facts.members[0].name, "depth_");
  EXPECT_EQ(facts.members[0].anno, lint::MemberAnno::kShardLocal);
  EXPECT_TRUE(facts.members[0].is_mutable);
  EXPECT_EQ(facts.members[1].name, "channels_");
  EXPECT_EQ(facts.members[1].anno, lint::MemberAnno::kShared);
  EXPECT_EQ(facts.members[1].guard, "connect|drop");
  EXPECT_EQ(facts.members[1].klass, "Hub");
  EXPECT_EQ(facts.members[2].name, "total_");
  EXPECT_EQ(facts.members[2].anno, lint::MemberAnno::kGuardedBy);
  EXPECT_EQ(facts.members[2].guard, "mu_");
  EXPECT_EQ(facts.members[3].name, "plain_");
  EXPECT_EQ(facts.members[3].anno, lint::MemberAnno::kNone);
  EXPECT_TRUE(facts.members[3].is_mutable);
  // const / constexpr / reference members are not mutable state.
  EXPECT_FALSE(facts.members[4].is_mutable);
  EXPECT_FALSE(facts.members[5].is_mutable);
  EXPECT_FALSE(facts.members[6].is_mutable);
}

TEST(ExtractMembers, QualifiedAccessorsSurviveAndLocalsAreNotMembers) {
  const auto facts = lint::extract_facts(lint::tokenize(
      "class Hub {\n"
      "  OVERHAUL_SHARED(NetlinkChannel::discard_pending) std::size_t n_ = 0;\n"
      "  void f() { int local = 0; use(local); }\n"
      "};\n"));
  ASSERT_EQ(facts.members.size(), 1u);
  EXPECT_EQ(facts.members[0].guard, "NetlinkChannel::discard_pending");
}

// --- flow extraction ---------------------------------------------------------

TEST(ExtractFlow, RecordsDefsUsesBranchesAndLoops) {
  const auto facts = lint::extract_facts(lint::tokenize(
      "void f(int n) {\n"
      "  int total = 0;\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    total += step(i);\n"
      "  }\n"
      "  publish(total);\n"
      "}\n"));
  ASSERT_EQ(facts.functions.size(), 1u);
  const auto& flow = facts.functions[0].flow;
  ASSERT_FALSE(flow.empty());
  // The declaration defines 'total'; the loop body re-defines it and uses i.
  bool saw_decl = false, saw_loop_def = false, saw_publish = false;
  for (const auto& s : flow) {
    if (s.decl_type.find("int") != std::string::npos &&
        std::find(s.defs.begin(), s.defs.end(), "total") != s.defs.end())
      saw_decl = true;
    if (std::find(s.defs.begin(), s.defs.end(), "total") != s.defs.end() &&
        std::find(s.uses.begin(), s.uses.end(), "i") != s.uses.end())
      saw_loop_def = true;
    if (std::find(s.calls.begin(), s.calls.end(), "publish") !=
            s.calls.end() &&
        std::find(s.uses.begin(), s.uses.end(), "total") != s.uses.end())
      saw_publish = true;
  }
  EXPECT_TRUE(saw_decl);
  EXPECT_TRUE(saw_loop_def);
  EXPECT_TRUE(saw_publish);
}

TEST(ExtractFlow, RangeForBindsItsVariableAndRaiiLocksRegister) {
  const auto facts = lint::extract_facts(lint::tokenize(
      "void f() {\n"
      "  std::lock_guard<std::mutex> g(mu_);\n"
      "  for (const auto& e : table_) { sink(e); }\n"
      "}\n"));
  ASSERT_EQ(facts.functions.size(), 1u);
  const auto& flow = facts.functions[0].flow;
  bool saw_lock = false, saw_range = false, saw_unlock = false;
  for (const auto& s : flow) {
    if (std::find(s.locks.begin(), s.locks.end(), "mu_") != s.locks.end())
      saw_lock = true;
    if (s.kind == lint::FlowStmt::Kind::kRangeFor &&
        std::find(s.defs.begin(), s.defs.end(), "e") != s.defs.end() &&
        std::find(s.uses.begin(), s.uses.end(), "table_") != s.uses.end())
      saw_range = true;
    if (std::find(s.unlocks.begin(), s.unlocks.end(), "mu_") !=
        s.unlocks.end())
      saw_unlock = true;  // synthetic release at block close
  }
  EXPECT_TRUE(saw_lock);
  EXPECT_TRUE(saw_range);
  EXPECT_TRUE(saw_unlock);
}

TEST(QnameMatches, SuffixSemantics) {
  EXPECT_TRUE(lint::qname_matches("PermissionMonitor::check", "check"));
  EXPECT_TRUE(lint::qname_matches("kern::PermissionMonitor::check",
                                  "PermissionMonitor::check"));
  EXPECT_TRUE(lint::qname_matches("check", "check"));
  EXPECT_FALSE(lint::qname_matches("recheck", "check"));
  EXPECT_FALSE(lint::qname_matches("PermissionMonitor::recheck", "check"));
}

// --- rules parsing -----------------------------------------------------------

TEST(Rules, ParsesFullConfig) {
  std::string error;
  const auto cfg = lint::parse_rules(
      "# comment\n"
      "r1.file src/kern/ipc/\n"
      "r1.send_fn write send\n"
      "r2.point a.cpp:sys_open:check_now|check\n"
      "r3.field interaction_ts\n"
      "r4.banned chrono\n"
      "r4.exempt src/sim/\n",
      &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->r1_send_fns, (std::vector<std::string>{"write", "send"}));
  ASSERT_EQ(cfg->r2_points.size(), 1u);
  EXPECT_EQ(cfg->r2_points[0].function, "sys_open");
  EXPECT_EQ(cfg->r2_points[0].calls,
            (std::vector<std::string>{"check_now", "check"}));
}

TEST(Rules, ParsesInterproceduralConfig) {
  std::string error;
  const auto cfg = lint::parse_rules(
      "r5.seed src/x11/screen.cpp:get_image\n"
      "r5.sink PermissionMonitor::check ask_monitor\n"
      "r6.mint send_interaction\n"
      "r6.source XServer::deliver_input\n"
      "r6.allow Kernel::wire_netlink_handlers\n"
      "r7.type TaskStruct\n"
      "r7.allow src/kern/process_table.cpp\n"
      "cg.edge NetlinkChannel::query_permission PermissionMonitor::check\n",
      &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  ASSERT_EQ(cfg->r5_seeds.size(), 1u);
  EXPECT_EQ(cfg->r5_seeds[0].file, "src/x11/screen.cpp");
  EXPECT_EQ(cfg->r5_seeds[0].function, "get_image");
  EXPECT_EQ(cfg->r5_sinks.size(), 2u);
  EXPECT_EQ(cfg->r6_mints, (std::vector<std::string>{"send_interaction"}));
  EXPECT_EQ(cfg->r7_types, (std::vector<std::string>{"TaskStruct"}));
  ASSERT_EQ(cfg->cg_edges.size(), 1u);
  EXPECT_EQ(cfg->cg_edges[0].caller, "NetlinkChannel::query_permission");
  EXPECT_EQ(cfg->cg_edges[0].callee, "PermissionMonitor::check");
}

TEST(Rules, ParsesDomainConfig) {
  std::string error;
  const auto cfg = lint::parse_rules(
      "r11.local to_local local_time\n"
      "r11.fleet to_fleet\n"
      "r11.fleet_var fleet_stamp_\n"
      "r11.local_var local_stamp_\n"
      "r11.sink_local adopt_interaction\n"
      "r11.sink_fleet merge_fleet\n"
      "r11.allow src/tools/\n"
      "r12.seed src/kern/kernel.cpp:sys_open\n"
      "r12.audit Sink::append_decision\n"
      "r12.metrics Counter::add\n"
      "r13.entry src/fleet/harness.cpp:step_shard\n"
      "r13.allow src/bench/\n",
      &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->r11_local,
            (std::vector<std::string>{"to_local", "local_time"}));
  EXPECT_EQ(cfg->r11_fleet, (std::vector<std::string>{"to_fleet"}));
  EXPECT_EQ(cfg->r11_fleet_var, (std::vector<std::string>{"fleet_stamp_"}));
  EXPECT_EQ(cfg->r11_local_var, (std::vector<std::string>{"local_stamp_"}));
  EXPECT_EQ(cfg->r11_sink_local,
            (std::vector<std::string>{"adopt_interaction"}));
  EXPECT_EQ(cfg->r11_sink_fleet, (std::vector<std::string>{"merge_fleet"}));
  ASSERT_EQ(cfg->r12_seeds.size(), 1u);
  EXPECT_EQ(cfg->r12_seeds[0].file, "src/kern/kernel.cpp");
  EXPECT_EQ(cfg->r12_seeds[0].function, "sys_open");
  EXPECT_EQ(cfg->r12_audit,
            (std::vector<std::string>{"Sink::append_decision"}));
  EXPECT_EQ(cfg->r12_metrics, (std::vector<std::string>{"Counter::add"}));
  ASSERT_EQ(cfg->r13_entries.size(), 1u);
  EXPECT_EQ(cfg->r13_entries[0].function, "step_shard");

  // Malformed seeds are rejected just like R5's.
  EXPECT_FALSE(lint::parse_rules("r12.seed nocolon\n", &error).has_value());
  EXPECT_FALSE(lint::parse_rules("r13.entry nocolon\n", &error).has_value());
}

TEST(Rules, UnknownKeyIsAnError) {
  std::string error;
  EXPECT_FALSE(lint::parse_rules("r9.bogus x\n", &error).has_value());
  EXPECT_NE(error.find("unknown key"), std::string::npos);
}

TEST(Rules, MalformedMediationPointIsAnError) {
  std::string error;
  EXPECT_FALSE(lint::parse_rules("r2.point nocolons\n", &error).has_value());
}

TEST(Rules, MalformedSeedAndEdgeAreErrors) {
  std::string error;
  EXPECT_FALSE(lint::parse_rules("r5.seed nocolon\n", &error).has_value());
  EXPECT_FALSE(
      lint::parse_rules("cg.edge only_one_name\n", &error).has_value());
}

TEST(Rules, PathMatching) {
  EXPECT_TRUE(lint::path_matches("/repo/src/kern/ipc/pipe.cpp",
                                 "src/kern/ipc/"));
  EXPECT_TRUE(lint::path_matches("/repo/src/kern/pty.cpp", "src/kern/pty.cpp"));
  EXPECT_TRUE(lint::path_matches("src/kern/pty.cpp", "src/kern/pty.cpp"));
  EXPECT_FALSE(lint::path_matches("/repo/src/kern/pty.cpp", "kern/pty.h"));
  EXPECT_FALSE(lint::path_matches("/repo/src/x11/screen.cpp", "src/kern/"));
  // Suffixes must be '/'-anchored: other_pipe.cpp is not pipe.cpp.
  EXPECT_FALSE(lint::path_matches("/repo/src/other_pipe.cpp", "pipe.cpp"));
}

// --- call graph --------------------------------------------------------------

TEST(CallGraph, QualifiedCallsResolveToTheRightOverload) {
  lint::RuleConfig cfg;
  const auto program = make_program(
      {{"a.cpp",
        "struct A { void go() { a_work(); } };\n"
        "struct B { void go() { b_work(); } };\n"
        "void caller_q() { B::go(); }\n"
        "void caller_u(A& a) { a.go(); }\n"}},
      cfg);
  const auto g = lint::CallGraph::build(program, cfg);
  const auto b_go = g.find_qname("B::go");
  ASSERT_EQ(b_go.size(), 1u);

  const auto q = g.find_qname("caller_q");
  ASSERT_EQ(q.size(), 1u);
  // Explicit B::go() resolves only to B::go.
  EXPECT_EQ(g.out_edges()[q[0]], std::vector<int>{b_go[0]});

  const auto u = g.find_qname("caller_u");
  ASSERT_EQ(u.size(), 1u);
  // Unqualified member call over-approximates to both definitions.
  EXPECT_EQ(g.out_edges()[u[0]].size(), 2u);
}

TEST(CallGraph, CyclesTerminateAndStayReachable) {
  lint::RuleConfig cfg;
  const auto program = make_program(
      {{"c.cpp",
        "void ping() { pong(); }\n"
        "void pong() { ping(); leaf(); }\n"
        "void leaf() { }\n"}},
      cfg);
  const auto g = lint::CallGraph::build(program, cfg);
  const auto ping = g.find_qname("ping");
  const auto leaf = g.find_qname("leaf");
  ASSERT_EQ(ping.size(), 1u);
  ASSERT_EQ(leaf.size(), 1u);
  const auto reach = g.reachable_from(ping);
  EXPECT_TRUE(reach[leaf[0]]);
  const auto path =
      g.shortest_path(ping[0], [&](int v) { return v == leaf[0]; });
  ASSERT_EQ(path.size(), 3u);  // ping -> pong -> leaf
}

TEST(CallGraph, DeclaredEdgesSpliceHandlerIndirection) {
  lint::RuleConfig cfg;
  cfg.cg_edges.push_back({"Channel::query", "Monitor::check"});
  const auto program = make_program(
      {{"d.cpp",
        "struct Channel { void query() { on_query_(q); } };\n"
        "struct Monitor { void check() { decide(); } };\n"}},
      cfg);
  const auto g = lint::CallGraph::build(program, cfg);
  const auto query = g.find_qname("Channel::query");
  const auto check = g.find_qname("Monitor::check");
  ASSERT_EQ(query.size(), 1u);
  ASSERT_EQ(check.size(), 1u);
  EXPECT_TRUE(g.reachable_from(query)[check[0]]);
}

// --- fixture sweeps ----------------------------------------------------------

TEST(Fixtures, BrokenTreeReportsEachViolationAtTheRightLine) {
  const auto cfg = fixture_rules();
  const auto findings = lint::run_lint({fixture_dir("broken")}, cfg);
  ASSERT_EQ(findings.size(), 20u);

  // Sorted by file: audit_append, clock_use, deny_no_audit, device_open,
  // handle, interaction, lane_violation, lock_order, nondet_order,
  // parallel_step, pipe_like, shared_state, taint, wl_capture, wl_receive,
  // xshard_deliver, xshard_mix.

  // The binary-audit facade that builds a record but never reaches the ring.
  EXPECT_TRUE(lint::path_matches(findings[0].file, "broken/audit_append.cpp"));
  EXPECT_EQ(findings[0].rule, "R2");
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_NE(findings[0].message.find("append_decision"), std::string::npos);

  EXPECT_TRUE(lint::path_matches(findings[1].file, "broken/clock_use.cpp"));
  EXPECT_EQ(findings[1].rule, "R4");
  EXPECT_EQ(findings[1].line, 7);
  EXPECT_EQ(findings[2].rule, "R4");
  EXPECT_EQ(findings[2].line, 7);

  // The verdict that is counted but never audited.
  EXPECT_TRUE(
      lint::path_matches(findings[3].file, "broken/deny_no_audit.cpp"));
  EXPECT_EQ(findings[3].rule, "R12");
  EXPECT_EQ(findings[3].line, 10);
  EXPECT_NE(findings[3].message.find("decide_access"), std::string::npos);
  EXPECT_NE(findings[3].message.find("audit"), std::string::npos);

  EXPECT_TRUE(lint::path_matches(findings[4].file, "broken/device_open.cpp"));
  EXPECT_EQ(findings[4].rule, "R2");
  EXPECT_EQ(findings[4].line, 6);
  EXPECT_NE(findings[4].message.find("sys_open"), std::string::npos);

  // R7 pair: the returned raw pointer, then the cached member.
  EXPECT_TRUE(lint::path_matches(findings[5].file, "broken/handle.cpp"));
  EXPECT_EQ(findings[5].rule, "R7");
  EXPECT_NE(findings[5].message.find("resolve"), std::string::npos);
  EXPECT_TRUE(lint::path_matches(findings[6].file, "broken/handle.cpp"));
  EXPECT_EQ(findings[6].rule, "R7");
  EXPECT_NE(findings[6].message.find("cached_task_"), std::string::npos);

  EXPECT_TRUE(lint::path_matches(findings[7].file, "broken/interaction.cpp"));
  EXPECT_EQ(findings[7].rule, "R3");
  EXPECT_EQ(findings[7].line, 8);

  // The lane body that reaches a coordinator-only surface mid-quantum. The
  // finding anchors at the lane entry and the message carries the call chain.
  EXPECT_TRUE(
      lint::path_matches(findings[8].file, "broken/lane_violation.cpp"));
  EXPECT_EQ(findings[8].rule, "R13");
  EXPECT_EQ(findings[8].line, 11);
  EXPECT_NE(findings[8].message.find("step_lane"), std::string::npos);
  EXPECT_NE(findings[8].message.find("rollup_metrics"), std::string::npos);
  EXPECT_NE(findings[8].message.find("->"), std::string::npos);

  // The inverted acquisition (mu_a_ taken while mu_b_ is held).
  EXPECT_TRUE(lint::path_matches(findings[9].file, "broken/lock_order.cpp"));
  EXPECT_EQ(findings[9].rule, "R10");
  EXPECT_EQ(findings[9].line, 13);
  EXPECT_NE(findings[9].message.find("mu_a_"), std::string::npos);
  EXPECT_NE(findings[9].message.find("mu_b_"), std::string::npos);

  // The unordered_map drain into the audit sink.
  EXPECT_TRUE(lint::path_matches(findings[10].file, "broken/nondet_order.cpp"));
  EXPECT_EQ(findings[10].rule, "R9");
  EXPECT_EQ(findings[10].line, 15);
  EXPECT_NE(findings[10].message.find("append"), std::string::npos);
  EXPECT_NE(findings[10].message.find("pending_"), std::string::npos);

  // The engine-idiom inversion (pool_mu_ taken while quantum_mu_ is held).
  EXPECT_TRUE(
      lint::path_matches(findings[11].file, "broken/parallel_step.cpp"));
  EXPECT_EQ(findings[11].rule, "R10");
  EXPECT_EQ(findings[11].line, 14);
  EXPECT_NE(findings[11].message.find("pool_mu_"), std::string::npos);
  EXPECT_NE(findings[11].message.find("quantum_mu_"), std::string::npos);

  EXPECT_TRUE(lint::path_matches(findings[12].file, "broken/pipe_like.cpp"));
  EXPECT_EQ(findings[12].rule, "R1");
  EXPECT_EQ(findings[12].line, 8);
  EXPECT_NE(findings[12].message.find("Pipe::write"), std::string::npos);

  // The shared-state write outside the declared accessor tree.
  EXPECT_TRUE(lint::path_matches(findings[13].file, "broken/shared_state.cpp"));
  EXPECT_EQ(findings[13].rule, "R8");
  EXPECT_EQ(findings[13].line, 14);
  EXPECT_NE(findings[13].message.find("channels_"), std::string::npos);
  EXPECT_NE(findings[13].message.find("reset"), std::string::npos);

  // The background-replay mint, unreachable from deliver_input.
  EXPECT_TRUE(lint::path_matches(findings[14].file, "broken/taint.cpp"));
  EXPECT_EQ(findings[14].rule, "R6");
  EXPECT_NE(findings[14].message.find("background_replay"), std::string::npos);

  // The capture path whose mediation survives only as dead code.
  EXPECT_TRUE(lint::path_matches(findings[15].file, "broken/wl_capture.cpp"));
  EXPECT_EQ(findings[15].rule, "R5");
  EXPECT_NE(findings[15].message.find("capture_surface"), std::string::npos);

  // The un-mediated Wayland receive handler — proof the analyzer covers the
  // second backend's interposition points too.
  EXPECT_TRUE(lint::path_matches(findings[16].file, "broken/wl_receive.cpp"));
  EXPECT_EQ(findings[16].rule, "R2");
  EXPECT_EQ(findings[16].line, 6);
  EXPECT_NE(findings[16].message.find("request_receive"), std::string::npos);

  // The cross-shard delivery path whose P2 stamp survives only as dead code.
  EXPECT_TRUE(
      lint::path_matches(findings[17].file, "broken/xshard_deliver.cpp"));
  EXPECT_EQ(findings[17].rule, "R5");
  EXPECT_NE(findings[17].message.find("deliver_cross_shard"),
            std::string::npos);

  // R11 pair: the raw fleet/local comparison, then the fleet-domain value
  // adopted through the shard-local sink.
  EXPECT_TRUE(lint::path_matches(findings[18].file, "broken/xshard_mix.cpp"));
  EXPECT_EQ(findings[18].rule, "R11");
  EXPECT_EQ(findings[18].line, 16);
  EXPECT_NE(findings[18].message.find("seen"), std::string::npos);
  EXPECT_NE(findings[18].message.find("arrival"), std::string::npos);
  EXPECT_TRUE(lint::path_matches(findings[19].file, "broken/xshard_mix.cpp"));
  EXPECT_EQ(findings[19].rule, "R11");
  EXPECT_EQ(findings[19].line, 18);
  EXPECT_NE(findings[19].message.find("adopt_arrival"), std::string::npos);
}

TEST(Fixtures, CleanTreePasses) {
  const auto cfg = fixture_rules();
  std::size_t scanned = 0;
  const auto findings = lint::run_lint({fixture_dir("clean")}, cfg, &scanned);
  EXPECT_EQ(scanned, 17u);
  EXPECT_TRUE(findings.empty())
      << findings[0].file << ":" << findings[0].line << " "
      << findings[0].message;
}

TEST(Fixtures, MissingMediationFileIsItselfAFinding) {
  lint::RuleConfig cfg;
  cfg.r2_points.push_back({"deleted_subsystem.cpp", "sys_open", {"check_now"}});
  const auto findings = lint::run_lint({fixture_dir("clean")}, cfg);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R2");
  EXPECT_NE(findings[0].message.find("not found"), std::string::npos);
}

TEST(Fixtures, ComparisonOfGuardedFieldIsNotAWrite) {
  lint::RuleConfig cfg;
  cfg.r3_fields = {"interaction_ts"};
  const auto findings = lint::analyze_file(
      "x.cpp", "bool f(T& t, Ts ts) { return t.interaction_ts == ts; }\n", cfg);
  EXPECT_TRUE(findings.empty());
}

TEST(Fixtures, AllowlistSilencesAndExemptsWork) {
  lint::RuleConfig cfg;
  cfg.r4_banned = {"chrono"};
  cfg.r4_exempt = {"sim/"};
  EXPECT_TRUE(
      lint::analyze_file("/r/src/sim/clock.cpp", "using std::chrono::x;\n", cfg)
          .empty());
  EXPECT_EQ(
      lint::analyze_file("/r/src/kern/a.cpp", "using std::chrono::x;\n", cfg)
          .size(),
      1u);
}

// --- inter-procedural rules, fail-on-removal ---------------------------------

TEST(FlowRules, R5FailsWhenTheMediationCallIsRemoved) {
  const auto cfg = fixture_rules();
  // Both R5 seed files must be in the tree: a missing seed file is itself a
  // finding, which would mask the one this test is about.
  const std::string xshard =
      read_file(fixture_dir("clean") + "/xshard_deliver.cpp");
  // The shipped clean fixture passes...
  std::string src = read_file(fixture_dir("clean") + "/wl_capture.cpp");
  auto ok = lint::run_tree_mem(
      {{"wl_capture.cpp", src}, {"xshard_deliver.cpp", xshard}}, cfg);
  EXPECT_EQ(count_rule(ok.findings, "R5"), 0);

  // ...and removing the one mediation line makes the same seed fail.
  const auto pos = src.find("const Decision d = authorize_capture");
  ASSERT_NE(pos, std::string::npos);
  std::string cut = src;
  cut.erase(pos, src.find('\n', pos) - pos);
  auto bad = lint::run_tree_mem(
      {{"wl_capture.cpp", cut}, {"xshard_deliver.cpp", xshard}}, cfg);
  EXPECT_EQ(count_rule(bad.findings, "R5"), 1);
}

TEST(FlowRules, R5FailsWhenTheCrossShardStampIsRemoved) {
  const auto cfg = fixture_rules();
  const std::string capture =
      read_file(fixture_dir("clean") + "/wl_capture.cpp");
  std::string src = read_file(fixture_dir("clean") + "/xshard_deliver.cpp");
  auto ok = lint::run_tree_mem(
      {{"wl_capture.cpp", capture}, {"xshard_deliver.cpp", src}}, cfg);
  EXPECT_EQ(count_rule(ok.findings, "R5"), 0);

  // Severing the delivery path's call into the stamp interposition leaves
  // stamp_outbound as dead code — exactly the broken/ fixture's shape.
  const auto pos = src.find("stamp_outbound(sender);");
  ASSERT_NE(pos, std::string::npos);
  std::string cut = src;
  cut.erase(pos, src.find('\n', pos) - pos);
  auto bad = lint::run_tree_mem(
      {{"wl_capture.cpp", capture}, {"xshard_deliver.cpp", cut}}, cfg);
  ASSERT_EQ(count_rule(bad.findings, "R5"), 1);
  EXPECT_NE(first_rule(bad.findings, "R5").message.find("deliver_cross_shard"),
            std::string::npos);
}

TEST(FlowRules, R2FailsWhenTheRingAppendIsRemoved) {
  const auto cfg = fixture_rules();
  // Single-file tree: the other r2.points and the R5 seeds report their own
  // missing-file findings, so count only R2 findings naming this facade.
  const auto audit_findings = [](const std::vector<lint::Finding>& fs) {
    int n = 0;
    for (const auto& f : fs)
      if (f.rule == "R2" &&
          f.message.find("append_decision") != std::string::npos)
        ++n;
    return n;
  };

  std::string src = read_file(fixture_dir("clean") + "/audit_append.cpp");
  auto ok = lint::run_tree_mem({{"audit_append.cpp", src}}, cfg);
  EXPECT_EQ(audit_findings(ok.findings), 0);

  // Severing the one ring_.append call leaves the facade building records
  // that never reach the ring — exactly the broken/ fixture's shape.
  const auto pos = src.find("ring_.append(rec);");
  ASSERT_NE(pos, std::string::npos);
  std::string cut = src;
  cut.erase(pos, src.find('\n', pos) - pos);
  auto bad = lint::run_tree_mem({{"audit_append.cpp", cut}}, cfg);
  EXPECT_EQ(audit_findings(bad.findings), 1);
}

TEST(FlowRules, R10FailsWhenTheParallelStepGuardIsRemoved) {
  const auto cfg = fixture_rules();
  std::string src = read_file(fixture_dir("clean") + "/parallel_step.cpp");
  auto ok = lint::run_tree_mem({{"parallel_step.cpp", src}}, cfg);
  EXPECT_EQ(count_rule(ok.findings, "R10"), 0);

  // Dropping the quantum-lock acquisition leaves both guarded handoff
  // writes (quantum_seq_, item_count_) outside their declared mutex.
  const auto pos = src.find("std::lock_guard<std::mutex> g2(quantum_mu_);");
  ASSERT_NE(pos, std::string::npos);
  std::string cut = src;
  cut.erase(pos, src.find('\n', pos) - pos);
  auto bad = lint::run_tree_mem({{"parallel_step.cpp", cut}}, cfg);
  EXPECT_EQ(count_rule(bad.findings, "R10"), 2);
}

TEST(FlowRules, R6FailsWhenAMintEscapesTheInputPath) {
  const auto cfg = fixture_rules();
  std::string src = read_file(fixture_dir("clean") + "/taint.cpp");
  auto ok = lint::run_tree_mem({{"taint.cpp", src}}, cfg);
  EXPECT_EQ(count_rule(ok.findings, "R6"), 0);

  // Severing the source -> mint chain orphans the mint call.
  const auto pos = src.find("forward_input(ev, focus);");
  ASSERT_NE(pos, std::string::npos);
  std::string cut = src;
  cut.erase(pos, src.find('\n', pos) - pos);
  auto bad = lint::run_tree_mem({{"taint.cpp", cut}}, cfg);
  EXPECT_EQ(count_rule(bad.findings, "R6"), 1);
}

TEST(FlowRules, R7FailsWhenAHandleDecaysToARawPointer) {
  const auto cfg = fixture_rules();
  std::string src = read_file(fixture_dir("clean") + "/handle.cpp");
  auto ok = lint::run_tree_mem({{"handle.cpp", src}}, cfg);
  EXPECT_EQ(count_rule(ok.findings, "R7"), 0);

  // Decay the stored handle into a cached raw pointer.
  const auto pos = src.find("TaskHandle bound_;");
  ASSERT_NE(pos, std::string::npos);
  std::string bad_src = src;
  bad_src.replace(pos, std::string("TaskHandle bound_;").size(),
                  "TaskStruct* bound_;");
  auto bad = lint::run_tree_mem({{"handle.cpp", bad_src}}, cfg);
  EXPECT_EQ(count_rule(bad.findings, "R7"), 1);
}

TEST(FlowRules, R7AllowsThePointerOwningPaths) {
  lint::RuleConfig cfg;
  cfg.r7_types = {"TaskStruct"};
  cfg.r7_allow = {"src/kern/process_table.h"};
  const std::string src =
      "class ProcessTable { TaskStruct* slots_; };\n"
      "TaskStruct* get(H h) { return probe(h); }\n";
  EXPECT_EQ(count_rule(
                lint::run_tree_mem({{"src/kern/process_table.h", src}}, cfg)
                    .findings,
                "R7"),
            0);
  EXPECT_EQ(count_rule(
                lint::run_tree_mem({{"src/kern/rogue.h", src}}, cfg).findings,
                "R7"),
            2);
}

TEST(FlowRules, R5MissingSeedFunctionIsItselfAFinding) {
  lint::RuleConfig cfg;
  cfg.r5_seeds.push_back({"a.cpp", "vanished_entry_point"});
  cfg.r5_sinks = {"check"};
  const auto res =
      lint::run_tree_mem({{"a.cpp", "void other() { check(); }\n"}}, cfg);
  ASSERT_EQ(count_rule(res.findings, "R5"), 1);
  EXPECT_NE(res.findings[0].message.find("vanished_entry_point"),
            std::string::npos);
}

// --- concurrency & determinism rules, fail-on-removal ------------------------

TEST(DataflowRules, R8FailsWhenAnAnnotationIsRemoved) {
  const auto cfg = fixture_rules();
  std::string src = read_file(fixture_dir("clean") + "/shared_state.cpp");
  auto ok = lint::run_tree_mem({{"shared_state.cpp", src}}, cfg);
  EXPECT_EQ(count_rule(ok.findings, "R8"), 0);

  // Stripping the ownership annotation leaves a bare mutable member.
  const auto pos = src.find("OVERHAUL_SHARD_LOCAL int depth_");
  ASSERT_NE(pos, std::string::npos);
  std::string cut = src;
  cut.erase(pos, std::string("OVERHAUL_SHARD_LOCAL ").size());
  auto bad = lint::run_tree_mem({{"shared_state.cpp", cut}}, cfg);
  ASSERT_EQ(count_rule(bad.findings, "R8"), 1);
  const auto& f = first_rule(bad.findings, "R8");
  EXPECT_NE(f.message.find("depth_"), std::string::npos);
  EXPECT_NE(f.message.find("no ownership annotation"), std::string::npos);
}

TEST(DataflowRules, R8FailsWhenAWriteEscapesTheAccessorTree) {
  const auto cfg = fixture_rules();
  std::string src = read_file(fixture_dir("clean") + "/shared_state.cpp");
  // Narrowing the accessor list orphans drop()'s erase call.
  std::string cut = src;
  const std::string anno = "OVERHAUL_SHARED(connect|drop)";
  for (auto pos = cut.find(anno); pos != std::string::npos;
       pos = cut.find(anno))
    cut.replace(pos, anno.size(), "OVERHAUL_SHARED(connect)");
  auto bad = lint::run_tree_mem({{"shared_state.cpp", cut}}, cfg);
  ASSERT_EQ(count_rule(bad.findings, "R8"), 1);
  EXPECT_NE(first_rule(bad.findings, "R8").message.find("drop"),
            std::string::npos);
}

TEST(DataflowRules, R9FailsWhenTheContainerGoesUnordered) {
  const auto cfg = fixture_rules();
  std::string src = read_file(fixture_dir("clean") + "/nondet_order.cpp");
  auto ok = lint::run_tree_mem({{"nondet_order.cpp", src}}, cfg);
  EXPECT_EQ(count_rule(ok.findings, "R9"), 0);

  const auto pos = src.find("std::map<int, Record>");
  ASSERT_NE(pos, std::string::npos);
  std::string bad_src = src;
  bad_src.replace(pos, std::string("std::map").size(), "std::unordered_map");
  auto bad = lint::run_tree_mem({{"nondet_order.cpp", bad_src}}, cfg);
  ASSERT_EQ(count_rule(bad.findings, "R9"), 1);
  EXPECT_NE(first_rule(bad.findings, "R9").message.find("append"),
            std::string::npos);
}

TEST(DataflowRules, R9TracksEntropySourcesThroughLocals) {
  lint::RuleConfig cfg;
  cfg.r9_sources = {"rand"};
  cfg.r9_sinks = {"record"};
  // rand() -> jitter -> delay -> record: two hops of intra-procedural flow.
  const std::string src =
      "void f(M& m) {\n"
      "  int jitter = rand();\n"
      "  int delay = jitter * 2;\n"
      "  m.record(delay);\n"
      "}\n";
  auto res = lint::run_tree_mem({{"a.cpp", src}}, cfg);
  ASSERT_EQ(count_rule(res.findings, "R9"), 1);
  EXPECT_EQ(res.findings[0].line, 4);

  // Overwriting the tainted value before the sink kills the flow.
  const std::string cleansed =
      "void f(M& m) {\n"
      "  int jitter = rand();\n"
      "  int delay = 7;\n"
      "  m.record(delay);\n"
      "}\n";
  EXPECT_EQ(
      count_rule(lint::run_tree_mem({{"a.cpp", cleansed}}, cfg).findings,
                 "R9"),
      0);
}

TEST(DataflowRules, R9AllowExemptsAFunction) {
  const auto base = fixture_rules();
  std::string src = read_file(fixture_dir("broken") + "/nondet_order.cpp");
  auto cfg = base;
  cfg.r9_allow.push_back("DecisionJournal::flush");
  EXPECT_EQ(
      count_rule(lint::run_tree_mem({{"nondet_order.cpp", src}}, cfg).findings,
                 "R9"),
      0);
}

TEST(DataflowRules, R10FailsWhenTheAcquisitionOrderInverts) {
  const auto cfg = fixture_rules();
  std::string src = read_file(fixture_dir("clean") + "/lock_order.cpp");
  auto ok = lint::run_tree_mem({{"lock_order.cpp", src}}, cfg);
  EXPECT_EQ(count_rule(ok.findings, "R10"), 0);

  // Swap the two acquisitions.
  std::string bad_src = src;
  const auto a = bad_src.find("g1(mu_a_)");
  const auto b = bad_src.find("g2(mu_b_)");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  bad_src.replace(b, 9, "g2(mu_a_)");
  bad_src.replace(a, 9, "g1(mu_b_)");
  auto bad = lint::run_tree_mem({{"lock_order.cpp", bad_src}}, cfg);
  ASSERT_EQ(count_rule(bad.findings, "R10"), 1);
  EXPECT_NE(first_rule(bad.findings, "R10").message.find("inversion"),
            std::string::npos);
}

TEST(DataflowRules, R10GuardedWriteWithoutTheLockIsAFinding) {
  lint::RuleConfig cfg;
  const std::string src =
      "class Accounts {\n"
      "  void audit() { ++balance_; }\n"  // no lock held
      "  std::mutex mu_;\n"
      "  OVERHAUL_GUARDED_BY(mu_) int balance_ = 0;\n"
      "};\n";
  auto res = lint::run_tree_mem({{"a.cpp", src}}, cfg);
  ASSERT_EQ(count_rule(res.findings, "R10"), 1);
  EXPECT_NE(res.findings[0].message.find("balance_"), std::string::npos);
  EXPECT_NE(res.findings[0].message.find("mu_"), std::string::npos);

  const std::string locked =
      "class Accounts {\n"
      "  void audit() { std::lock_guard<std::mutex> g(mu_); ++balance_; }\n"
      "  std::mutex mu_;\n"
      "  OVERHAUL_GUARDED_BY(mu_) int balance_ = 0;\n"
      "};\n";
  EXPECT_EQ(
      count_rule(lint::run_tree_mem({{"a.cpp", locked}}, cfg).findings, "R10"),
      0);
}

TEST(DataflowRules, R10HoldsContractChecksCallers) {
  lint::RuleConfig cfg;
  cfg.r10_holds.emplace_back("flush_locked", "mu_");
  const std::string bad_src =
      "void flush_locked() { drain(); }\n"
      "void caller() { flush_locked(); }\n";  // mu_ not held
  auto res = lint::run_tree_mem({{"a.cpp", bad_src}}, cfg);
  ASSERT_EQ(count_rule(res.findings, "R10"), 1);
  EXPECT_NE(res.findings[0].message.find("flush_locked"), std::string::npos);

  const std::string ok_src =
      "void flush_locked() { drain(); }\n"
      "void caller() {\n"
      "  std::lock_guard<std::mutex> g(mu_);\n"
      "  flush_locked();\n"
      "}\n";
  EXPECT_EQ(
      count_rule(lint::run_tree_mem({{"a.cpp", ok_src}}, cfg).findings,
                 "R10"),
      0);
}

// --- domain-aware rules, fail-on-removal -------------------------------------

TEST(DomainRules, R11FailsWhenTheEpochTranslationIsRemoved) {
  const auto cfg = fixture_rules();
  std::string src = read_file(fixture_dir("clean") + "/xshard_mix.cpp");
  auto ok = lint::run_tree_mem({{"xshard_mix.cpp", src}}, cfg);
  EXPECT_EQ(count_rule(ok.findings, "R11"), 0);

  // Dropping the one translation line leaves the fleet-domain arrival raw:
  // it then meets the shard-local stamp AND reaches the local-typed sink.
  const auto pos = src.find("arrival = to_local(arrival, epoch_);");
  ASSERT_NE(pos, std::string::npos);
  std::string cut = src;
  cut.erase(pos, src.find('\n', pos) - pos);
  auto bad = lint::run_tree_mem({{"xshard_mix.cpp", cut}}, cfg);
  ASSERT_EQ(count_rule(bad.findings, "R11"), 2);
  const auto& f = first_rule(bad.findings, "R11");
  EXPECT_NE(f.message.find("arrival"), std::string::npos);
  EXPECT_NE(f.message.find("epoch translation"), std::string::npos);
  EXPECT_NE(f.message.find("--explain R11"), std::string::npos);
}

TEST(DomainRules, R11TracksDomainsThroughAssignment) {
  lint::RuleConfig cfg;
  cfg.r11_local = {"local_now"};
  cfg.r11_fleet = {"fleet_now"};
  // fleet_now() -> a -> b: the fleet domain survives the copy, so the
  // comparison against a fresh local mint two hops later still mixes.
  const std::string src =
      "void f() {\n"
      "  Timestamp a = fleet_now();\n"
      "  Timestamp b = a;\n"
      "  Timestamp c = local_now();\n"
      "  if (b > c) flag();\n"
      "}\n";
  auto res = lint::run_tree_mem({{"a.cpp", src}}, cfg);
  ASSERT_EQ(count_rule(res.findings, "R11"), 1);
  EXPECT_EQ(first_rule(res.findings, "R11").line, 5);

  // Re-minting the copy into the local domain dissolves the mix.
  const std::string fixed =
      "void f() {\n"
      "  Timestamp a = fleet_now();\n"
      "  Timestamp b = local_now(a);\n"
      "  Timestamp c = local_now();\n"
      "  if (b > c) flag();\n"
      "}\n";
  EXPECT_EQ(
      count_rule(lint::run_tree_mem({{"a.cpp", fixed}}, cfg).findings, "R11"),
      0);
}

TEST(DomainRules, R11AnnotatedIdentifiersCarryTheirDomain) {
  lint::RuleConfig cfg;
  cfg.r11_local = {"to_local"};
  cfg.r11_fleet_var = {"fleet_stamp_"};
  cfg.r11_sink_local = {"adopt_interaction"};
  // The declared fleet-domain member hits the local-typed sink raw...
  const std::string bad_src =
      "void recv(T& t) { t.adopt_interaction(fleet_stamp_); }\n";
  auto bad = lint::run_tree_mem({{"a.cpp", bad_src}}, cfg);
  ASSERT_EQ(count_rule(bad.findings, "R11"), 1);
  EXPECT_NE(first_rule(bad.findings, "R11").message.find("adopt_interaction"),
            std::string::npos);

  // ...and the same statement is sound once the translation wraps it.
  const std::string ok_src =
      "void recv(T& t) { t.adopt_interaction(to_local(fleet_stamp_, e_)); }\n";
  EXPECT_EQ(
      count_rule(lint::run_tree_mem({{"a.cpp", ok_src}}, cfg).findings, "R11"),
      0);
}

TEST(DomainRules, R11AllowExemptsAFunction) {
  const auto base = fixture_rules();
  std::string src = read_file(fixture_dir("broken") + "/xshard_mix.cpp");
  auto cfg = base;
  cfg.r11_allow.push_back("ShardChannel::on_arrival");
  EXPECT_EQ(
      count_rule(lint::run_tree_mem({{"xshard_mix.cpp", src}}, cfg).findings,
                 "R11"),
      0);
}

TEST(DecisionAudit, R12FailsWhenTheAuditAppendIsRemoved) {
  const auto cfg = fixture_rules();
  std::string src = read_file(fixture_dir("clean") + "/deny_no_audit.cpp");
  auto ok = lint::run_tree_mem({{"deny_no_audit.cpp", src}}, cfg);
  EXPECT_EQ(count_rule(ok.findings, "R12"), 0);

  // Cutting the append orphans the whole verdict path from the audit trail —
  // the metrics trace alone does not satisfy R12.
  const auto pos = src.find("audit_.append_decision");
  ASSERT_NE(pos, std::string::npos);
  std::string cut = src;
  cut.erase(pos, src.find('\n', pos) - pos);
  auto bad = lint::run_tree_mem({{"deny_no_audit.cpp", cut}}, cfg);
  ASSERT_EQ(count_rule(bad.findings, "R12"), 1);
  const auto& f = first_rule(bad.findings, "R12");
  EXPECT_NE(f.message.find("decide_access"), std::string::npos);
  EXPECT_NE(f.message.find("audit-append"), std::string::npos);
}

TEST(DecisionAudit, R12FailsWhenTheMetricsBumpIsRemoved) {
  const auto cfg = fixture_rules();
  std::string src = read_file(fixture_dir("clean") + "/deny_no_audit.cpp");
  // The dual obligation: audit alone is not enough either.
  const auto pos = src.find("bump_counter(grant");
  ASSERT_NE(pos, std::string::npos);
  std::string cut = src;
  cut.erase(pos, src.find('\n', pos) - pos);
  auto bad = lint::run_tree_mem({{"deny_no_audit.cpp", cut}}, cfg);
  ASSERT_EQ(count_rule(bad.findings, "R12"), 1);
  EXPECT_NE(first_rule(bad.findings, "R12").message.find("metrics"),
            std::string::npos);
}

TEST(DecisionAudit, R12MissingSeedFunctionIsItselfAFinding) {
  lint::RuleConfig cfg;
  cfg.r12_seeds.push_back({"a.cpp", "renamed_away"});
  cfg.r12_audit = {"append"};
  cfg.r12_metrics = {"add"};
  auto res = lint::run_tree_mem({{"a.cpp", "void f() { g(); }\n"}}, cfg);
  ASSERT_EQ(count_rule(res.findings, "R12"), 1);
  EXPECT_NE(first_rule(res.findings, "R12").message.find("not found"),
            std::string::npos);
}

TEST(BarrierLanes, R13FailsWhenTheLaneSafeBoundaryIsRemoved) {
  const auto cfg = fixture_rules();
  std::string src = read_file(fixture_dir("clean") + "/lane_violation.cpp");
  auto ok = lint::run_tree_mem({{"lane_violation.cpp", src}}, cfg);
  EXPECT_EQ(count_rule(ok.findings, "R13"), 0);

  // Stripping the audited-boundary annotation exposes the serial-path call
  // into the coordinator-only reschedule: the lane entry now reaches it.
  const auto pos = src.find("OVERHAUL_LANE_SAFE\n");
  ASSERT_NE(pos, std::string::npos);
  std::string cut = src;
  cut.erase(pos, std::string("OVERHAUL_LANE_SAFE\n").size());
  auto bad = lint::run_tree_mem({{"lane_violation.cpp", cut}}, cfg);
  ASSERT_EQ(count_rule(bad.findings, "R13"), 1);
  const auto& f = first_rule(bad.findings, "R13");
  EXPECT_NE(f.message.find("step_lane"), std::string::npos);
  EXPECT_NE(f.message.find("reschedule"), std::string::npos);
  EXPECT_NE(f.message.find("queue_outbound"), std::string::npos);
}

TEST(BarrierLanes, R13AllowExemptsTheEntry) {
  const auto base = fixture_rules();
  std::string src = read_file(fixture_dir("broken") + "/lane_violation.cpp");
  auto cfg = base;
  cfg.r13_allow.push_back("LaneEngine::step_lane");
  EXPECT_EQ(count_rule(
                lint::run_tree_mem({{"lane_violation.cpp", src}}, cfg).findings,
                "R13"),
            0);
}

TEST(BarrierLanes, R13CoordinatorEntryMayDoCoordinatorWork) {
  // A coordinator-only function reached FROM the barrier (not from a lane
  // entry) is fine — only the declared lane entries are traversal roots,
  // and the entry node itself is never flagged.
  lint::RuleConfig cfg;
  cfg.r13_entries.push_back({"a.cpp", "lane_body"});
  const std::string src =
      "void lane_body() { bump(); }\n"
      "OVERHAUL_COORDINATOR_ONLY\n"
      "void barrier() { rollup(); }\n"
      "OVERHAUL_COORDINATOR_ONLY\n"
      "void rollup() { }\n";
  EXPECT_EQ(
      count_rule(lint::run_tree_mem({{"a.cpp", src}}, cfg).findings, "R13"),
      0);
}

// --- suppressions and baselines ----------------------------------------------

TEST(Suppressions, InlineAllowSilencesTheFinding) {
  lint::RuleConfig cfg;
  cfg.r4_banned = {"chrono"};
  const std::string src =
      "// overhaul-lint: allow(R4: fixture exercises the banned ident)\n"
      "using std::chrono::x;\n";
  const auto res = lint::run_tree_mem({{"a.cpp", src}}, cfg);
  EXPECT_TRUE(res.findings.empty())
      << res.findings[0].rule << ": " << res.findings[0].message;
  EXPECT_EQ(res.stats.suppressed, 1u);
  // analyze_file honors the same suppressions.
  EXPECT_TRUE(lint::analyze_file("a.cpp", src, cfg).empty());
}

TEST(Suppressions, ReasonIsMandatory) {
  lint::RuleConfig cfg;
  cfg.r4_banned = {"chrono"};
  const auto res = lint::run_tree_mem(
      {{"a.cpp",
        "// overhaul-lint: allow(R4)\n"
        "using std::chrono::x;\n"}},
      cfg);
  // The R4 finding survives AND the reasonless suppression is flagged.
  EXPECT_EQ(count_rule(res.findings, "R4"), 1);
  EXPECT_EQ(count_rule(res.findings, "sup"), 1);
}

TEST(Suppressions, UnusedAndUnknownRuleAreFindings) {
  lint::RuleConfig cfg;
  const auto res = lint::run_tree_mem(
      {{"a.cpp",
        "// overhaul-lint: allow(R4: nothing here triggers R4)\n"
        "// overhaul-lint: allow(R99: no such rule)\n"
        "int x;\n"}},
      cfg);
  EXPECT_EQ(count_rule(res.findings, "sup"), 2);
}

TEST(Baseline, SilencesBySymbolAndReportsStaleEntries) {
  lint::RuleConfig cfg;
  cfg.r4_banned = {"chrono"};
  std::vector<lint::BaselineEntry> baseline = {
      {"R4", "a.cpp", "chrono", "vetted: legacy time formatting"},
      {"R7", "gone.cpp", "stale_symbol", "this entry should be stale"}};
  const auto res = lint::run_tree_mem({{"a.cpp", "using std::chrono::x;\n"}},
                                      cfg, baseline);
  EXPECT_EQ(count_rule(res.findings, "R4"), 0);
  EXPECT_EQ(res.stats.baselined, 1u);
  ASSERT_EQ(count_rule(res.findings, "sup"), 1);
  EXPECT_NE(res.findings[0].message.find("stale"), std::string::npos);
}

TEST(Baseline, ParserRejectsEntriesWithoutReasons) {
  std::string error;
  EXPECT_FALSE(
      lint::parse_baseline("R4 a.cpp chrono\n", &error).has_value());
  EXPECT_TRUE(lint::parse_baseline("# just a comment\n", &error).has_value());
  const auto ok =
      lint::parse_baseline("R4 a.cpp chrono vetted because reasons\n", &error);
  ASSERT_TRUE(ok.has_value()) << error;
  ASSERT_EQ(ok->size(), 1u);
  EXPECT_EQ(ok->at(0).symbol, "chrono");
}

// --- incremental cache -------------------------------------------------------

TEST(Cache, SerializationRoundTrips) {
  lint::RuleConfig cfg;
  cfg.r3_fields = {"interaction_ts"};
  cfg.r4_banned = {"chrono"};
  const std::string src =
      "// overhaul-lint: allow(R4: demo)\n"
      "class C { TaskStruct* p_; };\n"
      "bool Functor::operator()(int x) { return IpcObject::check(x); }\n"
      "void w(T& t) { t.interaction_ts = 1; std::chrono::x y; }\n";
  const lint::FileIR ir = lint::build_file_ir("a.cpp", src, cfg);
  const std::string blob = lint::serialize_cache({ir}, 42);

  std::vector<lint::FileIR> back;
  ASSERT_TRUE(lint::parse_cache(blob, 42, &back));
  ASSERT_EQ(back.size(), 1u);
  const lint::FileIR& r = back[0];
  EXPECT_EQ(r.path, ir.path);
  EXPECT_EQ(r.source_hash, ir.source_hash);
  ASSERT_EQ(r.functions.size(), ir.functions.size());
  EXPECT_EQ(r.functions[0].qualified_name, "Functor::operator()");
  ASSERT_EQ(r.functions[0].call_sites.size(), 1u);
  EXPECT_EQ(r.functions[0].call_sites[0].qualifier, "IpcObject");
  EXPECT_EQ(r.pointer_fields.size(), ir.pointer_fields.size());
  EXPECT_EQ(r.guarded_writes.size(), ir.guarded_writes.size());
  EXPECT_EQ(r.banned_idents.size(), ir.banned_idents.size());
  ASSERT_EQ(r.suppressions.size(), 1u);
  EXPECT_EQ(r.suppressions[0].rule, "R4");
  EXPECT_EQ(r.suppressions[0].reason, "demo");

  // A different config hash rejects the whole blob.
  EXPECT_FALSE(lint::parse_cache(blob, 43, &back));
}

TEST(Cache, MembersAndFlowRoundTrip) {
  lint::RuleConfig cfg;
  const std::string src =
      "class Hub {\n"
      "  OVERHAUL_SHARED(connect) std::vector<int> channels_;\n"
      "  OVERHAUL_SHARD_LOCAL int depth_ = 0;\n"
      "  void connect(int id) {\n"
      "    std::lock_guard<std::mutex> g(mu_);\n"
      "    for (const auto& e : table_) absorb(e);\n"
      "    channels_.push_back(id);\n"
      "  }\n"
      "};\n";
  const lint::FileIR ir = lint::build_file_ir("a.cpp", src, cfg);
  ASSERT_EQ(ir.members.size(), 2u);
  ASSERT_EQ(ir.functions.size(), 1u);
  ASSERT_FALSE(ir.functions[0].flow.empty());

  std::vector<lint::FileIR> back;
  ASSERT_TRUE(lint::parse_cache(lint::serialize_cache({ir}, 1), 1, &back));
  ASSERT_EQ(back.size(), 1u);
  const lint::FileIR& r = back[0];

  ASSERT_EQ(r.members.size(), 2u);
  EXPECT_EQ(r.members[0].name, "channels_");
  EXPECT_EQ(r.members[0].anno, lint::MemberAnno::kShared);
  EXPECT_EQ(r.members[0].guard, "connect");
  EXPECT_EQ(r.members[0].klass, "Hub");
  EXPECT_TRUE(r.members[0].is_mutable);
  EXPECT_EQ(r.members[1].anno, lint::MemberAnno::kShardLocal);

  ASSERT_EQ(r.functions[0].flow.size(), ir.functions[0].flow.size());
  for (std::size_t i = 0; i < r.functions[0].flow.size(); ++i) {
    const auto& a = r.functions[0].flow[i];
    const auto& b = ir.functions[0].flow[i];
    EXPECT_EQ(a.line, b.line);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.succ, b.succ);
    EXPECT_EQ(a.defs, b.defs);
    EXPECT_EQ(a.uses, b.uses);
    EXPECT_EQ(a.calls, b.calls);
    EXPECT_EQ(a.decl_type, b.decl_type);
    EXPECT_EQ(a.locks, b.locks);
    EXPECT_EQ(a.unlocks, b.unlocks);
  }
}

TEST(Cache, WarmRunSkipsReparsing) {
  const auto cfg = fixture_rules();
  const std::string cache =
      testing::TempDir() + "/overhaul_lint_cache_test.txt";
  std::remove(cache.c_str());

  lint::TreeOptions opts;
  opts.roots = {fixture_dir("clean")};
  opts.config = cfg;
  opts.rules_hash = 7;
  opts.cache_path = cache;

  const auto cold = lint::run_tree(opts);
  EXPECT_EQ(cold.stats.reparsed, cold.stats.files);
  const auto warm = lint::run_tree(opts);
  EXPECT_EQ(warm.stats.reparsed, 0u);
  EXPECT_EQ(warm.stats.files, cold.stats.files);
  EXPECT_EQ(warm.findings.size(), cold.findings.size());
  EXPECT_EQ(warm.stats.functions, cold.stats.functions);
  EXPECT_EQ(warm.stats.call_edges, cold.stats.call_edges);

  // A rules change invalidates everything.
  opts.rules_hash = 8;
  const auto rebuilt = lint::run_tree(opts);
  EXPECT_EQ(rebuilt.stats.reparsed, rebuilt.stats.files);
  std::remove(cache.c_str());
}

// --stats prints these: every rule family, R1 through R13, and the two
// phases they share report the wall time they took on a whole-tree run.
TEST(Stats, EveryRuleFamilyReportsItsWallTime) {
  lint::TreeOptions opts;
  opts.roots = {fixture_dir("clean"), fixture_dir("broken")};
  opts.config = fixture_rules();
  const auto res = lint::run_tree(opts);
  ASSERT_GT(res.stats.files, 0u);
  ASSERT_EQ(res.stats.rule_ms.size(), 13u);
  for (std::size_t i = 0; i < res.stats.rule_ms.size(); ++i)
    EXPECT_GT(res.stats.rule_ms[i], 0.0) << "R" << i + 1;
  EXPECT_GT(res.stats.ir_ms, 0.0);
  EXPECT_GT(res.stats.callgraph_ms, 0.0);
}

TEST(Cache, ConfigChangeInvalidatesAndIsCounted) {
  const auto cfg = fixture_rules();
  const std::string cache =
      testing::TempDir() + "/overhaul_lint_cache_config.txt";
  std::remove(cache.c_str());

  lint::TreeOptions opts;
  opts.roots = {fixture_dir("clean")};
  opts.config = cfg;
  opts.rules_hash = 7;
  opts.cache_path = cache;

  const auto cold = lint::run_tree(opts);
  EXPECT_EQ(cold.stats.invalidated_by_config, 0u);

  // An edited rules file (new hash) forces a cold pass and the stats say so:
  // every cached entry is counted as config-invalidated, none as evicted.
  opts.rules_hash = 8;
  const auto invalidated = lint::run_tree(opts);
  EXPECT_EQ(invalidated.stats.reparsed, invalidated.stats.files);
  EXPECT_EQ(invalidated.stats.invalidated_by_config, cold.stats.files);
  EXPECT_EQ(invalidated.stats.evicted, 0u);

  // The survivors are warm again under the new hash.
  const auto warm = lint::run_tree(opts);
  EXPECT_EQ(warm.stats.reparsed, 0u);
  EXPECT_EQ(warm.stats.invalidated_by_config, 0u);
  std::remove(cache.c_str());
}

TEST(Cache, LaneAnnotationsRoundTrip) {
  lint::RuleConfig cfg;
  const std::string src =
      "OVERHAUL_COORDINATOR_ONLY\n"
      "void drain() { }\n"
      "OVERHAUL_LANE_SAFE\n"
      "void send() { }\n"
      "void plain() { }\n";
  const lint::FileIR ir = lint::build_file_ir("a.cpp", src, cfg);
  ASSERT_EQ(ir.functions.size(), 3u);
  EXPECT_EQ(ir.functions[0].lane_anno, lint::FnAnno::kCoordinatorOnly);
  EXPECT_EQ(ir.functions[1].lane_anno, lint::FnAnno::kLaneSafe);
  EXPECT_EQ(ir.functions[2].lane_anno, lint::FnAnno::kNone);

  std::vector<lint::FileIR> back;
  ASSERT_TRUE(lint::parse_cache(lint::serialize_cache({ir}, 1), 1, &back));
  ASSERT_EQ(back.size(), 1u);
  ASSERT_EQ(back[0].functions.size(), 3u);
  EXPECT_EQ(back[0].functions[0].lane_anno, lint::FnAnno::kCoordinatorOnly);
  EXPECT_EQ(back[0].functions[1].lane_anno, lint::FnAnno::kLaneSafe);
  EXPECT_EQ(back[0].functions[2].lane_anno, lint::FnAnno::kNone);
}

TEST(Cache, DeletedFilesAreEvictedAndTheRestStaysWarm) {
  // Copy the clean fixtures into a scratch root so one can be deleted.
  const std::string root = testing::TempDir() + "/overhaul_lint_evict";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  for (const auto& entry :
       std::filesystem::directory_iterator(fixture_dir("clean")))
    std::filesystem::copy_file(entry.path(),
                               root + "/" + entry.path().filename().string());

  const std::string cache = root + "/cache.txt";
  lint::TreeOptions opts;
  opts.roots = {root};
  opts.config = fixture_rules();
  opts.rules_hash = 7;
  opts.cache_path = cache;

  const auto cold = lint::run_tree(opts);
  EXPECT_EQ(cold.stats.evicted, 0u);
  const std::size_t all = cold.stats.files;

  // Deleting a file between runs must drop its entry without disturbing the
  // warm entries of the surviving files.
  std::filesystem::remove(root + "/handle.cpp");
  const auto pruned = lint::run_tree(opts);
  EXPECT_EQ(pruned.stats.files, all - 1);
  EXPECT_EQ(pruned.stats.evicted, 1u);
  EXPECT_EQ(pruned.stats.reparsed, 0u);  // survivors still served from cache

  // The rewritten cache no longer carries the dead entry.
  const auto warm = lint::run_tree(opts);
  EXPECT_EQ(warm.stats.evicted, 0u);
  EXPECT_EQ(warm.stats.reparsed, 0u);
  EXPECT_EQ(warm.stats.files, all - 1);
  std::filesystem::remove_all(root);
}

// --- SARIF -------------------------------------------------------------------

TEST(Sarif, OutputIsStrictlyValidJson) {
  const auto cfg = fixture_rules();
  const auto findings = lint::run_lint({fixture_dir("broken")}, cfg);
  ASSERT_FALSE(findings.empty());
  const std::string sarif = lint::to_sarif(findings, "test");
  std::string error;
  EXPECT_TRUE(overhaul::obs::json::validate(sarif, &error)) << error;
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"R5\""), std::string::npos);
  // Messages with quotes/backslashes must survive escaping.
  const std::string hostile = lint::to_sarif(
      {{"a\\b.cpp", 0, "R4", "msg with \"quotes\"\nand newline", "sym"}},
      "test");
  EXPECT_TRUE(overhaul::obs::json::validate(hostile, &error)) << error;
}

// --- --explain witnesses -----------------------------------------------------

TEST(Explain, PrintsTheWitnessChain) {
  const auto cfg = fixture_rules();
  lint::TreeOptions opts;
  opts.roots = {fixture_dir("clean")};
  opts.config = cfg;
  const auto res = lint::run_tree(opts);
  const auto out =
      lint::explain(res.program, cfg, "R5:capture_surface");
  EXPECT_EQ(out.exit_code, 0);
  EXPECT_NE(out.text.find("capture_surface"), std::string::npos);
  EXPECT_NE(out.text.find("authorize_capture"), std::string::npos);
  EXPECT_NE(out.text.find("[sink]"), std::string::npos);
}

TEST(Explain, ReportsAMissingChain) {
  const auto cfg = fixture_rules();
  lint::TreeOptions opts;
  opts.roots = {fixture_dir("broken")};
  opts.config = cfg;
  const auto res = lint::run_tree(opts);
  const auto out = lint::explain(res.program, cfg, "R5:capture_surface");
  EXPECT_EQ(out.exit_code, 1);
  EXPECT_NE(out.text.find("NO PATH"), std::string::npos);
}

TEST(Explain, R9PrintsTheTaintWitnessChain) {
  const auto cfg = fixture_rules();
  lint::TreeOptions opts;
  opts.roots = {fixture_dir("broken")};
  opts.config = cfg;
  const auto res = lint::run_tree(opts);
  const auto out = lint::explain(res.program, cfg, "R9:flush");
  EXPECT_EQ(out.exit_code, 0);
  // The witness names the sink, the tainted variable, and its nondet origin.
  EXPECT_NE(out.text.find("append"), std::string::npos);
  EXPECT_NE(out.text.find("entry"), std::string::npos);
  EXPECT_NE(out.text.find("pending_"), std::string::npos);
  EXPECT_NE(out.text.find("range-for"), std::string::npos);

  // On the clean tree the same function reports no tainted flow.
  lint::TreeOptions clean_opts;
  clean_opts.roots = {fixture_dir("clean")};
  clean_opts.config = cfg;
  const auto clean_res = lint::run_tree(clean_opts);
  const auto clean_out = lint::explain(clean_res.program, cfg, "R9:flush");
  EXPECT_EQ(clean_out.exit_code, 0);
  EXPECT_NE(clean_out.text.find("no nondet-ordered flow"), std::string::npos);

  // Unknown function / missing function name are errors.
  EXPECT_EQ(lint::explain(res.program, cfg, "R9:nosuchfn").exit_code, 2);
  EXPECT_EQ(lint::explain(res.program, cfg, "R9").exit_code, 2);
}

TEST(Explain, R6ShowsTheSourceChainToAMint) {
  const auto cfg = fixture_rules();
  lint::TreeOptions opts;
  opts.roots = {fixture_dir("clean")};
  opts.config = cfg;
  const auto res = lint::run_tree(opts);
  const auto out = lint::explain(res.program, cfg, "R6:forward_input");
  EXPECT_EQ(out.exit_code, 0);
  EXPECT_NE(out.text.find("deliver_input"), std::string::npos);
  EXPECT_EQ(lint::explain(res.program, cfg, "R8:nope").exit_code, 2);
}

TEST(Explain, R11PrintsTheDomainWitness) {
  const auto cfg = fixture_rules();
  lint::TreeOptions opts;
  opts.roots = {fixture_dir("broken")};
  opts.config = cfg;
  const auto res = lint::run_tree(opts);
  const auto out = lint::explain(res.program, cfg, "R11:on_arrival");
  EXPECT_EQ(out.exit_code, 0);
  // The witness names each value's domain and minting call, then the mix and
  // sink sites with their provenance chains.
  EXPECT_NE(out.text.find("fleet-domain 'arrival'"), std::string::npos);
  EXPECT_NE(out.text.find("fleet_now"), std::string::npos);
  EXPECT_NE(out.text.find("shard-local 'seen'"), std::string::npos);
  EXPECT_NE(out.text.find("MIX at line 16"), std::string::npos);
  EXPECT_NE(out.text.find("SINK at line 18"), std::string::npos);
  EXPECT_NE(out.text.find("adopt_arrival"), std::string::npos);

  // On the clean tree the same function carries domains but no violation.
  lint::TreeOptions clean_opts;
  clean_opts.roots = {fixture_dir("clean")};
  clean_opts.config = cfg;
  const auto clean_res = lint::run_tree(clean_opts);
  const auto clean_out =
      lint::explain(clean_res.program, cfg, "R11:on_arrival");
  EXPECT_EQ(clean_out.exit_code, 0);
  EXPECT_EQ(clean_out.text.find("MIX at"), std::string::npos);
  EXPECT_EQ(clean_out.text.find("SINK at"), std::string::npos);

  // Unknown function is an error; a bare R11 surveys the whole tree.
  EXPECT_EQ(lint::explain(res.program, cfg, "R11:nosuchfn").exit_code, 2);
  const auto all = lint::explain(res.program, cfg, "R11");
  EXPECT_EQ(all.exit_code, 0);
  EXPECT_NE(all.text.find("on_arrival"), std::string::npos);
}
