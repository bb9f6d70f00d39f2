// Per-file intermediate representation for overhaul-lint.
//
// A FileIR is everything the rules need to know about one translation unit,
// decoupled from its raw text: extracted functions (with call sites), class-
// scope pointer fields, R3/R4 token hits, and inline suppressions. FileIRs
// are cheap to serialize, which is what makes the incremental cache work: a
// warm run re-reads sources only to hash them, and re-parses only files whose
// content hash (or the rules-file hash) changed.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lint.h"

namespace overhaul::lint {

// Wall time per rule family, in ms: [0] is R1, [12] is R13.
inline constexpr std::size_t kRuleFamilies = 13;
using RuleTimes = std::array<double, kRuleFamilies>;

// Adds the wall time of its scope to (*times)[rule - 1], or to *ms; does
// nothing when the target is null.
class RuleTimer {
 public:
  RuleTimer(RuleTimes* times, int rule)
      : ms_(times == nullptr ? nullptr : &(*times)[rule - 1]) {}
  explicit RuleTimer(double* ms) : ms_(ms) {}
  RuleTimer(const RuleTimer&) = delete;
  RuleTimer& operator=(const RuleTimer&) = delete;
  ~RuleTimer() {
    if (ms_ != nullptr)
      *ms_ += std::chrono::duration<double, std::milli>(Clock::now() - start_)
                  .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  double* ms_;
  Clock::time_point start_ = Clock::now();
};

// A single token hit the per-file rules care about (R3 guarded-field write,
// R4 banned identifier).
struct TokenHit {
  int line = 0;
  std::string text;
};

// Inline suppression: `// overhaul-lint: allow(R6: reason text)`. Applies to
// findings of `rule` on the same line or the line directly below. Reasons are
// mandatory; an empty reason or unknown rule is itself reported (rule "sup").
struct Suppression {
  int line = 0;
  std::string rule;
  std::string reason;
};

struct FileIR {
  std::string path;
  std::uint64_t source_hash = 0;
  std::vector<FunctionInfo> functions;
  std::vector<PointerField> pointer_fields;
  std::vector<MemberDecl> members;       // R8/R9: class-scope data members
  std::vector<TokenHit> guarded_writes;  // R3: `field <assign-op>` sites
  std::vector<TokenHit> banned_idents;   // R4: banned identifier uses
  std::vector<Suppression> suppressions;
};

// FNV-1a 64-bit content hash (stable across platforms; used for the cache
// keys, never for security).
std::uint64_t fnv1a64(std::string_view data);

// Scans raw source lines for `overhaul-lint: allow(RULE: reason)` markers.
std::vector<Suppression> scan_suppressions(const std::string& source);

// Tokenizes + extracts one file into its IR. `config` supplies the R3 field
// and R4 identifier sets (the only rule inputs baked into the IR — which is
// why the cache key includes the rules-file hash).
FileIR build_file_ir(const std::string& path, const std::string& source,
                     const RuleConfig& config);

// Runs the per-file rules (R1–R4, R7) over one FileIR. No suppression or
// baseline filtering — that is the tree pipeline's job, so it can report
// unused suppressions. Adds each rule's wall time to `times` when given.
// Defined in lint.cpp next to the rule logic.
std::vector<Finding> run_file_rules(const FileIR& ir, const RuleConfig& config,
                                    RuleTimes* times = nullptr);

// --- incremental cache -------------------------------------------------------

// Text cache format (tab-separated; names may contain spaces — `operator
// bool` — but never tabs; list-valued fields are comma-joined, '-' when
// empty — identifiers never contain commas):
//   overhaul-lint-cache v4 <config_hash hex>
//   F <source_hash hex> <path>
//   f <line> <ret_is_ptr> <anno> <ret_type|-> <name> <qname>  (function)
//   c <line> <qualifier|-> <name>                          (call site of ^)
//   d <line> <kind> <succ> <defs> <uses> <calls> <decl_type|-> <locks>
//     <unlocks>                                            (flow stmt of ^)
//   p <line> <type> <name>                                 (pointer field)
//   m <line> <mutable> <anno> <klass> <type|-> <name> <guard|->
//                                                          (data member)
//   w <line> <field>                                       (guarded write)
//   b <line> <ident>                                       (banned ident)
//   s <line> <rule> <reason>                               (suppression)
std::string serialize_cache(const std::vector<FileIR>& files,
                            std::uint64_t config_hash);

// Parses a cache blob. Returns false (and leaves `out` empty) on a version or
// config-hash mismatch or any malformed record — a bad cache is discarded
// wholesale, never trusted partially. When `invalidated` is non-null it
// receives the number of cached file entries discarded specifically because
// the config hash changed (rules/baseline edit), 0 otherwise — the
// `invalidated_by_config` stat.
bool parse_cache(const std::string& text, std::uint64_t config_hash,
                 std::vector<FileIR>* out, std::size_t* invalidated = nullptr);

}  // namespace overhaul::lint
