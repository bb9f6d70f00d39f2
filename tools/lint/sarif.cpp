#include "sarif.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

namespace overhaul::lint {

namespace {

// Minimal RFC-8259 string escaping: quotes, backslash, and all control
// characters; everything else passes through byte-for-byte.
std::string esc(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string quoted(const std::string& s) {
  const std::string body = esc(s);
  std::string out;
  out.reserve(body.size() + 2);
  out.append(1, '"').append(body).append(1, '"');
  return out;
}

struct RuleMeta {
  const char* id;
  const char* name;
  const char* description;
};

constexpr RuleMeta kRules[] = {
    {"R1", "ipc-stamp",
     "IPC send/receive interposition points must run the P2 stamp protocol"},
    {"R2", "mediated-access",
     "Direct-call mediation anchors must keep their call edge"},
    {"R3", "ts-write",
     "interaction_ts is written only through the approved APIs"},
    {"R4", "raw-clock",
     "No raw wall-clock primitives outside the virtual-clock module"},
    {"R5", "mediation-reach",
     "Seeded entry points must transitively reach a permission-monitor sink"},
    {"R6", "interaction-taint",
     "Interaction mints flow only from sanctioned hardware-input sources"},
    {"R7", "handle-discipline",
     "No raw TaskStruct* stored or returned outside ProcessTable"},
    {"R8", "shared-state-discipline",
     "Mutable members of concurrency roots carry ownership annotations; "
     "OVERHAUL_SHARED writes stay inside their declared accessors"},
    {"R9", "deterministic-ordering",
     "Unordered-container iteration and entropy sources must not flow into "
     "audit/metrics/decision sinks"},
    {"R10", "lock-discipline",
     "Locks follow the declared acquisition order; OVERHAUL_GUARDED_BY "
     "members are written only with their mutex held"},
    {"R11", "clock-domain-soundness",
     "Shard-local and fleet timestamps never meet or hit a domain-typed "
     "sink without an epoch translation"},
    {"R12", "decision-audit-completeness",
     "Every verdict-producing entry point transitively reaches both an "
     "audit append and a metrics increment"},
    {"R13", "barrier-discipline",
     "Worker-lane entry points never reach OVERHAUL_COORDINATOR_ONLY "
     "functions except through an OVERHAUL_LANE_SAFE boundary"},
    {"io", "io-error", "A configured root or source file could not be read"},
    {"sup", "suppression-hygiene",
     "Malformed/unused suppressions and stale baseline entries"},
};

}  // namespace

std::string to_sarif(const std::vector<Finding>& findings,
                     const std::string& tool_version) {
  std::ostringstream out;
  out << "{";
  out << "\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/"
         "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",";
  out << "\"version\":\"2.1.0\",";
  out << "\"runs\":[{";
  out << "\"tool\":{\"driver\":{";
  out << "\"name\":\"overhaul-lint\",";
  out << "\"version\":" << quoted(tool_version) << ",";
  out << "\"informationUri\":\"https://example.invalid/overhaul\",";
  out << "\"rules\":[";
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    if (i > 0) out << ",";
    out << "{\"id\":" << quoted(kRules[i].id) << ",\"name\":"
        << quoted(kRules[i].name) << ",\"shortDescription\":{\"text\":"
        << quoted(kRules[i].description) << "}}";
  }
  out << "]}},";
  out << "\"results\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out << ",";
    out << "{\"ruleId\":" << quoted(f.rule) << ",";
    out << "\"level\":\"error\",";
    out << "\"message\":{\"text\":" << quoted(f.message) << "},";
    out << "\"locations\":[{\"physicalLocation\":{";
    out << "\"artifactLocation\":{\"uri\":" << quoted(f.file) << "},";
    // SARIF requires startLine >= 1; tree-level findings carry line 0.
    out << "\"region\":{\"startLine\":" << std::max(1, f.line) << "}}}]";
    if (!f.symbol.empty()) {
      out << ",\"partialFingerprints\":{\"overhaulSymbol/v1\":"
          << quoted(f.rule + ":" + f.symbol) << "}";
    }
    out << "}";
  }
  out << "]}]}";
  return out.str();
}

}  // namespace overhaul::lint
