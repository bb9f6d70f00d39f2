// The vocabulary of Overhaul's decision log: the mediated operations, the
// decision, the decoded record shape, and its one-line rendering.
//
// The paper relies on Overhaul's logs in two evaluation sections: §V-C uses
// them to verify clipboard decisions without visual alerts, and §V-D inspects
// them after the 21-day deployment ("We checked OVERHAUL's logs and verified
// that attempts to access the protected resources were detected and
// blocked"). The log itself is the binary decision ring behind
// `audit::Sink` (src/audit/sink.h, DESIGN.md §16); readers decode its
// records into `AuditRecord` and render them with `format_record`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace overhaul::util {

// The privileged operations Overhaul mediates (paper §III-C:
// op ∈ {copy, paste, scr, mic, cam}; we also log device opens generically).
enum class Op : std::uint8_t {
  kCopy,
  kPaste,
  kScreenCapture,
  kMicrophone,
  kCamera,
  kDeviceOther,  // a protected device that is neither mic nor cam
};

// Number of mediated operations; sized for dense per-Op arrays (the ACG
// grant table in TaskStruct indexes by static_cast<size_t>(op)).
inline constexpr std::size_t kOpCount =
    static_cast<std::size_t>(Op::kDeviceOther) + 1;

std::string_view op_name(Op op) noexcept;

enum class Decision : std::uint8_t { kGrant, kDeny };

struct AuditRecord {
  std::int64_t time_ns = 0;   // virtual time of the decision
  int pid = -1;               // requesting process
  std::string comm;           // process name, if known
  Op op = Op::kDeviceOther;
  Decision decision = Decision::kDeny;
  std::int64_t interaction_age_ns = -1;  // now - last interaction; -1 = never
  std::string detail;                    // device path, selection atom, ...
};

// Renders one record as a single log line, however long its strings (a
// selection name, for one, is any length the client interned). audit_dump,
// the examples and the differential oracles all print through this.
std::string format_record(const AuditRecord& record);

}  // namespace overhaul::util
