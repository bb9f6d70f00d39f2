// Audit-log analysis: the queries the paper runs over Overhaul's logs.
//
// §V-D: "We also investigated OVERHAUL's logs to see which applications
// were granted access to the protected resources. The camera and microphone
// were used by two video conferencing applications. Screen was captured by
// the system's default screenshot tool, and by a desktop recording
// application. Clipboard accesses were logged for a large number of
// applications." This module computes exactly that report, plus the
// false-positive scan §V-C performs for clipboard apps.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/audit_log.h"

namespace overhaul::util {

// Per-application, per-operation decision counts.
struct AppUsage {
  std::string comm;
  std::map<Op, std::uint64_t> grants;
  std::map<Op, std::uint64_t> denials;

  [[nodiscard]] std::uint64_t total_grants() const;
  [[nodiscard]] std::uint64_t total_denials() const;
};

struct AuditReport {
  std::vector<AppUsage> apps;  // sorted by comm

  // Applications granted a specific resource at least once.
  [[nodiscard]] std::vector<std::string> apps_granted(Op op) const;
  // Applications with at least one denial for the op.
  [[nodiscard]] std::vector<std::string> apps_denied(Op op) const;
  [[nodiscard]] const AppUsage* find(const std::string& comm) const;

  // Render the §V-D style narrative table.
  [[nodiscard]] std::string to_string() const;
};

// Build the report from decoded records (audit::Sink::records()).
AuditReport build_report(const std::vector<AuditRecord>& records);

}  // namespace overhaul::util
