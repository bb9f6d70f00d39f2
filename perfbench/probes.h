// Layer probes: the hot functions timed alone, on fresh objects, with the
// workloads' configuration and argument mix. They give one definition of
// each per-call cost for the traced run to set against its span busy times.
#pragma once

#include <cstdint>

namespace perfbench {

struct ProbeResult {
  double monitor_check_ns = 0;        // PermissionMonitor::check
  double audit_append_ns = 0;         // audit::Sink::append_decision
  double netlink_coalesced_ns = 0;    // NetlinkChannel::send_interaction, on
  double netlink_uncoalesced_ns = 0;  // the same with coalescing off
  double lookup_live_ns = 0;          // ProcessTable::lookup_live
};

// Median over repetitions of the mean ns per call.
ProbeResult run_probes(std::uint64_t seed);

// The configuration the probes measure, one line, for the log.
const char* probe_configuration();

// Audit-ring memory per record at one per-seat fill level, binary ring vs
// the text-log equivalent of the same records.
struct AuditBytes {
  double binary = 0;
  double text = 0;
};
AuditBytes audit_bytes_per_record(std::size_t fill);

}  // namespace perfbench
