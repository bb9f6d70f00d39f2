#include "util/audit_log.h"

#include <cstdio>

namespace overhaul::util {

std::string_view op_name(Op op) noexcept {
  switch (op) {
    case Op::kCopy: return "copy";
    case Op::kPaste: return "paste";
    case Op::kScreenCapture: return "scr";
    case Op::kMicrophone: return "mic";
    case Op::kCamera: return "cam";
    case Op::kDeviceOther: return "dev";
  }
  return "?";
}

std::string format_record(const AuditRecord& record) {
  const std::string op(op_name(record.op));
  const auto render = [&](char* buf, std::size_t size) {
    return std::snprintf(
        buf, size, "[%12.6fs] pid=%-6d %-12s op=%-5s %-5s age=%.3fs %s",
        static_cast<double>(record.time_ns) / 1e9, record.pid,
        record.comm.c_str(), op.c_str(),
        record.decision == Decision::kGrant ? "GRANT" : "DENY",
        record.interaction_age_ns < 0
            ? -1.0
            : static_cast<double>(record.interaction_age_ns) / 1e9,
        record.detail.c_str());
  };
  // First pass measures, second writes; snprintf's terminating NUL lands on
  // the string's own terminator.
  std::string line(static_cast<std::size_t>(render(nullptr, 0)), '\0');
  render(line.data(), line.size() + 1);
  return line;
}

}  // namespace overhaul::util
