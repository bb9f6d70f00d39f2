#include "core/timeline.h"

#include <algorithm>
#include <cstdio>

namespace overhaul::core {

std::string_view timeline_kind_name(TimelineKind kind) noexcept {
  switch (kind) {
    case TimelineKind::kHardwareInput: return "input";
    case TimelineKind::kSyntheticInput: return "synthetic";
    case TimelineKind::kSuppressedInput: return "suppressed";
    case TimelineKind::kDecision: return "decision";
    case TimelineKind::kAlert: return "alert";
    case TimelineKind::kPrompt: return "prompt";
  }
  return "?";
}

std::vector<TimelineEntry> build_timeline(OverhaulSystem& sys) {
  std::vector<TimelineEntry> entries;

  // Input trace. Only the X11 server traces synthetic input: Wayland
  // clients cannot inject input at all.
  const char* noun = sys.display().backend_kind() == DisplayBackendKind::kX11
                         ? " -> window "
                         : " -> surface ";
  for (const auto& t : sys.display().input_trace()) {
    TimelineEntry e;
    e.time = t.time;
    if (t.synthetic) {
      e.kind = TimelineKind::kSyntheticInput;
    } else if (t.clickjack_suppressed) {
      e.kind = TimelineKind::kSuppressedInput;
    } else {
      e.kind = TimelineKind::kHardwareInput;
    }
    e.pid = t.receiver_pid;
    e.text = std::string(t.kind == DisplayBackend::InputKind::kButton
                             ? "click"
                             : "key") +
             noun + std::to_string(t.surface) +
             (t.produced_notification ? "  [N sent]" : "");
    entries.push_back(std::move(e));
  }

  for (const auto& rec : sys.audit().records()) {
    TimelineEntry e;
    e.time = sim::Timestamp{rec.time_ns};
    e.kind = TimelineKind::kDecision;
    e.pid = rec.pid;
    e.text = std::string(util::op_name(rec.op)) + " " +
             (rec.decision == util::Decision::kGrant ? "GRANT" : "DENY") +
             " (" + rec.comm + ", age " +
             (rec.interaction_age_ns < 0
                  ? "never"
                  : std::to_string(rec.interaction_age_ns / 1'000'000) + "ms") +
             ")";
    entries.push_back(std::move(e));
  }

  for (const auto& alert : sys.display().alert_overlay().history()) {
    TimelineEntry e;
    e.time = sim::Timestamp{alert.shown_at_ns};
    e.kind = TimelineKind::kAlert;
    e.pid = alert.pid;
    e.text = alert.text;
    entries.push_back(std::move(e));
  }

  if (sys.display().backend_kind() == DisplayBackendKind::kX11) {
    // Prompt mode is an X11-only surface; the Wayland backend ships only
    // the transparent model.
    for (const auto& prompt : sys.xserver().prompts().history()) {
      TimelineEntry e;
      e.time = sys.clock().now();  // prompts resolve synchronously "now"
      e.kind = TimelineKind::kPrompt;
      e.pid = prompt.pid;
      e.text = prompt.text + " -> " +
               (prompt.decided
                    ? (prompt.decision == util::Decision::kGrant ? "allowed"
                                                                 : "denied")
                    : "unanswered");
      entries.push_back(std::move(e));
    }
  }

  std::stable_sort(entries.begin(), entries.end(),
                   [](const TimelineEntry& a, const TimelineEntry& b) {
                     return a.time < b.time;
                   });
  return entries;
}

std::string render_timeline(const std::vector<TimelineEntry>& entries) {
  std::string out;
  char buf[512];
  for (const auto& e : entries) {
    std::snprintf(buf, sizeof(buf), "[%10.3fs] %-10s pid=%-5d %s\n",
                  e.time.to_seconds(),
                  std::string(timeline_kind_name(e.kind)).c_str(), e.pid,
                  e.text.c_str());
    out += buf;
  }
  return out;
}

}  // namespace overhaul::core
