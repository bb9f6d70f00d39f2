// PromptManager: the explicit-prompt security model built on Overhaul's
// trusted paths (§IV-A "Trusted output").
//
// "we have implemented and verified that OVERHAUL's security primitives can
// be used to support such a security model in a trivial manner, where the
// trusted output path would be used for displaying an unforgeable prompt,
// and the trusted input path to verify user interaction with it." The paper
// does not adopt this mode (prompt fatigue, §VI), but ships it; so do we.
//
// A prompt is rendered on the overlay surface (above all windows, stamped
// with the visual shared secret). Its Allow/Deny buttons live in a reserved
// strip of the screen that the input dispatcher checks *before* window
// hit-testing, and only hardware-provenance clicks are accepted — synthetic
// clicks (SendEvent/XTest) on the buttons are counted as forgery attempts
// and ignored.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "display/types.h"
#include "util/audit_log.h"

namespace overhaul::x11 {

class XServer;

struct Prompt {
  std::uint64_t id = 0;
  int pid = -1;
  std::string comm;
  util::Op op = util::Op::kDeviceOther;
  std::string text;
  std::string secret;      // the visual shared secret (unforgeable)
  display::Rect allow_button;
  display::Rect deny_button;
  bool decided = false;
  util::Decision decision = util::Decision::kDeny;
};

class PromptManager {
 public:
  explicit PromptManager(XServer& server) : server_(server) {}

  // The simulated human: consulted synchronously while a prompt is pending.
  // The agent acts by injecting *hardware* clicks (through the input
  // driver), exactly like a real user would; it cannot flip the decision
  // directly.
  using UserAgent = std::function<void(const Prompt&)>;
  void set_user_agent(UserAgent agent) { agent_ = std::move(agent); }

  // Raise a prompt for `pid`/`op` and block (synchronously) for the user's
  // decision. An unanswered prompt denies — fail closed.
  util::Decision ask(int pid, const std::string& comm, util::Op op);

  // Input-dispatch hook: if (x, y) hits a pending prompt's buttons, consume
  // the click. Returns true when consumed. Only kHardware provenance can
  // decide; synthetic hits are recorded and swallowed (they must not fall
  // through to windows beneath the overlay either).
  bool handle_click(int x, int y, bool hardware_provenance);

  [[nodiscard]] const std::optional<Prompt>& pending() const noexcept {
    return pending_;
  }
  [[nodiscard]] const std::vector<Prompt>& history() const noexcept {
    return history_;
  }

  struct Stats {
    std::uint64_t prompts_shown = 0;
    std::uint64_t allowed = 0;
    std::uint64_t denied = 0;
    std::uint64_t unanswered = 0;
    std::uint64_t forged_clicks_ignored = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  XServer& server_;
  UserAgent agent_;
  std::optional<Prompt> pending_;
  std::vector<Prompt> history_;
  std::uint64_t next_id_ = 1;
  Stats stats_;
};

}  // namespace overhaul::x11
