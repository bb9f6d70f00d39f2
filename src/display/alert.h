// AlertOverlay: the trusted output path (§IV-A "Trusted output", Fig. 5).
//
// Visual alerts are rendered by the display server itself on an overlay
// "always stacked on top of the screen contents" that "cannot be blocked,
// obscured, or manipulated by other processes". Alerts display for a few
// seconds at the top of the screen and carry a *visual shared secret* set by
// the user so that a malicious client painting a look-alike window cannot
// forge one — the secret never leaves the server.
//
// The overlay is display-protocol-agnostic: on X11 it models the server's
// own overlay window above the stacking order; on the Wayland backend it
// models a layer-shell surface on the topmost overlay layer. Both backends
// own one instance and hand it kernel V_{A,op} requests verbatim, which is
// what keeps the trusted-output behaviour bit-identical across backends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "util/audit_log.h"

namespace overhaul::display {

struct Alert {
  std::int64_t shown_at_ns = 0;
  std::int64_t expires_at_ns = 0;
  int pid = -1;
  std::string comm;
  util::Op op = util::Op::kDeviceOther;
  util::Decision decision = util::Decision::kDeny;
  std::string text;    // rendered message
  std::string secret;  // the visual shared secret stamped on the overlay

  [[nodiscard]] bool active_at(sim::Timestamp t) const noexcept {
    return t.ns >= shown_at_ns && t.ns < expires_at_ns;
  }
};

class AlertOverlay {
 public:
  explicit AlertOverlay(sim::Clock& clock) : clock_(clock) {}

  // The user configures the visual shared secret (Fig. 5's cat picture).
  void set_shared_secret(std::string secret) { secret_ = std::move(secret); }
  [[nodiscard]] const std::string& shared_secret_for_verification() const {
    // Exposed for tests only; clients have no access to the overlay object.
    return secret_;
  }

  void set_display_duration(sim::Duration d) noexcept { duration_ = d; }

  // Server-side entry point: show an alert for a kernel V_{A,op} request.
  const Alert& show(int pid, const std::string& comm, util::Op op,
                    util::Decision decision);

  // Alerts currently on screen (always above every client window: the
  // overlay is not part of the window stack at all, which is the stacking
  // guarantee).
  [[nodiscard]] std::vector<const Alert*> active(sim::Timestamp now) const;

  // Whether an alert a user sees is authentic: true iff it was rendered by
  // this overlay with the configured secret. A client-forged "alert" is a
  // regular window and never enters the history.
  [[nodiscard]] bool is_authentic(const Alert& alert) const noexcept {
    return !secret_.empty() && alert.secret == secret_;
  }

  // The overlay keeps the last kHistoryCapacity alerts it showed and
  // overwrites the oldest in place: a fleet seat can raise ~1000 alerts a
  // second, and an on-screen overlay never shows more than a few at once.
  static constexpr std::size_t kHistoryCapacity = 64;

  // The alerts still held, oldest first.
  [[nodiscard]] auto history() const {
    return std::views::iota(std::size_t{0}, ring_.size()) |
           std::views::transform([this](std::size_t i) -> const Alert& {
             return ring_[(shown_ + i) % ring_.size()];
           });
  }

  // Render an alert the way it appears at the top of the screen (Fig. 5):
  // a banner with the visual shared secret on the left — the cat photo in
  // the paper's screenshots — and the message beside it.
  [[nodiscard]] static std::string render_banner(const Alert& alert);
  // Alerts shown since the last clear_history(), including overwritten ones.
  [[nodiscard]] std::size_t shown_count() const noexcept { return shown_; }
  void clear_history() noexcept {
    ring_.clear();
    shown_ = 0;
  }

 private:
  sim::Clock& clock_;
  std::string secret_;
  sim::Duration duration_ = sim::Duration::seconds(4);  // "a few seconds"
  std::vector<Alert> ring_;  // grows to kHistoryCapacity, then wraps
  std::size_t shown_ = 0;
};

}  // namespace overhaul::display
