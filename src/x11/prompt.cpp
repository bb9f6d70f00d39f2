#include "x11/prompt.h"

#include "x11/server.h"

namespace overhaul::x11 {

using util::Decision;

Decision PromptManager::ask(int pid, const std::string& comm, util::Op op) {
  Prompt prompt;
  prompt.id = next_id_++;
  prompt.pid = pid;
  prompt.comm = comm;
  prompt.op = op;
  prompt.text = "Allow " + comm + " to access " +
                std::string(util::op_name(op)) + "?";
  prompt.secret = server_.alert_overlay().shared_secret_for_verification();
  // Buttons live in the reserved overlay strip at the top-right of the
  // screen — coordinates no client window can claim ahead of the prompt
  // dispatcher.
  const int w = server_.config().screen_width;
  prompt.allow_button = display::Rect{w - 220, 4, 100, 32};
  prompt.deny_button = display::Rect{w - 110, 4, 100, 32};

  ++stats_.prompts_shown;
  pending_ = prompt;

  // Consult the user synchronously (the real system blocks the requesting
  // syscall while the prompt is up).
  if (agent_) agent_(*pending_);

  Prompt resolved = *pending_;
  pending_.reset();
  if (!resolved.decided) {
    ++stats_.unanswered;
    resolved.decision = Decision::kDeny;  // fail closed
  } else if (resolved.decision == Decision::kGrant) {
    ++stats_.allowed;
  } else {
    ++stats_.denied;
  }
  history_.push_back(resolved);
  return resolved.decision;
}

bool PromptManager::handle_click(int x, int y, bool hardware_provenance) {
  if (!pending_.has_value()) return false;
  const bool on_allow = pending_->allow_button.contains(x, y);
  const bool on_deny = pending_->deny_button.contains(x, y);
  if (!on_allow && !on_deny) return false;

  if (!hardware_provenance) {
    // S2 for prompts: synthetic clicks cannot answer; swallow the event so
    // it cannot reach a window placed underneath either.
    ++stats_.forged_clicks_ignored;
    return true;
  }
  pending_->decided = true;
  pending_->decision = on_allow ? Decision::kGrant : Decision::kDeny;
  return true;
}

}  // namespace overhaul::x11
