#include "display/alert.h"

namespace overhaul::display {
namespace {

std::string render_text(const std::string& comm, util::Op op,
                        util::Decision decision) {
  std::string verb;
  switch (op) {
    case util::Op::kMicrophone: verb = "is recording from the microphone"; break;
    case util::Op::kCamera: verb = "is using the camera"; break;
    case util::Op::kScreenCapture: verb = "is capturing the screen"; break;
    case util::Op::kDeviceOther: verb = "is accessing a protected device"; break;
    case util::Op::kCopy: verb = "copied to the clipboard"; break;
    case util::Op::kPaste: verb = "pasted from the clipboard"; break;
  }
  if (decision == util::Decision::kDeny) {
    return "Blocked: " + comm + " tried and " + verb;
  }
  return comm + " " + verb;
}

}  // namespace

const Alert& AlertOverlay::show(int pid, const std::string& comm, util::Op op,
                                util::Decision decision) {
  Alert alert;
  alert.shown_at_ns = clock_.now().ns;
  alert.expires_at_ns = (clock_.now() + duration_).ns;
  alert.pid = pid;
  alert.comm = comm;
  alert.op = op;
  alert.decision = decision;
  alert.text = render_text(comm, op, decision);
  alert.secret = secret_;
  const std::size_t slot = shown_++ % kHistoryCapacity;
  if (slot == ring_.size()) {
    ring_.push_back(std::move(alert));
  } else {
    ring_[slot] = std::move(alert);
  }
  return ring_[slot];
}

std::string AlertOverlay::render_banner(const Alert& alert) {
  // [ <secret> | <message>                          ]
  const std::string_view secret =
      alert.secret.empty() ? "(no secret!)" : std::string_view(alert.secret);
  std::string body;
  body.reserve(secret.size() + alert.text.size() + 5);
  body.append(1, ' ').append(secret).append(" | ").append(alert.text);
  body.append(1, ' ');
  std::string out;
  out.reserve(3 * (body.size() + 3));
  out.append(1, '+').append(body.size(), '-').append("+\n");
  out.append(1, '|').append(body).append("|\n");
  out.append(1, '+').append(body.size(), '-').append("+\n");
  return out;
}

std::vector<const Alert*> AlertOverlay::active(sim::Timestamp now) const {
  std::vector<const Alert*> out;
  for (const Alert& alert : history()) {
    if (alert.active_at(now)) out.push_back(&alert);
  }
  return out;
}

}  // namespace overhaul::display
