#include "display/alert.h"

#include <algorithm>
#include <string_view>

namespace overhaul::display {
namespace {

constexpr std::string_view verb_of(util::Op op) {
  switch (op) {
    case util::Op::kMicrophone: return "is recording from the microphone";
    case util::Op::kCamera: return "is using the camera";
    case util::Op::kScreenCapture: return "is capturing the screen";
    case util::Op::kDeviceOther: return "is accessing a protected device";
    case util::Op::kCopy: return "copied to the clipboard";
    case util::Op::kPaste: return "pasted from the clipboard";
  }
  return {};
}

constexpr std::string_view kBlocked = "Blocked: ";
constexpr std::string_view kTried = " tried and ";

// The longest message for a comm of up to 15 bytes (Linux's TASK_COMM_LEN
// less the NUL). A new ring slot reserves it, so a full ring rewrites its
// texts in place whatever mix of alerts follows.
constexpr std::size_t kTextCapacity = [] {
  std::size_t verb = 0;
  for (std::size_t op = 0; op < util::kOpCount; ++op)
    verb = std::max(verb, verb_of(static_cast<util::Op>(op)).size());
  return kBlocked.size() + 15 + kTried.size() + verb;
}();

// Renders into `text`, reusing its storage.
void render_text(std::string& text, const std::string& comm, util::Op op,
                 util::Decision decision) {
  text.clear();
  if (decision == util::Decision::kDeny) {
    text.append(kBlocked).append(comm).append(kTried).append(verb_of(op));
  } else {
    text.append(comm).append(1, ' ').append(verb_of(op));
  }
}

}  // namespace

const Alert& AlertOverlay::show(int pid, const std::string& comm, util::Op op,
                                util::Decision decision) {
  // The ring grows to kHistoryCapacity; after that each alert is written
  // over the oldest one's strings, so a full ring shows alerts without
  // touching the heap.
  const std::size_t slot = shown_++ % kHistoryCapacity;
  if (slot == ring_.size()) ring_.emplace_back().text.reserve(kTextCapacity);
  Alert& alert = ring_[slot];
  alert.shown_at_ns = clock_.now().ns;
  alert.expires_at_ns = (clock_.now() + duration_).ns;
  alert.pid = pid;
  alert.comm = comm;
  alert.op = op;
  alert.decision = decision;
  render_text(alert.text, comm, op, decision);
  alert.secret = secret_;
  return alert;
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
