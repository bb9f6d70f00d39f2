#include "apps/terminal.h"

#include <string_view>

namespace overhaul::apps {

using kern::Pid;
using util::Code;
using util::Result;
using util::Status;

Result<std::unique_ptr<TerminalSession>> TerminalSession::launch(
    core::OverhaulSystem& sys) {
  auto handle = sys.launch_gui_app("/usr/bin/xterm", "xterm",
                                   display::Rect{200, 200, 500, 350});
  if (!handle.is_ok()) return handle.status();

  auto session = std::unique_ptr<TerminalSession>(
      new TerminalSession(sys, handle.value(), "xterm"));

  // Allocate the pty pair and spawn the shell attached to the slave side.
  session->pty_ = sys.kernel().ptys().open_pair();
  auto shell = sys.kernel().sys_spawn(session->pid(), "/bin/bash", "bash");
  if (!shell.is_ok()) return shell.status();
  session->shell_pid_ = shell.value();
  // The shell is a child of the terminal; clear any interaction record it
  // inherited at fork so the pty propagation path is what matters in tests.
  // (A real shell would have been started long before the user typed.)
  if (auto* task = sys.kernel().processes().lookup_live(shell.value()))
    task->clear_interaction();

  return session;
}

Status TerminalSession::type_command_line(const std::string& line) {
  kern::TaskStruct* term = kernel().processes().lookup_live(pid());
  if (term == nullptr) return Status(Code::kNotFound, "terminal task gone");
  // The write hook embeds the terminal's interaction timestamp in the pty
  // device structure.
  return pty_->write(*term, kern::PtyPair::End::kMaster, line + "\n");
}

Result<Pid> TerminalSession::shell_read_and_spawn() {
  kern::TaskStruct* shell = kernel().processes().lookup_live(shell_pid_);
  if (shell == nullptr) return Status(Code::kNotFound, "shell task gone");

  // The read hook copies the pty's embedded timestamp into the shell.
  auto line = pty_->read(*shell, kern::PtyPair::End::kSlave);
  if (!line.is_ok()) return line.status();

  // First whitespace-delimited token is the program name (the blanks are
  // those of isspace in the C locale).
  constexpr std::string_view kBlanks = " \t\n\v\f\r";
  const std::string_view text = line.value();
  const std::size_t begin = text.find_first_not_of(kBlanks);
  if (begin == std::string_view::npos)
    return Status(Code::kInvalidArgument, "empty command line");
  const std::string program(
      text.substr(begin, text.find_first_of(kBlanks, begin) - begin));

  return kernel().sys_spawn(shell_pid_, "/usr/bin/" + program, program);
}

Status TerminalSession::tool_record_microphone(Pid tool_pid) {
  auto fd = kernel().sys_open(tool_pid, core::OverhaulSystem::mic_path(),
                              kern::OpenFlags::kRead);
  if (!fd.is_ok()) return fd.status();
  (void)kernel().sys_close(tool_pid, fd.value());
  return Status::ok();
}

}  // namespace overhaul::apps
