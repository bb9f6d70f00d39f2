// §IV-B "CLI interactions": xterm → pty → bash → fork/exec → arecord.
#include <gtest/gtest.h>

#include "apps/terminal.h"
#include "core/system.h"

namespace overhaul {
namespace {

using util::Code;

class CliPtyTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
};

TEST_F(CliPtyTest, TypedCommandToolOpensMic) {
  auto term = apps::TerminalSession::launch(sys_).value();
  // The user clicks into the terminal and types "arecord<Enter>".
  auto [cx, cy] = term->click_point();
  sys_.input().click(cx, cy);
  sys_.input().press_enter();
  ASSERT_TRUE(term->type_command_line("arecord out.wav").is_ok());
  auto tool = term->shell_read_and_spawn();
  ASSERT_TRUE(tool.is_ok());
  EXPECT_TRUE(term->tool_record_microphone(tool.value()).is_ok());
}

TEST_F(CliPtyTest, ShellSpawnsFirstTokenAfterLeadingBlanks) {
  auto term = apps::TerminalSession::launch(sys_).value();
  ASSERT_TRUE(term->type_command_line("  \t arecord\t-f cd out.wav").is_ok());
  auto tool = term->shell_read_and_spawn();
  ASSERT_TRUE(tool.is_ok());
  const auto* task = sys_.kernel().processes().lookup(tool.value());
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->comm, "arecord");
  EXPECT_EQ(task->exe_path, "/usr/bin/arecord");
  // A line of blanks names no program.
  ASSERT_TRUE(term->type_command_line(" \t ").is_ok());
  EXPECT_EQ(term->shell_read_and_spawn().code(), Code::kInvalidArgument);
}

TEST_F(CliPtyTest, ShellIsNotAnXClientButStillAuthorized) {
  auto term = apps::TerminalSession::launch(sys_).value();
  auto [cx, cy] = term->click_point();
  sys_.input().click(cx, cy);
  ASSERT_TRUE(term->type_command_line("arecord").is_ok());
  ASSERT_TRUE(term->shell_read_and_spawn().is_ok());
  // The shell itself picked up the timestamp via the pty read.
  auto* shell = sys_.kernel().processes().lookup(term->shell_pid());
  EXPECT_FALSE(shell->interaction_ts.is_never());
}

TEST_F(CliPtyTest, NoTypingNoAccess) {
  auto term = apps::TerminalSession::launch(sys_).value();
  sys_.advance(sim::Duration::seconds(10));
  // A scheduled job writes into the shell with no user at the keyboard:
  // the terminal never interacted, so the propagated stamp is 'never'.
  ASSERT_TRUE(term->type_command_line("arecord").is_ok());
  auto tool = term->shell_read_and_spawn();
  ASSERT_TRUE(tool.is_ok());
  EXPECT_EQ(term->tool_record_microphone(tool.value()).code(),
            Code::kOverhaulDenied);
}

TEST_F(CliPtyTest, StaleTypingDenied) {
  auto term = apps::TerminalSession::launch(sys_).value();
  auto [cx, cy] = term->click_point();
  sys_.input().click(cx, cy);
  ASSERT_TRUE(term->type_command_line("arecord").is_ok());
  auto tool = term->shell_read_and_spawn();
  ASSERT_TRUE(tool.is_ok());
  sys_.advance(sys_.config().delta + sim::Duration::millis(1));
  EXPECT_EQ(term->tool_record_microphone(tool.value()).code(),
            Code::kOverhaulDenied);
}

TEST_F(CliPtyTest, PipelineThroughShellToolChain) {
  // xterm → pty → bash → tool1 | tool2 (anonymous pipe): the second tool
  // in the pipeline is also covered via pipe propagation.
  auto term = apps::TerminalSession::launch(sys_).value();
  auto [cx, cy] = term->click_point();
  sys_.input().click(cx, cy);
  ASSERT_TRUE(term->type_command_line("producer").is_ok());
  auto tool1 = term->shell_read_and_spawn().value();

  auto& k = sys_.kernel();
  // Spawn tool2 WITHOUT interaction (e.g. a pre-existing daemon side of the
  // pipeline), then connect the two with a pipe.
  auto tool2 = k.sys_spawn(1, "/usr/bin/consumer", "consumer").value();
  auto fds = k.sys_pipe(tool1).value();
  // Hand the read end to tool2 (as the shell's fd plumbing would).
  auto* t1 = k.processes().lookup(tool1);
  auto* t2 = k.processes().lookup(tool2);
  t2->fds.insert(0, t1->fds.at(fds.first));

  ASSERT_TRUE(k.sys_write(tool1, fds.second, "data").is_ok());
  ASSERT_TRUE(k.sys_read(tool2, 0, 16).is_ok());
  // tool2 inherited the interaction through the pipe → mic allowed.
  auto fd = k.sys_open(tool2, core::OverhaulSystem::mic_path(),
                       kern::OpenFlags::kRead);
  EXPECT_TRUE(fd.is_ok()) << fd.status().to_string();
}

}  // namespace
}  // namespace overhaul
