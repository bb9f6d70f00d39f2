#include "kern/procfs.h"

#include <gtest/gtest.h>

#include "core/system.h"

namespace overhaul::kern {
namespace {

using util::Code;

class ProcFsTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
  Kernel& k_ = sys_.kernel();

  Pid user_proc(const std::string& comm = "app") {
    const Pid pid = k_.sys_spawn(1, "/usr/bin/" + comm, comm).value();
    k_.processes().lookup(pid)->uid = 1000;
    return pid;
  }
};

TEST_F(ProcFsTest, PtraceProtectNodeReadsDefault) {
  auto v = k_.sys_proc_read(1, "/proc/sys/overhaul/ptrace_protect");
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value(), "1");
}

TEST_F(ProcFsTest, RootCanTogglePtraceProtect) {
  ASSERT_TRUE(
      k_.sys_proc_write(1, "/proc/sys/overhaul/ptrace_protect", "0").is_ok());
  EXPECT_FALSE(k_.monitor().ptrace_protect());
  EXPECT_EQ(k_.sys_proc_read(1, "/proc/sys/overhaul/ptrace_protect").value(),
            "0");
  ASSERT_TRUE(
      k_.sys_proc_write(1, "/proc/sys/overhaul/ptrace_protect", "1").is_ok());
  EXPECT_TRUE(k_.monitor().ptrace_protect());
}

TEST_F(ProcFsTest, NonRootCannotWritePolicyNodes) {
  const Pid user = user_proc();
  EXPECT_EQ(
      k_.sys_proc_write(user, "/proc/sys/overhaul/ptrace_protect", "0").code(),
      Code::kPermissionDenied);
  EXPECT_TRUE(k_.monitor().ptrace_protect());  // unchanged
}

TEST_F(ProcFsTest, ToggleActuallyAffectsEnforcement) {
  // The paper's use case: root disables the hardening to debug, the traced
  // process regains its permissions.
  const Pid app = user_proc();
  k_.monitor().record_interaction(app, sys_.clock().now());
  k_.processes().lookup(app)->traced_by = 1;
  EXPECT_EQ(k_.monitor().check_now(app, util::Op::kMicrophone, "m"),
            util::Decision::kDeny);
  ASSERT_TRUE(
      k_.sys_proc_write(1, "/proc/sys/overhaul/ptrace_protect", "0").is_ok());
  EXPECT_EQ(k_.monitor().check_now(app, util::Op::kMicrophone, "m"),
            util::Decision::kGrant);
}

TEST_F(ProcFsTest, ThresholdNodeRoundTrips) {
  EXPECT_EQ(k_.sys_proc_read(1, "/proc/sys/overhaul/threshold_ms").value(),
            "2000");
  ASSERT_TRUE(
      k_.sys_proc_write(1, "/proc/sys/overhaul/threshold_ms", "750").is_ok());
  EXPECT_EQ(k_.monitor().threshold(), sim::Duration::millis(750));
  EXPECT_EQ(k_.sys_proc_read(1, "/proc/sys/overhaul/threshold_ms").value(),
            "750");
}

TEST_F(ProcFsTest, ThresholdRejectsGarbage) {
  for (const char* bad : {"", "abc", "-5", "0", "12x"}) {
    EXPECT_EQ(
        k_.sys_proc_write(1, "/proc/sys/overhaul/threshold_ms", bad).code(),
        Code::kInvalidArgument)
        << bad;
  }
}

TEST_F(ProcFsTest, EnabledNodeReadOnly) {
  EXPECT_EQ(k_.sys_proc_read(1, "/proc/sys/overhaul/enabled").value(), "1");
  EXPECT_EQ(k_.sys_proc_write(1, "/proc/sys/overhaul/enabled", "0").code(),
            Code::kNotSupported);

  core::OverhaulSystem base(core::OverhaulConfig::baseline());
  EXPECT_EQ(
      base.kernel().sys_proc_read(1, "/proc/sys/overhaul/enabled").value(),
      "0");
}

TEST_F(ProcFsTest, PidStatusShowsInteractionAge) {
  const Pid app = user_proc("skype");
  sys_.advance(sim::Duration::seconds(3));
  k_.monitor().record_interaction(app, sys_.clock().now());
  sys_.advance(sim::Duration::millis(250));
  auto status =
      k_.sys_proc_read(1, "/proc/" + std::to_string(app) + "/status");
  ASSERT_TRUE(status.is_ok());
  EXPECT_NE(status.value().find("Name:\tskype"), std::string::npos);
  EXPECT_NE(status.value().find("OverhaulInteractionAge:\t0.250"),
            std::string::npos);
}

TEST_F(ProcFsTest, PidStatusNeverInteracted) {
  const Pid app = user_proc();
  auto status =
      k_.sys_proc_read(1, "/proc/" + std::to_string(app) + "/status");
  ASSERT_TRUE(status.is_ok());
  EXPECT_NE(status.value().find("OverhaulInteractionAge:\t-1.000"),
            std::string::npos);
}

TEST_F(ProcFsTest, PidMemRequiresPtraceAttach) {
  const Pid tracer = user_proc("dbg");
  const Pid target = k_.sys_spawn(tracer, "/usr/bin/victim", "victim").value();
  const std::string node = "/proc/" + std::to_string(target) + "/mem";
  EXPECT_EQ(k_.sys_proc_read(tracer, node).code(), Code::kPermissionDenied);
  ASSERT_TRUE(k_.sys_ptrace_attach(tracer, target).is_ok());
  EXPECT_TRUE(k_.sys_proc_read(tracer, node).is_ok());
}

TEST_F(ProcFsTest, UnknownNodesAndPids) {
  EXPECT_EQ(k_.sys_proc_read(1, "/proc/sys/overhaul/nope").code(),
            Code::kNotFound);
  EXPECT_EQ(k_.sys_proc_read(1, "/proc/99999/status").code(), Code::kNotFound);
  EXPECT_EQ(k_.sys_proc_read(1, "/proc/abc/status").code(), Code::kNotFound);
  EXPECT_EQ(k_.sys_proc_write(1, "/proc/sys/overhaul/nope", "1").code(),
            Code::kNotFound);
}

TEST_F(ProcFsTest, FdNodeListsDescriptors) {
  const Pid app = user_proc("app");
  auto pipe_fds = k_.sys_pipe(app).value();
  auto file_fd = k_.sys_open(app, "/tmp/log", OpenFlags::kCreate).value();
  auto listing =
      k_.sys_proc_read(1, "/proc/" + std::to_string(app) + "/fd");
  ASSERT_TRUE(listing.is_ok());
  EXPECT_NE(listing.value().find(std::to_string(pipe_fds.first) + " -> pipe:r"),
            std::string::npos);
  EXPECT_NE(listing.value().find(std::to_string(pipe_fds.second) + " -> pipe:w"),
            std::string::npos);
  EXPECT_NE(listing.value().find(std::to_string(file_fd) + " -> file:/tmp/log"),
            std::string::npos);
}

TEST_F(ProcFsTest, FdNodeListsDescriptorsInFdOrder) {
  const Pid app = user_proc("app");
  const auto [rfd, wfd] = k_.sys_pipe(app).value();
  TaskStruct& task = *k_.processes().lookup(app);
  // Handed over out of order, above the fds the task numbered itself.
  task.fds.insert(100, task.fds.at(rfd));
  task.fds.insert(50, task.fds.at(wfd));
  auto listing =
      k_.sys_proc_read(1, "/proc/" + std::to_string(app) + "/fd");
  ASSERT_TRUE(listing.is_ok());
  EXPECT_EQ(listing.value(), std::to_string(rfd) + " -> pipe:r\n" +
                                std::to_string(wfd) +
                                " -> pipe:w\n50 -> pipe:w\n100 -> pipe:r\n");
}

TEST_F(ProcFsTest, CommAndExeNodes) {
  const Pid app = user_proc("gedit");
  EXPECT_EQ(k_.sys_proc_read(1, "/proc/" + std::to_string(app) + "/comm")
                .value(),
            "gedit\n");
  EXPECT_EQ(
      k_.sys_proc_read(1, "/proc/" + std::to_string(app) + "/exe").value(),
      "/usr/bin/gedit");
}

}  // namespace
}  // namespace overhaul::kern
