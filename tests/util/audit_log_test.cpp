#include "util/audit_log.h"

#include <gtest/gtest.h>

namespace overhaul::util {
namespace {

AuditRecord make(Op op, Decision d, int pid = 100) {
  AuditRecord r;
  r.time_ns = 1'500'000'000;
  r.pid = pid;
  r.comm = "testapp";
  r.op = op;
  r.decision = d;
  r.interaction_age_ns = 250'000'000;
  r.detail = "/dev/snd/mic0";
  return r;
}

TEST(AuditLog, FormatContainsKeyFields) {
  const std::string line =
      format_record(make(Op::kMicrophone, Decision::kDeny));
  EXPECT_NE(line.find("pid=100"), std::string::npos);
  EXPECT_NE(line.find("mic"), std::string::npos);
  EXPECT_NE(line.find("DENY"), std::string::npos);
  EXPECT_NE(line.find("/dev/snd/mic0"), std::string::npos);
}

TEST(AuditLog, FormatNeverInteracted) {
  AuditRecord r = make(Op::kCamera, Decision::kDeny);
  r.interaction_age_ns = -1;
  const std::string line = format_record(r);
  EXPECT_NE(line.find("age=-1.000"), std::string::npos);
}

TEST(OpNames, AllDistinct) {
  EXPECT_EQ(op_name(Op::kCopy), "copy");
  EXPECT_EQ(op_name(Op::kPaste), "paste");
  EXPECT_EQ(op_name(Op::kScreenCapture), "scr");
  EXPECT_EQ(op_name(Op::kMicrophone), "mic");
  EXPECT_EQ(op_name(Op::kCamera), "cam");
  EXPECT_EQ(op_name(Op::kDeviceOther), "dev");
}

}  // namespace
}  // namespace overhaul::util
