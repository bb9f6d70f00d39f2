#include "util/audit_report.h"

#include <gtest/gtest.h>

namespace overhaul::util {
namespace {

AuditRecord rec(const std::string& comm, Op op, Decision d) {
  AuditRecord r;
  r.comm = comm;
  r.op = op;
  r.decision = d;
  r.pid = 1;
  return r;
}

class AuditReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The §V-D shape: two video-conf apps use mic+cam, one screenshot tool
    // captures the screen, many apps touch the clipboard, spyware denied.
    for (const char* vc : {"skype", "jitsi"}) {
      records_.push_back(rec(vc, Op::kMicrophone, Decision::kGrant));
      records_.push_back(rec(vc, Op::kCamera, Decision::kGrant));
    }
    records_.push_back(
        rec("gnome-screenshot", Op::kScreenCapture, Decision::kGrant));
    for (const char* app : {"gedit", "firefox", "keepass"}) {
      records_.push_back(rec(app, Op::kCopy, Decision::kGrant));
      records_.push_back(rec(app, Op::kPaste, Decision::kGrant));
    }
    for (int i = 0; i < 5; ++i) {
      records_.push_back(rec("spyd", Op::kMicrophone, Decision::kDeny));
      records_.push_back(rec("spyd", Op::kScreenCapture, Decision::kDeny));
    }
  }
  std::vector<AuditRecord> records_;
};

TEST_F(AuditReportTest, AppsGrantedPerResource) {
  const AuditReport report = build_report(records_);
  EXPECT_EQ(report.apps_granted(Op::kCamera),
            (std::vector<std::string>{"jitsi", "skype"}));
  EXPECT_EQ(report.apps_granted(Op::kScreenCapture),
            (std::vector<std::string>{"gnome-screenshot"}));
  EXPECT_EQ(report.apps_granted(Op::kCopy).size(), 3u);
  EXPECT_TRUE(report.apps_granted(Op::kDeviceOther).empty());
}

TEST_F(AuditReportTest, AppsDeniedPerResource) {
  const AuditReport report = build_report(records_);
  EXPECT_EQ(report.apps_denied(Op::kMicrophone),
            (std::vector<std::string>{"spyd"}));
  EXPECT_TRUE(report.apps_denied(Op::kCamera).empty());
}

TEST_F(AuditReportTest, PerAppCounts) {
  const AuditReport report = build_report(records_);
  const AppUsage* spy = report.find("spyd");
  ASSERT_NE(spy, nullptr);
  EXPECT_EQ(spy->total_grants(), 0u);
  EXPECT_EQ(spy->total_denials(), 10u);
  EXPECT_EQ(spy->denials.at(Op::kMicrophone), 5u);

  const AppUsage* skype = report.find("skype");
  ASSERT_NE(skype, nullptr);
  EXPECT_EQ(skype->total_grants(), 2u);
  EXPECT_EQ(skype->total_denials(), 0u);
}

TEST_F(AuditReportTest, FindMissingReturnsNull) {
  const AuditReport report = build_report(records_);
  EXPECT_EQ(report.find("nonexistent"), nullptr);
}

TEST_F(AuditReportTest, EmptyLogEmptyReport) {
  const AuditReport report = build_report({});
  EXPECT_TRUE(report.apps.empty());
  EXPECT_TRUE(report.apps_granted(Op::kCamera).empty());
}

TEST_F(AuditReportTest, ToStringListsEveryAppOpPair) {
  const AuditReport report = build_report(records_);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("skype"), std::string::npos);
  EXPECT_NE(text.find("spyd"), std::string::npos);
  EXPECT_NE(text.find("mic"), std::string::npos);
  // spyd's denial count appears.
  EXPECT_NE(text.find("     5"), std::string::npos);
}

TEST_F(AuditReportTest, AppsSortedByName) {
  const AuditReport report = build_report(records_);
  for (std::size_t i = 1; i < report.apps.size(); ++i) {
    EXPECT_LT(report.apps[i - 1].comm, report.apps[i].comm);
  }
}

}  // namespace
}  // namespace overhaul::util
