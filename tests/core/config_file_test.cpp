#include "core/config_file.h"

#include <gtest/gtest.h>

#include "core/system.h"

namespace overhaul::core {
namespace {

using util::Code;

TEST(ConfigFile, EmptyTextYieldsDefaults) {
  auto cfg = parse_config("");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_TRUE(cfg.value().enabled);
  EXPECT_EQ(cfg.value().delta, sim::Duration::seconds(2));
}

TEST(ConfigFile, FullFileParses) {
  const char* text = R"(
# Overhaul policy
enabled = true
delta_ms = 1500        # tighter than default
shm_rearm_wait_ms = 250
visibility_threshold_ms = 750
ptrace_protect = false
audit = off
prompt_mode = on
grant_policy = acg
shared_secret = my-parrot
alert_duration_ms = 6000
screen = 1920x1080
)";
  auto cfg = parse_config(text);
  ASSERT_TRUE(cfg.is_ok()) << cfg.status().to_string();
  const OverhaulConfig& c = cfg.value();
  EXPECT_EQ(c.delta, sim::Duration::millis(1500));
  EXPECT_EQ(c.shm_rearm_wait, sim::Duration::millis(250));
  EXPECT_EQ(c.visibility_threshold, sim::Duration::millis(750));
  EXPECT_FALSE(c.ptrace_protect);
  EXPECT_FALSE(c.audit);
  EXPECT_TRUE(c.prompt_mode);
  EXPECT_EQ(c.grant_policy, kern::GrantPolicy::kAcg);
  EXPECT_EQ(c.shared_secret, "my-parrot");
  EXPECT_EQ(c.alert_duration, sim::Duration::millis(6000));
  EXPECT_EQ(c.screen_width, 1920);
  EXPECT_EQ(c.screen_height, 1080);
}

TEST(ConfigFile, UnknownKeyIsAnError) {
  // A typo must not be ignored, nor a fleet key: a single system has no
  // fleet to size.
  for (const char* line : {"dleta_ms = 2000\n", "fleet_threads = 4\n"}) {
    auto cfg = parse_config(line);
    ASSERT_FALSE(cfg.is_ok()) << line;
    EXPECT_EQ(cfg.code(), Code::kInvalidArgument);
    EXPECT_NE(cfg.status().message().find("line 1"), std::string::npos);
    EXPECT_NE(cfg.status().message().find("unknown key"), std::string::npos);
  }
}

TEST(ConfigFile, MalformedValuesRejectedWithLineNumbers) {
  EXPECT_FALSE(parse_config("enabled = maybe\n").is_ok());
  EXPECT_FALSE(parse_config("delta_ms = fast\n").is_ok());
  EXPECT_FALSE(parse_config("delta_ms = -5\n").is_ok());
  EXPECT_FALSE(parse_config("delta_ms = 0\n").is_ok());
  EXPECT_FALSE(parse_config("screen = huge\n").is_ok());
  EXPECT_FALSE(parse_config("grant_policy = maybe\n").is_ok());
  EXPECT_FALSE(parse_config("shared_secret =\n").is_ok());
  EXPECT_FALSE(parse_config("justakey\n").is_ok());
  auto third_line = parse_config("enabled = true\naudit = on\nbogus = 1\n");
  ASSERT_FALSE(third_line.is_ok());
  EXPECT_NE(third_line.status().message().find("line 3"), std::string::npos);
}

// A duration whose nanoseconds overflow int64 fails closed instead of
// wrapping: 18446747074158 ms once parsed as a δ of about 3000 s, and
// 18446744073710 ms as a 0.45 ms re-arm wait.
TEST(ConfigFile, DurationsPastTheNanosecondRangeRejected) {
  for (const char* line : {"delta_ms = 18446747074158\n",
                           "shm_rearm_wait_ms = 18446744073710\n",
                           "delta_ms = 9223372036855\n",
                           "visibility_threshold_ms = 9223372036855\n",
                           "alert_duration_ms = 9223372036855\n"}) {
    auto cfg = parse_config(line);
    ASSERT_FALSE(cfg.is_ok()) << line;
    EXPECT_EQ(cfg.code(), Code::kInvalidArgument);
    EXPECT_NE(cfg.status().message().find("longest duration"),
              std::string::npos)
        << cfg.status().message();
  }
  // The largest representable value is still accepted.
  auto max = parse_config("alert_duration_ms = 9223372036854\n");
  ASSERT_TRUE(max.is_ok()) << max.status().message();
  EXPECT_EQ(max.value().alert_duration, sim::Duration::millis(9223372036854));
}

TEST(ConfigFile, CrossFieldValidationWaitVsDelta) {
  // §IV-B: the wait must be sufficiently shorter than δ.
  auto cfg = parse_config("delta_ms = 400\nshm_rearm_wait_ms = 500\n");
  ASSERT_FALSE(cfg.is_ok());
  EXPECT_NE(cfg.status().message().find("shorter than"), std::string::npos);
}

TEST(ConfigFile, CommentsAndWhitespaceTolerated) {
  auto cfg = parse_config(
      "   \n#only a comment\n\n  enabled=false   # trailing\n\t\n");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_FALSE(cfg.value().enabled);
}

TEST(ConfigFile, RenderRoundTrips) {
  OverhaulConfig original;
  original.delta = sim::Duration::millis(1234);
  original.shm_rearm_wait = sim::Duration::millis(321);
  original.prompt_mode = true;
  original.grant_policy = kern::GrantPolicy::kAcg;
  original.shared_secret = "round-trip";
  original.screen_width = 800;
  original.screen_height = 600;

  auto parsed = parse_config(render_config(original));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const OverhaulConfig& c = parsed.value();
  EXPECT_EQ(c.delta, original.delta);
  EXPECT_EQ(c.shm_rearm_wait, original.shm_rearm_wait);
  EXPECT_EQ(c.prompt_mode, original.prompt_mode);
  EXPECT_EQ(c.grant_policy, original.grant_policy);
  EXPECT_EQ(c.shared_secret, original.shared_secret);
  EXPECT_EQ(c.screen_width, original.screen_width);
}

TEST(ConfigFile, ParsedConfigBootsASystem) {
  auto cfg = parse_config("delta_ms = 750\nvisibility_threshold_ms = 100\n");
  ASSERT_TRUE(cfg.is_ok());
  OverhaulSystem sys(cfg.value());
  EXPECT_EQ(sys.kernel().monitor().threshold(), sim::Duration::millis(750));
}

}  // namespace
}  // namespace overhaul::core
