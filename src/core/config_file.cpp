#include "core/config_file.h"

#include <charconv>
#include <cstdio>
#include <limits>
#include <sstream>

namespace overhaul::core {

using util::Code;
using util::Result;
using util::Status;

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

Result<bool> parse_bool(const std::string& v, int line_no) {
  if (v == "true" || v == "1" || v == "on") return true;
  if (v == "false" || v == "0" || v == "off") return false;
  return Status(Code::kInvalidArgument,
                "line " + std::to_string(line_no) + ": expected boolean, got '" +
                    v + "'");
}

// The longest duration sim::Duration can hold in nanoseconds.
constexpr std::int64_t kMaxMillis =
    std::numeric_limits<std::int64_t>::max() / 1'000'000;

Result<std::int64_t> parse_ms(const std::string& v, int line_no) {
  std::int64_t ms = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), ms);
  if (ec != std::errc{} || ptr != v.data() + v.size() || ms <= 0)
    return Status(Code::kInvalidArgument,
                  "line " + std::to_string(line_no) +
                      ": expected positive milliseconds, got '" + v + "'");
  // Larger values would overflow (and wrap) in the ms → ns conversion.
  if (ms > kMaxMillis)
    return Status(Code::kInvalidArgument,
                  "line " + std::to_string(line_no) + ": " + v +
                      " ms is longer than the longest duration (" +
                      std::to_string(kMaxMillis) + " ms)");
  return ms;
}

}  // namespace

Result<OverhaulConfig> parse_config(const std::string& text) {
  OverhaulConfig cfg;
  std::istringstream stream(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(stream, raw)) {
    ++line_no;
    // Strip comments, then whitespace.
    const auto hash = raw.find('#');
    std::string line = trim(hash == std::string::npos ? raw : raw.substr(0, hash));
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos)
      return Status(Code::kInvalidArgument,
                    "line " + std::to_string(line_no) + ": expected key = value");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));

    if (key == "enabled") {
      auto b = parse_bool(value, line_no);
      if (!b.is_ok()) return b.status();
      cfg.enabled = b.value();
    } else if (key == "display_backend") {
      if (value == "x11") {
        cfg.display_backend = DisplayBackendKind::kX11;
      } else if (value == "wayland") {
        cfg.display_backend = DisplayBackendKind::kWayland;
      } else {
        return Status(Code::kInvalidArgument,
                      "line " + std::to_string(line_no) +
                          ": display_backend must be x11 or wayland");
      }
    } else if (key == "delta_ms") {
      auto ms = parse_ms(value, line_no);
      if (!ms.is_ok()) return ms.status();
      cfg.delta = sim::Duration::millis(ms.value());
    } else if (key == "shm_rearm_wait_ms") {
      auto ms = parse_ms(value, line_no);
      if (!ms.is_ok()) return ms.status();
      cfg.shm_rearm_wait = sim::Duration::millis(ms.value());
    } else if (key == "visibility_threshold_ms") {
      auto ms = parse_ms(value, line_no);
      if (!ms.is_ok()) return ms.status();
      cfg.visibility_threshold = sim::Duration::millis(ms.value());
    } else if (key == "alert_duration_ms") {
      auto ms = parse_ms(value, line_no);
      if (!ms.is_ok()) return ms.status();
      cfg.alert_duration = sim::Duration::millis(ms.value());
    } else if (key == "ptrace_protect") {
      auto b = parse_bool(value, line_no);
      if (!b.is_ok()) return b.status();
      cfg.ptrace_protect = b.value();
    } else if (key == "audit") {
      auto b = parse_bool(value, line_no);
      if (!b.is_ok()) return b.status();
      cfg.audit = b.value();
    } else if (key == "prompt_mode") {
      auto b = parse_bool(value, line_no);
      if (!b.is_ok()) return b.status();
      cfg.prompt_mode = b.value();
    } else if (key == "grant_policy") {
      if (value == "input-driven") {
        cfg.grant_policy = kern::GrantPolicy::kInputDriven;
      } else if (value == "acg") {
        cfg.grant_policy = kern::GrantPolicy::kAcg;
      } else {
        return Status(Code::kInvalidArgument,
                      "line " + std::to_string(line_no) +
                          ": grant_policy must be input-driven or acg");
      }
    } else if (key == "shared_secret") {
      if (value.empty())
        return Status(Code::kInvalidArgument,
                      "line " + std::to_string(line_no) +
                          ": shared_secret must not be empty");
      cfg.shared_secret = value;
    } else if (key == "screen") {
      int w = 0, h = 0;
      if (std::sscanf(value.c_str(), "%dx%d", &w, &h) != 2 || w <= 0 || h <= 0)
        return Status(Code::kInvalidArgument,
                      "line " + std::to_string(line_no) +
                          ": expected WIDTHxHEIGHT, got '" + value + "'");
      cfg.screen_width = w;
      cfg.screen_height = h;
    } else {
      return Status(Code::kInvalidArgument,
                    "line " + std::to_string(line_no) + ": unknown key '" +
                        key + "'");
    }
  }

  // Cross-field validation: the paper's constraint that the shm wait must
  // be "sufficiently shorter" than δ.
  if (cfg.shm_rearm_wait.ns >= cfg.delta.ns)
    return Status(Code::kInvalidArgument,
                  "shm_rearm_wait_ms must be shorter than delta_ms "
                  "(the wait-list window would swallow the whole grant "
                  "window; see paper §IV-B)");
  return cfg;
}

std::string render_config(const OverhaulConfig& config) {
  std::ostringstream out;
  out << "enabled = " << (config.enabled ? "true" : "false") << "\n"
      << "display_backend = " << display_backend_name(config.display_backend)
      << "\n"
      << "delta_ms = " << config.delta.ns / 1'000'000 << "\n"
      << "shm_rearm_wait_ms = " << config.shm_rearm_wait.ns / 1'000'000 << "\n"
      << "visibility_threshold_ms = "
      << config.visibility_threshold.ns / 1'000'000 << "\n"
      << "alert_duration_ms = " << config.alert_duration.ns / 1'000'000 << "\n"
      << "ptrace_protect = " << (config.ptrace_protect ? "true" : "false")
      << "\n"
      << "audit = " << (config.audit ? "true" : "false") << "\n"
      << "prompt_mode = " << (config.prompt_mode ? "true" : "false") << "\n"
      << "grant_policy = "
      << (config.grant_policy == kern::GrantPolicy::kAcg ? "acg"
                                                         : "input-driven")
      << "\n"
      << "shared_secret = " << config.shared_secret << "\n"
      << "screen = " << config.screen_width << "x" << config.screen_height
      << "\n";
  return out.str();
}

}  // namespace overhaul::core
