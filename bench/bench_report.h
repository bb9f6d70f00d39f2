// BENCH_*.json writer: every bench harness dumps its headline numbers (and,
// where a live system is at hand, an obs metrics snapshot) next to its text
// output, so a run's numbers and gate verdicts can be read by a program.
//
// The report is one flat JSON object built key-by-key in insertion order.
// Values are either scalars (escaped here) or pre-rendered JSON fragments
// (obs::MetricsRegistry::to_json(), nested row arrays built by the bench).
// check.sh --metrics validates emitted files with the strict parser in
// src/obs/json.h, so keep emission boring.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace overhaul::bench {

// Speedup gates enforce their floor only in an optimized, unsanitized build:
// debug and sanitizer timings measure the instrumentation.
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
inline constexpr bool kOptimizedBuild = true;
#else
inline constexpr bool kOptimizedBuild = false;
#endif

// The statistic the speedup gates take over interleaved repetitions: the
// median ratio, with the extremes for the report.
struct RatioSpread {
  double median = 0;
  double min = 0;
  double max = 0;
};

// `ratios` must not be empty.
inline RatioSpread ratio_spread(std::vector<double> ratios) {
  std::sort(ratios.begin(), ratios.end());
  return {ratios[ratios.size() / 2], ratios.front(), ratios.back()};
}

class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) {
    add("bench", bench_name);
  }

  void add(const std::string& key, const std::string& value) {
    add_raw(key, obs::json::quote(value));
  }
  void add(const std::string& key, const char* value) {
    add_raw(key, obs::json::quote(value));
  }
  void add(const std::string& key, double value) {
    add_raw(key, number(value));
  }
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T>>>
  void add(const std::string& key, T value) {
    add_raw(key, std::to_string(value));
  }

  // `json` must already be a valid JSON value (object, array, or scalar).
  void add_raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
  }

  [[nodiscard]] std::string to_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += obs::json::quote(fields_[i].first) + ":" + fields_[i].second;
    }
    out += "}";
    return out;
  }

  // Writes the report and reports the path on stdout, matching the text
  // output the benches already print. Returns false on I/O failure.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench report: cannot open %s\n", path.c_str());
      return false;
    }
    const std::string body = to_json();
    const bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
        std::fputc('\n', f) != EOF;
    std::fclose(f);
    if (ok) std::printf("\nwrote %s\n", path.c_str());
    return ok;
  }

  // JSON has no inf/nan; unmeasured slots render as 0.
  static std::string number(double value) {
    if (!std::isfinite(value)) return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return buf;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace overhaul::bench
