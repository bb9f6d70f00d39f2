#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json.h"

namespace perfbench {

using overhaul::util::Code;
using overhaul::util::Status;

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

// --- Oracle -------------------------------------------------------------------

Timestamp& Oracle::slot(Pid pid) {
  for (auto& [p, t] : ts_)
    if (p == pid) return t;
  return ts_.emplace_back(pid, Timestamp::never()).second;
}

void Oracle::forget(Pid pid) {
  for (auto& entry : ts_) {
    if (entry.first == pid) {
      entry = ts_.back();
      ts_.pop_back();
      return;
    }
  }
}

void Oracle::adopt(Pid pid, Timestamp t) {
  Timestamp& cur = slot(pid);
  if (t > cur) cur = t;
}

Timestamp Oracle::ts(Pid pid) const {
  for (const auto& [p, t] : ts_)
    if (p == pid) return t;
  return Timestamp::never();
}

void Oracle::send(std::uintptr_t channel, Pid sender) {
  const Timestamp t = ts(sender);
  for (auto& [key, stamp] : channels_) {
    if (key == channel) {
      if (t > stamp) stamp = t;
      return;
    }
  }
  channels_.emplace_back(channel, t);
}

void Oracle::recv(std::uintptr_t channel, Pid receiver) {
  for (const auto& [key, stamp] : channels_) {
    if (key == channel) {
      adopt(receiver, stamp);
      return;
    }
  }
}

void Oracle::close(std::uintptr_t channel) {
  for (auto& entry : channels_) {
    if (entry.first == channel) {
      entry = channels_.back();
      channels_.pop_back();
      return;
    }
  }
}

bool Oracle::expect_grant(Pid pid, Timestamp now) const {
  if (!mediated_) return true;
  const Timestamp t = ts(pid);
  if (t.is_never()) return false;
  const overhaul::sim::Duration age = now - t;
  return age.ns >= 0 && age < delta_;
}

void Oracle::note(const std::string& what) {
  if (notes_.size() < 8) notes_.push_back(what);
}

bool Oracle::judge(bool expect_grant, const Status& s, Code deny_code) {
  ++attempted_;
  if (corrupt_next_) {
    expect_grant = !expect_grant;
    corrupt_next_ = false;
  }
  const bool granted = s.is_ok();
  const bool denied = !granted && s.code() == deny_code;
  if ((expect_grant && !granted) || (!expect_grant && !denied)) {
    ++failed_;
    note(std::string("expected ") + (expect_grant ? "grant" : "deny") +
         ", got " + s.to_string());
  }
  return granted;
}

bool Oracle::ok(const Status& s) {
  ++attempted_;
  if (!s.is_ok()) {
    ++failed_;
    note("unexpected status " + s.to_string());
  }
  return s.is_ok();
}

// --- Report -------------------------------------------------------------------

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

double Report::get(const std::string& name) const {
  for (const Metric& m : metrics)
    if (m.name == name) return m.value;
  return 0;
}

void Report::require(bool good, const std::string& what) {
  if (good) return;
  correct = false;
  std::fprintf(stderr, "perfbench: consistency check failed: %s\n",
               what.c_str());
}

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char num[64];
    // Non-finite values cannot be written as JSON numbers; they only arise
    // from a division by an empty count, which reads as 0.
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += overhaul::obs::json::quote(m.name) + ": {\"value\": " + num +
           ", \"unit\": " + overhaul::obs::json::quote(m.unit) + "}";
  }
  out += "}}";
  return out;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench
