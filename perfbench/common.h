// Shared pieces of the benchmark harness: wall-clock helpers, per-op latency
// samples, the decision oracle, and the result report that becomes the
// single JSON line the benchmark prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kern/task.h"
#include "sim/clock.h"
#include "util/status.h"

namespace perfbench {

using overhaul::kern::Pid;
using overhaul::sim::Timestamp;

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Placeholder result of a call that has not run yet; the call overwrites it.
inline overhaul::util::Status not_run() {
  return {overhaul::util::Code::kNotSupported, "not run"};
}

// Latencies of one operation kind, in ns, as timed by the load generator.
class Samples {
 public:
  void add(double ns) {
    values_.push_back(ns);
    sorted_ = false;
  }
  void append(const Samples& other);
  [[nodiscard]] std::size_t n() const noexcept { return values_.size(); }
  // Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double p50() const { return quantile(0.50); }
  [[nodiscard]] double p99() const { return quantile(0.99); }
  void clear() { values_.clear(); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

// Shadow of the kernel's per-task interaction timestamps, kept from the
// script's own calls only: a hardware input delivered to a process, fork
// (P1), and message send/receive over IPC, pty and cross-shard links (P2).
// From it the script derives every mediated op's expected verdict and
// counts each mismatch or unexpected error status as a failed op.
class Oracle {
 public:
  // `mediated` false replays on the unmodified system: everything grants.
  explicit Oracle(bool mediated = true,
                  overhaul::sim::Duration delta =
                      overhaul::sim::Duration::seconds(2))
      : mediated_(mediated), delta_(delta) {}

  void input(Pid pid, Timestamp t) { adopt(pid, t); }
  void inherit(Pid parent, Pid child) { slot(child) = ts(parent); }
  void forget(Pid pid);
  // P2: a send folds the sender's timestamp into the channel, a receive
  // adopts the channel's. `channel` is any key unique to one direction.
  void send(std::uintptr_t channel, Pid sender);
  void recv(std::uintptr_t channel, Pid receiver);
  // The channel was destroyed.
  void close(std::uintptr_t channel);
  void adopt(Pid pid, Timestamp t);

  [[nodiscard]] Timestamp ts(Pid pid) const;
  [[nodiscard]] bool expect_grant(Pid pid, Timestamp now) const;

  // One mediated op: `s` is its status, `deny_code` the code a denial
  // surfaces as. Returns whether the op was granted.
  bool judge(bool expect_grant, const overhaul::util::Status& s,
             overhaul::util::Code deny_code);
  // One unmediated op that must simply succeed.
  bool ok(const overhaul::util::Status& s);
  // A correctness check on data the program returned.
  void check(bool good) {
    ++attempted_;
    if (!good) ++failed_;
  }

  // Self-test hook: the next judged op's expectation is inverted, so a
  // correct program must be counted as one failed op.
  void corrupt_next() { corrupt_next_ = true; }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] bool mediated() const noexcept { return mediated_; }
  // First few failures, for the log.
  [[nodiscard]] const std::vector<std::string>& notes() const noexcept {
    return notes_;
  }

 private:
  void note(const std::string& what);
  Timestamp& slot(Pid pid);

  bool mediated_;
  overhaul::sim::Duration delta_;
  // (pid, timestamp) of every live process the script has given one, and
  // (key, stamp) of every live channel. A run has a handful of each alive at
  // a time, so flat lists are quicker than hash maps and do not grow with
  // the number of pids or channels ever used.
  std::vector<std::pair<Pid, Timestamp>> ts_;
  std::vector<std::pair<std::uintptr_t, Timestamp>> channels_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool corrupt_next_ = false;
  std::vector<std::string> notes_;
};

// The result of one benchmark run: the metrics in the order they are added.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] double get(const std::string& name) const;
  // A consistency check: failing it marks the run incorrect.
  void require(bool good, const std::string& what);
  [[nodiscard]] std::string to_json() const;
};

// Peak resident set of this process so far, in MiB (getrusage).
double peak_rss_mib();

// Median of a small vector (copies).
double median(std::vector<double> v);

}  // namespace perfbench
