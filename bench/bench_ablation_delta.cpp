// Ablation: the interaction-expiration threshold δ.
//
// §IV-B: "We empirically determined that setting a threshold of less than 1
// second could lead to falsely revoked permissions, but 2 seconds is
// sufficient to prevent incorrectly denying access to legitimate
// processes." This bench sweeps δ against a modelled human/application
// latency distribution and reports the false-deny rate per δ — the curve
// should fall to ~zero at 2 s.
//
// Latency model (click → device open), a mixture motivated by the paper's
// application pool:
//   70%  in-app handler latency        exponential(mean 120 ms)
//   20%  launcher → fork/exec → open   normal(700 ms, 250 ms), clipped ≥ 0
//   10%  heavyweight app spin-up       normal(1.3 s, 300 ms), clipped ≥ 0
#include <cstdio>
#include <vector>

#include "apps/user_model.h"
#include "bench_report.h"
#include "core/system.h"
#include "util/ascii_chart.h"
#include "util/histogram.h"
#include "util/rng.h"

using namespace overhaul;

namespace {

constexpr int kTrialsPerDelta = 5'000;

// Latency model shared with the usability/longterm harnesses.
const apps::ThinkTimeModel& think_time() {
  static const apps::ThinkTimeModel model;
  return model;
}

}  // namespace

int main() {
  std::printf("Ablation: temporal-proximity threshold δ vs false denials\n");
  std::printf("(%d user-driven device accesses per setting; latency model in "
              "source)\n\n",
              kTrialsPerDelta);

  // Characterize the latency model itself so the curve is auditable.
  {
    util::Histogram dist(0.0, 3.0, 30);
    util::Rng rng(777);
    for (int i = 0; i < 100000; ++i) {
      dist.add(think_time().sample(rng).to_seconds());
    }
    std::printf("click → device-open latency model (seconds, 100k samples):\n");
    std::printf("  mean %.3f   p50 %.3f   p90 %.3f   p99 %.3f   max %.3f\n\n",
                dist.mean(), dist.percentile(50), dist.percentile(90),
                dist.percentile(99), dist.max());
  }
  std::printf("%10s %14s %16s\n", "δ", "false denies", "false-deny rate");

  const std::vector<double> deltas_s = {0.25, 0.5, 1.0, 2.0, 4.0};
  double rate_at_2s = 1.0;
  util::ChartSeries curve{"false-deny rate (%)", {}, {}};
  for (const double delta_s : deltas_s) {
    core::OverhaulConfig cfg;
    cfg.delta = sim::Duration::seconds_f(delta_s);
    cfg.audit = false;
    cfg.trace = false;
    core::OverhaulSystem sys(cfg);
    auto app = sys.launch_gui_app("/usr/bin/app", "app").value();
    const auto& r = sys.xserver().surface(app.window)->rect();
    util::Rng rng(1234);

    int false_denies = 0;
    for (int i = 0; i < kTrialsPerDelta; ++i) {
      sys.input().click(r.x + 1, r.y + 1);
      sys.advance(think_time().sample(rng));
      auto fd = sys.kernel().sys_open(app.pid,
                                      core::OverhaulSystem::mic_path(),
                                      kern::OpenFlags::kRead);
      if (fd.is_ok()) {
        (void)sys.kernel().sys_close(app.pid, fd.value());
      } else {
        ++false_denies;
      }
      sys.advance(sim::Duration::seconds(5));  // decorrelate trials
    }
    const double rate = static_cast<double>(false_denies) / kTrialsPerDelta;
    if (delta_s == 2.0) rate_at_2s = rate;
    curve.x.push_back(delta_s);
    curve.y.push_back(rate * 100.0);
    std::printf("%8.2fs %14d %15.2f%%\n", delta_s, false_denies,
                rate * 100.0);
  }

  util::AsciiChart chart(56, 12);
  chart.set_title("\nfalse-deny rate vs δ (knee at the paper's 2 s):");
  chart.set_y_label("false-deny %, x: δ seconds");
  std::string rows;
  for (std::size_t i = 0; i < curve.x.size(); ++i) {
    if (!rows.empty()) rows += ",";
    rows += "{\"delta_s\":" + bench::JsonReport::number(curve.x[i]) +
            ",\"false_deny_pct\":" + bench::JsonReport::number(curve.y[i]) +
            "}";
  }
  chart.add_series(std::move(curve));
  std::printf("%s", chart.render().c_str());

  bench::JsonReport report("ablation_delta");
  report.add("trials_per_delta", kTrialsPerDelta);
  report.add_raw("rows", "[" + rows + "]");
  (void)report.write("BENCH_ablation_delta.json");

  std::printf("\nPaper's observation: δ < 1 s falsely revokes; δ = 2 s is "
              "sufficient. Expected shape: rate ≈ 0 at 2 s.\n");
  return rate_at_2s < 0.005 ? 0 : 1;
}
