// OverhaulConfig: one knob surface for the whole system.
//
// Collects every paper-relevant parameter in one place so benchmarks and
// ablations sweep a single struct:
//   δ (interaction threshold)       — §IV-B, default 2 s
//   shm re-arm wait                 — §IV-B, default 500 ms
//   clickjacking visibility window  — §IV-A, "predefined time threshold"
//   ptrace hardening                — §IV-B, default on
// `baseline()` disables every Overhaul mechanism, yielding the unmodified
// kernel + X server that Table I compares against.
#pragma once

#include <string>

#include "core/display_backend.h"
#include "kern/kernel.h"

namespace overhaul::core {

struct OverhaulConfig {
  bool enabled = true;

  // Which display server implementation core::OverhaulSystem boots behind
  // the core::DisplayBackend seam. Both enforce the same mediation model;
  // the cross-backend differential tests assert identical decision streams.
  DisplayBackendKind display_backend = DisplayBackendKind::kX11;

  sim::Duration delta = sim::Duration::seconds(2);
  sim::Duration shm_rearm_wait = sim::Duration::millis(500);
  sim::Duration visibility_threshold = sim::Duration::millis(500);
  bool ptrace_protect = true;
  bool audit = true;

  // Span/instant tracing (src/obs/). Metrics counters are always on — they
  // are single relaxed atomic adds — but span construction allocates strings,
  // so benchmarks turn tracing off the same way they turn the audit log off.
  bool trace = true;
  kern::MonitorMode monitor_mode = kern::MonitorMode::kEnforce;

  // Netlink interaction coalescing (DESIGN.md §10): collapse same-pid
  // notification bursts into one kernel crossing, flushed on pid change,
  // permission query, or after coalesce_skew of virtual time. Decision
  // streams are identical either way (property-tested), so this is purely a
  // throughput knob.
  bool netlink_coalesce = true;
  sim::Duration coalesce_skew = sim::Duration::millis(10);

  // Optional explicit-prompt mode (§IV-A): would-be denials raise an
  // unforgeable prompt instead of being silently blocked. Off by default —
  // the paper ships the capability but argues the transparent model is the
  // better trade-off (§VI).
  bool prompt_mode = false;

  // Grant policy: the paper's input-driven rule, or the ACG comparison
  // baseline (white-box, per-op gadgets, requires app modification).
  kern::GrantPolicy grant_policy = kern::GrantPolicy::kInputDriven;

  // The user's visual shared secret for alert authenticity (Fig. 5 uses a
  // cat photo; we use a string token).
  std::string shared_secret = "visual-secret:tabby-cat";
  sim::Duration alert_duration = sim::Duration::seconds(4);

  int screen_width = 1024;
  int screen_height = 768;

  // Prepended to every metric this system's kernel registers — the fleet
  // harness boots shard k with "fleet.shard<k>." so shard registries roll
  // up without name collisions. Empty (no prefix) for single-seat boots.
  std::string metrics_prefix;

  // The unmodified system: no mediation, no propagation, no alerts.
  [[nodiscard]] static OverhaulConfig baseline() {
    OverhaulConfig cfg;
    cfg.enabled = false;
    return cfg;
  }

  // The paper's Table-I measurement configuration: full Overhaul code paths,
  // decisions forced to grant so benchmarks run without scripted users.
  [[nodiscard]] static OverhaulConfig grant_always() {
    OverhaulConfig cfg;
    cfg.monitor_mode = kern::MonitorMode::kGrantAlways;
    return cfg;
  }

  [[nodiscard]] kern::KernelConfig kernel_config() const {
    kern::KernelConfig kc;
    kc.overhaul_enabled = enabled;
    kc.grant_policy = grant_policy;
    kc.delta = delta;
    kc.shm_rearm_wait = shm_rearm_wait;
    kc.ptrace_protect = ptrace_protect;
    kc.audit = audit;
    kc.monitor_mode = monitor_mode;
    kc.netlink_coalesce = netlink_coalesce;
    kc.netlink_coalesce_skew = coalesce_skew;
    kc.metrics_prefix = metrics_prefix;
    return kc;
  }

  // What either display server boots with.
  [[nodiscard]] DisplayConfig display_config() const {
    DisplayConfig dc;
    dc.overhaul_enabled = enabled;
    dc.visibility_threshold = visibility_threshold;
    dc.screen_width = screen_width;
    dc.screen_height = screen_height;
    return dc;
  }
};

}  // namespace overhaul::core
