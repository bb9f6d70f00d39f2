#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "common.h"

namespace perfbench {

Tracer* Tracer::current_ = nullptr;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kDesktopEpisode: return "desktop.episode";
    case Layer::kCliJob: return "cli.job";
    case Layer::kFleetQuantum: return "fleet.quantum";
    case Layer::kX11Input: return "x11.input";
    case Layer::kX11Selection: return "x11.selection";
    case Layer::kX11Screen: return "x11.screen";
    case Layer::kWlInput: return "wl.input";
    case Layer::kWlDataDevice: return "wl.data_device";
    case Layer::kWlScreencopy: return "wl.screencopy";
    case Layer::kMonitor: return "monitor";
    case Layer::kVfsOpen: return "vfs.open";
    case Layer::kVfsCreate: return "vfs.create";
    case Layer::kProcess: return "process";
    case Layer::kPty: return "pty";
    case Layer::kIpc: return "ipc";
    case Layer::kShm: return "shm";
    case Layer::kScheduler: return "sim.scheduler";
    case Layer::kFleetStep: return "fleet.step";
    case Layer::kFleetBeat: return "fleet.beat";
    case Layer::kFleetXshard: return "fleet.xshard";
    case Layer::kCount: break;
  }
  return "?";
}

std::uint32_t Tracer::begin(Layer layer) {
  const std::int64_t entered = wall_ns();
  const auto id = static_cast<std::uint32_t>(records_.size());
  Record r;
  r.parent = stack_.empty() ? kNoParent : stack_.back();
  r.layer = layer;
  records_.push_back(r);
  stack_.push_back(id);
  entered_.push_back(entered);
  // Read the clock last, so the bookkeeping above is not inside the span.
  records_.back().start_ns = wall_ns();
  return id;
}

void Tracer::end(std::uint32_t id) {
  const std::int64_t t = wall_ns();
  Record& r = records_[id];
  r.end_ns = t;
  const std::int64_t entered = entered_.back();
  stack_.pop_back();
  entered_.pop_back();
  r.cost_ns = static_cast<std::int32_t>((r.start_ns - entered) +
                                        (wall_ns() - t));
}

void Tracer::calibrate() {
  constexpr int kSpans = 100'000;
  Tracer probe;
  Tracer* const installed = current_;
  install(&probe);
  const std::int64_t t0 = wall_ns();
  for (int i = 0; i < kSpans; ++i) Span s(Layer::kX11Input);
  const std::int64_t total = wall_ns() - t0;
  install(installed);
  std::int64_t seen = 0;
  for (const Record& r : probe.records_)
    seen += (r.end_ns - r.start_ns) + r.cost_ns;
  residual_ns_ = std::max(0.0, static_cast<double>(total - seen) / kSpans);
}

std::array<double, kLayerCount> Tracer::self_ms() const {
  std::vector<double> child_ns(records_.size(), 0);
  for (const Record& r : records_)
    if (r.parent != kNoParent)
      child_ns[r.parent] += static_cast<double>(r.end_ns - r.start_ns) +
                            r.cost_ns + residual_ns_;
  std::array<double, kLayerCount> out{};
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out[static_cast<std::size_t>(r.layer)] +=
        (static_cast<double>(r.end_ns - r.start_ns) - child_ns[i]) / 1e6;
  }
  return out;
}

double Tracer::overhead_ms() const {
  double ns = 0;
  for (const Record& r : records_)
    if (r.parent != kNoParent) ns += r.cost_ns + residual_ns_;
  return ns / 1e6;
}

double Tracer::root_ms() const {
  double ms = 0;
  for (const Record& r : records_)
    if (r.parent == kNoParent)
      ms += static_cast<double>(r.end_ns - r.start_ns) / 1e6;
  return ms;
}

bool Tracer::write_chrome(const std::string& path,
                          std::size_t max_records) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", f);
  const std::size_t n = std::min(records_.size(), max_records);
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", layer_name(r.layer),
                 static_cast<double>(r.start_ns - t0) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3, i,
                 r.parent == kNoParent ? -1LL
                                       : static_cast<long long>(r.parent));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
