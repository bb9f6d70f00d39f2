// In-memory span tracer for the traced run.
//
// Spans are recorded only from the benchmark's own files, around its calls
// into each layer's public functions; nothing under src/ is instrumented.
// Every span carries its parent's id, one root span covers one episode, job
// or fleet quantum, and all spans stay in memory until the run ends, when
// they are aggregated into per-layer self time ("busy") and optionally
// written out as a Chrome trace.
//
// The tracer is single-threaded by design: the traced fleet run uses one
// lane. When no tracer is installed, a Span costs one branch.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  // Roots: one per episode, job or quantum. Their self time is the load
  // generator's own work (script, oracle).
  kDesktopEpisode,
  kCliJob,
  kFleetQuantum,
  // Layers, named after the modules the calls enter.
  kX11Input,
  kX11Selection,
  kX11Screen,
  kWlInput,
  kWlDataDevice,
  kWlScreencopy,
  kMonitor,
  kVfsOpen,
  kVfsCreate,
  kProcess,
  kPty,
  kIpc,
  kShm,
  kScheduler,
  kFleetStep,
  kFleetBeat,
  kFleetXshard,
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

const char* layer_name(Layer layer);
// Spans whose self time is the harness's own work rather than a layer's: the
// roots, and the fleet beat, whose glue around its layer calls is the
// script's bookkeeping and oracle.
[[nodiscard]] constexpr bool is_harness(Layer layer) noexcept {
  return layer == Layer::kDesktopEpisode || layer == Layer::kCliJob ||
         layer == Layer::kFleetQuantum || layer == Layer::kFleetBeat;
}

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  // Room for a typical traced run, so growth rarely lands inside a span.
  Tracer() { records_.reserve(std::size_t{1} << 22); }

  struct Record {
    std::uint32_t parent = kNoParent;
    Layer layer = Layer::kCount;
    // What the span's own bookkeeping cost its parent, measured in place:
    // from entering begin() to start_ns, and from end_ns to leaving end().
    std::int32_t cost_ns = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::uint32_t begin(Layer layer);
  void end(std::uint32_t id);

  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }

  // Measures the part of a span's cost that its own clock reads cannot see
  // (the calls into begin() and end() up to and after those reads), in a
  // tight loop. self_ms() deducts it per child along with the child's
  // measured cost_ns, so the tracer's own work is booked to no layer.
  void calibrate();
  [[nodiscard]] double residual_ns() const noexcept { return residual_ns_; }

  // Self time per layer in ms: each span's duration minus the part its
  // children cover and minus their cost.
  [[nodiscard]] std::array<double, kLayerCount> self_ms() const;
  // Total duration of root spans, in ms.
  [[nodiscard]] double root_ms() const;
  // The cost of every non-root span to its parent, in ms.
  [[nodiscard]] double overhead_ms() const;

  // Chrome trace-event JSON ("X" events, parent ids in args) of the first
  // `max_records` spans.
  bool write_chrome(const std::string& path, std::size_t max_records) const;

  // The installed tracer, or null when tracing is off.
  static Tracer* current() noexcept { return current_; }
  static void install(Tracer* t) noexcept { current_ = t; }

 private:
  static Tracer* current_;
  double residual_ns_ = 0;
  std::vector<Record> records_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::int64_t> entered_;  // begin() entry time, per open span
};

// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(Layer layer) : tracer_(Tracer::current()) {
    if (tracer_ != nullptr) id_ = tracer_->begin(layer);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_ = 0;
};

// Runs `call` inside a span of `layer` and returns its wall time in ns. The
// caller books the sample and judges the result after the span has ended,
// so the harness's own work stays out of the layer's busy time.
template <typename F>
double timed(Layer layer, F&& call) {
  Span s(layer);
  const std::int64_t t0 = wall_ns();
  call();
  return static_cast<double>(wall_ns() - t0);
}

}  // namespace perfbench
