// task_stream: one runtime, no agent or daemon. The generator thread submits
// seeded bursts of tiny tasks and waits for each with wait_idle(); half the
// bursts it spawns every task itself (external injection), the other half a
// root task fans the burst out from a worker (worker-side spawns). This is
// the injection / wake / steal / idle-park path, and nothing else.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "common/rng.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kMaxBurst = 4096;
constexpr int kSetups = 101;

struct Phase {
  std::vector<std::uint64_t> latency_ns;  // first spawn -> wait_idle returned
  std::uint64_t tasks = 0;
  std::uint64_t busy_ns = 0;  // sum of burst latencies
};

class Stream {
 public:
  Stream(ns::rt::Runtime& runtime, Layers& layers, std::uint64_t seed, Result& result)
      : runtime_(runtime), layers_(layers), rng_(seed), result_(result), hits_(kMaxBurst) {}

  /// Runs bursts until `seconds` of wall time have passed.
  Phase run(double seconds) {
    Phase phase;
    phase.latency_ns.reserve(kReservedSamples);
    const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    while (now_ns() < end) burst(phase);
    return phase;
  }

 private:
  void spawn_one(ns::rt::Runtime& runtime, std::uint32_t index) {
    std::atomic<std::uint32_t>* hit = &hits_[index];
    const std::uint64_t start = layers_.clock();
    runtime.spawn([hit](ns::rt::TaskContext&) { hit->fetch_add(1, std::memory_order_relaxed); });
    if (layers_.on) layers_.spawn.record(now_ns() - start);
  }

  void burst(Phase& phase) {
    // Sizes are log-uniform over [1, 4096]; the mode alternates.
    const auto size = static_cast<std::uint32_t>(
        std::clamp(std::exp2(rng_.uniform() * 12.0), 1.0, double{kMaxBurst}));
    const bool fan_out = (seq_ & 1) != 0;
    for (std::uint32_t i = 0; i < size; ++i) hits_[i].store(0, std::memory_order_relaxed);
    const std::uint64_t executed_before = runtime_.stats().tasks_executed;

    layers_.mark_seq(seq_);
    const std::uint64_t start = now_ns();
    if (fan_out) {
      runtime_.spawn([this, size](ns::rt::TaskContext& ctx) {
        for (std::uint32_t i = 0; i < size; ++i) spawn_one(ctx.runtime, i);
      });
    } else {
      for (std::uint32_t i = 0; i < size; ++i) spawn_one(runtime_, i);
    }
    const std::uint64_t waiting = layers_.clock();
    runtime_.wait_idle();
    const std::uint64_t end = now_ns();
    if (layers_.on) {
      layers_.wait_idle.record(end - waiting);
      layers_.span(fan_out ? "runtime.spawn_root" : "runtime.spawn", start, waiting);
      layers_.span("runtime.wait_idle", waiting, end);
      layers_.span("burst", start, end);
    }
    phase.latency_ns.push_back(end - start);
    phase.busy_ns += end - start;
    phase.tasks += size;

    // Each task ran exactly once, and the runtime counted every task.
    ++result_.attempted;
    const std::uint32_t expected = size + (fan_out ? 1 : 0);
    const std::uint64_t executed = runtime_.stats().tasks_executed - executed_before;
    std::uint32_t wrong = 0;
    for (std::uint32_t i = 0; i < size; ++i) {
      wrong += hits_[i].load(std::memory_order_relaxed) != 1 ? 1 : 0;
    }
    if (wrong != 0 || executed != expected) {
      result_.fail("burst " + std::to_string(seq_) + ": " + std::to_string(wrong) +
                   " tasks lost or duplicated, runtime counted " + std::to_string(executed) +
                   " of " + std::to_string(expected));
    }
    ++seq_;
  }

  ns::rt::Runtime& runtime_;
  Layers& layers_;
  ns::Xoshiro256 rng_;
  Result& result_;
  std::vector<std::atomic<std::uint32_t>> hits_;
  std::uint64_t seq_ = 0;
};

}  // namespace

void run_task_stream(const Args& args, Layers& layers, Result& result) {
  const auto machine = ns::topo::Machine::symmetric(2, 2, 10.0, 20.0, 5.0, "stream-2x2");
  ns::rt::RuntimeOptions options;
  options.name = "task_stream";

  // Set-up: construct the runtime and complete its first task.
  std::vector<double> setups;
  std::unique_ptr<ns::rt::Runtime> runtime;
  for (int k = 0; k < kSetups; ++k) {
    runtime.reset();
    const std::uint64_t start = now_ns();
    runtime = std::make_unique<ns::rt::Runtime>(machine, options);
    runtime->spawn([](ns::rt::TaskContext&) {});
    runtime->wait_idle();
    setups.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  result.set("setup_s", median(setups), "s", setups.size());
  const CpuKeepers keepers;

  Stream stream(*runtime, layers, args.seed, result);
  if (!args.trace) {
    const Phase phase = stream.run(args.seconds);
    const auto n = phase.latency_ns.size();
    result.set("op_p50_us", exact_percentile(phase.latency_ns, 50) * 1e-3, "us", n);
    result.set("ops_per_s",
               static_cast<double>(phase.tasks) / (static_cast<double>(phase.busy_ns) * 1e-9),
               "1/s", phase.tasks);
    result.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
    return;
  }

  // Traced run: an untraced half, then a traced half; per-layer numbers come
  // from the traced half, and the two halves give the tracing overhead.
  const Phase plain = stream.run(args.seconds / 2);
  RuntimeTotals before;
  before.add(*runtime);
  layers.on = true;
  const Phase traced = stream.run(args.seconds / 2);
  layers.on = false;
  RuntimeTotals after;
  after.add(*runtime);

  report_runtime_layers(after.since(before), 0, result);
  const auto ns_to_us = 1e-3;
  result.set("runtime.spawn_ns_p50", hist_percentile(layers.spawn, 50), "ns",
             layers.spawn.count());
  result.set("runtime.spawn_ns_p99", hist_percentile(layers.spawn, 99), "ns",
             layers.spawn.count());
  result.set("runtime.wait_idle_us_p50", hist_percentile(layers.wait_idle, 50) * ns_to_us, "us",
             layers.wait_idle.count());
  result.set("runtime.wait_idle_us_p99", hist_percentile(layers.wait_idle, 99) * ns_to_us, "us",
             layers.wait_idle.count());
  const double plain_per_task =
      static_cast<double>(plain.busy_ns) / static_cast<double>(std::max<std::uint64_t>(plain.tasks, 1));
  const double traced_per_task = static_cast<double>(traced.busy_ns) /
                                 static_cast<double>(std::max<std::uint64_t>(traced.tasks, 1));
  // The tail is steady on task_stream and arbiter_scale but not on
  // realloc_churn, where it follows the host's wake-up latency for idle
  // vCPUs; so it is reported here, from the untraced half, without a bound.
  result.set("e2e.op_p99_us", exact_percentile(plain.latency_ns, 99) * 1e-3, "us",
             plain.latency_ns.size());
  result.set("trace.overhead_frac", traced_per_task / plain_per_task - 1.0, "ratio",
             traced.latency_ns.size());
}

}  // namespace perfbench
