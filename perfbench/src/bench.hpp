// Shared plumbing of the end-to-end benchmark: run arguments, the result
// record, per-layer timing (histograms + trace spans taken from outside,
// around calls into the measured modules) and the two decorators the
// benchmark hands to the program so it can time policy decisions and the
// command channel without touching their code.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "agent/channel.hpp"
#include "agent/policy.hpp"
#include "core/optimizer.hpp"
#include "daemon/client.hpp"
#include "daemon/daemon.hpp"
#include "obs/histogram.hpp"
#include "runtime/runtime.hpp"
#include "trace/trace.hpp"

namespace perfbench {

namespace ns = numashare;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for the trace file.
  std::string out_dir = ".bench_out";
  /// Prefix of every shm name this run creates ("/nspb<pid>-").
  std::string shm_prefix;
};

inline std::uint64_t now_ns() { return ns::obs::now_ns(); }

/// Latency vectors reserve this many samples up front (untouched pages cost
/// no memory), so their growth never shows up in peak_rss_mb.
inline constexpr std::size_t kReservedSamples = std::size_t{1} << 22;

/// Exact order statistic of `samples` at percentile p, using the rank rule of
/// obs::HistogramSnapshot::percentile. End-to-end timings use this instead of
/// the histogram because a steady metric would otherwise read back the same
/// 3%-wide bucket bound on every run.
double exact_percentile(std::vector<std::uint64_t> samples, double p);

/// Percentile of an obs histogram, in nanoseconds (0 when empty).
double hist_percentile(const ns::obs::LatencyHistogram& hist, double p);

/// What `after` recorded beyond `before` (both snapshots of one histogram).
ns::obs::HistogramSnapshot snapshot_delta(const ns::obs::HistogramSnapshot& after,
                                          const ns::obs::HistogramSnapshot& before);

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the report
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const char* unit, std::uint64_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  void fail(const std::string& what);
};

/// Per-layer timings of the traced phase. Every record site checks `on`, so
/// the untraced (end-to-end) phase pays one branch per call site.
struct Layers {
  bool on = false;
  ns::trace::Tracer* tracer = nullptr;
  /// now_ns() at tracer construction: converts stamps to the tracer clock.
  std::uint64_t origin_ns = 0;

  ns::obs::LatencyHistogram spawn;      // Runtime::spawn
  ns::obs::LatencyHistogram wait_idle;  // Runtime::wait_idle
  ns::obs::LatencyHistogram settle;     // applying pump -> running_per_node matches
  ns::obs::LatencyHistogram pump;       // RuntimeAdapter::pump
  ns::obs::LatencyHistogram decide;     // Policy::decide that issued directives
  ns::obs::LatencyHistogram cmd_wait;   // Command::issued_ns -> popped by the app
  ns::obs::LatencyHistogram search;     // model::exhaustive_search (reference)
  ns::obs::LatencyHistogram tick_quiet; // Daemon::tick that sent nothing
  ns::obs::LatencyHistogram tick_issue; // Daemon::tick that sent commands
  ns::obs::LatencyHistogram late;       // open-loop generator lateness
  ns::obs::LatencyHistogram join;       // DaemonClient::connect

  std::uint64_t clock() const { return on ? now_ns() : 0; }
  /// One complete span on `lane`, stamped with the benchmark's clock.
  void span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
            std::uint32_t lane = 0);
  /// Marks the start of trigger/burst `seq` on lane 0: the spans that
  /// follow, up to the next mark, belong to it.
  void mark_seq(std::uint64_t seq);
};

/// Policy decorator: times every decide() that issued at least one directive.
class TimedPolicy final : public ns::agent::Policy {
 public:
  TimedPolicy(ns::agent::PolicyPtr inner, Layers& layers)
      : inner_(std::move(inner)), layers_(layers) {}

  const char* name() const override { return inner_->name(); }
  std::vector<ns::agent::Directive> decide(const ns::topo::Machine& machine,
                                           const std::vector<ns::agent::AppView>& views) override;
  void on_membership_change() override { inner_->on_membership_change(); }
  void on_foreign_load(const ns::model::ForeignLoad& load) override {
    inner_->on_foreign_load(load);
  }

 private:
  ns::agent::PolicyPtr inner_;
  Layers& layers_;
};

/// App-side channel decorator: forwards everything, times how long each
/// command waited between issue and pop, and remembers the newest per-node
/// command (the allocation the app must enact).
class TimedChannel final : public ns::agent::ChannelBase {
 public:
  TimedChannel(ns::agent::ChannelBase& inner, Layers& layers) : inner_(inner), layers_(layers) {}

  bool push_command(const ns::agent::Command& command) override {
    return inner_.push_command(command);
  }
  std::optional<ns::agent::Telemetry> pop_telemetry() override { return inner_.pop_telemetry(); }
  std::uint64_t drain_newest(ns::agent::Telemetry& out) override { return inner_.drain_newest(out); }
  std::optional<ns::agent::Command> pop_command() override;
  bool push_telemetry(const ns::agent::Telemetry& telemetry) override {
    return inner_.push_telemetry(telemetry);
  }
  std::uint64_t commands_dropped() const override { return inner_.commands_dropped(); }
  std::uint64_t telemetry_dropped() const override { return inner_.telemetry_dropped(); }

  /// Newest kSetNodeThreads command popped (epoch 0 before the first).
  const ns::agent::Command& last_node_command() const { return last_; }

 private:
  ns::agent::ChannelBase& inner_;
  Layers& layers_;
  ns::agent::Command last_{};
};

/// Counters and latency histograms summed over one or more runtimes; the
/// difference of two readings covers the traced phase only.
struct RuntimeTotals {
  std::uint64_t tasks_executed = 0;
  std::uint64_t idle_parks = 0;
  std::uint64_t steals = 0;
  std::uint64_t failed_steal_rounds = 0;
  std::uint64_t blocks = 0;
  std::uint64_t unblocks = 0;
  ns::obs::HistogramSnapshot handoff, steal, wake, enact;

  void add(const ns::rt::Runtime& runtime);
  RuntimeTotals since(const RuntimeTotals& before) const;
};

/// The runtime.* per-layer metrics the program measures itself: wake,
/// handoff, steal and enactment-lag percentiles, parks and failed steals.
/// `triggers` (0 = not a reallocation workload) scales blocks/unblocks.
void report_runtime_layers(const RuntimeTotals& delta, std::uint64_t triggers, Result& result);

/// DaemonClient::connect() needs the daemon to tick while it waits for
/// activation; a helper thread ticks only for that long. Times the connect
/// into layers.join.
bool connect_with_ticks(ns::nsd::Daemon& daemon, ns::nsd::DaemonClient& client, Layers& layers);

/// Off the timed path: the allocation an exhaustive search picks for `apps`
/// (the reference alloc_quality divides by), timed into layers.search.
ns::model::SearchResult reference_search(const ns::topo::Machine& machine,
                                         const std::vector<ns::model::AppSpec>& apps,
                                         Layers& layers);

/// Accumulates the core.* per-layer metrics: allocation quality of every
/// enacted allocation against the reference search, and the search's work.
struct QualityTally {
  double quality_sum = 0.0;
  std::uint64_t allocations = 0;
  std::uint64_t searches = 0;
  std::uint64_t visited = 0;
  std::uint64_t pruned = 0;

  /// Validates `enacted` and scores it against the reference; an invalid or
  /// suboptimal allocation is a failure.
  void check(const ns::topo::Machine& machine, const std::vector<ns::model::AppSpec>& apps,
             const ns::model::Allocation& enacted, Layers& layers, Result& result);
  void report(const Layers& layers, Result& result) const;
};

/// Daemon options shared by the daemon workloads: no journal, manual ticks.
ns::nsd::DaemonOptions bench_daemon_options(const std::string& registry);

/// One SCHED_IDLE thread pinned to each CPU this process may use, spinning
/// on a pause instruction until destroyed. The scheduler runs them only when
/// nothing else wants that CPU, and a waking thread preempts them at once;
/// what they do is keep every vCPU out of the halted state, as idle=poll
/// does on latency-tuned hosts. On a VM, a wake-up aimed at a halted vCPU
/// goes through the hypervisor and takes as long as the host's load makes
/// it, and every workload here wakes idle workers on its timed path; without
/// them a run's median follows the host. Workloads start them after timing
/// set-up, which they slow down (task_stream's took 0.11-0.18 ms with them,
/// 0.07-0.10 ms without, in alternated runs).
class CpuKeepers {
 public:
  CpuKeepers();
  ~CpuKeepers();
  CpuKeepers(const CpuKeepers&) = delete;
  CpuKeepers& operator=(const CpuKeepers&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Peak resident set of this process so far, MB.
double peak_rss_mb();

/// Median of a small sample (setup times).
double median(std::vector<double> values);

/// Workload entry points: fill `result` with the end-to-end metrics (untraced
/// runs) or the per-layer metrics (traced runs; `layers.tracer` is set).
void run_task_stream(const Args& args, Layers& layers, Result& result);
void run_realloc_churn(const Args& args, Layers& layers, Result& result);
void run_arbiter_scale(const Args& args, Layers& layers, Result& result);

}  // namespace perfbench
