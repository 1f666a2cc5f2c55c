#include "bench.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/logging.hpp"

namespace perfbench {

double exact_percentile(std::vector<std::uint64_t> samples, double p) {
  if (samples.empty()) return 0.0;
  const auto n = static_cast<std::uint64_t>(samples.size());
  const std::uint64_t rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(n) + 0.5), 1, n);
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth);
}

double hist_percentile(const ns::obs::LatencyHistogram& hist, double p) {
  ns::obs::HistogramSnapshot snapshot;
  hist.snapshot_into(snapshot);
  return snapshot.percentile(p);
}

ns::obs::HistogramSnapshot snapshot_delta(const ns::obs::HistogramSnapshot& after,
                                          const ns::obs::HistogramSnapshot& before) {
  ns::obs::HistogramSnapshot out = after;
  for (std::size_t i = 0; i < out.counts.size(); ++i) out.counts[i] -= before.counts[i];
  out.count -= before.count;
  out.sum_ns -= before.sum_ns;
  return out;
}

void Result::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

void Layers::span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                  std::uint32_t lane) {
  if (!on || tracer == nullptr) return;
  tracer->span(name, "bench", lane, static_cast<double>(start_ns - origin_ns) * 1e-3,
               static_cast<double>(end_ns - start_ns) * 1e-3);
}

void Layers::mark_seq(std::uint64_t seq) {
  if (!on || tracer == nullptr) return;
  tracer->counter("seq", "bench", 0, static_cast<double>(seq));
}

std::vector<ns::agent::Directive> TimedPolicy::decide(
    const ns::topo::Machine& machine, const std::vector<ns::agent::AppView>& views) {
  const std::uint64_t start = layers_.clock();
  auto out = inner_->decide(machine, views);
  const std::uint64_t end = layers_.clock();
  const bool issued = std::any_of(out.begin(), out.end(), [](const ns::agent::Directive& d) {
    return d.kind != ns::agent::Directive::Kind::kNone;
  });
  if (layers_.on && issued) {
    layers_.decide.record(end - start);
    layers_.span("agent.decide", start, end);
  }
  return out;
}

std::optional<ns::agent::Command> TimedChannel::pop_command() {
  auto command = inner_.pop_command();
  if (command) {
    if (layers_.on && command->issued_ns != 0) {
      const std::uint64_t now = now_ns();
      layers_.cmd_wait.record(now > command->issued_ns ? now - command->issued_ns : 0);
    }
    if (command->type == ns::agent::CommandType::kSetNodeThreads) last_ = *command;
  }
  return command;
}

void RuntimeTotals::add(const ns::rt::Runtime& runtime) {
  const auto stats = runtime.stats();
  tasks_executed += stats.tasks_executed;
  idle_parks += stats.idle_parks;
  steals += stats.steals;
  failed_steal_rounds += stats.failed_steal_rounds;
  blocks += stats.blocks;
  unblocks += stats.unblocks;
  const auto latency = runtime.latency_snapshot();
  handoff.merge(latency.handoff);
  steal.merge(latency.steal);
  wake.merge(latency.wake);
  enact.merge(latency.enact);
}

RuntimeTotals RuntimeTotals::since(const RuntimeTotals& before) const {
  RuntimeTotals d;
  d.tasks_executed = tasks_executed - before.tasks_executed;
  d.idle_parks = idle_parks - before.idle_parks;
  d.steals = steals - before.steals;
  d.failed_steal_rounds = failed_steal_rounds - before.failed_steal_rounds;
  d.blocks = blocks - before.blocks;
  d.unblocks = unblocks - before.unblocks;
  d.handoff = snapshot_delta(handoff, before.handoff);
  d.steal = snapshot_delta(steal, before.steal);
  d.wake = snapshot_delta(wake, before.wake);
  d.enact = snapshot_delta(enact, before.enact);
  return d;
}

void report_runtime_layers(const RuntimeTotals& d, std::uint64_t triggers, Result& result) {
  result.set("runtime.wake_ns_p50", d.wake.percentile(50), "ns", d.wake.count);
  result.set("runtime.wake_ns_p99", d.wake.percentile(99), "ns", d.wake.count);
  result.set("runtime.handoff_ns_p50", d.handoff.percentile(50), "ns", d.handoff.count);
  result.set("runtime.handoff_ns_p99", d.handoff.percentile(99), "ns", d.handoff.count);
  result.set("runtime.steal_ns_p50", d.steal.percentile(50), "ns", d.steal.count);
  const double ktasks = static_cast<double>(std::max<std::uint64_t>(d.tasks_executed, 1)) / 1e3;
  result.set("runtime.parks_per_ktask", static_cast<double>(d.idle_parks) / ktasks, "count",
             d.tasks_executed);
  const std::uint64_t rounds = d.steals + d.failed_steal_rounds;
  result.set("runtime.failed_steal_ratio",
             static_cast<double>(d.failed_steal_rounds) /
                 static_cast<double>(std::max<std::uint64_t>(rounds, 1)),
             "ratio", rounds);
  if (triggers > 0) {
    const double t = static_cast<double>(triggers);
    result.set("runtime.blocks_per_trigger", static_cast<double>(d.blocks) / t, "count", triggers);
    result.set("runtime.unblocks_per_trigger", static_cast<double>(d.unblocks) / t, "count",
               triggers);
    result.set("runtime.enact_ns_p50", d.enact.percentile(50), "ns", d.enact.count);
    result.set("runtime.enact_ns_p99", d.enact.percentile(99), "ns", d.enact.count);
  }
}

bool connect_with_ticks(ns::nsd::Daemon& daemon, ns::nsd::DaemonClient& client, Layers& layers) {
  std::atomic<bool> done{false};
  std::thread ticker([&] {
    while (!done.load(std::memory_order_acquire)) {
      daemon.tick(ns::monotonic_seconds());
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  const std::uint64_t start = now_ns();
  const bool ok = client.connect();
  const std::uint64_t end = now_ns();
  done.store(true, std::memory_order_release);
  ticker.join();
  if (layers.on) {
    layers.join.record(end - start);
    layers.span("daemon.join", start, end);
  }
  return ok;
}

ns::model::SearchResult reference_search(const ns::topo::Machine& machine,
                                         const std::vector<ns::model::AppSpec>& apps,
                                         Layers& layers) {
  const std::uint64_t start = now_ns();
  auto result = ns::model::exhaustive_search(machine, apps, ns::model::Objective::kTotalGflops,
                                             /*require_full=*/true, /*min_threads_per_app=*/1);
  const std::uint64_t end = now_ns();
  if (layers.on) {
    layers.search.record(end - start);
    layers.span("core.search", start, end);
  }
  return result;
}

void QualityTally::check(const ns::topo::Machine& machine,
                         const std::vector<ns::model::AppSpec>& apps,
                         const ns::model::Allocation& enacted, Layers& layers, Result& result) {
  std::string error;
  if (!enacted.validate(machine, &error)) {
    result.fail("invalid allocation " + enacted.to_string() + ": " + error);
    return;
  }
  const auto best = reference_search(machine, apps, layers);
  ++searches;
  visited += best.visited;
  pruned += best.pruned;
  const double value = ns::model::score(ns::model::solve(machine, apps, enacted),
                                        ns::model::Objective::kTotalGflops);
  const double quality = value / best.objective_value;
  quality_sum += quality;
  ++allocations;
  if (quality < 1.0 - 1e-9) {
    result.fail("allocation " + enacted.to_string() + " reaches " + std::to_string(quality) +
                " of the optimum " + best.allocation.to_string());
  }
}

void QualityTally::report(const Layers& layers, Result& result) const {
  const auto us = [&](double p) { return hist_percentile(layers.search, p) * 1e-3; };
  result.set("core.search_us_p50", us(50), "us", layers.search.count());
  result.set("core.search_us_p99", us(99), "us", layers.search.count());
  const double n = static_cast<double>(std::max<std::uint64_t>(searches, 1));
  result.set("core.visited_per_decision", static_cast<double>(visited) / n, "count", searches);
  result.set("core.pruned_ratio",
             static_cast<double>(pruned) /
                 static_cast<double>(std::max<std::uint64_t>(visited + pruned, 1)),
             "ratio", searches);
  result.set("core.alloc_quality",
             quality_sum / static_cast<double>(std::max<std::uint64_t>(allocations, 1)), "ratio",
             allocations);
}

ns::nsd::DaemonOptions bench_daemon_options(const std::string& registry) {
  ns::nsd::DaemonOptions options;
  options.registry_name = registry;
  // The generator heartbeats every loop pass; a generous timeout keeps a
  // scheduling hiccup of the shared host from evicting a client mid-run.
  options.heartbeat_timeout_s = 30.0;
  return options;
}

CpuKeepers::CpuKeepers() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    threads_.emplace_back([this, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      const sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
      }
    });
  }
}

CpuKeepers::~CpuKeepers() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& thread : threads_) thread.join();
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
  // launching process's peak when that was larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
