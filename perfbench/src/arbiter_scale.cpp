// arbiter_scale: the decision path on a bigger machine, without runtimes.
// The daemon (default ModelGuidedPolicy) arbitrates a 4x16 virtual machine
// between five stub clients that pop commands and ack their epoch in
// telemetry. A closed loop changes one stub's advertised arithmetic
// intensity at a time, and every kRejoinEvery triggers one stub leaves and then
// rejoins, which forces the join protocol and a full search.
#include <algorithm>
#include <thread>

#include "agent/policies.hpp"
#include "bench.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 21;
constexpr std::uint32_t kStubs = 5;
constexpr std::uint64_t kRejoinEvery = 25;
/// A trigger not enacted within this long is a failure.
constexpr std::uint64_t kDeadlineNs = 1'000'000'000;
/// Levels differ by at least 2x, far past the policy's 10% drift gate.
constexpr double kLevels[] = {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0};
constexpr std::uint32_t kLevelCount = sizeof(kLevels) / sizeof(kLevels[0]);

ns::topo::Machine arbiter_machine() {
  return ns::topo::Machine::symmetric(4, 16, 10.0, 20.0, 5.0, "arbiter-4x16");
}

/// A client without a runtime: enacts a command by popping it and acks the
/// epoch in its next telemetry sample.
struct Stub {
  std::string name;
  std::uint32_t level = 2;
  /// Two stubs are NUMA-bad (data on one node), the rest NUMA-perfect.
  std::uint32_t home = ns::agent::kMaxNodes;
  std::unique_ptr<ns::nsd::DaemonClient> client;
  std::unique_ptr<TimedChannel> channel;
  std::uint64_t telemetry_seq = 0;

  bool active() const { return client != nullptr && client->connected(); }
  std::uint64_t epoch() const { return channel ? channel->last_node_command().epoch : 0; }
  double ai() const { return kLevels[level]; }

  ns::model::AppSpec spec() const {
    return home < ns::agent::kMaxNodes ? ns::model::AppSpec::numa_bad(name, ai(), home)
                                       : ns::model::AppSpec::numa_perfect(name, ai());
  }

  void publish(std::uint32_t nodes) {
    const auto& cmd = channel->last_node_command();
    ns::agent::Telemetry t;
    t.seq = ++telemetry_seq;
    t.timestamp = ns::monotonic_seconds();
    t.node_count = nodes;
    std::uint32_t total = 0;
    for (std::uint32_t n = 0; n < nodes && n < cmd.node_count; ++n) {
      t.running_per_node[n] = cmd.node_threads[n];
      total += cmd.node_threads[n];
    }
    t.total_workers = total;
    t.running_threads = total;
    t.ai_estimate = ai();
    t.data_home_node = home;
    t.enacted_epoch = cmd.epoch;
    t.enacted_target = cmd.epoch == 0 ? ns::agent::kUnconstrained : total;
    channel->push_telemetry(t);
  }

  /// Pops every queued command; acks when one arrived.
  void service(std::uint32_t nodes) {
    bool popped = false;
    while (channel->pop_command()) popped = true;
    if (popped) publish(nodes);
    client->heartbeat();
  }
};

struct World {
  std::unique_ptr<ns::nsd::Daemon> daemon;
  Stub stubs[kStubs];
  std::string registry;

  /// Connects stub `s`: a fresh client, channel and first telemetry sample.
  bool join(std::uint32_t s, Layers& layers, Result& result) {
    Stub& stub = stubs[s];
    stub.channel.reset();
    ns::nsd::ClientConnectOptions options;
    options.registry_name = registry;
    stub.client = std::make_unique<ns::nsd::DaemonClient>(stub.name, options);
    ++result.attempted;
    if (!connect_with_ticks(*daemon, *stub.client, layers)) {
      result.fail("join of " + stub.name + " failed");
      stub.client.reset();
      return false;
    }
    stub.channel = std::make_unique<TimedChannel>(*stub.client->channel(), layers);
    stub.publish(daemon->arbitration_agent().machine().node_count());
    return true;
  }

  /// Drops the channel view, then the client, whose destructor leaves.
  void leave(std::uint32_t s) {
    stubs[s].channel.reset();
    stubs[s].client.reset();
  }

  /// Ticks and services the stubs until every active stub popped a command
  /// newer than `before`; counts ticks up to the one that sent commands.
  bool await_enacted(const std::uint64_t (&before)[kStubs], Layers& layers,
                     std::uint64_t& ticks, std::uint64_t& ticks_to_issue) {
    const std::uint32_t nodes = daemon->arbitration_agent().machine().node_count();
    const std::uint64_t deadline = now_ns() + kDeadlineNs;
    ticks_to_issue = 0;
    for (std::uint64_t n = 1;; ++n) {
      const std::uint64_t t0 = layers.clock();
      const std::uint32_t sent = daemon->tick(ns::monotonic_seconds());
      if (layers.on) {
        const std::uint64_t t1 = now_ns();
        (sent > 0 ? layers.tick_issue : layers.tick_quiet).record(t1 - t0);
        layers.span("daemon.tick", t0, t1);
      }
      ++ticks;
      if (sent > 0 && ticks_to_issue == 0) ticks_to_issue = n;
      bool all = true;
      for (std::uint32_t s = 0; s < kStubs; ++s) {
        if (!stubs[s].active()) continue;
        stubs[s].service(nodes);
        all = all && stubs[s].epoch() > before[s];
      }
      if (all) return true;
      if (now_ns() > deadline) return false;
    }
  }

  ns::model::Allocation commanded(std::vector<ns::model::AppSpec>& specs) const {
    std::vector<std::vector<std::uint32_t>> rows;
    specs.clear();
    for (const auto& stub : stubs) {
      if (!stub.active()) continue;
      const auto& cmd = stub.channel->last_node_command();
      rows.emplace_back(cmd.node_threads, cmd.node_threads + cmd.node_count);
      specs.push_back(stub.spec());
    }
    return ns::model::Allocation::from_matrix(std::move(rows));
  }
};

std::unique_ptr<World> build_world(const std::string& registry, Layers& layers, Result& result) {
  auto world = std::make_unique<World>();
  world->registry = registry;
  auto policy = std::make_unique<TimedPolicy>(std::make_unique<ns::agent::ModelGuidedPolicy>(),
                                              layers);
  world->daemon = std::make_unique<ns::nsd::Daemon>(arbiter_machine(), std::move(policy),
                                                    bench_daemon_options(registry));
  std::string error;
  if (!world->daemon->init(&error)) {
    result.fail("daemon init: " + error);
    return nullptr;
  }
  for (std::uint32_t s = 0; s < kStubs; ++s) {
    Stub& stub = world->stubs[s];
    stub.name = "stub" + std::to_string(s);
    stub.level = 1 + s % 5;
    stub.home = s < 2 ? s * 2 : ns::agent::kMaxNodes;
    if (!world->join(s, layers, result)) return nullptr;
  }
  const std::uint64_t none[kStubs] = {};
  std::uint64_t ticks = 0;
  std::uint64_t ticks_to_issue = 0;
  if (!world->await_enacted(none, layers, ticks, ticks_to_issue)) {
    result.fail("initial allocation not enacted");
    return nullptr;
  }
  return world;
}

struct Phase {
  std::vector<std::uint64_t> latency_ns;  // trigger -> every stub popped its command
  std::uint64_t busy_ns = 0;
  std::uint64_t ticks_to_issue_sum = 0;
  std::uint64_t ticks = 0;
};

class Scale {
 public:
  Scale(World& world, std::uint64_t seed, Layers& layers, Result& result)
      : world_(world), rng_(seed), layers_(layers), result_(result) {}

  Phase run(double seconds) {
    Phase phase;
    phase.latency_ns.reserve(kReservedSamples);
    const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    while (now_ns() < end) trigger(phase);
    return phase;
  }

  const QualityTally& quality() const { return quality_; }

 private:
  std::uint32_t random_active() {
    std::uint32_t active[kStubs];
    std::uint32_t n = 0;
    for (std::uint32_t s = 0; s < kStubs; ++s) {
      if (world_.stubs[s].active()) active[n++] = s;
    }
    return active[rng_.uniform_u64(n)];
  }

  void trigger(Phase& phase) {
    const std::uint64_t position = index_ % kRejoinEvery;
    std::uint64_t before[kStubs];
    for (std::uint32_t s = 0; s < kStubs; ++s) before[s] = world_.stubs[s].epoch();
    layers_.mark_seq(index_);
    std::uint64_t start = now_ns();
    if (position == kRejoinEvery - 2) {
      left_ = random_active();
      world_.leave(left_);
    } else if (position == kRejoinEvery - 1) {
      before[left_] = 0;
      if (!world_.join(left_, layers_, result_)) {
        ++index_;
        return;
      }
      start = now_ns();  // the join itself is timed as daemon.join
    } else {
      // A new level drawn uniformly from the others: the states a run visits
      // mix fast, so the search's cost averages out within one run.
      Stub& stub = world_.stubs[random_active()];
      const auto offset = static_cast<std::uint32_t>(1 + rng_.uniform_u64(kLevelCount - 1));
      stub.level = (stub.level + offset) % kLevelCount;
      stub.publish(world_.daemon->arbitration_agent().machine().node_count());
    }
    std::uint64_t ticks_to_issue = 0;
    const bool ok = world_.await_enacted(before, layers_, phase.ticks, ticks_to_issue);
    const std::uint64_t end = now_ns();
    ++index_;
    ++result_.attempted;
    if (!ok) {
      result_.fail("trigger " + std::to_string(index_ - 1) + " not enacted within 1 s");
      return;
    }
    layers_.span("trigger", start, end);
    phase.latency_ns.push_back(end - start);
    phase.busy_ns += end - start;
    phase.ticks_to_issue_sum += ticks_to_issue;
    std::vector<ns::model::AppSpec> specs;
    const auto enacted = world_.commanded(specs);
    quality_.check(world_.daemon->arbitration_agent().machine(), specs, enacted, layers_, result_);
  }

  World& world_;
  ns::Xoshiro256 rng_;
  Layers& layers_;
  Result& result_;
  QualityTally quality_;
  std::uint64_t index_ = 0;
  std::uint32_t left_ = 0;
};

}  // namespace

void run_arbiter_scale(const Args& args, Layers& layers, Result& result) {
  std::vector<double> setups;
  std::unique_ptr<World> world;
  for (int k = 0; k < kSetups; ++k) {
    world.reset();
    const std::uint64_t start = now_ns();
    world = build_world(args.shm_prefix + "a" + std::to_string(k), layers, result);
    if (world == nullptr) return;
    setups.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  result.set("setup_s", median(setups), "s", setups.size());
  const CpuKeepers keepers;

  Scale scale(*world, args.seed, layers, result);
  if (!args.trace) {
    const Phase phase = scale.run(args.seconds);
    const auto n = phase.latency_ns.size();
    result.set("op_p50_us", exact_percentile(phase.latency_ns, 50) * 1e-3, "us", n);
    result.set("ops_per_s",
               static_cast<double>(n) / (static_cast<double>(phase.busy_ns) * 1e-9), "1/s", n);
    result.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
    return;
  }

  const Phase plain = scale.run(args.seconds / 2);
  const auto stats_before = world->daemon->stats();
  layers.on = true;
  const Phase traced = scale.run(args.seconds / 2);
  layers.on = false;
  const auto stats_after = world->daemon->stats();

  scale.quality().report(layers, result);
  const auto us = [](const ns::obs::LatencyHistogram& h, double p) {
    return hist_percentile(h, p) * 1e-3;
  };
  result.set("agent.decide_us_p50", us(layers.decide, 50), "us", layers.decide.count());
  result.set("agent.decide_us_p99", us(layers.decide, 99), "us", layers.decide.count());
  result.set("agent.cmd_wait_us_p50", us(layers.cmd_wait, 50), "us", layers.cmd_wait.count());
  std::uint64_t cmd_dropped = 0;
  std::uint64_t tel_dropped = 0;
  for (const auto& stub : world->stubs) {
    if (!stub.active()) continue;
    cmd_dropped += stub.channel->commands_dropped();
    tel_dropped += stub.channel->telemetry_dropped();
  }
  result.set("agent.cmd_dropped", static_cast<double>(cmd_dropped), "count", 1);
  result.set("agent.tel_dropped", static_cast<double>(tel_dropped), "count", 1);
  result.set("daemon.tick_quiet_us_p50", us(layers.tick_quiet, 50), "us", layers.tick_quiet.count());
  result.set("daemon.tick_quiet_us_p99", us(layers.tick_quiet, 99), "us", layers.tick_quiet.count());
  result.set("daemon.tick_issue_us_p50", us(layers.tick_issue, 50), "us", layers.tick_issue.count());
  result.set("daemon.tick_issue_us_p99", us(layers.tick_issue, 99), "us", layers.tick_issue.count());
  const std::uint64_t triggers = traced.latency_ns.size();
  result.set("daemon.ticks_to_issue",
             static_cast<double>(traced.ticks_to_issue_sum) /
                 static_cast<double>(std::max<std::uint64_t>(triggers, 1)),
             "count", triggers);
  result.set("daemon.visits_per_tick",
             static_cast<double>(stats_after.attention_visits - stats_before.attention_visits) /
                 static_cast<double>(std::max<std::uint64_t>(traced.ticks, 1)),
             "count", traced.ticks);
  result.set("daemon.join_us_p50", us(layers.join, 50), "us", layers.join.count());
  const auto p50 = [](const Phase& p) { return exact_percentile(p.latency_ns, 50); };
  // The tail is steady on task_stream and arbiter_scale but not on
  // realloc_churn, where it follows the host's wake-up latency for idle
  // vCPUs; so it is reported here, from the untraced half, without a bound.
  result.set("e2e.op_p99_us", exact_percentile(plain.latency_ns, 99) * 1e-3, "us",
             plain.latency_ns.size());
  result.set("trace.overhead_frac", p50(traced) / std::max(p50(plain), 1.0) - 1.0, "ratio",
             triggers);
}

}  // namespace perfbench
