// realloc_churn: the whole reallocation loop with real runtimes. An
// in-process daemon (default ModelGuidedPolicy, no journal) arbitrates a 2x2
// virtual machine between two DaemonClients, each running a Runtime and a
// RuntimeAdapter with self-respawning task chains. An open-loop seeded
// schedule changes an app's advertised arithmetic intensity and/or data home
// at a fixed period; every trigger changes the model's best allocation, and
// is timed from its due time until both runtimes run the commanded per-node
// thread counts.
#include <sys/prctl.h>

#include <algorithm>
#include <thread>

#include "agent/policies.hpp"
#include "bench.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 21;
constexpr std::uint32_t kApps = 2;
/// Trigger period of the open-loop schedule. A trigger still settling when
/// the next one comes due holds that one back; the held trigger is still
/// timed from its own due time, so the stall shows in its latency.
constexpr std::uint64_t kTriggerPeriodNs = 8'000'000;
/// Generator loop period.
constexpr std::uint64_t kLoopPeriodNs = 50'000;
/// Once a trigger's commands are out, settle is polled this often instead,
/// so a latency is not rounded up to a loop slot.
constexpr std::uint64_t kSettlePollNs = 5'000;
/// The generator wakes this long before a trigger is due and spins the rest,
/// so the timer's wake-up delay does not land in every latency.
constexpr std::uint64_t kDueSpinNs = 100'000;
/// A trigger not enacted this long after its due time is a failure.
constexpr std::uint64_t kDeadlineNs = 250'000'000;
/// Every kHomeOnlyEvery-th trigger moves only the data homes: the known
/// defect (ModelGuidedPolicy never re-decides on a home-only change) keeps
/// these visible as home-only misses.
constexpr std::uint64_t kHomeOnlyEvery = 20;
/// Dependent multiply-adds per chain task (about 10 us of work). Long
/// enough that a chain does not wake an idle worker with every spawn, short
/// enough that a worker reaches a task boundary (where it may block) quickly.
constexpr std::uint32_t kTaskWork = 8000;

ns::topo::Machine churn_machine() {
  return ns::topo::Machine::symmetric(2, 2, 10.0, 20.0, 5.0, "churn-2x2");
}

/// Telemetry inputs of both apps: AI and NUMA-bad data home.
struct Inputs {
  double ai[kApps] = {1.0, 1.0};
  std::uint32_t home[kApps] = {0, 1};

  /// Both apps at the same AI (~1): NUMA-bad enough that the model gives
  /// each app the whole node holding its data.
  bool flip_regime() const { return ai[0] == ai[1]; }
  std::vector<ns::model::AppSpec> specs() const {
    return {ns::model::AppSpec::numa_bad("a", ai[0], home[0]),
            ns::model::AppSpec::numa_bad("b", ai[1], home[1])};
  }
};

/// The seeded schedule. AI levels differ by more than the policy's 10% drift
/// gate, so every AI trigger is re-decided:
///  * flip regime: AI (l, l), l in {0.8, 1, 1.25}, homes (0,1) or (1,0)
///    -> [2 0]/[0 2] or [0 2]/[2 0];
///  * balanced regime: AI (0.5, 8) or (8, 0.5) -> [1 1]/[1 1].
class Schedule {
 public:
  explicit Schedule(std::uint64_t seed) : rng_(seed) {}

  Inputs next(const Inputs& cur, std::uint64_t index, bool& home_only) {
    static constexpr double kLevels[] = {0.8, 1.0, 1.25};
    Inputs out = cur;
    home_only = index % kHomeOnlyEvery == kHomeOnlyEvery - 1;
    const auto flip_homes = [&] { std::swap(out.home[0], out.home[1]); };
    if (home_only) {
      flip_homes();  // cur is in the flip regime (see below)
      return out;
    }
    const bool must_land_in_flip = index % kHomeOnlyEvery == kHomeOnlyEvery - 2;
    if (!cur.flip_regime()) {
      const double level = kLevels[rng_.uniform_u64(3)];
      out.ai[0] = out.ai[1] = level;
      if (rng_.uniform_u64(2) == 1) flip_homes();
    } else if (must_land_in_flip || rng_.uniform_u64(2) == 0) {
      double level = cur.ai[0];
      while (level == cur.ai[0]) level = kLevels[rng_.uniform_u64(3)];
      out.ai[0] = out.ai[1] = level;
      flip_homes();
    } else {
      const bool swap = rng_.uniform_u64(2) == 1;
      out.ai[0] = swap ? 8.0 : 0.5;
      out.ai[1] = swap ? 0.5 : 8.0;
    }
    return out;
  }

 private:
  ns::Xoshiro256 rng_;
};

/// One chain of nested tasks: every task spawns its successor from the
/// worker, so a chain keeps at most one worker busy.
struct Chain {
  std::atomic<std::uint64_t> spawned{0};
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> out_of_order{0};
  std::atomic<bool> stop{false};
};

void chain_step(ns::rt::TaskContext& ctx, Chain* chain, std::uint64_t k) {
  if (chain->executed.fetch_add(1, std::memory_order_relaxed) != k) {
    chain->out_of_order.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t x = k | 1;
  for (std::uint32_t i = 0; i < kTaskWork; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
  asm volatile("" : : "r"(x));
  if (chain->stop.load(std::memory_order_relaxed)) return;
  chain->spawned.fetch_add(1, std::memory_order_relaxed);
  ctx.runtime.spawn([chain, k](ns::rt::TaskContext& c) { chain_step(c, chain, k + 1); });
  // A worker woken to block (or to look for work) that lands on the chain's
  // CPU is not always let in at once: the scheduler may leave it queued
  // behind the busy chain until the next tick, 1-8 ms. That hit 10-30% of
  // reallocations, a share that changed from run to run and dragged the
  // median with it. Ending each task with a yield gives it the CPU within a
  // task's length.
  std::this_thread::yield();
}

struct App {
  std::unique_ptr<ns::nsd::DaemonClient> client;
  std::unique_ptr<ns::rt::Runtime> runtime;
  std::unique_ptr<TimedChannel> channel;
  std::unique_ptr<ns::agent::RuntimeAdapter> adapter;
  std::vector<std::unique_ptr<Chain>> chains;
};

/// Daemon + two connected apps. Destruction stops the chains and drains the
/// runtimes before anything they reference goes away.
struct World {
  std::unique_ptr<ns::nsd::Daemon> daemon;
  App apps[kApps];

  ~World() {
    for (auto& app : apps) {
      for (auto& chain : app.chains) chain->stop.store(true, std::memory_order_relaxed);
    }
    for (auto& app : apps) {
      if (app.runtime) app.runtime->wait_idle();
    }
  }

  bool enacted(std::uint32_t a) const {
    const auto& cmd = apps[a].channel->last_node_command();
    if (cmd.epoch == 0) return false;
    const auto running = apps[a].runtime->running_per_node();
    for (std::uint32_t n = 0; n < running.size(); ++n) {
      if (running[n] != cmd.node_threads[n]) return false;
    }
    return true;
  }

  ns::model::Allocation commanded() const {
    std::vector<std::vector<std::uint32_t>> rows;
    for (const auto& app : apps) {
      const auto& cmd = app.channel->last_node_command();
      rows.emplace_back(cmd.node_threads, cmd.node_threads + cmd.node_count);
    }
    return ns::model::Allocation::from_matrix(std::move(rows));
  }
};

/// Builds a world with `inputs`, returns once the first allocation runs.
std::unique_ptr<World> build_world(const ns::topo::Machine& machine, const std::string& registry,
                                   const Inputs& inputs, Layers& layers, Result& result) {
  auto world = std::make_unique<World>();
  auto policy = std::make_unique<TimedPolicy>(std::make_unique<ns::agent::ModelGuidedPolicy>(),
                                              layers);
  world->daemon = std::make_unique<ns::nsd::Daemon>(machine, std::move(policy),
                                                    bench_daemon_options(registry));
  std::string error;
  if (!world->daemon->init(&error)) {
    result.fail("daemon init: " + error);
    return nullptr;
  }
  for (std::uint32_t a = 0; a < kApps; ++a) {
    App& app = world->apps[a];
    ns::nsd::ClientConnectOptions options;
    options.registry_name = registry;
    app.client = std::make_unique<ns::nsd::DaemonClient>(a == 0 ? "churn-a" : "churn-b", options);
    ++result.attempted;
    if (!connect_with_ticks(*world->daemon, *app.client, layers)) {
      result.fail("connect of app " + std::to_string(a) + " failed");
      return nullptr;
    }
    ns::rt::RuntimeOptions rt_options;
    rt_options.name = app.client->app_name();
    app.runtime = std::make_unique<ns::rt::Runtime>(app.client->arbitration_machine(), rt_options);
    app.channel = std::make_unique<TimedChannel>(*app.client->channel(), layers);
    app.adapter = std::make_unique<ns::agent::RuntimeAdapter>(*app.runtime, *app.channel,
                                                              inputs.ai[a], inputs.home[a]);
  }
  const std::uint64_t deadline = now_ns() + 2'000'000'000ull;
  while (!(world->enacted(0) && world->enacted(1))) {
    if (now_ns() > deadline) {
      result.fail("initial allocation not enacted within 2 s");
      return nullptr;
    }
    for (auto& app : world->apps) app.adapter->pump();
    world->daemon->tick(ns::monotonic_seconds());
    for (auto& app : world->apps) app.adapter->pump();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return world;
}

struct Phase {
  std::vector<std::uint64_t> latency_ns;  // trigger due -> both apps enacted
  std::uint64_t tasks = 0;
  std::uint64_t elapsed_ns = 0;
  std::uint64_t triggers = 0;
  std::uint64_t ticks_to_issue_sum = 0;
  std::uint64_t issued = 0;
};

class Churn {
 public:
  Churn(World& world, const ns::topo::Machine& machine, Inputs inputs, std::uint64_t seed,
        Layers& layers, Result& result)
      : world_(world), machine_(machine), inputs_(inputs), schedule_(seed), layers_(layers),
        result_(result) {}

  /// One busy chain, in app a; app b's workers idle between reallocations.
  /// Settle then covers both ways a worker reaches a block: a busy worker at
  /// its next task boundary (a) and a parked worker woken to block (b). With
  /// every CPU but the generator's busy, woken workers wait for the OS run
  /// queue and the latency turns bimodal from run to run.
  void start_chains() {
    for (std::uint32_t a = 0; a < kApps; ++a) {
      App& app = world_.apps[a];
      executed_base_[a] = app.runtime->stats().tasks_executed;
      if (a != 0) continue;
      app.chains.push_back(std::make_unique<Chain>());
      Chain* chain = app.chains.back().get();
      chain->spawned.store(1, std::memory_order_relaxed);
      app.runtime->spawn([chain](ns::rt::TaskContext& ctx) { chain_step(ctx, chain, 0); });
    }
  }

  Phase run(double seconds) {
    Phase phase;
    phase.latency_ns.reserve(kReservedSamples);
    const std::uint64_t start = now_ns();
    const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
    const std::uint64_t tasks_before = chain_tasks();
    if (next_due_ == 0) next_due_ = start + kTriggerPeriodNs;
    // Loop: pump, tick, pump, check settle, then sleep to the next slot.
    // Between triggers the generator sleeps rather than spins, so it never
    // competes with the workers it is timing; a 1 us timer slack keeps the
    // slots precise. Slots stay on the trigger period's grid.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    std::uint64_t next_loop = start;
    while (true) {
      const std::uint64_t now = now_ns();
      if (now >= end) break;
      if (pending_) expire_if_overdue(now, phase);
      if (!pending_ && now >= next_due_) begin_trigger(now);
      if (pending_ && applied_ns_[0] != 0 && applied_ns_[1] != 0) {
        // Both apps applied their command: only the runtimes' settle is left.
        check_settle(phase);
        if (pending_) std::this_thread::sleep_for(std::chrono::nanoseconds(kSettlePollNs));
        continue;
      }
      pump_all();
      const std::uint64_t t0 = layers_.clock();
      const std::uint32_t sent = world_.daemon->tick(ns::monotonic_seconds());
      if (layers_.on) {
        const std::uint64_t t1 = now_ns();
        (sent > 0 ? layers_.tick_issue : layers_.tick_quiet).record(t1 - t0);
        if (pending_) layers_.span("daemon.tick", t0, t1);
      }
      ++ticks_;
      if (pending_ && sent > 0 && issue_tick_ == 0) {
        issue_tick_ = ticks_;
        phase.ticks_to_issue_sum += ticks_ - trigger_tick_;
        ++phase.issued;
      }
      pump_all();
      for (auto& app : world_.apps) app.client->heartbeat();
      check_settle(phase);
      if (pending_ && issue_tick_ != 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(kSettlePollNs));
        continue;
      }
      const std::uint64_t after = now_ns();
      while (next_loop <= after) next_loop += kLoopPeriodNs;
      const bool due_next = !pending_ && next_loop + kDueSpinNs >= next_due_;
      const std::uint64_t wake = due_next ? next_due_ - kDueSpinNs : next_loop;
      if (wake > after) std::this_thread::sleep_for(std::chrono::nanoseconds(wake - after));
      while (due_next && now_ns() < next_due_) {
      }
    }
    phase.elapsed_ns = now_ns() - start;
    phase.tasks = chain_tasks() - tasks_before;
    return phase;
  }

  /// After the last phase: stop the chains, then check every task ran once.
  void finish() {
    for (auto& app : world_.apps) {
      for (auto& chain : app.chains) chain->stop.store(true, std::memory_order_relaxed);
    }
    for (std::uint32_t a = 0; a < kApps; ++a) {
      App& app = world_.apps[a];
      app.runtime->wait_idle();
      std::uint64_t executed = 0;
      for (auto& chain : app.chains) {
        ++result_.attempted;
        const auto spawned = chain->spawned.load();
        const auto ran = chain->executed.load();
        executed += ran;
        if (spawned != ran || chain->out_of_order.load() != 0) {
          result_.fail("app " + std::to_string(a) + " chain: " + std::to_string(spawned) +
                       " spawned, " + std::to_string(ran) + " executed, " +
                       std::to_string(chain->out_of_order.load()) + " out of order");
        }
      }
      const auto counted = app.runtime->stats().tasks_executed - executed_base_[a];
      if (counted != executed) {
        result_.fail("app " + std::to_string(a) + " runtime counted " + std::to_string(counted) +
                     " tasks, chains ran " + std::to_string(executed));
      }
    }
  }

  std::uint64_t home_only_triggers() const { return home_only_triggers_; }
  std::uint64_t home_only_missed() const { return home_only_missed_; }
  std::uint64_t ticks() const { return ticks_; }
  const QualityTally& quality() const { return quality_; }

 private:
  std::uint64_t chain_tasks() const {
    std::uint64_t n = 0;
    for (const auto& app : world_.apps) {
      for (const auto& chain : app.chains) n += chain->executed.load(std::memory_order_relaxed);
    }
    return n;
  }

  void pump_all() {
    for (std::uint32_t a = 0; a < kApps; ++a) {
      App& app = world_.apps[a];
      const std::uint64_t t0 = layers_.clock();
      app.adapter->pump();
      const std::uint64_t t1 = now_ns();
      if (layers_.on) {
        layers_.pump.record(t1 - t0);
        // Spans only inside a trigger: the quiet passes between triggers
        // would fill the trace buffer without explaining any latency.
        if (pending_) layers_.span("agent.pump", t0, t1);
      }
      if (pending_ && applied_ns_[a] == 0 &&
          app.channel->last_node_command().epoch > epoch_before_[a]) {
        applied_ns_[a] = t1;
      }
    }
  }

  void begin_trigger(std::uint64_t now) {
    const std::uint64_t due = next_due_;
    next_due_ += kTriggerPeriodNs;
    bool home_only = false;
    inputs_ = schedule_.next(inputs_, index_++, home_only);
    for (std::uint32_t a = 0; a < kApps; ++a) {
      world_.apps[a].adapter->set_ai_estimate(inputs_.ai[a]);
      world_.apps[a].adapter->set_data_home(inputs_.home[a]);
      epoch_before_[a] = world_.apps[a].channel->last_node_command().epoch;
      applied_ns_[a] = 0;
      settled_[a] = false;
    }
    if (layers_.on) layers_.late.record(now - due);
    layers_.mark_seq(index_ - 1);
    pending_ = true;
    pending_home_only_ = home_only;
    home_only_triggers_ += home_only ? 1 : 0;
    due_ns_ = due;
    trigger_tick_ = ticks_;
    issue_tick_ = 0;
  }

  void check_settle(Phase& phase) {
    if (!pending_) {
      // Between triggers the apps together never run more threads than
      // the machine has cores (one failure per quiet interval at most).
      const std::uint32_t running = world_.apps[0].runtime->running_threads() +
                                    world_.apps[1].runtime->running_threads();
      if (running > machine_.core_count() && !oversubscribed_) {
        oversubscribed_ = true;
        result_.fail("apps run " + std::to_string(running) + " threads on " +
                     std::to_string(machine_.core_count()) + " cores after settle");
      }
      return;
    }
    bool all = true;
    for (std::uint32_t a = 0; a < kApps; ++a) {
      if (settled_[a]) continue;
      if (applied_ns_[a] != 0 && world_.enacted(a)) {
        settled_[a] = true;
        const std::uint64_t now = now_ns();
        if (layers_.on) {
          layers_.settle.record(now - applied_ns_[a]);
          layers_.span("runtime.settle", applied_ns_[a], now, 1 + a);
        }
      } else {
        all = false;
      }
    }
    if (!all) return;
    const std::uint64_t now = now_ns();
    phase.latency_ns.push_back(now - due_ns_);
    layers_.span("trigger", due_ns_, now);
    ++phase.triggers;
    ++result_.attempted;
    pending_ = false;
    oversubscribed_ = false;
    quality_.check(machine_, inputs_.specs(), world_.commanded(), layers_, result_);
  }

  /// A home-only trigger the policy has not acted on by the next due time
  /// is a miss (the documented defect, not a new failure); any other
  /// trigger fails once past its deadline.
  void expire_if_overdue(std::uint64_t now, Phase& phase) {
    if (pending_home_only_ && issue_tick_ == 0 && now >= next_due_) {
      ++home_only_missed_;
    } else if (now >= due_ns_ + kDeadlineNs) {
      ++result_.attempted;
      result_.fail("trigger " + std::to_string(index_ - 1) + " not enacted within " +
                   std::to_string(kDeadlineNs / 1000000) + " ms");
    } else {
      return;
    }
    pending_ = false;
    ++phase.triggers;
  }

  World& world_;
  const ns::topo::Machine& machine_;
  Inputs inputs_;
  Schedule schedule_;
  Layers& layers_;
  Result& result_;
  QualityTally quality_;
  std::uint64_t executed_base_[kApps] = {};
  std::uint64_t next_due_ = 0;
  std::uint64_t index_ = 0;
  std::uint64_t ticks_ = 0;
  bool pending_ = false;
  bool pending_home_only_ = false;
  bool oversubscribed_ = false;
  std::uint64_t due_ns_ = 0;
  std::uint64_t trigger_tick_ = 0;
  std::uint64_t issue_tick_ = 0;
  std::uint64_t epoch_before_[kApps] = {};
  std::uint64_t applied_ns_[kApps] = {};
  bool settled_[kApps] = {};
  std::uint64_t home_only_triggers_ = 0;
  std::uint64_t home_only_missed_ = 0;
};

}  // namespace

void run_realloc_churn(const Args& args, Layers& layers, Result& result) {
  const auto machine = churn_machine();
  const Inputs initial;
  std::vector<double> setups;
  std::unique_ptr<World> world;
  for (int k = 0; k < kSetups; ++k) {
    world.reset();
    const std::uint64_t start = now_ns();
    world = build_world(machine, args.shm_prefix + "r" + std::to_string(k), initial, layers,
                        result);
    if (world == nullptr) return;
    setups.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  result.set("setup_s", median(setups), "s", setups.size());
  const CpuKeepers keepers;

  Churn churn(*world, machine, initial, args.seed, layers, result);
  churn.start_chains();

  const auto finish = [&] {
    churn.finish();
    result.set("check.home_only_missed_frac",
               static_cast<double>(churn.home_only_missed()) /
                   static_cast<double>(std::max<std::uint64_t>(churn.home_only_triggers(), 1)),
               "ratio", churn.home_only_triggers());
  };

  if (!args.trace) {
    const Phase phase = churn.run(args.seconds);
    finish();
    const auto n = phase.latency_ns.size();
    result.set("op_p50_us", exact_percentile(phase.latency_ns, 50) * 1e-3, "us", n);
    result.set("ops_per_s",
               static_cast<double>(phase.tasks) / (static_cast<double>(phase.elapsed_ns) * 1e-9),
               "1/s", phase.tasks);
    result.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
    return;
  }

  const Phase plain = churn.run(args.seconds / 2);
  RuntimeTotals before;
  for (const auto& app : world->apps) before.add(*app.runtime);
  const auto stats_before = world->daemon->stats();
  const std::uint64_t ticks_before = churn.ticks();
  layers.on = true;
  const Phase traced = churn.run(args.seconds / 2);
  layers.on = false;
  RuntimeTotals after;
  for (const auto& app : world->apps) after.add(*app.runtime);
  const auto stats_after = world->daemon->stats();
  finish();

  report_runtime_layers(after.since(before), std::max<std::uint64_t>(traced.triggers, 1), result);
  churn.quality().report(layers, result);
  const auto us = [](const ns::obs::LatencyHistogram& h, double p) {
    return hist_percentile(h, p) * 1e-3;
  };
  result.set("runtime.settle_us_p50", us(layers.settle, 50), "us", layers.settle.count());
  result.set("runtime.settle_us_p99", us(layers.settle, 99), "us", layers.settle.count());
  result.set("agent.pump_us_p50", us(layers.pump, 50), "us", layers.pump.count());
  result.set("agent.pump_us_p99", us(layers.pump, 99), "us", layers.pump.count());
  result.set("agent.decide_us_p50", us(layers.decide, 50), "us", layers.decide.count());
  result.set("agent.decide_us_p99", us(layers.decide, 99), "us", layers.decide.count());
  result.set("agent.cmd_wait_us_p50", us(layers.cmd_wait, 50), "us", layers.cmd_wait.count());
  std::uint64_t cmd_dropped = 0;
  std::uint64_t tel_dropped = 0;
  for (const auto& app : world->apps) {
    cmd_dropped += app.channel->commands_dropped();
    tel_dropped += app.channel->telemetry_dropped();
  }
  result.set("agent.cmd_dropped", static_cast<double>(cmd_dropped), "count", 1);
  result.set("agent.tel_dropped", static_cast<double>(tel_dropped), "count", 1);
  result.set("daemon.tick_quiet_us_p50", us(layers.tick_quiet, 50), "us", layers.tick_quiet.count());
  result.set("daemon.tick_quiet_us_p99", us(layers.tick_quiet, 99), "us", layers.tick_quiet.count());
  result.set("daemon.tick_issue_us_p50", us(layers.tick_issue, 50), "us", layers.tick_issue.count());
  result.set("daemon.tick_issue_us_p99", us(layers.tick_issue, 99), "us", layers.tick_issue.count());
  result.set("daemon.ticks_to_issue",
             static_cast<double>(traced.ticks_to_issue_sum) /
                 static_cast<double>(std::max<std::uint64_t>(traced.issued, 1)),
             "count", traced.issued);
  const std::uint64_t ticks = churn.ticks() - ticks_before;
  result.set("daemon.visits_per_tick",
             static_cast<double>(stats_after.attention_visits - stats_before.attention_visits) /
                 static_cast<double>(std::max<std::uint64_t>(ticks, 1)),
             "count", ticks);
  result.set("daemon.join_us_p50", us(layers.join, 50), "us", layers.join.count());
  result.set("gen.late_us_p50", us(layers.late, 50), "us", layers.late.count());
  result.set("gen.late_us_p99", us(layers.late, 99), "us", layers.late.count());
  const auto p50 = [](const Phase& p) { return exact_percentile(p.latency_ns, 50); };
  // The tail is steady on task_stream and arbiter_scale but not on
  // realloc_churn, where it follows the host's wake-up latency for idle
  // vCPUs; so it is reported here, from the untraced half, without a bound.
  result.set("e2e.op_p99_us", exact_percentile(plain.latency_ns, 99) * 1e-3, "us",
             plain.latency_ns.size());
  result.set("trace.overhead_frac", p50(traced) / std::max(p50(plain), 1.0) - 1.0, "ratio",
             traced.latency_ns.size());
}

}  // namespace perfbench
