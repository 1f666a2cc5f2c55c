#include "core/roofline.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/format.hpp"

namespace numashare::model {

namespace {

constexpr double kEps = 1e-12;

}  // namespace

const GroupResult* Solution::find_group(AppId app, topo::NodeId exec_node) const {
  for (const auto& g : groups) {
    if (g.app == app && g.exec_node == exec_node) return &g;
  }
  return nullptr;
}

std::string Solution::describe(const std::vector<AppSpec>& apps) const {
  std::string out;
  for (AppId a = 0; a < app_gflops.size(); ++a) {
    const std::string& name = a < apps.size() ? apps[a].name : "app";
    out += ns_format("  {} ({}): {} GFLOPS\n", name, a, fmt_compact(app_gflops[a], 4));
  }
  out += ns_format("  total: {} GFLOPS\n", fmt_compact(total_gflops, 4));
  return out;
}

Solution solve(const topo::Machine& machine, const std::vector<AppSpec>& apps,
               const Allocation& allocation, const SolveOptions& options) {
  std::string error;
  NS_REQUIRE(machine.validate(&error), error.c_str());
  NS_REQUIRE(allocation.validate(machine, &error), error.c_str());
  SolveScratch scratch;
  solve_into(machine, apps, allocation, scratch, options);
  return std::move(scratch.solution);
}

const Solution& solve_into(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                           const Allocation& allocation, SolveScratch& scratch,
                           const SolveOptions& options) {
  plan_solve(machine, apps, options, scratch.plan);
  NS_REQUIRE(scratch.plan.fits(allocation), "app specs must index-match the allocation");
  return solve_planned(scratch.plan, allocation, scratch);
}

void plan_solve(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                const SolveOptions& options, SolvePlan& plan) {
  const std::uint32_t nodes_n = machine.node_count();
  const ForeignLoad& foreign = options.foreign;
  NS_REQUIRE(foreign.busy_cores.empty() || foreign.busy_cores.size() == nodes_n,
             "foreign busy_cores must be empty or one entry per node");
  NS_REQUIRE(foreign.bandwidth.empty() || foreign.bandwidth.size() == nodes_n,
             "foreign bandwidth must be empty or one entry per node");
  plan.app_count = static_cast<std::uint32_t>(apps.size());
  plan.node_count = nodes_n;
  plan.max_waterfill_rounds = options.max_waterfill_rounds;
  plan.single_shot_remainder = options.single_shot_remainder;
  plan.foreign_compute = false;

  plan.nodes.resize(nodes_n);
  plan.links.resize(static_cast<std::size_t>(nodes_n) * nodes_n);
  for (topo::NodeId m = 0; m < nodes_n; ++m) {
    const auto& numa = machine.node(m);
    NS_ASSERT(!numa.cores.empty());
    SolvePlan::Node& node = plan.nodes[m];
    node.core_peak = machine.core(numa.cores.front()).peak_gflops;
    node.cores = static_cast<double>(numa.cores.size());
    node.bandwidth = numa.memory_bandwidth;
    // Opaque foreign consumers are served off the top: they are running
    // regardless of what the allocator decides, so cooperating flows compete
    // for only what they leave behind.
    const GBps foreign_bw = foreign.bandwidth.empty() ? 0.0 : std::max(0.0, foreign.bandwidth[m]);
    node.foreign_granted = std::min(foreign_bw, node.bandwidth);
    node.coop_bandwidth = node.bandwidth - node.foreign_granted;
    node.foreign_cores = foreign.busy_cores.empty()
                             ? 0.0
                             : std::min(std::max(0.0, foreign.busy_cores[m]), node.cores);
    node.free_cores = std::max(0.0, node.cores - node.foreign_cores);
    plan.foreign_compute |= node.foreign_cores > 0.0;
    for (topo::NodeId to = 0; to < nodes_n; ++to) {
      plan.links[m * nodes_n + to] = machine.link_bandwidth(m, to);
    }
  }

  plan.apps.resize(apps.size());
  plan.cells.resize(apps.size() * nodes_n);
  for (AppId a = 0; a < apps.size(); ++a) {
    const AppSpec& app = apps[a];
    NS_REQUIRE(app.ai > 0.0, "arithmetic intensity must be positive");
    if (app.placement == Placement::kNumaBad) {
      NS_REQUIRE(app.home_node < nodes_n, "NUMA-bad home node out of range");
    }
    if (app.serial_fraction > 0.0) {
      NS_REQUIRE(app.serial_fraction < 1.0, "serial fraction must be in [0, 1)");
    }
    plan.apps[a] = {app.ai, app.serial_fraction};
    for (topo::NodeId n = 0; n < nodes_n; ++n) {
      plan.cells[a * nodes_n + n] = {demand_gbps(plan.nodes[n].core_peak, app.ai),
                                     app.memory_node(n)};
    }
  }
}

const Solution& solve_planned(const SolvePlan& plan, const Allocation& allocation,
                              SolveScratch& scratch) {
  const std::uint32_t apps_n = plan.app_count;
  const std::uint32_t nodes_n = plan.node_count;
  const std::uint32_t* counts = allocation.counts();

  Solution& solution = scratch.solution;
  auto& groups = solution.groups;
  groups.clear();
  solution.app_gflops.assign(apps_n, 0.0);
  solution.nodes.resize(nodes_n);
  solution.total_gflops = 0.0;

  // 1. Build homogeneous thread groups, app-major.
  scratch.app_group_offset.resize(apps_n + 1);
  for (AppId a = 0; a < apps_n; ++a) {
    scratch.app_group_offset[a] = static_cast<std::uint32_t>(groups.size());
    for (topo::NodeId n = 0; n < nodes_n; ++n) {
      const std::uint32_t t = counts[a * nodes_n + n];
      if (t == 0) continue;
      const SolvePlan::Cell& cell = plan.cells[a * nodes_n + n];
      groups.push_back({a, n, cell.memory_node, t, cell.demand, 0.0, 0.0});
    }
  }
  const std::uint32_t group_count = static_cast<std::uint32_t>(groups.size());
  scratch.app_group_offset[apps_n] = group_count;

  // 1b. Bucket groups by memory controller (CSR): one counting pass, one
  //     scatter. Group order is preserved within each bucket, so the
  //     controller loops below visit groups in exactly the order the old
  //     filter-into-pointer-vectors code did.
  scratch.bucket_offset.assign(nodes_n + 1, 0);
  for (const auto& g : groups) ++scratch.bucket_offset[g.memory_node + 1];
  for (topo::NodeId m = 0; m < nodes_n; ++m) {
    scratch.bucket_offset[m + 1] += scratch.bucket_offset[m];
  }
  scratch.bucket_cursor.assign(scratch.bucket_offset.begin(),
                               scratch.bucket_offset.end() - 1);
  scratch.bucket_groups.resize(group_count);
  for (std::uint32_t i = 0; i < group_count; ++i) {
    scratch.bucket_groups[scratch.bucket_cursor[groups[i].memory_node]++] = i;
  }

  // 2. Solve each memory controller independently (the model couples nodes
  //    only through the static link caps, so controllers are separable).
  for (topo::NodeId m = 0; m < nodes_n; ++m) {
    const SolvePlan::Node& node = plan.nodes[m];
    auto& breakdown = solution.nodes[m];
    breakdown = NodeBreakdown{};
    breakdown.node = m;
    breakdown.bandwidth = node.bandwidth;
    breakdown.foreign_granted = node.foreign_granted;
    const GBps coop_bandwidth = node.coop_bandwidth;
    const std::uint32_t* bucket = scratch.bucket_groups.data() + scratch.bucket_offset[m];
    const std::uint32_t bucket_size = scratch.bucket_offset[m + 1] - scratch.bucket_offset[m];

    // 2a. Remote flows first, each capped by its directed link. The flow
    //     grant (whole-group GB/s) is stashed in per_thread_granted until
    //     the optional proportional rescale, then converted to per-thread.
    GBps remote_total = 0.0;
    for (std::uint32_t i = 0; i < bucket_size; ++i) {
      auto& g = groups[bucket[i]];
      if (g.exec_node == m) continue;
      const GBps flow_demand = g.per_thread_demand * g.threads;
      g.per_thread_granted = std::min(flow_demand, plan.links[g.exec_node * nodes_n + m]);
      breakdown.remote_demand += flow_demand;
      remote_total += g.per_thread_granted;
    }
    // The paper does not say what happens when the links together exceed the
    // controller; we scale the flows proportionally so the controller's peak
    // is never exceeded.
    double remote_scale = 1.0;
    if (remote_total > coop_bandwidth + kEps) {
      remote_scale = coop_bandwidth / remote_total;
      remote_total = coop_bandwidth;
    }
    breakdown.remote_granted = remote_total;
    for (std::uint32_t i = 0; i < bucket_size; ++i) {
      auto& g = groups[bucket[i]];
      if (g.exec_node == m) continue;
      if (remote_scale != 1.0) g.per_thread_granted *= remote_scale;
      g.per_thread_granted /= g.threads;
    }

    // 2b. Locals split the remainder: equal per-core baseline ...
    const GBps remaining = std::max(0.0, coop_bandwidth - remote_total);
    breakdown.baseline_per_core = remaining / node.cores;
    GBps pool = remaining;
    for (std::uint32_t i = 0; i < bucket_size; ++i) {
      auto& g = groups[bucket[i]];
      if (g.exec_node != m) continue;
      breakdown.local_demand += g.per_thread_demand * g.threads;
      g.per_thread_granted = std::min(g.per_thread_demand, breakdown.baseline_per_core);
      pool -= g.per_thread_granted * g.threads;
      breakdown.local_baseline_granted += g.per_thread_granted * g.threads;
    }

    // 2c. ... then the leftover, proportional to unmet demand (water-fill).
    for (std::uint32_t round = 0; round < plan.max_waterfill_rounds; ++round) {
      if (pool <= kEps) break;
      double weighted_deficit = 0.0;
      for (std::uint32_t i = 0; i < bucket_size; ++i) {
        const auto& g = groups[bucket[i]];
        if (g.exec_node != m) continue;
        weighted_deficit += (g.per_thread_demand - g.per_thread_granted) * g.threads;
      }
      if (weighted_deficit <= kEps) break;
      GBps distributed = 0.0;
      for (std::uint32_t i = 0; i < bucket_size; ++i) {
        auto& g = groups[bucket[i]];
        if (g.exec_node != m) continue;
        const GBps deficit = g.per_thread_demand - g.per_thread_granted;
        if (deficit <= kEps) continue;
        const GBps share_per_thread = pool * deficit / weighted_deficit;
        const GBps take = std::min(deficit, share_per_thread);
        g.per_thread_granted += take;
        distributed += take * g.threads;
      }
      breakdown.local_remainder_granted += distributed;
      pool -= distributed;
      if (plan.single_shot_remainder) break;
      if (distributed <= kEps) break;
    }
    breakdown.total_granted = breakdown.foreign_granted + breakdown.remote_granted +
                              breakdown.local_baseline_granted +
                              breakdown.local_remainder_granted;
    NS_ASSERT(breakdown.total_granted <= breakdown.bandwidth * (1.0 + 1e-9) + kEps);
  }

  // 3. Roofline: bandwidth -> GFLOPS, capped at the compute peak. Foreign
  //    busy cores timeshare the node: with F foreign cores busy out of C and
  //    T cooperating threads placed there, each cooperating thread can hold
  //    at most min(1, (C - F) / T) of a core, derating its compute peak.
  //    (Bandwidth demand is left at the full-peak figure: a timeshared
  //    thread still issues the same stream when scheduled, and keeping
  //    demand fixed preserves the paper's split arithmetic.)
  scratch.compute_share.assign(nodes_n, 1.0);
  if (plan.foreign_compute) {
    scratch.node_threads.assign(nodes_n, 0);
    for (const auto& g : groups) scratch.node_threads[g.exec_node] += g.threads;
    for (topo::NodeId n = 0; n < nodes_n; ++n) {
      const SolvePlan::Node& node = plan.nodes[n];
      const double threads = scratch.node_threads[n];
      if (node.foreign_cores > 0.0 && threads > 0.0) {
        scratch.compute_share[n] = std::min(1.0, node.free_cores / threads);
      }
    }
  }
  const double* share = scratch.compute_share.data();
  for (auto& g : groups) {
    const GFlops peak = plan.nodes[g.exec_node].core_peak * share[g.exec_node];
    g.per_thread_gflops = achieved_gflops(g.per_thread_granted, plan.apps[g.app].ai, peak);
  }

  // 3b. Sub-linear scaling (paper §II): an app with a serial fraction cannot
  //     exceed (mean per-thread peak) x Amdahl-effective-threads regardless
  //     of bandwidth; when the cap binds, every group of that app is derated
  //     proportionally (the stalled time is spread over its threads). The
  //     mean is thread-weighted so an app spanning nodes with different core
  //     peaks is capped by the compute it actually has, not by its single
  //     fastest node.
  for (AppId a = 0; a < apps_n; ++a) {
    const double serial = plan.apps[a].serial_fraction;
    if (serial <= 0.0) continue;
    const std::uint32_t begin = scratch.app_group_offset[a];
    const std::uint32_t end = scratch.app_group_offset[a + 1];
    GFlops raw = 0.0;
    GFlops thread_peak_sum = 0.0;  // sum over threads of their core's peak
    std::uint32_t threads = 0;
    for (std::uint32_t i = begin; i < end; ++i) {
      const auto& g = groups[i];
      raw += g.group_gflops();
      threads += g.threads;
      thread_peak_sum += g.threads * plan.nodes[g.exec_node].core_peak * share[g.exec_node];
    }
    if (threads == 0 || raw <= 0.0) continue;
    const GFlops cap = (thread_peak_sum / threads) * amdahl_threads(serial, threads);
    if (raw <= cap) continue;
    const double derate = cap / raw;
    for (std::uint32_t i = begin; i < end; ++i) groups[i].per_thread_gflops *= derate;
  }

  for (const auto& g : groups) {
    solution.app_gflops[g.app] += g.group_gflops();
    solution.nodes[g.exec_node].node_gflops += g.group_gflops();
    solution.total_gflops += g.group_gflops();
  }
  return solution;
}

}  // namespace numashare::model
