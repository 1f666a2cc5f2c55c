#include "core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/assert.hpp"

namespace numashare::model {

double score(const Solution& solution, Objective objective) {
  switch (objective) {
    case Objective::kTotalGflops:
      return solution.total_gflops;
    case Objective::kMinAppGflops: {
      double worst = std::numeric_limits<double>::infinity();
      for (auto g : solution.app_gflops) worst = std::min(worst, g);
      return solution.app_gflops.empty() ? 0.0 : worst;
    }
    case Objective::kProportionalFairness: {
      double total = 0.0;
      for (auto g : solution.app_gflops) {
        // An app at zero would dominate everything; floor far below any real
        // throughput so such allocations rank last but stay comparable.
        total += std::log(std::max(g, 1e-12));
      }
      return total;
    }
  }
  NS_ASSERT_MSG(false, "unknown objective");
  return 0.0;
}

const char* to_string(Objective objective) {
  switch (objective) {
    case Objective::kTotalGflops: return "total-gflops";
    case Objective::kMinAppGflops: return "min-app-gflops";
    case Objective::kProportionalFairness: return "proportional-fairness";
  }
  return "?";
}

namespace {

void compose(std::uint32_t apps_left, std::uint32_t budget, bool require_full,
             std::uint32_t min_per_app, std::vector<std::uint32_t>& current,
             std::vector<std::vector<std::uint32_t>>& out) {
  if (apps_left == 1) {
    if (require_full) {
      if (budget >= min_per_app) {
        current.push_back(budget);
        out.push_back(current);
        current.pop_back();
      }
    } else {
      for (std::uint32_t c = min_per_app; c <= budget; ++c) {
        current.push_back(c);
        out.push_back(current);
        current.pop_back();
      }
    }
    return;
  }
  for (std::uint32_t c = min_per_app; c <= budget; ++c) {
    current.push_back(c);
    compose(apps_left - 1, budget - c, require_full, min_per_app, current, out);
    current.pop_back();
  }
}

/// Enforce per-app total-thread caps on a candidate: shave capped apps from
/// the last node down, then re-grant exactly the freed capacity (same nodes)
/// to apps still under their caps, round-robin. Keeps the per-node core
/// budget intact and leaves cores idle only when *every* app is capped out.
/// Per-app totals are computed once up front and maintained through the
/// shave and re-grant passes (they used to be recomputed O(nodes) inside the
/// grant loops, which was quadratic in the machine size).
void apply_caps(const topo::Machine& machine, Allocation& alloc,
                const std::vector<std::uint32_t>& caps, std::vector<std::uint32_t>& totals,
                std::vector<std::uint32_t>& freed) {
  const auto apps_n = static_cast<AppId>(caps.size());
  const auto nodes_n = machine.node_count();
  totals.assign(apps_n, 0);
  for (AppId a = 0; a < apps_n; ++a) {
    for (topo::NodeId n = 0; n < nodes_n; ++n) totals[a] += alloc.threads(a, n);
  }
  freed.assign(nodes_n, 0);
  for (AppId a = 0; a < apps_n; ++a) {
    for (topo::NodeId n = nodes_n; totals[a] > caps[a] && n > 0; --n) {
      const std::uint32_t cut = std::min(alloc.threads(a, n - 1), totals[a] - caps[a]);
      alloc.set_threads(a, n - 1, alloc.threads(a, n - 1) - cut);
      freed[n - 1] += cut;
      totals[a] -= cut;
    }
  }
  for (topo::NodeId n = 0; n < nodes_n; ++n) {
    while (freed[n] > 0) {
      bool granted = false;
      for (AppId a = 0; a < apps_n && freed[n] > 0; ++a) {
        if (totals[a] >= caps[a]) continue;
        alloc.set_threads(a, n, alloc.threads(a, n) + 1);
        ++totals[a];
        --freed[n];
        granted = true;
      }
      if (!granted) break;  // everyone capped out: the cores idle, by design
    }
  }
}

void apply_caps(const topo::Machine& machine, Allocation& alloc,
                const std::vector<std::uint32_t>& caps) {
  std::vector<std::uint32_t> totals;
  std::vector<std::uint32_t> freed;
  apply_caps(machine, alloc, caps, totals, freed);
}

std::uint32_t smallest_node_cores(const topo::Machine& machine) {
  std::uint32_t min_cores = machine.cores_in_node(0);
  for (topo::NodeId n = 1; n < machine.node_count(); ++n) {
    min_cores = std::min(min_cores, machine.cores_in_node(n));
  }
  return min_cores;
}

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  if (a != 0 && b > std::numeric_limits<std::uint64_t>::max() / a) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a * b;
}

/// C(n, k), saturating at UINT64_MAX. Exact while the running product fits:
/// r * (n - k + i) is computed before the exact division by i.
std::uint64_t binomial_capped(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::uint64_t r = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    const std::uint64_t factor = n - k + i;
    if (r > std::numeric_limits<std::uint64_t>::max() / factor) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    r = r * factor / i;
  }
  return r;
}

/// Admissible per-app upper bounds for the uniform family (see
/// docs/MODEL.md "Search cost and pruning"). With uniform count c an app's
/// GFLOPS cannot exceed min(c * slope, flat[a]) where
///   slope   = sum over nodes of the per-core compute peak (every app shares
///             the same slope because the peak is a node property), and
///   flat[a] = the app's bandwidth roofline (all controllers for
///             NUMA-perfect placement, the home controller for NUMA-bad)
///             intersected with its Amdahl ceiling when it has a serial
///             fraction.
struct SearchBounds {
  double slope = 0.0;
  std::vector<double> flat;
  std::vector<double> suffix_flat;  // suffix sums of flat, size apps + 1
};

SearchBounds make_search_bounds(const SolvePlan& plan, const std::vector<AppSpec>& apps) {
  SearchBounds b;
  const auto nodes_n = plan.node_count;
  // Foreign load tightens (never loosens) both axes of the bound: the slope
  // uses the compute left after foreign busy cores — a thread on node m gets
  // a share min(1, (C-F)/T) <= min(1, C-F) of a core — and the bandwidth
  // roofline uses the post-foreign effective controller bandwidth, since the
  // solver serves foreign draw off the top. With no foreign load both reduce
  // bitwise to the PR-5 bounds.
  double total_bw = 0.0;
  for (const SolvePlan::Node& node : plan.nodes) {
    b.slope += node.core_peak * std::min(1.0, node.free_cores);
    total_bw += node.coop_bandwidth;
  }
  b.flat.resize(apps.size());
  b.suffix_flat.assign(apps.size() + 1, 0.0);
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const auto& app = apps[a];
    const double home_bw = app.placement == Placement::kNumaBad
                               ? plan.nodes[app.home_node].coop_bandwidth
                               : 0.0;
    double f = app.placement == Placement::kNumaBad ? home_bw * app.ai : total_bw * app.ai;
    if (app.serial_fraction > 0.0) {
      // Amdahl: capped at thread-weighted mean peak x effective threads;
      // for uniform counts the mean is slope / nodes and eff(T) < 1/sigma.
      f = std::min(f, (b.slope / nodes_n) / app.serial_fraction);
    }
    b.flat[a] = f;
  }
  for (std::size_t a = apps.size(); a-- > 0;) {
    b.suffix_flat[a] = b.suffix_flat[a + 1] + b.flat[a];
  }
  return b;
}

/// Streaming branch-and-bound over the uniform family plus node
/// permutations. Candidates are visited in exactly the order the reference
/// enumeration materializes them (counts ascending per app; permutations in
/// std::next_permutation order after the uniform family) and the incumbent
/// is replaced only on strict improvement, so any subtree cut by an
/// *admissible* bound cannot change the winner: the two engines return
/// bitwise-identical objective values and allocations.
struct StreamSearch {
  const topo::Machine& machine;
  const std::vector<AppSpec>& apps;
  Objective objective;
  bool require_full;
  std::uint32_t min_per_app;
  const std::vector<std::uint32_t>& caps;
  /// The solver's per-search constants, foreign load included, shared by
  /// every candidate and bound solve.
  SolvePlan plan;

  std::uint32_t apps_n = 0;
  std::uint32_t nodes_n = 0;
  std::uint32_t budget = 0;
  /// Caps disable pruning: the post-cap re-grant can hand a candidate's
  /// shaved threads to a *different* app, so pre-cap per-app bounds are not
  /// admissible for the capped allocation. The enumeration still streams
  /// (nothing is materialized) and evaluates every candidate, which is what
  /// the reference engine does too.
  bool prune_enabled = true;

  SearchBounds bounds;
  /// The joint-bandwidth bound (kTotalGflops only; see joint_bound()): the
  /// apps by descending AI, the cooperative bandwidth every grant comes out
  /// of, and per DFS depth d a row of GFLOPS caps on apps [0, d].
  bool joint_enabled = false;
  std::vector<std::uint32_t> by_ai;
  double coop_bw = 0.0;
  std::vector<double> depth_caps;  // apps_n x apps_n, row-major by depth
  Allocation workspace;  // the uniform candidate under construction, mutated in place
  Allocation capped;     // caps-applied copy of the workspace
  std::vector<std::uint32_t> cap_totals;
  std::vector<std::uint32_t> cap_freed;
  SolveScratch eval_scratch;   // full candidate evaluations
  SolveScratch bound_scratch;  // partial-prefix bound solves

  SearchResult best;

  StreamSearch(const topo::Machine& machine_, const std::vector<AppSpec>& apps_,
               Objective objective_, bool require_full_, std::uint32_t min_per_app_,
               const std::vector<std::uint32_t>& caps_, const ForeignLoad& foreign_)
      : machine(machine_),
        apps(apps_),
        objective(objective_),
        require_full(require_full_),
        min_per_app(min_per_app_),
        caps(caps_) {
    SolveOptions solve_options;
    solve_options.foreign = foreign_;
    plan_solve(machine, apps, solve_options, plan);
    apps_n = static_cast<std::uint32_t>(apps.size());
    nodes_n = machine.node_count();
    budget = smallest_node_cores(machine);
    prune_enabled = caps.empty();
    if (prune_enabled) bounds = make_search_bounds(plan, apps);
    joint_enabled = prune_enabled && objective == Objective::kTotalGflops;
    if (joint_enabled) {
      by_ai.resize(apps_n);
      std::iota(by_ai.begin(), by_ai.end(), 0u);
      std::sort(by_ai.begin(), by_ai.end(), [&](std::uint32_t x, std::uint32_t y) {
        return plan.apps[x].ai != plan.apps[y].ai ? plan.apps[x].ai > plan.apps[y].ai : x < y;
      });
      // The kernel lets a controller's remote flows overshoot its
      // cooperative bandwidth by up to 1e-12 before rescaling them; count
      // that slack in so the bound holds exactly.
      for (const SolvePlan::Node& node : plan.nodes) coop_bw += node.coop_bandwidth + 1e-12;
      depth_caps.assign(static_cast<std::size_t>(apps_n) * apps_n, 0.0);
    }
    workspace = Allocation(apps_n, nodes_n);
    best.objective_value = -std::numeric_limits<double>::infinity();
  }

  double app_ub(std::uint32_t a, std::uint32_t c) const {
    return std::min(static_cast<double>(c) * bounds.slope, bounds.flat[a]);
  }

  /// The most cores per node any one of the `tail_n` unassigned apps can
  /// still get: the remaining budget minus the minima its peers still need
  /// (descend only recurses where remaining >= min_per_app x tail_n).
  std::uint32_t tail_cmax(std::uint32_t tail_n, std::uint32_t remaining) const {
    return tail_n == 0 ? 0 : remaining - min_per_app * (tail_n - 1);
  }

  double* cap_row(std::uint32_t depth) {
    return depth_caps.data() + static_cast<std::size_t>(depth) * apps_n;
  }

  /// Start depth d's cap row with app d capped at `ub`. The prefix caps come
  /// from depth d - 1, so a sibling's partial-solve tightening never leaks.
  void open_cap_row(std::uint32_t d, double ub) {
    double* row = cap_row(d);
    if (d > 0) std::copy_n(cap_row(d - 1), d, row);
    row[d] = ub;
  }

  /// Joint-bandwidth bound on the total GFLOPS of every completion once apps
  /// [0, next_app) are assigned (their caps in row next_app - 1). The kernel
  /// never gives an app more than ai x its granted bandwidth, and the grants
  /// across all controllers add up to at most coop_bw, so every candidate
  /// satisfies sum_a g_a / ai_a <= coop_bw. Each app is also capped: an
  /// assigned app by its row entry, a tail app by the most cores it can
  /// still get; and the tail apps share `remaining` cores per node, so their
  /// sum is at most remaining x slope. Maximizing sum_a g_a under those
  /// constraints is a linear program, and filling apps greedily by
  /// descending AI is its exact optimum: it spends the bandwidth where one
  /// GB/s buys the most GFLOPS, and the compute row only ends the tail's
  /// share early (a bound below that optimum would not be admissible).
  double joint_bound(std::uint32_t next_app, std::uint32_t remaining) const {
    const double* row = depth_caps.data() + static_cast<std::size_t>(next_app - 1) * apps_n;
    const std::uint32_t cmax = tail_cmax(apps_n - next_app, remaining);
    double bw_left = coop_bw;
    double tail_left = static_cast<double>(remaining) * bounds.slope;
    double total = 0.0;
    for (const std::uint32_t a : by_ai) {
      const double ai = plan.apps[a].ai;
      double take = bw_left * ai;
      if (a < next_app) {
        take = std::min(take, row[a]);
      } else {
        take = std::min({take, app_ub(a, cmax), tail_left});
        tail_left -= take;
      }
      total += take;
      bw_left -= take / ai;
      if (bw_left <= 0.0) break;
    }
    return total;
  }

  /// Admissible upper bound on every completion once apps [0, next_app) are
  /// assigned, from the prefix accumulators (pt: sum, pm: min, pl: log-sum
  /// — each already a valid bound on the assigned apps' final throughput)
  /// plus a fractional-relaxation bound on the unassigned tail sharing the
  /// `remaining` per-node budget. For kTotalGflops, the smaller of that and
  /// joint_bound().
  double combine_bound(double pt, double pm, double pl, std::uint32_t next_app,
                       std::uint32_t remaining) const {
    const std::uint32_t tail_n = apps_n - next_app;
    switch (objective) {
      case Objective::kTotalGflops:
        return std::min(pt + (tail_n == 0 ? 0.0
                                          : std::min(static_cast<double>(remaining) * bounds.slope,
                                                     bounds.suffix_flat[next_app])),
                        joint_bound(next_app, remaining));
      case Objective::kMinAppGflops:
        // Tail apps can only lower the minimum, never raise it.
        return pm;
      case Objective::kProportionalFairness: {
        double out = pl;
        const std::uint32_t cmax = tail_cmax(tail_n, remaining);
        for (std::uint32_t b = next_app; b < apps_n; ++b) {
          out += std::log(std::max(app_ub(b, cmax), 1e-12));
        }
        return out;
      }
    }
    NS_ASSERT_MSG(false, "unknown objective");
    return std::numeric_limits<double>::infinity();
  }

  /// True when the (admissible) bound proves nothing in the subtree can
  /// strictly beat the incumbent. The margin absorbs floating-point noise in
  /// the bound arithmetic — pruning must never fire on a rounding hair.
  bool cuttable(double bound) const {
    return bound + 1e-9 * std::abs(bound) + 1e-12 <= best.objective_value;
  }

  void set_row(std::uint32_t a, std::uint32_t c) {
    for (topo::NodeId n = 0; n < nodes_n; ++n) workspace.set_threads(a, n, c);
  }

  void evaluate_current() {
    const Allocation* candidate = &workspace;
    if (!caps.empty()) {
      capped = workspace;
      apply_caps(machine, capped, caps, cap_totals, cap_freed);
      candidate = &capped;
    }
    const Solution& solution = solve_planned(plan, *candidate, eval_scratch);
    ++best.evaluated;
    const double value = score(solution, objective);
    if (value > best.objective_value) {
      best.objective_value = value;
      best.allocation = *candidate;
      best.solution = solution;
    }
  }

  void leaf(std::uint32_t remaining, double pt, double pm, double pl) {
    const std::uint32_t a = apps_n - 1;
    if (remaining < min_per_app) return;
    const std::uint32_t c_lo = require_full ? remaining : min_per_app;
    for (std::uint32_t c = c_lo; c <= remaining; ++c) {
      ++best.visited;
      if (prune_enabled) {
        const double ub = app_ub(a, c);
        double bound = 0.0;
        switch (objective) {
          case Objective::kTotalGflops:
            open_cap_row(a, ub);
            bound = std::min(pt + ub, joint_bound(apps_n, 0));
            break;
          case Objective::kMinAppGflops: bound = std::min(pm, ub); break;
          case Objective::kProportionalFairness:
            bound = pl + std::log(std::max(ub, 1e-12));
            break;
        }
        if (cuttable(bound)) {
          ++best.pruned;
          continue;
        }
      }
      set_row(a, c);
      evaluate_current();
      set_row(a, 0);
    }
  }

  void descend(std::uint32_t a, std::uint32_t remaining, double pt, double pm, double pl) {
    if (a + 1 == apps_n) {
      leaf(remaining, pt, pm, pl);
      return;
    }
    const std::uint32_t tail_after = apps_n - a - 1;  // apps assigned after this one
    for (std::uint32_t c = min_per_app; c <= remaining; ++c) {
      const std::uint32_t rem_after = remaining - c;
      // Subtrees whose tail cannot reach min_per_app each contain no
      // candidates; counts only grow with c, so stop the scan here.
      if (static_cast<std::uint64_t>(min_per_app) * tail_after > rem_after) break;
      double cpt = 0.0;
      double cpm = 0.0;
      double cpl = 0.0;
      if (prune_enabled) {
        const double ub = app_ub(a, c);
        cpt = pt + ub;
        cpm = std::min(pm, ub);
        cpl = pl + std::log(std::max(ub, 1e-12));
        if (joint_enabled) open_cap_row(a, ub);
        if (cuttable(combine_bound(cpt, cpm, cpl, a + 1, rem_after))) {
          ++best.pruned;
          continue;
        }
      }
      set_row(a, c);
      if (prune_enabled && tail_after >= 2) {
        // Tighten the prefix accumulators with an exact partial solve: the
        // model run on the prefix alone (tail rows zero). Removing apps only
        // frees bandwidth for the ones that remain, so each assigned app's
        // partial throughput upper-bounds its throughput in any completion.
        const Solution& partial = solve_planned(plan, workspace, bound_scratch);
        ++best.bound_solves;
        double p_total = partial.total_gflops;
        double p_min = std::numeric_limits<double>::infinity();
        double p_log = 0.0;
        for (std::uint32_t p = 0; p <= a; ++p) {
          p_min = std::min(p_min, partial.app_gflops[p]);
          p_log += std::log(std::max(partial.app_gflops[p], 1e-12));
        }
        cpt = std::min(cpt, p_total);
        cpm = std::min(cpm, p_min);
        cpl = std::min(cpl, p_log);
        if (joint_enabled) {
          double* row = cap_row(a);
          for (std::uint32_t p = 0; p <= a; ++p) row[p] = std::min(row[p], partial.app_gflops[p]);
        }
        if (cuttable(combine_bound(cpt, cpm, cpl, a + 1, rem_after))) {
          ++best.pruned;
          set_row(a, 0);
          continue;
        }
      }
      descend(a + 1, rem_after, cpt, cpm, cpl);
      set_row(a, 0);
    }
  }

  void permutations() {
    std::vector<topo::NodeId> order(nodes_n);
    std::iota(order.begin(), order.end(), 0u);
    do {
      ++best.visited;
      // A node-per-app allocation duplicates a uniform-family candidate iff
      // every app's row is node-constant. With >= 1 core per node that
      // requires a single-node machine; the general check keeps the dedup
      // exact either way (the uniform family always contains the single-node
      // whole-machine candidate).
      bool duplicate = true;
      for (std::uint32_t a = 0; a < apps_n && duplicate; ++a) {
        const std::uint32_t first =
            order[a] == 0 ? machine.cores_in_node(order[a]) : 0;
        for (topo::NodeId n = 1; n < nodes_n; ++n) {
          const std::uint32_t cell = order[a] == n ? machine.cores_in_node(order[a]) : 0;
          if (cell != first) {
            duplicate = false;
            break;
          }
        }
      }
      if (duplicate && nodes_n >= 1) {
        ++best.deduped;
        continue;
      }
      for (std::uint32_t a = 0; a < apps_n; ++a) {
        workspace.set_threads(a, order[a], machine.cores_in_node(order[a]));
      }
      evaluate_current();
      for (std::uint32_t a = 0; a < apps_n; ++a) {
        workspace.set_threads(a, order[a], 0);
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }

  SearchResult run() {
    descend(0, budget, 0.0, std::numeric_limits<double>::infinity(), 0.0);
    // Node permutations hand each app a full node, so they satisfy any
    // per-app minimum and are always admissible when counts line up.
    if (apps_n == nodes_n) permutations();
    NS_REQUIRE(best.evaluated > 0, "no candidate allocations");
    return std::move(best);
  }
};

SearchResult climb(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                   const Allocation& start, Objective objective, std::uint32_t max_rounds,
                   double min_relative_gain, double churn_penalty_rel,
                   const Allocation* churn_seed, std::uint32_t min_app_total,
                   const ForeignLoad& foreign) {
  SolveScratch eval;
  SolveOptions solve_options;
  solve_options.foreign = foreign;
  SolvePlan plan;
  plan_solve(machine, apps, solve_options, plan);
  NS_REQUIRE(plan.fits(start), "app specs must index-match the allocation");
  SearchResult best;
  best.allocation = start;
  best.solution = solve_planned(plan, start, eval);
  best.evaluated = 1;
  best.objective_value = score(best.solution, objective);

  const auto apps_n = static_cast<AppId>(apps.size());
  const auto nodes_n = machine.node_count();

  Allocation current = start;  // mutated per candidate move, restored after
  std::vector<std::uint32_t> totals(apps_n, 0);
  for (AppId a = 0; a < apps_n; ++a) {
    for (topo::NodeId n = 0; n < nodes_n; ++n) totals[a] += current.threads(a, n);
  }

  const bool penalized = churn_seed != nullptr && churn_penalty_rel > 0.0;
  const double per_unit = penalized ? churn_penalty_rel * std::abs(best.objective_value) : 0.0;
  std::int64_t churn = 0;  // L1 distance of the incumbent from the seed
  if (penalized) {
    for (AppId a = 0; a < apps_n; ++a) {
      for (topo::NodeId n = 0; n < nodes_n; ++n) {
        churn += std::abs(static_cast<std::int64_t>(current.threads(a, n)) -
                          static_cast<std::int64_t>(churn_seed->threads(a, n)));
      }
    }
  }
  double incumbent_ranked =
      best.objective_value - per_unit * static_cast<double>(churn);

  struct Move {
    enum class Kind : std::uint8_t { kAdd, kDrop, kShift };
    Kind kind = Kind::kAdd;
    AppId a = 0;
    AppId b = 0;  // shift target
    topo::NodeId n = 0;
  };

  const auto cell_delta = [&](AppId a, topo::NodeId n, std::int32_t d) -> std::int64_t {
    const auto cur = static_cast<std::int64_t>(current.threads(a, n));
    const auto seed = static_cast<std::int64_t>(churn_seed->threads(a, n));
    return std::abs(cur + d - seed) - std::abs(cur - seed);
  };
  const auto move_delta = [&](const Move& m) -> std::int64_t {
    if (!penalized) return 0;
    switch (m.kind) {
      case Move::Kind::kAdd: return cell_delta(m.a, m.n, +1);
      case Move::Kind::kDrop: return cell_delta(m.a, m.n, -1);
      case Move::Kind::kShift: return cell_delta(m.a, m.n, -1) + cell_delta(m.b, m.n, +1);
    }
    return 0;
  };
  const auto do_move = [&](const Move& m) {
    switch (m.kind) {
      case Move::Kind::kAdd:
        current.set_threads(m.a, m.n, current.threads(m.a, m.n) + 1);
        ++totals[m.a];
        break;
      case Move::Kind::kDrop:
        current.set_threads(m.a, m.n, current.threads(m.a, m.n) - 1);
        --totals[m.a];
        break;
      case Move::Kind::kShift:
        current.set_threads(m.a, m.n, current.threads(m.a, m.n) - 1);
        current.set_threads(m.b, m.n, current.threads(m.b, m.n) + 1);
        --totals[m.a];
        ++totals[m.b];
        break;
    }
  };
  const auto undo_move = [&](const Move& m) {
    switch (m.kind) {
      case Move::Kind::kAdd:
        current.set_threads(m.a, m.n, current.threads(m.a, m.n) - 1);
        --totals[m.a];
        break;
      case Move::Kind::kDrop:
        current.set_threads(m.a, m.n, current.threads(m.a, m.n) + 1);
        ++totals[m.a];
        break;
      case Move::Kind::kShift:
        current.set_threads(m.a, m.n, current.threads(m.a, m.n) + 1);
        current.set_threads(m.b, m.n, current.threads(m.b, m.n) - 1);
        ++totals[m.a];
        --totals[m.b];
        break;
    }
  };

  Solution round_best_solution;
  for (std::uint32_t round = 0; round < max_rounds; ++round) {
    double round_best_ranked = incumbent_ranked;
    double round_best_raw = best.objective_value;
    Move round_best_move;
    std::int64_t round_best_delta = 0;
    bool improved = false;

    const auto consider = [&](const Move& m) {
      const std::int64_t delta = move_delta(m);
      do_move(m);
      const Solution& solution = solve_planned(plan, current, eval);
      ++best.evaluated;
      const double raw = score(solution, objective);
      const double ranked = penalized ? raw - per_unit * static_cast<double>(churn + delta) : raw;
      const double threshold =
          round_best_ranked + std::abs(round_best_ranked) * min_relative_gain + 1e-15;
      if (ranked > threshold) {
        round_best_ranked = ranked;
        round_best_raw = raw;
        round_best_move = m;
        round_best_delta = delta;
        round_best_solution = solution;
        improved = true;
      }
      undo_move(m);
    };

    for (topo::NodeId n = 0; n < nodes_n; ++n) {
      const std::uint32_t used = current.node_total(n);
      for (AppId a = 0; a < apps_n; ++a) {
        const std::uint32_t have = current.threads(a, n);
        // Add a thread on a free core.
        if (used < machine.cores_in_node(n)) {
          consider({Move::Kind::kAdd, a, a, n});
        }
        if (have == 0) continue;
        const bool may_shrink = totals[a] > min_app_total;
        // Drop a thread (helps sub-linear-scaling mixes).
        if (may_shrink) {
          consider({Move::Kind::kDrop, a, a, n});
        }
        // Shift a thread to another app on the same node.
        if (may_shrink) {
          for (AppId b = 0; b < apps_n; ++b) {
            if (b == a) continue;
            consider({Move::Kind::kShift, a, b, n});
          }
        }
      }
    }

    if (!improved) break;
    do_move(round_best_move);
    churn += round_best_delta;
    incumbent_ranked = round_best_ranked;
    best.allocation = current;
    best.solution = round_best_solution;
    best.objective_value = round_best_raw;
  }
  return best;
}

}  // namespace

std::vector<Allocation> enumerate_uniform(const topo::Machine& machine, std::uint32_t apps,
                                          bool require_full,
                                          std::uint32_t min_threads_per_app) {
  NS_REQUIRE(apps > 0, "need at least one app");
  const std::uint32_t min_cores = smallest_node_cores(machine);
  NS_REQUIRE(min_threads_per_app * apps <= min_cores,
             "min_threads_per_app infeasible on the smallest node");
  std::vector<std::vector<std::uint32_t>> compositions;
  std::vector<std::uint32_t> current;
  compose(apps, min_cores, require_full, min_threads_per_app, current, compositions);

  std::vector<Allocation> out;
  out.reserve(compositions.size());
  for (auto& counts : compositions) {
    out.push_back(Allocation::uniform_per_node(machine, counts));
  }
  return out;
}

std::vector<Allocation> enumerate_node_permutations(const topo::Machine& machine) {
  std::vector<topo::NodeId> order(machine.node_count());
  std::iota(order.begin(), order.end(), 0u);
  std::vector<Allocation> out;
  do {
    out.push_back(Allocation::node_per_app(machine, order));
  } while (std::next_permutation(order.begin(), order.end()));
  return out;
}

std::uint64_t count_candidates(const topo::Machine& machine, std::uint32_t apps,
                               bool require_full, std::uint32_t min_threads_per_app) {
  NS_REQUIRE(apps > 0, "need at least one app");
  const std::uint32_t budget = smallest_node_cores(machine);
  min_threads_per_app = std::min(min_threads_per_app, budget / apps);
  // Stars and bars on the slack left after every app takes its minimum:
  // compositions summing exactly to the budget (require_full) or to at most
  // the budget (one extra "idle" bin).
  const std::uint64_t slack = budget - static_cast<std::uint64_t>(min_threads_per_app) * apps;
  std::uint64_t n = require_full ? binomial_capped(slack + apps - 1, apps - 1)
                                 : binomial_capped(slack + apps, apps);
  if (apps == machine.node_count()) {
    std::uint64_t perms = 1;
    for (std::uint32_t k = 2; k <= machine.node_count(); ++k) {
      perms = saturating_mul(perms, k);
    }
    n += perms;  // node-permutation family
    if (n < perms) n = std::numeric_limits<std::uint64_t>::max();
  }
  return n;
}

SearchResult exhaustive_search(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                               Objective objective, bool require_full,
                               std::uint32_t min_threads_per_app,
                               const std::vector<std::uint32_t>& caps,
                               const ForeignLoad& foreign) {
  NS_REQUIRE(!apps.empty(), "need at least one app");
  NS_REQUIRE(caps.empty() || caps.size() == apps.size(),
             "caps must be empty or one per app");
  // Clamp an infeasible per-app minimum (more apps than cores per node)
  // rather than refusing: policies run against whatever machine they find.
  const std::uint32_t min_cores = smallest_node_cores(machine);
  const auto apps_n = static_cast<std::uint32_t>(apps.size());
  min_threads_per_app = std::min(min_threads_per_app, min_cores / std::max(1u, apps_n));
  StreamSearch search(machine, apps, objective, require_full, min_threads_per_app, caps,
                      foreign);
  return search.run();
}

SearchResult exhaustive_search_reference(const topo::Machine& machine,
                                         const std::vector<AppSpec>& apps, Objective objective,
                                         bool require_full, std::uint32_t min_threads_per_app,
                                         const std::vector<std::uint32_t>& caps,
                                         const ForeignLoad& foreign) {
  NS_REQUIRE(caps.empty() || caps.size() == apps.size(),
             "caps must be empty or one per app");
  const std::uint32_t min_cores = smallest_node_cores(machine);
  const auto apps_n = static_cast<std::uint32_t>(apps.size());
  min_threads_per_app = std::min(min_threads_per_app, min_cores / std::max(1u, apps_n));
  auto candidates = enumerate_uniform(machine, apps_n, require_full, min_threads_per_app);
  if (apps.size() == machine.node_count()) {
    auto perms = enumerate_node_permutations(machine);
    candidates.insert(candidates.end(), perms.begin(), perms.end());
  }
  NS_REQUIRE(!candidates.empty(), "no candidate allocations");
  if (!caps.empty()) {
    for (auto& candidate : candidates) apply_caps(machine, candidate, caps);
  }
  SolveOptions solve_options;
  solve_options.foreign = foreign;

  SearchResult best;
  best.objective_value = -std::numeric_limits<double>::infinity();
  for (const auto& candidate : candidates) {
    Solution solution = solve(machine, apps, candidate, solve_options);
    ++best.evaluated;
    ++best.visited;
    const double value = score(solution, objective);
    if (value > best.objective_value) {
      best.objective_value = value;
      best.allocation = candidate;
      best.solution = std::move(solution);
    }
  }
  return best;
}

SearchResult greedy_search(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                           const Allocation& start, const GreedyOptions& options) {
  std::string error;
  NS_REQUIRE(start.validate(machine, &error), error.c_str());
  return climb(machine, apps, start, options.objective, options.max_rounds,
               options.min_relative_gain, /*churn_penalty_rel=*/0.0, /*churn_seed=*/nullptr,
               /*min_app_total=*/0, options.foreign);
}

SearchResult refine_search(const topo::Machine& machine, const std::vector<AppSpec>& apps,
                           const Allocation& seed, const RefineOptions& options) {
  std::string error;
  NS_REQUIRE(seed.validate(machine, &error), error.c_str());
  return climb(machine, apps, seed, options.objective, options.max_rounds,
               options.min_relative_gain, options.churn_penalty, &seed,
               options.min_threads_per_app, options.foreign);
}

}  // namespace numashare::model
