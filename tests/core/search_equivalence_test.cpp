// Equivalence property suite for the streaming branch-and-bound search: on
// randomized machines (symmetric and lopsided), app mixes (NUMA-perfect /
// NUMA-bad / serial fractions), objectives, constraint flavours and
// administrative caps, exhaustive_search must select exactly the allocation
// and objective value the materialize-then-evaluate brute force selects.
// Both engines evaluate candidates through the same solver arithmetic and
// replace the incumbent only on strict improvement, so the comparison is
// exact (==), not approximate — any admissibility bug in the pruning bounds
// shows up as a hard mismatch here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/rng.hpp"
#include "core/optimizer.hpp"
#include "solver_golden.hpp"
#include "topology/machine.hpp"

namespace numashare::model {
namespace {

struct Problem {
  topo::Machine machine;
  std::vector<AppSpec> apps;
  bool require_full = false;
  std::uint32_t min_per_app = 0;
  std::vector<std::uint32_t> caps;
};

Problem random_problem(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto nodes = 1 + static_cast<std::uint32_t>(rng.uniform_u64(4));
  const auto cores = 2 + static_cast<std::uint32_t>(rng.uniform_u64(7));
  Problem p;
  p.machine = topo::Machine::symmetric(nodes, cores, rng.uniform(0.25, 16.0),
                                       rng.uniform(4.0, 150.0), rng.uniform(0.5, 40.0));
  if (rng.uniform() < 0.3) {
    // Lopsided: bolt on a node with its own core count, peak and bandwidth,
    // plus random links to and from every existing node. Exercises the
    // smallest-node budget, the heterogeneous Amdahl cap and the
    // asymmetric-bandwidth flat bounds.
    const auto extra = p.machine.add_node(1 + static_cast<std::uint32_t>(rng.uniform_u64(8)),
                                          rng.uniform(0.25, 16.0), rng.uniform(4.0, 150.0));
    for (topo::NodeId n = 0; n < extra; ++n) {
      p.machine.set_link_bandwidth(n, extra, rng.uniform(0.5, 40.0));
      p.machine.set_link_bandwidth(extra, n, rng.uniform(0.5, 40.0));
    }
  }
  const auto total_nodes = p.machine.node_count();
  const auto n_apps = 1 + static_cast<std::uint32_t>(rng.uniform_u64(4));
  for (std::uint32_t a = 0; a < n_apps; ++a) {
    const double ai = rng.uniform(0.05, 16.0);
    if (rng.uniform() < 0.35) {
      p.apps.push_back(AppSpec::numa_bad(
          "bad", ai, static_cast<topo::NodeId>(rng.uniform_u64(total_nodes))));
    } else {
      p.apps.push_back(AppSpec::numa_perfect("perfect", ai));
    }
    if (rng.uniform() < 0.25) {
      p.apps.back().serial_fraction = rng.uniform(0.05, 0.7);
    }
  }
  p.require_full = rng.uniform() < 0.5;
  p.min_per_app = static_cast<std::uint32_t>(rng.uniform_u64(3));
  if (rng.uniform() < 0.3) {
    p.caps.assign(n_apps, 0xffffffffu);
    for (auto& cap : p.caps) {
      if (rng.uniform() < 0.6) {
        cap = static_cast<std::uint32_t>(rng.uniform_u64(p.machine.core_count() + 1));
      }
    }
  }
  return p;
}

constexpr Objective kObjectives[] = {Objective::kTotalGflops, Objective::kMinAppGflops,
                                     Objective::kProportionalFairness};

class SearchEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SearchEquivalence,
                         ::testing::Range<std::uint64_t>(1000, 1064));

TEST_P(SearchEquivalence, PrunedMatchesBruteForce) {
  const auto p = random_problem(GetParam());
  for (const auto objective : kObjectives) {
    const auto reference = exhaustive_search_reference(p.machine, p.apps, objective,
                                                       p.require_full, p.min_per_app, p.caps);
    const auto pruned =
        exhaustive_search(p.machine, p.apps, objective, p.require_full, p.min_per_app, p.caps);
    // Exact, not approximate: both engines run identical solver arithmetic
    // on the candidates they do evaluate, and pruning may only remove
    // candidates that provably cannot strictly beat the incumbent.
    EXPECT_EQ(pruned.objective_value, reference.objective_value)
        << "objective " << to_string(objective) << " seed " << GetParam();
    EXPECT_TRUE(pruned.allocation == reference.allocation)
        << "objective " << to_string(objective) << " seed " << GetParam() << "\npruned "
        << pruned.allocation.to_string() << "\nreference " << reference.allocation.to_string();
    EXPECT_LE(pruned.evaluated, reference.evaluated);
    if (!p.caps.empty()) {
      // Caps disable pruning (the re-grant breaks per-app bound
      // admissibility): every candidate except deduped permutation twins is
      // evaluated, exactly like the reference.
      EXPECT_EQ(pruned.evaluated + pruned.deduped, reference.evaluated);
      EXPECT_EQ(pruned.pruned, 0u);
    }
  }
}

TEST_P(SearchEquivalence, RefineWithoutPenaltyMatchesGreedy) {
  const auto p = random_problem(GetParam());
  const auto start = Allocation::even(p.machine, static_cast<std::uint32_t>(p.apps.size()));
  for (const auto objective : kObjectives) {
    GreedyOptions greedy_options;
    greedy_options.objective = objective;
    const auto greedy = greedy_search(p.machine, p.apps, start, greedy_options);
    RefineOptions refine_options;
    refine_options.objective = objective;
    const auto refined = refine_search(p.machine, p.apps, start, refine_options);
    EXPECT_EQ(refined.objective_value, greedy.objective_value);
    EXPECT_TRUE(refined.allocation == greedy.allocation);
    EXPECT_EQ(refined.evaluated, greedy.evaluated);
  }
}

TEST_P(SearchEquivalence, RefineNeverWorsensTheSeed) {
  // With a churn penalty the climb ranks moves by penalized value, but the
  // raw objective of whatever it returns must still be >= the seed's: the
  // penalized incumbent only improves, the penalty is non-negative, and the
  // seed starts at zero churn.
  const auto p = random_problem(GetParam());
  const auto seed = Allocation::even(p.machine, static_cast<std::uint32_t>(p.apps.size()));
  const double seed_value = score(solve(p.machine, p.apps, seed), Objective::kTotalGflops);
  for (const double penalty : {0.0, 0.01, 0.2}) {
    RefineOptions options;
    options.churn_penalty = penalty;
    const auto refined = refine_search(p.machine, p.apps, seed, options);
    EXPECT_GE(refined.objective_value + 1e-9 * std::max(1.0, std::abs(seed_value)), seed_value)
        << "penalty " << penalty << " seed " << GetParam();
  }
}

TEST_P(SearchEquivalence, RefineRespectsMinThreadFloor) {
  const auto p = random_problem(GetParam());
  const auto apps_n = static_cast<std::uint32_t>(p.apps.size());
  const auto start = Allocation::even(p.machine, apps_n);
  // Only meaningful when the even split actually grants everyone the floor.
  RefineOptions options;
  options.min_threads_per_app = 1;
  bool feasible = true;
  for (AppId a = 0; a < apps_n; ++a) feasible &= start.app_total(a) >= 1;
  if (!feasible) return;
  const auto refined = refine_search(p.machine, p.apps, start, options);
  for (AppId a = 0; a < apps_n; ++a) {
    EXPECT_GE(refined.allocation.app_total(a), 1u) << "app " << a << " starved";
  }
}

// The arbiter_scale benchmark's shape: a 4x16 machine, five apps (two
// NUMA-bad with homes 0 and 2), at least one thread per app per node, every
// core used. Fixed inputs, so the search's counters can be pinned too.
struct ProductionCase {
  const char* name;
  std::vector<std::uint32_t> caps;
  ForeignLoad foreign;
};

std::vector<AppSpec> production_apps() {
  return {AppSpec::numa_bad("s0", 0.5, 0), AppSpec::numa_bad("s1", 1.0, 2),
          AppSpec::numa_perfect("s2", 2.0), AppSpec::numa_perfect("s3", 4.0),
          AppSpec::numa_perfect("s4", 8.0)};
}

std::vector<ProductionCase> production_cases() {
  ForeignLoad foreign;
  foreign.busy_cores = {3.5, 0.0, 8.0, 0.0};
  foreign.bandwidth = {4.0, 0.0, 12.5, 0.0};
  return {{"uncapped", {}, {}},
          {"capped", {8, 0xffffffffu, 20, 0xffffffffu, 12}, {}},
          {"foreign", {}, foreign}};
}

TEST(SearchEquivalenceProduction, PrunedMatchesBruteForceAtArbiterShape) {
  const auto machine = topo::Machine::symmetric(4, 16, 10.0, 20.0, 5.0);
  const auto apps = production_apps();
  for (const auto& c : production_cases()) {
    const auto reference = exhaustive_search_reference(
        machine, apps, Objective::kTotalGflops, true, 1, c.caps, c.foreign);
    const auto pruned =
        exhaustive_search(machine, apps, Objective::kTotalGflops, true, 1, c.caps, c.foreign);
    EXPECT_EQ(pruned.objective_value, reference.objective_value) << c.name;
    EXPECT_TRUE(pruned.allocation == reference.allocation)
        << c.name << "\npruned " << pruned.allocation.to_string() << "\nreference "
        << reference.allocation.to_string();
  }
}

TEST(SearchEquivalenceProduction, PrunedMatchesBruteForceAcrossArbiterLevels) {
  // The states arbiter_scale walks: one app at a time moved to each AI level
  // its stubs advertise, with and without foreign load.
  const auto machine = topo::Machine::symmetric(4, 16, 10.0, 20.0, 5.0);
  const auto cases = production_cases();
  for (const ForeignLoad* foreign : {&cases[0].foreign, &cases[2].foreign}) {
    for (std::size_t a = 0; a < production_apps().size(); ++a) {
      for (const double level : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
        auto apps = production_apps();
        apps[a].ai = level;
        const auto reference = exhaustive_search_reference(
            machine, apps, Objective::kTotalGflops, true, 1, {}, *foreign);
        const auto pruned =
            exhaustive_search(machine, apps, Objective::kTotalGflops, true, 1, {}, *foreign);
        EXPECT_EQ(pruned.objective_value, reference.objective_value)
            << "app " << a << " ai " << level << " foreign " << foreign->any();
        EXPECT_TRUE(pruned.allocation == reference.allocation)
            << "app " << a << " ai " << level << " foreign " << foreign->any();
      }
    }
  }
}

TEST(SearchEquivalenceProduction, SearchOrderIsPinned) {
  // The same candidates in the same order, cut by the per-app and the joint
  // bandwidth bounds (the foreign case also pins the post-foreign
  // tightening of both). The counts move whenever a bound tightens; the
  // objectives never may.
  const auto machine = topo::Machine::symmetric(4, 16, 10.0, 20.0, 5.0);
  const auto cases = production_cases();
  const auto uncapped = exhaustive_search(machine, production_apps(), Objective::kTotalGflops,
                                          /*require_full=*/true, /*min_threads_per_app=*/1);
  EXPECT_EQ(uncapped.evaluated, 365u);
  EXPECT_EQ(uncapped.visited, 365u);
  EXPECT_EQ(uncapped.pruned, 320u);
  EXPECT_EQ(uncapped.bound_solves, 105u);
  EXPECT_EQ(uncapped.objective_value, 0x1.648476930d9f1p+8);
  const auto foreign = exhaustive_search(machine, production_apps(), Objective::kTotalGflops,
                                         true, 1, {}, cases[2].foreign);
  EXPECT_EQ(foreign.evaluated, 539u);
  EXPECT_EQ(foreign.visited, 539u);
  EXPECT_EQ(foreign.pruned, 391u);
  EXPECT_EQ(foreign.bound_solves, 156u);
  EXPECT_EQ(foreign.objective_value, 0x1.211f4737d1cdfp+8);
}

// The lemma behind the search's joint-bandwidth bound: the kernel never
// gives an app more than ai x its granted bandwidth, and the grants across
// all controllers add up to at most their cooperative bandwidth (what
// foreign load leaves), so sum_a app_gflops[a] / ai_a is at most that sum.
// The 1e-12 per controller is the kernel's remote-overshoot tolerance, which
// the search counts in too. Random machines, mixes, allocations, foreign
// loads and water-fill options, including the arbiter_scale shape.
TEST(SearchBoundLemma, GflopsOverAiFitsCooperativeBandwidth) {
  for (std::uint64_t seed = 1; seed <= 4000; ++seed) {
    const auto p = golden::make_problem(seed);
    const Solution s = solve(p.machine, p.apps, p.allocation, p.options);
    double drawn = 0.0;
    for (AppId a = 0; a < p.apps.size(); ++a) drawn += s.app_gflops[a] / p.apps[a].ai;
    double coop = 0.0;
    for (const NodeBreakdown& node : s.nodes) {
      coop += node.bandwidth - node.foreign_granted + 1e-12;
    }
    ASSERT_LE(drawn, coop * (1.0 + 1e-9)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace numashare::model
