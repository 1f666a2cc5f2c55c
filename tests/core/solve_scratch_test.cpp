// Pins the "allocation-free solver" guarantee: after one warm-up call,
// model::solve_into — and the plan_solve/solve_planned pair the searches
// use — must not touch the heap no matter how the allocation is mutated
// between calls, and must produce bitwise-identical results to the
// validating model::solve wrapper.
//
// The whole binary's global operator new/delete are replaced with counting
// versions gated on an atomic flag, so only the instrumented window is
// counted (gtest itself allocates freely outside it). This test runs in the
// sanitizer CI jobs too — ASan intercepts malloc/free underneath the
// replaced operators, so a hidden allocation would also be caught there.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/roofline.hpp"
#include "topology/machine.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void note_allocation() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked_malloc(std::size_t size) {
  note_allocation();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* checked_aligned(std::size_t size, std::align_val_t alignment) {
  note_allocation();
  void* p = nullptr;
  const auto align = static_cast<std::size_t>(alignment);
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return checked_malloc(size); }
void* operator new[](std::size_t size) { return checked_malloc(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return checked_aligned(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return checked_aligned(size, alignment);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace numashare::model {
namespace {

std::vector<AppSpec> mixed_apps() {
  std::vector<AppSpec> apps;
  apps.push_back(AppSpec::numa_perfect("stream", 0.25));
  apps.push_back(AppSpec::numa_bad("resident", 0.5, 1));
  apps.push_back(AppSpec::numa_perfect("mixed", 2.0));
  apps.back().serial_fraction = 0.2;
  apps.push_back(AppSpec::numa_perfect("compute", 32.0));
  return apps;
}

TEST(SolveScratch, HotPathIsAllocationFreeAfterWarmup) {
  const auto machine = topo::Machine::symmetric(4, 8, 10.0, 25.0, 8.0);
  const auto apps = mixed_apps();

  // Warm up with every (app, node) cell populated — the densest bucketing the
  // loop below can produce — so later calls only shrink or match capacity.
  Allocation allocation(4, 4);
  for (topo::NodeId n = 0; n < 4; ++n) {
    for (AppId a = 0; a < 4; ++a) allocation.set_threads(a, n, 2);
  }
  SolveScratch scratch;
  solve_into(machine, apps, allocation, scratch);

  g_allocations.store(0);
  g_counting.store(true);
  double checksum = 0.0;
  for (int iter = 0; iter < 256; ++iter) {
    // Shuffle threads around (including down to zero) so group counts and
    // bucket layouts keep changing between calls.
    const AppId from = static_cast<AppId>(iter % 4);
    const AppId to = static_cast<AppId>((iter + 1) % 4);
    const topo::NodeId node = static_cast<topo::NodeId>((iter / 4) % 4);
    const auto have = allocation.threads(from, node);
    if (have > 0) {
      allocation.set_threads(from, node, have - 1);
      allocation.set_threads(to, node, allocation.threads(to, node) + 1);
    }
    const Solution& solution = solve_into(machine, apps, allocation, scratch);
    checksum += solution.total_gflops;
  }
  g_counting.store(false);

  EXPECT_EQ(g_allocations.load(), 0u)
      << "solve_into heap-allocated inside the instrumented window";
  EXPECT_GT(checksum, 0.0);

  // The searches' shape of use: one plan per search (foreign load included),
  // one scratch for full candidates and one for partial-prefix bound solves
  // (tail rows zero), both reading the same plan.
  SolveOptions options;
  options.foreign.busy_cores = {1.5, 0.0, 3.0, 0.0};
  options.foreign.bandwidth = {4.0, 0.0, 0.0, 9.0};
  SolvePlan plan;
  plan_solve(machine, apps, options, plan);

  Allocation candidate(4, 4);
  for (topo::NodeId n = 0; n < 4; ++n) {
    for (AppId a = 0; a < 4; ++a) candidate.set_threads(a, n, 2);
  }
  Allocation prefix(4, 4);
  SolveScratch eval;
  SolveScratch bound;
  solve_planned(plan, candidate, eval);
  solve_planned(plan, candidate, bound);

  g_allocations.store(0);
  g_counting.store(true);
  checksum = 0.0;
  for (int iter = 0; iter < 256; ++iter) {
    const AppId from = static_cast<AppId>(iter % 4);
    const AppId to = static_cast<AppId>((iter + 1) % 4);
    const topo::NodeId node = static_cast<topo::NodeId>((iter / 4) % 4);
    const auto have = candidate.threads(from, node);
    if (have > 0) {
      candidate.set_threads(from, node, have - 1);
      candidate.set_threads(to, node, candidate.threads(to, node) + 1);
    }
    checksum += solve_planned(plan, candidate, eval).total_gflops;
    // The bound path: apps [0, assigned) keep their rows, the tail is zero.
    const AppId assigned = static_cast<AppId>(1 + iter % 3);
    for (AppId a = 0; a < 4; ++a) {
      for (topo::NodeId n = 0; n < 4; ++n) {
        prefix.set_threads(a, n, a < assigned ? candidate.threads(a, n) : 0);
      }
    }
    checksum += solve_planned(plan, prefix, bound).total_gflops;
    // Re-planning the same shape reuses the plan's storage.
    if (iter % 64 == 0) plan_solve(machine, apps, options, plan);
  }
  g_counting.store(false);

  EXPECT_EQ(g_allocations.load(), 0u)
      << "plan_solve/solve_planned heap-allocated inside the instrumented window";
  EXPECT_GT(checksum, 0.0);
}

TEST(SolveScratch, MatchesValidatingSolveBitwise) {
  auto machine = topo::Machine::symmetric(3, 4, 4.0, 30.0, 6.0);
  machine.add_node(6, 9.0, 55.0);  // lopsided fourth node
  for (topo::NodeId n = 0; n < 3; ++n) {
    machine.set_link_bandwidth(n, 3, 4.0);
    machine.set_link_bandwidth(3, n, 11.0);
  }
  const auto apps = mixed_apps();

  SolveScratch scratch;
  Allocation allocation(4, 4);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;  // cheap deterministic shuffle
  for (int iter = 0; iter < 64; ++iter) {
    for (AppId a = 0; a < 4; ++a) {
      for (topo::NodeId n = 0; n < machine.node_count(); ++n) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        const auto budget = machine.cores_in_node(n) / 4;
        allocation.set_threads(a, n, static_cast<std::uint32_t>(state % (budget + 1)));
      }
    }
    const Solution via_solve = solve(machine, apps, allocation);
    const Solution& via_scratch = solve_into(machine, apps, allocation, scratch);
    ASSERT_EQ(via_solve.app_gflops.size(), via_scratch.app_gflops.size());
    for (std::size_t a = 0; a < via_solve.app_gflops.size(); ++a) {
      EXPECT_EQ(via_solve.app_gflops[a], via_scratch.app_gflops[a]) << "app " << a;
    }
    EXPECT_EQ(via_solve.total_gflops, via_scratch.total_gflops);
    ASSERT_EQ(via_solve.groups.size(), via_scratch.groups.size());
    for (std::size_t g = 0; g < via_solve.groups.size(); ++g) {
      EXPECT_EQ(via_solve.groups[g].app, via_scratch.groups[g].app);
      EXPECT_EQ(via_solve.groups[g].exec_node, via_scratch.groups[g].exec_node);
      EXPECT_EQ(via_solve.groups[g].threads, via_scratch.groups[g].threads);
      EXPECT_EQ(via_solve.groups[g].per_thread_granted, via_scratch.groups[g].per_thread_granted);
      EXPECT_EQ(via_solve.groups[g].per_thread_gflops, via_scratch.groups[g].per_thread_gflops);
    }
    ASSERT_EQ(via_solve.nodes.size(), via_scratch.nodes.size());
    for (std::size_t n = 0; n < via_solve.nodes.size(); ++n) {
      EXPECT_EQ(via_solve.nodes[n].total_granted, via_scratch.nodes[n].total_granted);
      EXPECT_EQ(via_solve.nodes[n].node_gflops, via_scratch.nodes[n].node_gflops);
    }
  }
}

}  // namespace
}  // namespace numashare::model
