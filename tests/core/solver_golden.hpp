// Seeded solver problems shared by the golden-arithmetic fixture generator
// (solver_golden_gen.cpp) and its test (solver_golden_test.cpp). A problem is
// a machine, an app mix, one valid allocation and the solve options; the
// fixture stores only each seed's expected outputs, so both sides must build
// the identical problem from the same seed.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/roofline.hpp"
#include "topology/machine.hpp"

namespace numashare::model::golden {

/// Problems in the committed fixture: seeds 1 .. kProblems.
inline constexpr std::uint64_t kProblems = 200;

struct Problem {
  topo::Machine machine;
  std::vector<AppSpec> apps;
  Allocation allocation;
  SolveOptions options;
};

/// Every tenth seed is the arbiter_scale shape (4x16, five apps, NUMA-bad
/// homes 0 and 2); the rest are 1-4 symmetric nodes, sometimes with a
/// lopsided extra node and asymmetric links, NUMA-bad apps, serial
/// fractions, out-of-range foreign load (clamped by the solver) and the
/// single-shot / capped water-fill options.
inline Problem make_problem(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Problem p;
  const bool production = seed % 10 == 0;
  if (production) {
    p.machine = topo::Machine::symmetric(4, 16, 10.0, 20.0, 5.0);
  } else {
    const auto nodes = 1 + static_cast<std::uint32_t>(rng.uniform_u64(4));
    const auto cores = 1 + static_cast<std::uint32_t>(rng.uniform_u64(8));
    p.machine = topo::Machine::symmetric(nodes, cores, rng.uniform(0.25, 16.0),
                                         rng.uniform(4.0, 150.0), rng.uniform(0.5, 40.0));
    if (rng.uniform() < 0.3) {
      const auto extra = p.machine.add_node(1 + static_cast<std::uint32_t>(rng.uniform_u64(8)),
                                            rng.uniform(0.25, 16.0), rng.uniform(4.0, 150.0));
      for (topo::NodeId n = 0; n < extra; ++n) {
        p.machine.set_link_bandwidth(n, extra, rng.uniform(0.5, 40.0));
        p.machine.set_link_bandwidth(extra, n, rng.uniform(0.5, 40.0));
      }
    }
    if (rng.uniform() < 0.25) {
      // Asymmetric (and sometimes absent) links: oversubscribed controllers
      // exercise the proportional remote rescale.
      for (topo::NodeId from = 0; from < p.machine.node_count(); ++from) {
        for (topo::NodeId to = 0; to < p.machine.node_count(); ++to) {
          if (from == to) continue;
          p.machine.set_link_bandwidth(from, to,
                                       rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.5, 120.0));
        }
      }
    }
  }
  const auto nodes = p.machine.node_count();
  const auto n_apps = production ? 5u : 1 + static_cast<std::uint32_t>(rng.uniform_u64(5));
  for (std::uint32_t a = 0; a < n_apps; ++a) {
    const double ai = rng.uniform() < 0.5 ? rng.uniform(0.05, 1.0) : rng.uniform(1.0, 16.0);
    const bool bad = production ? a < 2 : rng.uniform() < 0.35;
    const auto home = production ? 2 * a : static_cast<topo::NodeId>(rng.uniform_u64(nodes));
    p.apps.push_back(bad ? AppSpec::numa_bad("bad", ai, home)
                         : AppSpec::numa_perfect("perfect", ai));
    if (rng.uniform() < 0.25) p.apps.back().serial_fraction = rng.uniform(0.05, 0.7);
  }
  if (rng.uniform() < 0.4) {
    if (rng.uniform() < 0.7) {
      for (topo::NodeId n = 0; n < nodes; ++n) {
        p.options.foreign.busy_cores.push_back(
            rng.uniform(-0.5, p.machine.cores_in_node(n) + 1.0));
      }
    }
    if (rng.uniform() < 0.7) {
      for (topo::NodeId n = 0; n < nodes; ++n) {
        p.options.foreign.bandwidth.push_back(
            rng.uniform(-5.0, 1.2 * p.machine.node(n).memory_bandwidth));
      }
    }
  }
  if (rng.uniform() < 0.1) p.options.single_shot_remainder = true;
  if (rng.uniform() < 0.05) {
    p.options.max_waterfill_rounds = 1 + static_cast<std::uint32_t>(rng.uniform_u64(3));
  }
  p.allocation = Allocation(n_apps, nodes);
  for (topo::NodeId n = 0; n < nodes; ++n) {
    std::uint32_t left = p.machine.cores_in_node(n);
    for (AppId a = 0; a < n_apps; ++a) {
      const auto t = rng.uniform() < 0.25 ? 0u : static_cast<std::uint32_t>(rng.uniform_u64(left + 1));
      p.allocation.set_threads(a, n, t);
      left -= t;
    }
    if (left > 0 && rng.uniform() < 0.5) {
      const auto a = static_cast<AppId>(rng.uniform_u64(n_apps));
      p.allocation.set_threads(a, n, p.allocation.threads(a, n) + left);
    }
  }
  return p;
}

/// One fixture line: the seed, then total GFLOPS, per-app GFLOPS and per
/// node (remote_granted, total_granted, node_gflops), all as hex floats.
inline std::string format_line(std::uint64_t seed, const Solution& s) {
  std::string line = std::to_string(seed);
  const auto put = [&line](double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %a", v);
    line += buf;
  };
  put(s.total_gflops);
  for (const GFlops g : s.app_gflops) put(g);
  for (const NodeBreakdown& node : s.nodes) {
    put(node.remote_granted);
    put(node.total_granted);
    put(node.node_gflops);
  }
  return line;
}

}  // namespace numashare::model::golden
