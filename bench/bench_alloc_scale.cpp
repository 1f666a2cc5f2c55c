// E18 — allocation-search scaling: the streaming branch-and-bound engine vs
// the materialize-then-evaluate brute force, swept over machine size and app
// count up to 8 nodes x 64 cores x 8 apps.
//
// The paper's §IV worries that a "sophisticated, CPU-intensive scheduling
// algorithm" would perturb the machine it manages. The constrained search
// space grows combinatorially — compositions of cores-per-node over the apps,
// C(63,7) ≈ 5.5e8 candidates at the largest sweep point — so the reference
// engine stops being runnable long before that: its "before" time is measured
// exactly where feasible (count within kExactLimit) and otherwise estimated
// as mean-legacy-solve-cost x candidate-count (flagged `before_estimated`).
// The streaming engine visits the same candidate order with admissible
// upper-bound pruning, evaluates a tiny fraction, allocates nothing per
// candidate, and must clear a >= 10x gate on the largest configuration while
// peak RSS stays flat (no materialized candidate vector).
//
// Emits machine-readable results to BENCH_model.json (path overridable via
// NS_BENCH_MODEL_OUT) in the same schema family as BENCH_runtime.json, so
// successive PRs carry a measured trajectory. NS_BENCH_QUICK=1 shrinks the
// sweep and repetition counts for CI smoke runs.
#include "bench_support.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/optimizer.hpp"
#include "core/roofline.hpp"
#include "topology/machine.hpp"

namespace {

using namespace numashare;
using Clock = std::chrono::steady_clock;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

bool quick_mode() {
  const char* q = std::getenv("NS_BENCH_QUICK");
  return q != nullptr && q[0] != '\0' && q[0] != '0';
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Config {
  std::uint32_t nodes;
  std::uint32_t cores_per_node;
  std::uint32_t apps;
};

// The sweep, smallest to largest; the last entry is the gate configuration.
constexpr Config kConfigs[] = {
    {2, 8, 2}, {2, 16, 4}, {4, 16, 4}, {4, 32, 4},
    {8, 16, 8}, {8, 32, 8}, {4, 64, 8}, {8, 64, 8},
};
constexpr Config kGateConfig = {8, 64, 8};
constexpr double kRequiredSpeedup = 10.0;

struct Row {
  std::string name;
  Config config;
  std::string unit;
  double value;
};

std::vector<Row> g_rows;

struct Gate {
  double before_us = 0.0;
  double after_us = 0.0;
  double speedup = 0.0;
  bool before_estimated = false;
  bool measured = false;
};

Gate g_gate;
double g_streaming_rss_kb = 0.0;  // peak RSS after the streaming-only phase

void record(const std::string& name, Config config, const std::string& unit, double value) {
  g_rows.push_back({name, config, unit, value});
}

/// Measured per-candidate cost of the reference engine, keyed by
/// (nodes, apps): the per-candidate work depends on the group structure, not
/// the per-node core budget, so an exact measurement at a smaller core count
/// is the best available estimator for the configs where the brute force is
/// no longer runnable.
struct ReferenceCost {
  std::uint32_t nodes;
  std::uint32_t apps;
  double us_per_candidate;
};

std::vector<ReferenceCost> g_reference_costs;

/// The same mix family bench_model_perf sweeps, but with geometrically spaced
/// AIs (0.1 x 2^a) so the sweep always spans memory-bound through
/// compute-bound behaviour, plus NUMA-bad homes and serial fractions.
std::vector<model::AppSpec> make_apps(std::uint32_t count, std::uint32_t nodes) {
  std::vector<model::AppSpec> apps;
  for (std::uint32_t a = 0; a < count; ++a) {
    const double ai = 0.1 * static_cast<double>(1u << a);
    if (a % 3 == 2) {
      apps.push_back(model::AppSpec::numa_bad("bad", ai, a % nodes));
    } else {
      apps.push_back(model::AppSpec::numa_perfect("perfect", ai));
    }
    if (a % 4 == 1) apps.back().serial_fraction = 0.15;
  }
  return apps;
}

double peak_rss_kb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);  // KiB on Linux
}

template <typename Fn>
double best_of_seconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

/// Per-config state carried from the streaming phase into the reference
/// phase (the two run separately so the streaming phase's peak RSS can be
/// snapshotted before the brute force materializes anything).
struct ConfigRun {
  Config config;
  std::uint64_t count = 0;
  double legacy_solve_us = 0.0;
  double after_us = 0.0;
  bool skipped = false;
};

bool config_skipped(std::uint64_t count) {
  return (quick_mode() || kSanitized) && count > 5'000'000;
}

topo::Machine make_machine(const Config& config) {
  return topo::Machine::symmetric(config.nodes, config.cores_per_node, 10.0, 32.0, 10.0);
}

/// Phase 1: per-solve cost, the streaming search and the incremental refine.
/// Nothing in this phase materializes candidates, which is exactly the claim
/// the post-phase RSS snapshot pins.
ConfigRun run_streaming(const Config& config) {
  const bool quick = quick_mode();
  const auto machine = make_machine(config);
  const auto apps = make_apps(config.apps, config.nodes);
  ConfigRun run;
  run.config = config;
  run.count = model::count_candidates(machine, config.apps, /*require_full=*/true,
                                      /*min_threads_per_app=*/1);
  if (config_skipped(run.count)) {
    run.skipped = true;
    std::printf("  %ux%ux%-2u  candidates %12llu  skipped (quick/sanitized run)\n", config.nodes,
                config.cores_per_node, config.apps, static_cast<unsigned long long>(run.count));
    return run;
  }

  // Mean per-candidate model cost, both through the validating wrapper (what
  // the reference engine pays) and through the reusable scratch. One pass is
  // about a millisecond, short enough for a host hiccup to double it, so
  // each row keeps the best of several passes.
  const auto even = model::Allocation::even(machine, config.apps);
  const int solve_iters = quick ? 200 : 2000;
  const int solve_passes = quick ? 3 : 15;
  const double solve_s = best_of_seconds(solve_passes, [&] {
    double sink = 0.0;
    for (int i = 0; i < solve_iters; ++i) sink += model::solve(machine, apps, even).total_gflops;
    benchmark::DoNotOptimize(sink);
  });
  model::SolveScratch scratch;
  const double solve_into_s = best_of_seconds(solve_passes, [&] {
    double sink = 0.0;
    for (int i = 0; i < solve_iters; ++i) {
      sink += model::solve_into(machine, apps, even, scratch).total_gflops;
    }
    benchmark::DoNotOptimize(sink);
  });
  run.legacy_solve_us = solve_s / solve_iters * 1e6;
  record("solve", config, "us_per_solve", run.legacy_solve_us);
  record("solve_into", config, "us_per_solve", solve_into_s / solve_iters * 1e6);

  // "After": the streaming branch-and-bound engine.
  model::SearchResult after;
  const int search_reps = quick ? 1 : (run.count > 1'000'000 ? 1 : 3);
  const double after_s = best_of_seconds(search_reps, [&] {
    after = model::exhaustive_search(machine, apps, model::Objective::kTotalGflops,
                                     /*require_full=*/true, /*min_threads_per_app=*/1);
  });
  run.after_us = after_s * 1e6;
  record("search_after", config, "us_per_search", run.after_us);
  record("search_evals", config, "evals", static_cast<double>(after.evaluated));
  record("search_candidates", config, "evals", static_cast<double>(run.count));

  // Steady-state incremental tick: refine from the enacted winner after a
  // modest AI drift on one app.
  auto drifted = apps;
  drifted[0].ai *= 1.2;
  model::RefineOptions refine_options;
  refine_options.min_threads_per_app = 1;
  const double refine_s = best_of_seconds(quick ? 1 : 3, [&] {
    auto refined = model::refine_search(machine, drifted, after.allocation, refine_options);
    benchmark::DoNotOptimize(refined.objective_value);
  });
  record("refine", config, "us_per_search", refine_s * 1e6);

  std::printf("  %ux%ux%-2u  candidates %12llu  after %12.1f us  evals %llu  refine %.1f us\n",
              config.nodes, config.cores_per_node, config.apps,
              static_cast<unsigned long long>(run.count), run.after_us,
              static_cast<unsigned long long>(after.evaluated), refine_s * 1e6);
  return run;
}

/// Phase 2: the brute-force "before" — exact where still runnable, otherwise
/// estimated from a measured per-candidate sibling cost. This phase is the
/// one that materializes candidate vectors (gigabytes at millions of
/// candidates), which is why it runs after the streaming RSS snapshot.
void run_reference(const ConfigRun& run) {
  if (run.skipped) return;
  const bool quick = quick_mode();
  const auto& config = run.config;
  const auto machine = make_machine(config);
  const auto apps = make_apps(config.apps, config.nodes);

  const std::uint64_t exact_limit = quick ? 20'000 : 4'000'000;
  double before_us = 0.0;
  bool estimated = false;
  if (run.count <= exact_limit) {
    const double before_s = best_of_seconds(quick ? 1 : 2, [&] {
      auto reference = model::exhaustive_search_reference(
          machine, apps, model::Objective::kTotalGflops, true, 1);
      benchmark::DoNotOptimize(reference.objective_value);
    });
    before_us = before_s * 1e6;
    g_reference_costs.push_back(
        {config.nodes, config.apps, before_us / static_cast<double>(run.count)});
  } else {
    // Prefer a measured per-candidate reference cost from an exact sibling
    // config (same nodes and apps, smaller core budget); fall back to the
    // bare legacy solve cost, which slightly undercounts the reference
    // engine's per-candidate materialization overhead.
    double us_per_candidate = run.legacy_solve_us;
    for (const auto& cost : g_reference_costs) {
      if (cost.nodes == config.nodes && cost.apps == config.apps) {
        us_per_candidate = cost.us_per_candidate;
      }
    }
    before_us = us_per_candidate * static_cast<double>(run.count);
    estimated = true;
  }
  record("search_before", config, "us_per_search", before_us);
  const double speedup = before_us / run.after_us;
  record("search_speedup", config, "x", speedup);

  if (config.nodes == kGateConfig.nodes && config.cores_per_node == kGateConfig.cores_per_node &&
      config.apps == kGateConfig.apps) {
    g_gate.before_us = before_us;
    g_gate.after_us = run.after_us;
    g_gate.speedup = speedup;
    g_gate.before_estimated = estimated;
    g_gate.measured = true;
  }

  std::printf("  %ux%ux%-2u  before %14.0f us%s  speedup %8.1fx\n", config.nodes,
              config.cores_per_node, config.apps, before_us, estimated ? " (est)" : "      ",
              speedup);
}

void emit_json() {
  const char* env = std::getenv("NS_BENCH_MODEL_OUT");
  const std::string path = env != nullptr && env[0] != '\0' ? env : "BENCH_model.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_alloc_scale: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"numashare-bench-model/1\",\n");
  std::fprintf(f, "  \"bench\": \"bench_alloc_scale\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick_mode() ? "true" : "false");
  std::fprintf(f, "  \"sanitized\": %s,\n", kSanitized ? "true" : "false");
  std::fprintf(f, "  \"host_cpus\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f,
               "  \"protocol\": \"best-of-N wall time per engine; 'before' measured "
               "exactly when the candidate count permits, otherwise estimated as "
               "measured per-candidate reference cost (exact sibling config) x "
               "candidate count (before_estimated); peak_rss_kb snapshots getrusage "
               "after the streaming-only phase, before the brute force materializes "
               "any candidate vectors (peak_rss_full_kb covers the whole run)\",\n");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"nodes\": %u, \"cores_per_node\": %u, "
                 "\"apps\": %u, \"unit\": \"%s\", \"value\": %.3f}%s\n",
                 r.name.c_str(), r.config.nodes, r.config.cores_per_node, r.config.apps,
                 r.unit.c_str(), r.value, i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"peak_rss_kb\": %.0f,\n", g_streaming_rss_kb);
  std::fprintf(f, "  \"peak_rss_full_kb\": %.0f,\n", peak_rss_kb());
  std::fprintf(f, "  \"gate\": {\n");
  std::fprintf(f, "    \"nodes\": %u,\n", kGateConfig.nodes);
  std::fprintf(f, "    \"cores_per_node\": %u,\n", kGateConfig.cores_per_node);
  std::fprintf(f, "    \"apps\": %u,\n", kGateConfig.apps);
  std::fprintf(f, "    \"measured\": %s,\n", g_gate.measured ? "true" : "false");
  std::fprintf(f, "    \"before_us\": %.3f,\n", g_gate.before_us);
  std::fprintf(f, "    \"after_us\": %.3f,\n", g_gate.after_us);
  std::fprintf(f, "    \"speedup_x\": %.3f,\n", g_gate.speedup);
  std::fprintf(f, "    \"required_x\": %.1f,\n", kRequiredSpeedup);
  std::fprintf(f, "    \"before_estimated\": %s,\n", g_gate.before_estimated ? "true" : "false");
  std::fprintf(f, "    \"pass\": %s\n",
               g_gate.measured && g_gate.speedup >= kRequiredSpeedup ? "true" : "false");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu results, gate %s)\n", path.c_str(), g_rows.size(),
              g_gate.measured && g_gate.speedup >= kRequiredSpeedup ? "PASS" : "not measured");
}

void reproduce() {
  bench::print_header("E18", "allocation-search scaling (streaming B&B vs brute force)");
  std::printf("  'before' = materialize-then-evaluate reference engine; 'after' = the\n"
              "  streaming branch-and-bound search. Both select the identical winner\n"
              "  (pinned by the search-equiv test suite); this bench records the cost.\n\n");
  bench::print_section("streaming phase (branch-and-bound search + refine)");
  std::vector<ConfigRun> runs;
  for (const auto& config : kConfigs) runs.push_back(run_streaming(config));

  // The RSS claim: visiting half a billion candidates must not grow the
  // process. Snapshotted before the reference phase, whose materialized
  // candidate vectors legitimately reach gigabytes at millions of
  // candidates — that contrast is the point.
  g_streaming_rss_kb = peak_rss_kb();
  record("peak_rss", kGateConfig, "kb", g_streaming_rss_kb);
  std::printf("  streaming-phase peak RSS: %.0f KiB\n", g_streaming_rss_kb);

  bench::print_section("reference phase (brute force, exact or estimated)");
  for (const auto& run : runs) run_reference(run);
  emit_json();
}

void BM_StreamingSearchMidSweep(benchmark::State& state) {
  const auto machine = topo::Machine::symmetric(4, 16, 10.0, 32.0, 10.0);
  const auto apps = make_apps(4, 4);
  for (auto _ : state) {
    auto result =
        model::exhaustive_search(machine, apps, model::Objective::kTotalGflops, true, 1);
    benchmark::DoNotOptimize(result.objective_value);
  }
}
BENCHMARK(BM_StreamingSearchMidSweep)->Unit(benchmark::kMillisecond);

}  // namespace

NUMASHARE_BENCH_MAIN(reproduce)
