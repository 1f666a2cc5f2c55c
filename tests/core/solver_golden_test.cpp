// Golden-arithmetic pin for the roofline solver: tests/core/data/
// solver_golden.txt holds, for 200 seeded problems (solver_golden.hpp), the
// solver's total, per-app and per-node outputs as hex floats, recorded from
// the solver before it was rebuilt around a per-search plan. Both public
// entry points must reproduce every value bitwise, so any change to the
// order or shape of the floating-point operations shows up here — which the
// search-equivalence suite cannot see, since both of its engines share the
// solver.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "solver_golden.hpp"

namespace numashare::model {
namespace {

struct Expected {
  std::uint64_t seed = 0;
  std::string line;
};

std::vector<Expected> load_fixture() {
  std::ifstream in(NS_SOLVER_GOLDEN_FIXTURE);
  std::vector<Expected> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    out.push_back({std::strtoull(line.c_str(), nullptr, 10), line});
  }
  return out;
}

TEST(SolverGolden, FixtureCoversEverySeed) {
  const auto fixture = load_fixture();
  ASSERT_EQ(fixture.size(), golden::kProblems) << "missing " << NS_SOLVER_GOLDEN_FIXTURE;
  for (std::uint64_t i = 0; i < fixture.size(); ++i) EXPECT_EQ(fixture[i].seed, i + 1);
}

TEST(SolverGolden, SolveReproducesFixtureBitwise) {
  for (const auto& expected : load_fixture()) {
    const auto p = golden::make_problem(expected.seed);
    const Solution solution = solve(p.machine, p.apps, p.allocation, p.options);
    EXPECT_EQ(golden::format_line(expected.seed, solution), expected.line);
  }
}

TEST(SolverGolden, SolveIntoReproducesFixtureBitwise) {
  // One scratch across every problem: shapes change from seed to seed, so
  // this also checks that nothing from the previous problem leaks through.
  SolveScratch scratch;
  for (const auto& expected : load_fixture()) {
    const auto p = golden::make_problem(expected.seed);
    const Solution& solution = solve_into(p.machine, p.apps, p.allocation, scratch, p.options);
    EXPECT_EQ(golden::format_line(expected.seed, solution), expected.line);
  }
}

}  // namespace
}  // namespace numashare::model
