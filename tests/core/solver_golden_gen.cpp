// Prints the golden-arithmetic fixture for solver_golden_test.cpp: one line
// per seeded problem with the solver's outputs as hex floats.
//
//   build/tests/solver_golden_gen > tests/core/data/solver_golden.txt
//
// Regenerate only when a change to the model's arithmetic is intended; the
// fixture exists to show that a refactor of the solver changed no bit.
#include <cstdio>

#include "solver_golden.hpp"

int main() {
  namespace golden = numashare::model::golden;
  std::printf("# seed total app_gflops... (remote_granted total_granted node_gflops)...\n");
  for (std::uint64_t seed = 1; seed <= golden::kProblems; ++seed) {
    const auto p = golden::make_problem(seed);
    const auto solution = numashare::model::solve(p.machine, p.apps, p.allocation, p.options);
    std::printf("%s\n", golden::format_line(seed, solution).c_str());
  }
  return 0;
}
