// Datablock migration under fault injection (docs/INJECT.md).
//
// Two sites inside DatablockRegistry::migrate_toward:
//  * datablock.migrate.abort — the planner stops before the next move, as
//    if the process were preempted mid-tick. Accounting must stay exact:
//    whatever partial progress happened is fully booked, nothing is
//    half-charged.
//  * datablock.migrate.die — _exit(49) immediately *after* a move_to
//    completed, the harshest spot: the block moved, the report was never
//    returned. A fork-based test proves the crash never corrupts the
//    surviving daemon's books (the registry is process-local, so the only
//    cross-process surface is the exit code and the daemon's continued
//    health — both asserted).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <vector>

#include "agent/policies.hpp"
#include "common/fault.hpp"
#include "daemon/daemon.hpp"
#include "runtime/datablock.hpp"
#include "topology/machine.hpp"

namespace numashare::rt {
namespace {

std::uint64_t resident_total(const DatablockRegistry& registry) {
  std::uint64_t total = 0;
  for (topo::NodeId n = 0; n < registry.node_count(); ++n) {
    total += registry.bytes_on_node(n);
  }
  return total;
}

class DatablockInject : public ::testing::Test {
 protected:
  void SetUp() override { inject::clear_plan(); }
  void TearDown() override { inject::clear_plan(); }
};

// Abort before the first move: a wholly-skipped tick books nothing.
TEST_F(DatablockInject, AbortBeforeFirstMoveBooksNothing) {
  DatablockRegistry registry(2);
  std::vector<DatablockPtr> blocks;
  for (int i = 0; i < 4; ++i) blocks.push_back(registry.create(1024, 0));

  ASSERT_TRUE(inject::install_spec("datablock.migrate.abort"));
  const auto report = registry.migrate_toward({0, 4}, 1u << 20);
  EXPECT_EQ(inject::fires("datablock.migrate.abort"), 1u);
  EXPECT_EQ(report.blocks_moved, 0u);
  EXPECT_EQ(report.bytes_moved, 0u);
  EXPECT_EQ(registry.bytes_on_node(0), 4u * 1024u);
  EXPECT_EQ(resident_total(registry), 4u * 1024u);
}

// Abort mid-tick: the moves that happened are fully booked, the rest are
// untouched — never a half-charged block.
TEST_F(DatablockInject, AbortMidTickKeepsAccountingExact) {
  DatablockRegistry registry(2);
  std::vector<DatablockPtr> blocks;
  for (int i = 0; i < 6; ++i) blocks.push_back(registry.create(1024, 0));

  // The abort site is checked once per planner iteration; skip the first
  // two checks so exactly two blocks move before the tick dies.
  ASSERT_TRUE(inject::install_spec("datablock.migrate.abort@after=2"));
  const auto report = registry.migrate_toward({0, 6}, 1u << 20);
  EXPECT_EQ(report.blocks_moved, 2u);
  EXPECT_EQ(report.bytes_moved, 2u * 1024u);
  EXPECT_EQ(registry.bytes_on_node(1), 2u * 1024u);
  EXPECT_EQ(resident_total(registry), 6u * 1024u);

  // The aborted tick left real imbalance; a clean follow-up tick finishes
  // the job — partial progress is resumable, not wedged.
  inject::clear_plan();
  const auto resume = registry.migrate_toward({0, 6}, 1u << 20);
  EXPECT_EQ(report.blocks_moved + resume.blocks_moved, 6u);
  EXPECT_EQ(registry.bytes_on_node(0), 0u);
  EXPECT_EQ(resident_total(registry), 6u * 1024u);
}

// Crash (in a fork) immediately after a move completes: exit code 49, and
// the parent — standing in for the daemon — keeps ticking unharmed.
TEST_F(DatablockInject, DieMidMigrationNeverWedgesTheDaemon) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0, 5.0);
  nsd::DaemonOptions options;
  options.registry_name = "/ns-dbdie-" + std::to_string(::getpid());
  nsd::Daemon daemon(machine, std::make_unique<agent::ModelGuidedPolicy>(), options);
  ASSERT_TRUE(daemon.init());

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    inject::clear_plan();
    if (!inject::install_spec("datablock.migrate.die")) _exit(99);
    DatablockRegistry registry(2);
    auto a = registry.create(2048, 0);
    auto b = registry.create(2048, 0);
    registry.migrate_toward({0, 2}, 1u << 20);  // dies after the first move
    _exit(98);                                  // unreachable
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 49);  // the datablock.migrate.die default

  // The daemon never shared the dead child's registry: its own loop still
  // runs and its books are untouched by the crash.
  double now = 0.0;
  for (int i = 0; i < 10; ++i) daemon.tick(now += 0.01);
  EXPECT_EQ(daemon.client_count(), 0u);
}

// Exit-code override via the plan grammar, same as every other *.die site.
TEST_F(DatablockInject, DieExitCodeOverridable) {
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    inject::clear_plan();
    if (!inject::install_spec("datablock.migrate.die@exit=61")) _exit(99);
    DatablockRegistry registry(2);
    auto a = registry.create(1024, 0);
    registry.migrate_toward({0, 1}, 1u << 20);
    _exit(98);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 61);
}

}  // namespace
}  // namespace numashare::rt
