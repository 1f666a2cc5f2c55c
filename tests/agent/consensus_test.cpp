#include "agent/consensus.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "runtime/runtime.hpp"
#include "topology/presets.hpp"

namespace numashare::agent {
namespace {

using namespace std::chrono_literals;

template <typename F>
bool eventually(F predicate) {
  for (int i = 0; i < 400; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return predicate();
}

Proposal wants(std::uint32_t app, std::vector<std::uint32_t> desired_per_node) {
  Proposal p;
  p.app = app;
  p.desired_per_node = std::move(desired_per_node);
  return p;
}

TEST(Consensus, FairProposalsFillMachineEvenly) {
  const auto machine = topo::paper_model_machine();  // 4x8
  std::vector<Proposal> proposals;
  for (std::uint32_t a = 0; a < 4; ++a) proposals.push_back(fair_proposal(machine, a, 4));
  const auto allocation = arbitrate(machine, proposals);
  for (std::uint32_t a = 0; a < 4; ++a) {
    for (topo::NodeId n = 0; n < 4; ++n) EXPECT_EQ(allocation.threads(a, n), 2u);
  }
  EXPECT_TRUE(allocation.validate(machine));
}

TEST(Consensus, DeterministicAcrossParticipants) {
  // Each participant computes arbitrate() independently; all must agree.
  const auto machine = topo::paper_model_machine();
  std::vector<Proposal> proposals;
  for (std::uint32_t a = 0; a < 4; ++a) proposals.push_back(fair_proposal(machine, a, 4));
  const auto first = arbitrate(machine, proposals);
  for (int participant = 0; participant < 4; ++participant) {
    EXPECT_TRUE(arbitrate(machine, proposals) == first);
  }
}

TEST(Consensus, SymmetryBreaking) {
  // Everyone asks for one whole node (8 threads on every node would be
  // fine). They must NOT all land on node 0 — the paper's explicit worry.
  const auto machine = topo::paper_model_machine();
  std::vector<Proposal> proposals;
  for (std::uint32_t a = 0; a < 4; ++a) {
    Proposal p;
    p.app = a;
    p.desired_per_node.assign(4, 8);  // wants everything, anywhere
    proposals.push_back(std::move(p));
  }
  const auto allocation = arbitrate(machine, proposals);
  EXPECT_TRUE(allocation.validate(machine));
  // Full machine handed out...
  EXPECT_EQ(allocation.total(), 32u);
  // ...and each app's first-choice region differs: every app gets cores on
  // its own starting node.
  for (std::uint32_t a = 0; a < 4; ++a) {
    EXPECT_GT(allocation.threads(a, a), 0u) << "app " << a;
  }
}

TEST(Consensus, RespectsCapacityUnderOverAsk) {
  const auto machine = topo::Machine::symmetric(2, 3, 1.0, 10.0);
  std::vector<Proposal> proposals;
  for (std::uint32_t a = 0; a < 3; ++a) {
    Proposal p;
    p.app = a;
    p.desired_per_node.assign(2, 99);
    proposals.push_back(std::move(p));
  }
  const auto allocation = arbitrate(machine, proposals);
  EXPECT_TRUE(allocation.validate(machine));
  EXPECT_EQ(allocation.total(), 6u);
  // Round-robin grants: everyone ends up with 2 of the 6 cores.
  for (std::uint32_t a = 0; a < 3; ++a) EXPECT_EQ(allocation.app_total(a), 2u);
}

TEST(Consensus, PartialDesiresHonored) {
  const auto machine = topo::Machine::symmetric(2, 4, 1.0, 10.0);
  Proposal wants_node1;
  wants_node1.app = 0;
  wants_node1.desired_per_node = {0, 3};
  Proposal wants_anything;
  wants_anything.app = 1;
  wants_anything.desired_per_node = {4, 4};
  const auto allocation = arbitrate(machine, {wants_node1, wants_anything});
  EXPECT_EQ(allocation.threads(0, 0), 0u);  // never granted what it didn't ask
  // Node 1 is contended and splits round-robin fair (2 each); app 1 also
  // soaks up all of node 0, which app 0 declined.
  EXPECT_EQ(allocation.threads(0, 1), 2u);
  EXPECT_EQ(allocation.threads(1, 1), 2u);
  EXPECT_EQ(allocation.app_total(1), 6u);
  EXPECT_EQ(allocation.total(), 8u);
  EXPECT_TRUE(allocation.validate(machine));
}

TEST(Consensus, SingleParticipantGetsItsAsk) {
  const auto machine = topo::Machine::symmetric(2, 4, 1.0, 10.0);
  Proposal p;
  p.app = 0;
  p.desired_per_node = {2, 1};
  const auto allocation = arbitrate(machine, {p});
  EXPECT_EQ(allocation.threads(0, 0), 2u);
  EXPECT_EQ(allocation.threads(0, 1), 1u);
}

TEST(ConsensusDeath, UnorderedProposalsRejected) {
  const auto machine = topo::Machine::symmetric(2, 4, 1.0, 10.0);
  Proposal p;
  p.app = 1;  // not dense
  p.desired_per_node = {1, 1};
  EXPECT_DEATH(arbitrate(machine, {p}), "dense");
}

TEST(ConsensusDeath, WrongNodeCountRejected) {
  const auto machine = topo::Machine::symmetric(2, 4, 1.0, 10.0);
  Proposal p;
  p.app = 0;
  p.desired_per_node = {1};
  EXPECT_DEATH(arbitrate(machine, {p}), "every node");
}

// The agentless flow with live runtimes: every participant evaluates the
// same arbitrate() and applies its own row with option-3 controls.
TEST(ConsensusGroup, TwoRuntimesSplitTheMachine) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  rt::Runtime a(machine, {.name = "cg-a"});
  rt::Runtime b(machine, {.name = "cg-b"});
  const auto allocation = arbitrate(machine, {wants(0, {2, 2}), wants(1, {2, 2})});
  EXPECT_TRUE(allocation.validate(machine));
  EXPECT_EQ(allocation.total(), 4u);
  EXPECT_EQ(allocation.app_total(0), 2u);
  EXPECT_EQ(allocation.app_total(1), 2u);
  a.set_node_thread_targets({allocation.threads(0, 0), allocation.threads(0, 1)});
  b.set_node_thread_targets({allocation.threads(1, 0), allocation.threads(1, 1)});
  // Both runtimes end up under option-3 control at their agreed rows.
  EXPECT_TRUE(eventually([&] {
    const auto pa = a.running_per_node();
    const auto pb = b.running_per_node();
    for (topo::NodeId n = 0; n < 2; ++n) {
      if (pa[n] != allocation.threads(0, n)) return false;
      if (pb[n] != allocation.threads(1, n)) return false;
    }
    return true;
  }));
  EXPECT_EQ(a.control_mode(), rt::ControlMode::kPerNode);
}

TEST(ConsensusGroup, AiDerivedProposals) {
  // Memory-bound app asks for few threads per node (its bandwidth saturates
  // quickly); compute-bound asks for everything.
  const auto machine = topo::Machine::symmetric(2, 8, 10.0, 32.0, 10.0);
  const auto mem = ai_proposal(machine, 0, 0.5);       // ceil(32/20) = 2 per node
  const auto compute = ai_proposal(machine, 1, 10.0);  // min(8, ceil(32/1)) = 8 per node
  EXPECT_EQ(mem.desired_per_node, (std::vector<std::uint32_t>{2, 2}));
  EXPECT_EQ(compute.desired_per_node, (std::vector<std::uint32_t>{8, 8}));
  const auto allocation = arbitrate(machine, {mem, compute});
  EXPECT_EQ(allocation.threads(0, 0), 2u);
  EXPECT_EQ(allocation.threads(1, 0), 6u);  // the rest of the node
  EXPECT_TRUE(allocation.validate(machine));
}

TEST(ConsensusGroup, UpdateProposalShiftsAgreement) {
  const auto machine = topo::Machine::symmetric(1, 4, 1.0, 10.0);
  std::vector<Proposal> proposals{wants(0, {4}), wants(1, {4})};
  EXPECT_EQ(arbitrate(machine, proposals).app_total(0), 2u);
  proposals[0].desired_per_node = {1};  // phase change: a needs only one thread
  const auto after = arbitrate(machine, proposals);
  EXPECT_EQ(after.app_total(0), 1u);
  EXPECT_EQ(after.app_total(1), 3u);  // b soaks up the released core
}

TEST(ConsensusGroup, EveryParticipantComputesSameAgreement) {
  const auto machine = topo::paper_model_machine();
  const std::vector<Proposal> proposals{wants(0, {8, 8, 8, 8}), wants(1, {8, 8, 8, 8})};
  const auto first = arbitrate(machine, proposals);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(arbitrate(machine, proposals) == first);
}

TEST(ConsensusGroupDeath, BadInputsRejected) {
  const auto machine = topo::Machine::symmetric(2, 2, 1.0, 10.0);
  EXPECT_DEATH(arbitrate(machine, {}), "at least one proposal");
  EXPECT_DEATH(arbitrate(machine, {wants(0, {1})}), "every node");
  EXPECT_DEATH(ai_proposal(machine, 0, 0.0), "positive");
}

}  // namespace
}  // namespace numashare::agent
